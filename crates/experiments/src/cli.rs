//! One command-line reader for every binary of the workspace.
//!
//! Each binary's command line is declared once, below, as a
//! [`Command`]: its positional slots and its `(name, FlagValue)` rows.
//! The ten experiment binaries list the shared observability rows
//! after their own. [`Command::parse`] reads the process's arguments
//! against the declaration. It either returns the parsed [`Args`], from
//! which every later read comes, or exits with status 2, printing the
//! problem and a usage line generated from the declaration on stderr
//! and nothing on stdout.
//!
//! One rule holds for every binary:
//!
//! * outside a flag's value, an argument that starts with `--` is a
//!   flag, and a flag the binary does not declare is rejected;
//! * a value-taking flag's value is the next argument. It is rejected
//!   when it is missing, when it is a declared flag name or when it
//!   fails its kind's check;
//! * any other argument fills the next free positional slot, wherever
//!   it stands. It is rejected when no slot is free, and so is a
//!   command line that leaves a slot empty;
//! * `--serve-hold` and `--phase-metrics` are rejected without the flag
//!   they act through;
//! * an argument that is not UTF-8 is rejected, printed lossily.

use std::ffi::OsString;
use std::fmt::{Debug, Display};
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::time::Duration;

/// What follows a flag on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlagValue {
    /// Nothing: the flag is a switch.
    Switch,
    /// Any text, such as a path or a name, shown in the usage line as
    /// the placeholder it carries.
    Text(&'static str),
    /// A whole number, such as a worker count or a seed.
    Count,
    /// A whole number of at least 1, such as a seed count.
    NonZeroCount,
    /// A TCP port.
    Port,
    /// A duration in seconds: finite and not negative.
    Seconds,
    /// A finite number above 0, such as a threshold or a rate.
    PositiveNumber,
}

impl FlagValue {
    /// The placeholder the usage line shows for the value.
    fn metavar(self) -> &'static str {
        match self {
            FlagValue::Switch => "",
            FlagValue::Text(metavar) => metavar,
            FlagValue::Count | FlagValue::NonZeroCount => "N",
            FlagValue::Port => "PORT",
            FlagValue::Seconds => "SECS",
            FlagValue::PositiveNumber => "X",
        }
    }

    /// What this kind takes, if `value` is not one of it.
    fn rejects(self, value: &str) -> Option<&'static str> {
        let (ok, takes) = match self {
            FlagValue::Switch | FlagValue::Text(_) => (true, ""),
            FlagValue::Count => (value.parse::<usize>().is_ok(), "a whole number"),
            FlagValue::NonZeroCount => (
                value.parse::<NonZeroUsize>().is_ok(),
                "a whole number of at least 1",
            ),
            FlagValue::Port => (value.parse::<u16>().is_ok(), "a port number (0-65535)"),
            FlagValue::Seconds => (
                value
                    .parse::<f64>()
                    .is_ok_and(|secs| Duration::try_from_secs_f64(secs).is_ok()),
                "a number of seconds",
            ),
            FlagValue::PositiveNumber => (
                value.parse::<f64>().is_ok_and(|x| x.is_finite() && x > 0.0),
                "a finite number above 0",
            ),
        };
        (!ok).then_some(takes)
    }
}

/// A flag's name and what follows it.
type Flag = (&'static str, FlagValue);

/// One binary's command line: its name, its positional slots and its
/// flags, in the order the usage line shows them.
#[derive(Debug)]
pub struct Command {
    name: &'static str,
    /// Each slot's name, shown as `<name>` in the usage line and in the
    /// error (`no trace path given`) when it is left empty.
    positionals: &'static [&'static str],
    own: &'static [Flag],
    /// [`OBS_FLAGS`] for an experiment binary, else nothing.
    shared: &'static [Flag],
}

/// Shared flags that act only beside another: each with the flags, any
/// one of which it needs.
const PARTNERED_FLAGS: &[(&str, &[&str])] = &[
    // The hold keeps the live exporter up; there is none without it.
    ("--serve-hold", &["--serve-metrics"]),
    // The phase gauges go into the registry, which only these create.
    ("--phase-metrics", &["--metrics", "--serve-metrics"]),
];

impl Command {
    /// An experiment binary: its own flags, then [`OBS_FLAGS`].
    const fn experiment(name: &'static str, own: &'static [Flag]) -> Command {
        Command {
            name,
            positionals: &[],
            own,
            shared: OBS_FLAGS,
        }
    }

    /// A binary with only its own positionals and flags.
    const fn tool(
        name: &'static str,
        positionals: &'static [&'static str],
        own: &'static [Flag],
    ) -> Command {
        Command {
            name,
            positionals,
            own,
            shared: &[],
        }
    }

    fn flags(&self) -> impl Iterator<Item = Flag> + '_ {
        self.own.iter().chain(self.shared).copied()
    }

    fn flag(&self, arg: &str) -> Option<Flag> {
        self.flags().find(|&(name, _)| name == arg)
    }

    /// The usage line, generated from the declaration.
    fn usage(&self) -> String {
        let slots = self.positionals.iter().map(|slot| format!(" <{slot}>"));
        let flags = self.flags().map(|(name, kind)| match kind.metavar() {
            "" => format!(" [{name}]"),
            metavar => format!(" [{name} {metavar}]"),
        });
        let line: String = slots.chain(flags).collect();
        format!("usage: {}{line}", self.name)
    }

    /// Reads `args`, the arguments after the program name, against the
    /// declaration. The error names the argument at fault.
    pub(crate) fn read<I>(&self, args: I) -> Result<Args, String>
    where
        I: IntoIterator,
        I::Item: Into<OsString>,
    {
        let text = |arg: OsString| {
            arg.into_string()
                .map_err(|arg| format!("{:?} is not UTF-8", arg.to_string_lossy()))
        };
        let mut parsed = Args::default();
        let mut rest = args.into_iter().map(Into::into);
        while let Some(arg) = rest.next() {
            let arg = text(arg).map_err(|error| format!("argument {error}"))?;
            if !arg.starts_with("--") && parsed.positionals.len() < self.positionals.len() {
                parsed.positionals.push(arg);
                continue;
            }
            let Some((name, kind)) = self.flag(&arg) else {
                return Err(format!("unknown argument {arg}"));
            };
            if kind == FlagValue::Switch {
                parsed.flags.push((name, None));
                continue;
            }
            let value = text(rest.next().ok_or_else(|| format!("{name} needs a value"))?)
                .map_err(|error| format!("{name} needs a value, but {error}"))?;
            if self.flag(&value).is_some() {
                return Err(format!("{name} needs a value, not the flag {value}"));
            }
            if let Some(takes) = kind.rejects(&value) {
                return Err(format!("{name} needs {takes}, not {value:?}"));
            }
            parsed.flags.push((name, Some(value)));
        }
        if let Some(slot) = self.positionals.get(parsed.positionals.len()) {
            return Err(format!("no {slot} given"));
        }
        let given = |flag: &&str| parsed.flags.iter().any(|(name, _)| name == flag);
        for (flag, partners) in PARTNERED_FLAGS {
            if given(flag) && !partners.iter().any(given) {
                return Err(format!("{flag} needs {}", partners.join(" or ")));
            }
        }
        Ok(parsed)
    }

    /// Reads the process's arguments against the declaration, or exits
    /// as [`fail`](Command::fail) does, naming the argument at fault.
    pub fn parse(&self) -> Args {
        self.read(std::env::args_os().skip(1))
            .unwrap_or_else(|error| self.fail(&error))
    }

    /// Prints `error` and the usage line on stderr and exits with
    /// status 2.
    pub fn fail(&self, error: &str) -> ! {
        eprintln!("{}: {error}", self.name);
        eprintln!("{}", self.usage());
        std::process::exit(2)
    }

    /// The value in `result`; on an error, prints `<binary>: <what>
    /// failed: <error>` on stderr and exits with status 1. The command
    /// line was sound, but the work it asked for could not be done, such
    /// as binding a port that is in use or writing under a path that is
    /// not a directory.
    pub fn or_exit<T, E: Display>(&self, what: &str, result: Result<T, E>) -> T {
        result.unwrap_or_else(|error| {
            eprintln!("{}: {what} failed: {error}", self.name);
            std::process::exit(1)
        })
    }
}

/// A command line that passed its binary's declaration.
#[derive(Debug, Default)]
pub struct Args {
    /// The flags given, in order, each with its value if it takes one.
    flags: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Args {
    fn given<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = Option<&'a str>> + 'a {
        self.flags
            .iter()
            .filter(move |(name, _)| *name == flag)
            .map(|(_, value)| value.as_deref())
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given(flag).next().is_some()
    }

    /// Every value given to `flag`, in command-line order.
    pub fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.given(flag).flatten()
    }

    /// The first value given to `flag`, as `T`; `None` when the flag is
    /// absent. `T` must parse every value of the flag's kind.
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T>
    where
        T::Err: Debug,
    {
        self.values(flag)
            .next()
            .map(|value| value.parse().expect("the reader checked the value's kind"))
    }

    /// The argument in positional slot `slot`; every slot is filled.
    pub fn positional(&self, slot: usize) -> &str {
        &self.positionals[slot]
    }
}

/// The observability flags the ten experiment binaries share, read by
/// [`ObsContext::from_args`](crate::obs::ObsContext::from_args).
const OBS_FLAGS: &[Flag] = &[
    ("--trace", FlagValue::Text("PATH")),
    ("--metrics", FlagValue::Text("PATH")),
    ("--serve-metrics", FlagValue::Port),
    ("--serve-hold", FlagValue::Seconds),
    ("--phase-metrics", FlagValue::Switch),
];

/// `--quick`: the reduced-scale run.
const QUICK: Flag = ("--quick", FlagValue::Switch);

/// `--calibrated`: the execution-time model calibrated to the paper's
/// reported mean times.
const CALIBRATED: Flag = ("--calibrated", FlagValue::Switch);

/// `--jobs N`, the size of the replication worker pool (`0` means one
/// worker; absent, one per hardware thread). Only a binary that runs a
/// pool lists it, so any other rejects it.
const JOBS: Flag = ("--jobs", FlagValue::Count);

/// `table2`: Table 2, optionally with its spread across seeds.
pub static TABLE2: Command =
    Command::experiment("table2", &[QUICK, ("--seeds", FlagValue::NonZeroCount)]);
/// `table5`: Table 5 (correlated release failures).
pub static TABLE5: Command = Command::experiment("table5", &[QUICK, CALIBRATED, JOBS]);
/// `table6`: Table 6 (independent release failures).
pub static TABLE6: Command = Command::experiment("table6", &[QUICK, CALIBRATED, JOBS]);
/// `fig7`: Fig. 7 (Scenario 1 percentile curves).
pub static FIG7: Command = Command::experiment("fig7", &[QUICK]);
/// `fig8`: Fig. 8 (Scenario 2 percentile curves).
pub static FIG8: Command = Command::experiment("fig8", &[QUICK]);
/// `ablations`: the ablation studies.
pub static ABLATIONS: Command = Command::experiment("ablations", &[QUICK, JOBS]);
/// `capacity`: the server-capacity study.
pub static CAPACITY: Command = Command::experiment("capacity", &[QUICK, JOBS]);
/// `faultcampaign`: the fault-injection campaign.
pub static FAULTCAMPAIGN: Command = Command::experiment(
    "faultcampaign",
    &[QUICK, ("--plan", FlagValue::Text("NAME")), JOBS],
);
/// `fleetstudy`: the fleet recovery study.
pub static FLEETSTUDY: Command = Command::experiment(
    "fleetstudy",
    &[QUICK, ("--cell", FlagValue::Text("NAME")), JOBS],
);
/// `all`: every experiment, written under one directory.
pub static ALL: Command =
    Command::experiment("all", &[QUICK, ("--out", FlagValue::Text("DIR")), JOBS]);

/// `scalestudy`: the sharding scale study.
pub static SCALESTUDY: Command = Command::tool(
    "scalestudy",
    &[],
    &[
        QUICK,
        ("--demands", FlagValue::Count),
        ("--shards-list", FlagValue::Text("K,K,...")),
        ("--bench-out", FlagValue::Text("PATH")),
    ],
);

/// `wsu-analyze`: the offline trace analyzer.
pub static WSU_ANALYZE: Command = Command::tool(
    "wsu-analyze",
    &["trace path"],
    &[
        ("--window", FlagValue::PositiveNumber),
        ("--availability", FlagValue::Text("PATH")),
        ("--phases", FlagValue::Text("PATH")),
    ],
);

/// `wsu-httpget`: one HTTP GET, body to stdout.
pub static WSU_HTTPGET: Command = Command::tool("wsu-httpget", &["host:port", "path"], &[]);

/// `wsu-serve`: the middleware as an HTTP service.
pub static WSU_SERVE: Command = Command::tool(
    "wsu-serve",
    &[],
    &[
        ("--addr", FlagValue::Text("HOST:PORT")),
        ("--workers", FlagValue::Count),
        (
            "--spec",
            FlagValue::Text("paper|deterministic|canary-fleet"),
        ),
        ("--sharded", FlagValue::Switch),
        ("--seed", FlagValue::Count),
        ("--duration", FlagValue::Seconds),
    ],
);

/// `wsu-loadgen`: the load generator for `wsu-serve`.
pub static WSU_LOADGEN: Command = Command::tool(
    "wsu-loadgen",
    &[],
    &[
        ("--addr", FlagValue::Text("HOST:PORT")),
        ("--connections", FlagValue::NonZeroCount),
        ("--requests", FlagValue::Count),
        ("--warmup", FlagValue::Count),
        ("--open-loop", FlagValue::PositiveNumber),
        ("--out", FlagValue::Text("PATH")),
        ("--expect-server-match", FlagValue::Switch),
    ],
);

/// `perf_report`: the experiment wall-time report.
pub static PERF_REPORT: Command = Command::tool(
    "perf_report",
    &[],
    &[
        ("--out", FlagValue::Text("DIR")),
        ("--samples", FlagValue::Count),
        ("--full", FlagValue::Switch),
    ],
);

/// `bench_compare`: the benchmark regression guard.
pub static BENCH_COMPARE: Command = Command::tool(
    "bench_compare",
    &["baseline.json", "fresh.json"],
    &[
        ("--threshold", FlagValue::PositiveNumber),
        ("--min-ns", FlagValue::Count),
    ],
);

#[cfg(test)]
mod tests {
    use super::*;

    /// Every binary's declaration.
    const COMMANDS: [&Command; 17] = [
        &TABLE2,
        &TABLE5,
        &TABLE6,
        &FIG7,
        &FIG8,
        &ABLATIONS,
        &CAPACITY,
        &FAULTCAMPAIGN,
        &FLEETSTUDY,
        &ALL,
        &SCALESTUDY,
        &WSU_ANALYZE,
        &WSU_HTTPGET,
        &WSU_SERVE,
        &WSU_LOADGEN,
        &PERF_REPORT,
        &BENCH_COMPARE,
    ];

    /// A binary with both a `--seeds` and a `--jobs` flag.
    static SEEDS_AND_JOBS: Command =
        Command::experiment("test", &[QUICK, ("--seeds", FlagValue::NonZeroCount), JOBS]);

    fn error(command: &Command, line: &str) -> Option<String> {
        command.read(line.split_whitespace()).err()
    }

    #[test]
    fn every_ci_invocation_passes_the_flag_check() {
        // Every command line that CI, README.md and EXPERIMENTS.md run.
        let lines: &[(&Command, &[&str])] = &[
            (&TABLE2, &["", "--quick", "--seeds 10"]),
            (
                &TABLE2,
                &["--seeds 10 --serve-hold 2.5 --serve-metrics 0"],
            ),
            (
                &TABLE5,
                &[
                    "",
                    "--quick --trace obs-out/table5.jsonl --metrics obs-out/table5.prom",
                    "--quick --serve-metrics 9184 --serve-hold 60",
                    "--quick --jobs 1 --trace bench-out/t5-j1.jsonl --metrics bench-out/t5-j1.prom",
                    "--quick --jobs 4 --trace bench-out/t5-j4.jsonl --metrics bench-out/t5-j4.prom",
                    "--trace out/table5.jsonl --metrics out/table5.prom \
                     --serve-metrics 9184 --serve-hold 60",
                    "--calibrated --phase-metrics --metrics obs-out/t5.prom --jobs 2",
                ],
            ),
            (&TABLE6, &["", "--calibrated"]),
            (&FIG7, &["", "--quick"]),
            (&FIG8, &["", "--quick"]),
            (&ABLATIONS, &["", "--quick"]),
            (&CAPACITY, &["", "--quick --jobs 1", "--quick --jobs 4"]),
            (
                &FAULTCAMPAIGN,
                &[
                    "",
                    "--quick --jobs 1 --trace bench-out/fc-j1.jsonl --metrics bench-out/fc-j1.prom",
                    "--quick --jobs 4 --trace bench-out/fc-j4.jsonl --metrics bench-out/fc-j4.prom",
                    "--plan omission --plan crash",
                    "--quick --plan omission --jobs 2 --trace t.jsonl --metrics m.prom",
                    "--serve-metrics 9184 --serve-hold 300",
                ],
            ),
            (
                &FLEETSTUDY,
                &[
                    "",
                    "--quick --jobs 1 --trace bench-out/fs-j1.jsonl --metrics bench-out/fs-j1.prom",
                    "--quick --jobs 4 --trace bench-out/fs-j4.jsonl --metrics bench-out/fs-j4.prom",
                    "--quick --cell fleet3-substitute --jobs 2 --trace t.jsonl",
                ],
            ),
            (&ALL, &["", "--quick --out /tmp/out", "--out results"]),
            (
                &SCALESTUDY,
                &[
                    "",
                    "--quick",
                    "--bench-out bench-out/BENCH_scale.json",
                    "--demands 1000000 --shards-list 1,2,4,8",
                ],
            ),
            (
                &WSU_ANALYZE,
                &[
                    "obs-out/table5.jsonl --window 120 \
                     --availability obs-out/table5-availability.tsv \
                     --phases obs-out/table5-phases.tsv",
                    "--window 120 obs-out/table5.jsonl",
                    "out/table5.jsonl --window 120 --availability avail.tsv --phases phases.tsv",
                ],
            ),
            (
                &WSU_HTTPGET,
                &[
                    "127.0.0.1:9184 /metrics",
                    "127.0.0.1:9184 /health",
                    "127.0.0.1:9184 /snapshot",
                    "127.0.0.1:9190 /health",
                ],
            ),
            (
                &WSU_SERVE,
                &[
                    "--addr 127.0.0.1:9190 --workers 2 --spec deterministic",
                    "--addr 127.0.0.1:9100 --workers 4 --spec paper",
                ],
            ),
            (
                &WSU_LOADGEN,
                &[
                    "--addr 127.0.0.1:9190 --connections 2 --requests 2000 --warmup 200 \
                     --out bench-out/BENCH_http.json --expect-server-match",
                    "--addr 127.0.0.1:9100 --connections 4 --requests 5000 \
                     --out results/BENCH_http.json --expect-server-match",
                ],
            ),
            (
                &PERF_REPORT,
                &["--out bench-out --samples 3", "--out results", "--out results --samples 3"],
            ),
            (
                &BENCH_COMPARE,
                &[
                    "results/BENCH_experiments.json bench-out/BENCH_experiments.json",
                    "results/BENCH_scale.json bench-out/BENCH_scale.json --threshold 3 --min-ns 1000",
                    "results/BENCH_http.json fresh/BENCH_http.json --threshold 3 --min-ns 1000",
                ],
            ),
        ];
        for (command, lines) in lines {
            for line in *lines {
                assert_eq!(error(command, line), None, "{} {line}", command.name);
            }
        }
        for command in COMMANDS {
            assert!(
                lines.iter().any(|(c, _)| c.name == command.name),
                "no documented command line for {}",
                command.name
            );
            let names: Vec<&str> = command.flags().map(|(name, _)| name).collect();
            for (i, name) in names.iter().enumerate() {
                assert!(name.starts_with("--"), "{} {name}", command.name);
                assert!(
                    !names[..i].contains(name),
                    "{} declares {name} twice",
                    command.name
                );
            }
        }
    }

    #[test]
    fn usage_lines_come_from_the_table() {
        assert_eq!(
            TABLE2.usage(),
            "usage: table2 [--quick] [--seeds N] [--trace PATH] [--metrics PATH] \
             [--serve-metrics PORT] [--serve-hold SECS] [--phase-metrics]"
        );
        assert_eq!(
            WSU_ANALYZE.usage(),
            "usage: wsu-analyze <trace path> [--window X] [--availability PATH] [--phases PATH]"
        );
        assert_eq!(
            BENCH_COMPARE.usage(),
            "usage: bench_compare <baseline.json> <fresh.json> [--threshold X] [--min-ns N]"
        );
        assert_eq!(WSU_HTTPGET.usage(), "usage: wsu-httpget <host:port> <path>");
        assert_eq!(
            SCALESTUDY.usage(),
            "usage: scalestudy [--quick] [--demands N] [--shards-list K,K,...] [--bench-out PATH]"
        );
    }

    #[test]
    fn removed_and_misspelt_flags_are_rejected() {
        let unknown = |arg: &str| Some(format!("unknown argument {arg}"));
        let shards = "--quick --shards 2";
        assert_eq!(error(&TABLE5, shards), unknown("--shards"));
        assert_eq!(error(&FAULTCAMPAIGN, shards), unknown("--shards"));
        assert_eq!(error(&FLEETSTUDY, shards), unknown("--shards"));
        assert_eq!(error(&TABLE5, "--qiuck"), unknown("--qiuck"));
        // One binary's own flag is unknown to another.
        assert_eq!(error(&TABLE5, "--cell restart"), unknown("--cell"));
        // A binary without a worker pool has no --jobs to honour.
        assert_eq!(error(&TABLE2, "--quick --jobs 2"), unknown("--jobs"));
        for command in COMMANDS {
            let slots = command.positionals.iter().map(|_| "x");
            let error = command.read(slots.chain(["--bogus"])).err();
            assert_eq!(error, unknown("--bogus"), "{}", command.name);
        }
    }

    #[test]
    fn flag_values_are_never_read_as_flags() {
        // Each value follows a flag that takes one, so it is skipped
        // even when it looks like a flag itself.
        let args = "--trace --shards --metrics --qiuck --jobs 3";
        assert_eq!(error(&TABLE5, args), None);
        assert_eq!(error(&FAULTCAMPAIGN, "--plan --calibrated"), None);
        // A value-less flag does not swallow the argument after it.
        assert_eq!(
            error(&TABLE5, "--quick --shards").as_deref(),
            Some("unknown argument --shards")
        );
    }

    #[test]
    fn bad_and_missing_values_are_rejected() {
        for (command, line, want) in [
            (
                &SEEDS_AND_JOBS,
                "--quick --seeds abc",
                "--seeds needs a whole number of at least 1, not \"abc\"",
            ),
            (
                &SEEDS_AND_JOBS,
                "--seeds -1",
                "--seeds needs a whole number of at least 1, not \"-1\"",
            ),
            (
                &SEEDS_AND_JOBS,
                "--quick --seeds 0",
                "--seeds needs a whole number of at least 1, not \"0\"",
            ),
            (
                &SEEDS_AND_JOBS,
                "--quick --jobs abc",
                "--jobs needs a whole number, not \"abc\"",
            ),
            (
                &SEEDS_AND_JOBS,
                "--jobs 2.5",
                "--jobs needs a whole number, not \"2.5\"",
            ),
            (
                &SEEDS_AND_JOBS,
                "--serve-hold xyz",
                "--serve-hold needs a number of seconds, not \"xyz\"",
            ),
            (
                &SEEDS_AND_JOBS,
                "--serve-hold inf",
                "--serve-hold needs a number of seconds, not \"inf\"",
            ),
            (
                &SEEDS_AND_JOBS,
                "--serve-hold -1",
                "--serve-hold needs a number of seconds, not \"-1\"",
            ),
            (
                &SEEDS_AND_JOBS,
                "--serve-metrics 70000",
                "--serve-metrics needs a port number (0-65535), not \"70000\"",
            ),
            (&SEEDS_AND_JOBS, "--quick --jobs", "--jobs needs a value"),
            (&SEEDS_AND_JOBS, "--trace", "--trace needs a value"),
            (
                &SEEDS_AND_JOBS,
                "--trace --quick",
                "--trace needs a value, not the flag --quick",
            ),
            (
                &SEEDS_AND_JOBS,
                "--metrics --trace t.jsonl",
                "--metrics needs a value, not the flag --trace",
            ),
            (
                &SEEDS_AND_JOBS,
                "--jobs --seeds 3",
                "--jobs needs a value, not the flag --seeds",
            ),
            (
                &SCALESTUDY,
                "--bench-out --quick",
                "--bench-out needs a value, not the flag --quick",
            ),
            (
                &WSU_LOADGEN,
                "--addr h:1 --connections 0",
                "--connections needs a whole number of at least 1, not \"0\"",
            ),
            (
                &WSU_SERVE,
                "--duration 1e300",
                "--duration needs a number of seconds, not \"1e300\"",
            ),
            (
                &WSU_SERVE,
                "--duration nan",
                "--duration needs a number of seconds, not \"nan\"",
            ),
            (
                &BENCH_COMPARE,
                "a b --threshold nan",
                "--threshold needs a finite number above 0, not \"nan\"",
            ),
            (
                &BENCH_COMPARE,
                "a b --threshold 0",
                "--threshold needs a finite number above 0, not \"0\"",
            ),
            (
                &WSU_ANALYZE,
                "t.jsonl --window -inf",
                "--window needs a finite number above 0, not \"-inf\"",
            ),
            (
                &PERF_REPORT,
                "--samples abc",
                "--samples needs a whole number, not \"abc\"",
            ),
            (&PERF_REPORT, "--out", "--out needs a value"),
            (&PERF_REPORT, "--ful", "unknown argument --ful"),
        ] {
            assert_eq!(error(command, line).as_deref(), Some(want), "{line}");
        }
    }

    #[test]
    fn positionals_fill_their_slots_wherever_they_stand() {
        for line in ["t.jsonl --window 120", "--window 120 t.jsonl"] {
            let args = WSU_ANALYZE.read(line.split_whitespace()).expect(line);
            assert_eq!(args.positional(0), "t.jsonl");
            assert_eq!(args.value::<f64>("--window"), Some(120.0));
        }
        for (command, line, want) in [
            (&WSU_ANALYZE, "--window 120", "no trace path given"),
            (
                &WSU_ANALYZE,
                "t.jsonl other.jsonl",
                "unknown argument other.jsonl",
            ),
            (&WSU_HTTPGET, "127.0.0.1:9184", "no path given"),
            (&WSU_HTTPGET, "h:1 /metrics extra", "unknown argument extra"),
            (&BENCH_COMPARE, "--threshold 3 a", "no fresh.json given"),
            (&TABLE5, "quick", "unknown argument quick"),
        ] {
            assert_eq!(error(command, line).as_deref(), Some(want), "{line}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn arguments_that_are_not_utf8_are_rejected_lossily() {
        use std::ffi::OsStr;
        use std::os::unix::ffi::OsStrExt;
        let bad = OsStr::from_bytes(b"\xff.jsonl");
        let error = TABLE5.read([OsStr::new("--trace"), bad]).unwrap_err();
        assert_eq!(
            error,
            "--trace needs a value, but \"\u{fffd}.jsonl\" is not UTF-8"
        );
        let error = WSU_HTTPGET
            .read([OsStr::new("h:1"), OsStr::from_bytes(b"/\xff")])
            .unwrap_err();
        assert_eq!(error, "argument \"/\u{fffd}\" is not UTF-8");
    }

    #[test]
    fn partnered_flags_need_their_partner() {
        for (line, want) in [
            (
                "--quick --serve-hold 5",
                Some("--serve-hold needs --serve-metrics"),
            ),
            (
                "--quick --phase-metrics",
                Some("--phase-metrics needs --metrics or --serve-metrics"),
            ),
            (
                "--phase-metrics --serve-hold 5 --metrics m.prom",
                Some("--serve-hold needs --serve-metrics"),
            ),
            ("--serve-hold 5 --serve-metrics 0", None),
            ("--phase-metrics --metrics m.prom", None),
            ("--phase-metrics --serve-metrics 0", None),
        ] {
            assert_eq!(error(&TABLE5, line).as_deref(), want, "{line}");
        }
    }

    #[test]
    fn flag_value_reads_the_first_occurrence() {
        let line = "--quick --seeds 10 --jobs 2 --seeds 3";
        let args = SEEDS_AND_JOBS.read(line.split_whitespace()).unwrap();
        assert_eq!(args.value::<usize>("--seeds"), Some(10));
        assert_eq!(args.value::<usize>("--jobs"), Some(2));
        assert_eq!(args.value::<String>("--trace"), None);
        assert!(args.has("--quick"));
        assert!(!args.has("--phase-metrics"));
        let line = "--plan omission --quick --plan crash";
        let args = FAULTCAMPAIGN.read(line.split_whitespace()).unwrap();
        assert_eq!(
            args.values("--plan").collect::<Vec<_>>(),
            ["omission", "crash"]
        );
    }
}
