//! `--trace` / `--metrics` wiring shared by the experiment binaries.
//!
//! Every binary accepts the same optional flags:
//!
//! * `--trace <path>` — write the run's event trace there as JSONL;
//! * `--metrics <path>` — write a Prometheus-text metrics snapshot;
//! * `--serve-metrics <port>` — serve the live snapshot over HTTP on
//!   `127.0.0.1:<port>` (`/metrics`, `/health`, `/snapshot`);
//! * `--serve-hold <secs>` — after the tables are printed, keep the
//!   `--serve-metrics` server up this long before exiting (for scrapes);
//! * `--phase-metrics` — include the wall-clock `wsu_phase_seconds`
//!   gauges in the `--metrics` or `--serve-metrics` snapshot. Off by
//!   default: wall-clock values differ run to run, so the default
//!   snapshot is deterministic.
//!
//! `table2`, `table5`, `table6`, `fig7`, `fig8`, `ablations`,
//! `capacity`, `faultcampaign`, `fleetstudy` and `all` also pass their
//! own flags to [`exit_on_unknown_flag`], which rejects any other
//! argument, a value that does not parse as its flag's [`FlagValue`], a
//! value that is itself a flag name, a value-taking flag given last,
//! `--serve-hold` without `--serve-metrics` and `--phase-metrics`
//! without `--metrics` or `--serve-metrics`, so a misspelt or removed
//! flag, a bad number or a flag that would do nothing stops the run
//! instead of being ignored.
//!
//! With no flag nothing is attached anywhere: the middleware keeps
//! its [`wsu_obs::NullRecorder`], the monitor records no metrics, and
//! stdout stays byte-identical to the unobserved run. Diagnostics about
//! the written files go to stderr so they never disturb the tables.

use std::fs;
use std::io;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use wsu_obs::{
    MetricsExporter, PhaseTimings, Recorder, SharedRecorder, SharedRegistry, TraceEvent,
};
use wsu_simcore::par::Jobs;

use crate::bayes_study::StudyRun;
use crate::midsim::ObsSinks;

/// The observability flags parsed from a binary's command line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsOptions {
    /// Destination for the JSONL event trace, if requested.
    pub trace: Option<PathBuf>,
    /// Destination for the metrics snapshot, if requested.
    pub metrics: Option<PathBuf>,
    /// Loopback port for the live metrics server, if requested.
    pub serve: Option<u16>,
    /// Seconds to keep the metrics server up after the run.
    pub serve_hold: Option<f64>,
    /// Whether the wall-clock `wsu_phase_seconds` gauges are exported.
    pub phase_metrics: bool,
}

impl ObsOptions {
    /// Scans `args` for the observability flags, each read with
    /// [`flag_value`].
    ///
    /// Unrelated arguments are left alone, so binaries keep their own
    /// flag handling untouched.
    pub fn parse(args: &[String]) -> ObsOptions {
        ObsOptions {
            trace: flag_value(args, "--trace"),
            metrics: flag_value(args, "--metrics"),
            serve: flag_value(args, "--serve-metrics"),
            serve_hold: flag_value(args, "--serve-hold"),
            phase_metrics: args.iter().any(|a| a == "--phase-metrics"),
        }
    }

    /// Parses the current process's arguments.
    pub fn from_env() -> ObsOptions {
        let args: Vec<String> = std::env::args().skip(1).collect();
        ObsOptions::parse(&args)
    }
}

/// The value after the first `flag` in `args`, parsed as `T`; `None`
/// when the flag is absent. A binary calls [`exit_on_unknown_flag`]
/// first, which rejects a value that does not parse as the flag's
/// [`FlagValue`], so there `None` means absent.
pub fn flag_value<T: FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Parses the shared `--jobs N` flag: `N` workers (`0` clamped to 1);
/// absent means one worker per available hardware thread. The worker
/// count never changes any output — replications merge in replication
/// order regardless of which worker ran them.
pub fn jobs_from_args(args: &[String]) -> Jobs {
    Jobs::from_request(flag_value(args, "--jobs"))
}

/// [`jobs_from_args`] on the current process's arguments.
pub fn jobs_from_env() -> Jobs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    jobs_from_args(&args)
}

/// What follows a flag on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagValue {
    /// Nothing: the flag is a switch.
    Switch,
    /// Any text, such as a path or a name.
    Text,
    /// A whole number, such as a worker or seed count.
    Count,
    /// A TCP port.
    Port,
    /// A duration in seconds: finite and not negative.
    Seconds,
}

impl FlagValue {
    /// What this kind takes, if `value` is not one of it.
    fn rejects(self, value: &str) -> Option<&'static str> {
        let (ok, takes) = match self {
            FlagValue::Switch | FlagValue::Text => (true, ""),
            FlagValue::Count => (value.parse::<usize>().is_ok(), "a whole number"),
            FlagValue::Port => (value.parse::<u16>().is_ok(), "a port number (0-65535)"),
            FlagValue::Seconds => (
                value
                    .parse::<f64>()
                    .is_ok_and(|secs| Duration::try_from_secs_f64(secs).is_ok()),
                "a number of seconds",
            ),
        };
        (!ok).then_some(takes)
    }
}

/// The flags every experiment binary shares, each with what follows
/// it: the observability flags of [`ObsOptions`] and `--jobs`.
const SHARED_FLAGS: &[(&str, FlagValue)] = &[
    ("--trace", FlagValue::Text),
    ("--metrics", FlagValue::Text),
    ("--serve-metrics", FlagValue::Port),
    ("--serve-hold", FlagValue::Seconds),
    ("--phase-metrics", FlagValue::Switch),
    ("--jobs", FlagValue::Count),
];

/// Shared flags that act only beside another: each with the flags, any
/// one of which it needs.
const PARTNERED_FLAGS: &[(&str, &[&str])] = &[
    // The hold keeps the live exporter up; there is none without it.
    ("--serve-hold", &["--serve-metrics"]),
    // The phase gauges go into the registry, which only these create.
    ("--phase-metrics", &["--metrics", "--serve-metrics"]),
];

/// What is wrong with `args`, naming the flag: the first argument that
/// is neither a shared flag, one of the binary's `own` flags
/// (`(name, value kind)`), nor the value following a flag that takes
/// one; such a value that is missing at the end, is itself a flag name
/// or does not parse; or a flag given without the partner it acts
/// through.
pub fn flag_error(args: &[String], own: &[(&str, FlagValue)]) -> Option<String> {
    let known = |arg: &str| {
        SHARED_FLAGS
            .iter()
            .chain(own)
            .find(|&&(name, _)| name == arg)
            .map(|&(_, kind)| kind)
    };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let Some(kind) = known(arg) else {
            return Some(format!("unknown argument {arg}"));
        };
        if kind == FlagValue::Switch {
            continue;
        }
        let Some(value) = rest.next() else {
            return Some(format!("{arg} needs a value"));
        };
        if known(value).is_some() {
            return Some(format!("{arg} needs a value, not the flag {value}"));
        }
        if let Some(takes) = kind.rejects(value) {
            return Some(format!("{arg} needs {takes}, not {value:?}"));
        }
    }
    // No value is a flag name, so a flag is given exactly where the
    // argument equals it.
    let given = |flag: &&str| args.iter().any(|a| a == flag);
    PARTNERED_FLAGS.iter().find_map(|(flag, partners)| {
        (given(flag) && !partners.iter().any(given))
            .then(|| format!("{flag} needs {}", partners.join(" or ")))
    })
}

/// Exits with status 2, printing what [`flag_error`] finds in `args`
/// and `usage` on stderr, when it finds anything.
pub fn exit_on_unknown_flag(args: &[String], own: &[(&str, FlagValue)], usage: &str) {
    if let Some(error) = flag_error(args, own) {
        eprintln!("{error}");
        eprintln!("{usage}");
        std::process::exit(2);
    }
}

impl ObsOptions {
    /// Builds the live context: one sink per requested output file, and
    /// a live HTTP exporter when `--serve-metrics` was given (which also
    /// implies a metrics registry, so there is something to serve).
    pub fn context(&self) -> ObsContext {
        let exporter = self.serve.map(|port| {
            let exporter =
                MetricsExporter::bind(&format!("127.0.0.1:{port}")).expect("bind metrics exporter");
            eprintln!("metrics: serving http://{}/metrics", exporter.local_addr());
            exporter
        });
        let metrics = (self.metrics.is_some() || exporter.is_some()).then(SharedRegistry::new);
        ObsContext {
            recorder: self.trace.as_ref().map(|_| SharedRecorder::new()),
            metrics,
            exporter,
            timings: PhaseTimings::new(),
            options: self.clone(),
        }
    }
}

/// Live observability sinks for one binary run.
#[derive(Debug)]
pub struct ObsContext {
    /// The shared trace recorder, present iff `--trace` was given.
    pub recorder: Option<SharedRecorder>,
    /// The shared metrics registry, present iff `--metrics` or
    /// `--serve-metrics` was given.
    pub metrics: Option<SharedRegistry>,
    exporter: Option<MetricsExporter>,
    timings: PhaseTimings,
    options: ObsOptions,
}

impl ObsContext {
    /// A context with no sinks (the no-flag default).
    pub fn disabled() -> ObsContext {
        ObsOptions::default().context()
    }

    /// `true` when at least one output was requested.
    pub fn enabled(&self) -> bool {
        self.recorder.is_some() || self.metrics.is_some()
    }

    /// Publishes the registry's current rendering to the live exporter.
    /// A no-op without `--serve-metrics`. Call it whenever a progress
    /// milestone makes the registry worth scraping; [`finish`] publishes
    /// the final state either way.
    ///
    /// [`finish`]: ObsContext::finish
    pub fn publish(&self) {
        if let (Some(exporter), Some(metrics)) = (&self.exporter, &self.metrics) {
            exporter.publish_metrics(&metrics.render_snapshot());
        }
    }

    /// Publishes a JSON document on the exporter's `/snapshot` route. A
    /// no-op without `--serve-metrics`.
    pub fn publish_snapshot(&self, json: &str) {
        if let Some(exporter) = &self.exporter {
            exporter.publish_snapshot(json);
        }
    }

    /// Clones the sinks in the shape the simulation layer accepts.
    pub fn sinks(&self) -> ObsSinks {
        ObsSinks {
            recorder: self.recorder.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// Runs `f`, timing it as `phase` when observability is on. The
    /// wall-clock phase table goes to stderr at [`finish`], and into the
    /// metrics snapshot (`wsu_phase_seconds`) under `--phase-metrics`;
    /// never into the trace, so two traces of one seed are identical.
    ///
    /// [`finish`]: ObsContext::finish
    pub fn time<R>(&mut self, phase: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        self.timings.time(phase, f)
    }

    /// Replays a Bayesian study run into the sinks after the fact.
    ///
    /// The study has no middleware clock, so its natural time axis is
    /// the demand count: each checkpoint becomes three
    /// [`TraceEvent::ConfidenceUpdated`] events (one per switching
    /// criterion) at `t = demands`. The registry gets the final
    /// posterior percentiles and one criterion-evaluation count per
    /// checkpoint × criterion.
    pub fn record_study(&self, run: &StudyRun, tag: &str) {
        if let Some(recorder) = &self.recorder {
            let mut recorder = recorder.clone();
            for cp in &run.checkpoints {
                for (i, &met) in cp.criteria_met.iter().enumerate() {
                    recorder.record(TraceEvent::ConfidenceUpdated {
                        t: cp.demands as f64,
                        demand: cp.demands,
                        old_p99: cp.a_high,
                        new_p99: cp.b_high,
                        criterion: format!("criterion-{}", i + 1),
                        satisfied: met,
                    });
                }
            }
        }
        if let Some(metrics) = &self.metrics {
            for cp in &run.checkpoints {
                for &met in &cp.criteria_met {
                    let decision = if met { "switch" } else { "keep" };
                    metrics.inc_counter(
                        "wsu_criterion_evaluations_total",
                        &[("decision", decision), ("study", tag)],
                    );
                }
            }
            if let Some(last) = run.checkpoints.last() {
                metrics.set_gauge(
                    "wsu_posterior_p99",
                    &[("release", "old"), ("study", tag)],
                    last.a_high,
                );
                metrics.set_gauge(
                    "wsu_posterior_p99",
                    &[("release", "new"), ("study", tag)],
                    last.b_high,
                );
            }
        }
    }

    /// Writes the requested output files, publishes the final snapshot
    /// on the live exporter (holding it up for `--serve-hold` seconds)
    /// and reports everything on stderr, the phase times of
    /// [`time`](ObsContext::time) first.
    ///
    /// Parent directories are created as needed. Call this once, after
    /// the binary has printed its tables.
    ///
    /// The wall-clock phase gauges (`wsu_phase_seconds`) are only
    /// exported under `--phase-metrics`: they measure this run's real
    /// elapsed time, so including them by default would make otherwise
    /// deterministic snapshots differ run to run.
    pub fn finish(self) -> io::Result<()> {
        for (phase, elapsed) in self.timings.entries() {
            eprintln!("phase {phase} finished in {:.3}s", elapsed.as_secs_f64());
        }
        if let (Some(recorder), Some(path)) = (&self.recorder, &self.options.trace) {
            recorder.write_jsonl(path)?;
            eprintln!("trace: {} events -> {}", recorder.len(), path.display());
        }
        if let Some(metrics) = &self.metrics {
            if self.options.phase_metrics {
                self.timings.export(metrics);
            }
            let rendered = metrics.render_snapshot();
            if let Some(path) = &self.options.metrics {
                if let Some(dir) = path.parent() {
                    if !dir.as_os_str().is_empty() {
                        fs::create_dir_all(dir)?;
                    }
                }
                fs::write(path, &rendered)?;
                eprintln!("metrics: snapshot -> {}", path.display());
            }
            if let Some(exporter) = &self.exporter {
                exporter.publish_metrics(&rendered);
                if let Some(hold) = self.options.serve_hold {
                    eprintln!(
                        "metrics: holding http://{}/metrics for {hold}s",
                        exporter.local_addr()
                    );
                    std::thread::sleep(std::time::Duration::from_secs_f64(hold.max(0.0)));
                }
            }
        }
        if let Some(exporter) = self.exporter {
            exporter.shutdown();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_both_flags_anywhere() {
        let args = strs(&["--quick", "--trace", "t.jsonl", "--metrics", "m.prom"]);
        let opts = ObsOptions::parse(&args);
        assert_eq!(opts.trace, Some(PathBuf::from("t.jsonl")));
        assert_eq!(opts.metrics, Some(PathBuf::from("m.prom")));
    }

    #[test]
    fn missing_flags_disable_everything() {
        let opts = ObsOptions::parse(&strs(&["--quick"]));
        assert_eq!(opts, ObsOptions::default());
        let ctx = opts.context();
        assert!(!ctx.enabled());
        assert!(ctx.sinks().recorder.is_none());
        assert!(ctx.sinks().metrics.is_none());
    }

    #[test]
    fn flag_without_value_is_ignored() {
        // `exit_on_unknown_flag` stops a binary on both lines below
        // before it parses; `parse` itself reads them as absent.
        let opts = ObsOptions::parse(&strs(&["--trace"]));
        assert_eq!(opts.trace, None);
        let opts = ObsOptions::parse(&strs(&["--serve-metrics", "not-a-port"]));
        assert_eq!(opts.serve, None);
    }

    const TABLE_FLAGS: &[(&str, FlagValue)] = &[
        ("--quick", FlagValue::Switch),
        ("--calibrated", FlagValue::Switch),
    ];
    const CAMPAIGN_FLAGS: &[(&str, FlagValue)] =
        &[("--quick", FlagValue::Switch), ("--plan", FlagValue::Text)];
    const FLEET_FLAGS: &[(&str, FlagValue)] =
        &[("--quick", FlagValue::Switch), ("--cell", FlagValue::Text)];
    const TABLE2_FLAGS: &[(&str, FlagValue)] = &[
        ("--quick", FlagValue::Switch),
        ("--seeds", FlagValue::Count),
    ];

    #[test]
    fn every_ci_invocation_passes_the_flag_check() {
        let table5 = [
            "--quick --trace obs-out/table5.jsonl --metrics obs-out/table5.prom",
            "--quick --serve-metrics 9184 --serve-hold 60",
            "--quick --jobs 1 --trace bench-out/t5-j1.jsonl --metrics bench-out/t5-j1.prom",
            "--quick --jobs 4 --trace bench-out/t5-j4.jsonl --metrics bench-out/t5-j4.prom",
        ];
        // The campaign and fleet-study runs below are the ones
        // tests/parallel_determinism.rs now compares in process.
        let campaign = [
            "",
            "--quick --jobs 1 --trace bench-out/fc-j1.jsonl --metrics bench-out/fc-j1.prom",
            "--quick --jobs 4 --trace bench-out/fc-j4.jsonl --metrics bench-out/fc-j4.prom",
        ];
        let fleet = [
            "",
            "--quick --jobs 1 --trace bench-out/fs-j1.jsonl --metrics bench-out/fs-j1.prom",
            "--quick --jobs 4 --trace bench-out/fs-j4.jsonl --metrics bench-out/fs-j4.prom",
        ];
        let line = |l: &str| strs(&l.split_whitespace().collect::<Vec<_>>());
        for l in table5 {
            assert_eq!(flag_error(&line(l), TABLE_FLAGS), None, "{l}");
        }
        for l in campaign {
            assert_eq!(flag_error(&line(l), CAMPAIGN_FLAGS), None, "{l}");
        }
        for l in fleet {
            assert_eq!(flag_error(&line(l), FLEET_FLAGS), None, "{l}");
        }
        let calibrated = strs(&[
            "--calibrated",
            "--phase-metrics",
            "--metrics",
            "obs-out/t5.prom",
            "--jobs",
            "2",
        ]);
        assert_eq!(flag_error(&calibrated, TABLE_FLAGS), None);
        let plans = strs(&["--plan", "omission", "--plan", "crash"]);
        assert_eq!(flag_error(&plans, CAMPAIGN_FLAGS), None);
        let spread = strs(&[
            "--seeds",
            "10",
            "--serve-hold",
            "2.5",
            "--serve-metrics",
            "0",
        ]);
        assert_eq!(flag_error(&spread, TABLE2_FLAGS), None);
    }

    #[test]
    fn removed_and_misspelt_flags_are_rejected() {
        let error = |args: &[&str], own| flag_error(&strs(args), own);
        let unknown = |arg| Some(format!("unknown argument {arg}"));
        let shards = ["--quick", "--shards", "2"];
        assert_eq!(error(&shards, TABLE_FLAGS), unknown("--shards"));
        assert_eq!(error(&shards, CAMPAIGN_FLAGS), unknown("--shards"));
        assert_eq!(error(&shards, FLEET_FLAGS), unknown("--shards"));
        assert_eq!(error(&["--qiuck"], TABLE_FLAGS), unknown("--qiuck"));
        // One binary's own flag is unknown to another.
        let cell = ["--cell", "restart"];
        assert_eq!(error(&cell, TABLE_FLAGS), unknown("--cell"));
    }

    #[test]
    fn flag_values_are_never_read_as_flags() {
        // Each value follows a flag that takes one, so it is skipped
        // even when it looks like a flag itself.
        let args = strs(&["--trace", "--shards", "--metrics", "--qiuck", "--jobs", "3"]);
        assert_eq!(flag_error(&args, TABLE_FLAGS), None);
        let plan = strs(&["--plan", "--calibrated"]);
        assert_eq!(flag_error(&plan, CAMPAIGN_FLAGS), None);
        // A value-less flag does not swallow the argument after it.
        let quick = strs(&["--quick", "--shards"]);
        assert_eq!(
            flag_error(&quick, TABLE_FLAGS).as_deref(),
            Some("unknown argument --shards")
        );
    }

    #[test]
    fn bad_and_missing_values_are_rejected() {
        for (line, want) in [
            (
                "--quick --seeds abc",
                "--seeds needs a whole number, not \"abc\"",
            ),
            ("--seeds -1", "--seeds needs a whole number, not \"-1\""),
            (
                "--quick --jobs abc",
                "--jobs needs a whole number, not \"abc\"",
            ),
            ("--jobs 2.5", "--jobs needs a whole number, not \"2.5\""),
            (
                "--serve-hold xyz",
                "--serve-hold needs a number of seconds, not \"xyz\"",
            ),
            (
                "--serve-hold inf",
                "--serve-hold needs a number of seconds, not \"inf\"",
            ),
            (
                "--serve-hold -1",
                "--serve-hold needs a number of seconds, not \"-1\"",
            ),
            (
                "--serve-metrics 70000",
                "--serve-metrics needs a port number (0-65535), not \"70000\"",
            ),
            ("--quick --jobs", "--jobs needs a value"),
            ("--trace", "--trace needs a value"),
            (
                "--trace --quick",
                "--trace needs a value, not the flag --quick",
            ),
            (
                "--metrics --trace t.jsonl",
                "--metrics needs a value, not the flag --trace",
            ),
            (
                "--jobs --seeds 3",
                "--jobs needs a value, not the flag --seeds",
            ),
        ] {
            let args = strs(&line.split_whitespace().collect::<Vec<_>>());
            assert_eq!(flag_error(&args, TABLE2_FLAGS).as_deref(), Some(want));
        }
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
            let args = strs(&line.split_whitespace().collect::<Vec<_>>());
            assert_eq!(flag_error(&args, TABLE_FLAGS).as_deref(), want, "{line}");
        }
    }

    #[test]
    fn flag_value_reads_the_first_occurrence() {
        let args = strs(&["--quick", "--seeds", "10", "--jobs", "2", "--seeds", "3"]);
        assert_eq!(flag_value::<usize>(&args, "--seeds"), Some(10));
        assert_eq!(flag_value::<usize>(&args, "--out"), None);
        assert_eq!(jobs_from_args(&args), Jobs::from_request(Some(2)));
    }

    #[test]
    fn parses_serve_and_phase_flags() {
        let args = strs(&[
            "--serve-metrics",
            "9184",
            "--serve-hold",
            "2.5",
            "--phase-metrics",
        ]);
        let opts = ObsOptions::parse(&args);
        assert_eq!(opts.serve, Some(9184));
        assert_eq!(opts.serve_hold, Some(2.5));
        assert!(opts.phase_metrics);
    }

    #[test]
    fn serving_implies_a_registry_and_serves_its_rendering() {
        let opts = ObsOptions {
            serve: Some(0), // ephemeral port
            ..ObsOptions::default()
        };
        let ctx = opts.context();
        assert!(ctx.enabled());
        let metrics = ctx.metrics.clone().expect("serve implies a registry");
        metrics.inc_counter("wsu_demands_total", &[]);
        ctx.publish();
        ctx.publish_snapshot("{\"ok\":true}");
        let addr = ctx.exporter.as_ref().unwrap().local_addr();
        let resp = wsu_obs::http_get(addr, "/metrics").expect("GET /metrics");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, metrics.render_snapshot());
        let resp = wsu_obs::http_get(addr, "/snapshot").expect("GET /snapshot");
        assert_eq!(resp.body, "{\"ok\":true}");
        ctx.finish().expect("finish without output files");
    }

    #[test]
    fn timing_is_a_passthrough_when_disabled() {
        let mut ctx = ObsContext::disabled();
        assert_eq!(ctx.time("phase", || 7), 7);
    }

    #[test]
    fn timing_records_nothing_in_the_trace() {
        let opts = ObsOptions {
            trace: Some(PathBuf::from("unused.jsonl")),
            ..ObsOptions::default()
        };
        let mut ctx = opts.context();
        assert_eq!(ctx.time("simulate", || 7), 7);
        assert!(ctx.recorder.as_ref().unwrap().snapshot().is_empty());
        assert_eq!(ctx.timings.entries().len(), 1, "the phase is still timed");
    }
}
