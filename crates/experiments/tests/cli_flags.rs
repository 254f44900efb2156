//! The binaries reject a bad command line before doing any work: status
//! 2, nothing on stdout, and the offending flag named on stderr
//! (followed by the usage line).

use std::ffi::OsStr;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin` with `args` and checks the rejection contract, returning
/// stderr. A child still running after 20 s is killed and fails the
/// test, so a binary that serves instead of rejecting cannot hang it.
fn rejects<A: AsRef<OsStr> + std::fmt::Debug>(bin: &str, args: &[A], named: &str) -> String {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll the child").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill the child");
            panic!("{bin} {args:?} still running after 20 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child
        .wait_with_output()
        .expect("collect the child's output");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?} printed on stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains(named),
        "{bin} {args:?}: stderr does not name {named}: {stderr}"
    );
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    stderr
}

const TABLE2: &str = env!("CARGO_BIN_EXE_table2");
const TABLE5: &str = env!("CARGO_BIN_EXE_table5");
const FIG7: &str = env!("CARGO_BIN_EXE_fig7");
const FIG8: &str = env!("CARGO_BIN_EXE_fig8");

#[test]
fn a_value_that_does_not_parse_exits_2_and_names_the_flag() {
    let stderr = rejects(TABLE2, &["--quick", "--seeds", "abc"], "--seeds");
    assert!(stderr.contains("\"abc\""), "{stderr}");
    rejects(TABLE5, &["--quick", "--jobs", "abc"], "--jobs");
    rejects(TABLE5, &["--quick", "--serve-hold", "xyz"], "--serve-hold");
    rejects(
        TABLE2,
        &["--quick", "--serve-metrics", "70000"],
        "--serve-metrics",
    );
}

#[test]
fn a_value_taking_flag_given_last_exits_2_and_names_the_flag() {
    rejects(TABLE5, &["--quick", "--jobs"], "--jobs");
    rejects(TABLE2, &["--quick", "--seeds"], "--seeds");
    rejects(TABLE2, &["--trace"], "--trace");
}

#[test]
fn an_unknown_flag_exits_2_and_names_it() {
    rejects(TABLE5, &["--quick", "--shards", "2"], "--shards");
    rejects(TABLE2, &["--adaptive"], "--adaptive");
}

#[test]
fn jobs_on_a_binary_without_a_worker_pool_exits_2_and_names_it() {
    for bin in [TABLE2, FIG7, FIG8] {
        rejects(bin, &["--quick", "--jobs", "2"], "--jobs");
    }
}

#[test]
fn a_flag_name_given_as_a_value_exits_2_and_names_both() {
    let stderr = rejects(TABLE5, &["--trace", "--quick"], "--trace");
    assert!(stderr.contains("not the flag --quick"), "{stderr}");
}

#[test]
fn a_flag_without_its_partner_exits_2_and_names_the_partner() {
    let stderr = rejects(TABLE5, &["--quick", "--serve-hold", "5"], "--serve-hold");
    assert!(stderr.contains("needs --serve-metrics"), "{stderr}");
    let stderr = rejects(TABLE5, &["--quick", "--phase-metrics"], "--phase-metrics");
    assert!(
        stderr.contains("needs --metrics or --serve-metrics"),
        "{stderr}"
    );
}

const ANALYZE: &str = env!("CARGO_BIN_EXE_wsu-analyze");

#[test]
fn analyze_takes_its_trace_path_before_or_after_the_flags() {
    // Two demands 90 s apart: two 60 s windows, but one 120 s window.
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_flags_trace.jsonl");
    std::fs::write(
        &trace,
        "{\"kind\":\"Adjudicated\",\"t\":10.0,\"verdict\":\"CR\",\"response_time\":0.5}\n\
         {\"kind\":\"Adjudicated\",\"t\":100.0,\"verdict\":\"CR\",\"response_time\":0.5}\n",
    )
    .expect("write trace");
    let trace = trace.to_str().expect("UTF-8 path");
    for args in [["--window", "120", trace], [trace, "--window", "120"]] {
        let out = Command::new(ANALYZE)
            .args(args)
            .output()
            .expect("spawn wsu-analyze");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}: {out:?}");
        assert!(
            stdout.contains("timeline: 1 non-empty windows of 120 s"),
            "{args:?}: {stdout}"
        );
    }
}

#[test]
fn analyze_rejects_a_bad_command_line_before_reading_the_trace() {
    // The trace does not exist: reading it would exit 1, not 2.
    let trace = "no-such-trace.jsonl";
    rejects(
        ANALYZE,
        &[trace, "--windw", "120", "--phase", "p.tsv"],
        "--windw",
    );
    rejects(ANALYZE, &[trace, "--window", "abc"], "--window");
    rejects(ANALYZE, &[trace, "--window"], "--window");
    rejects(ANALYZE, &[trace, "other.jsonl"], "other.jsonl");
    rejects(ANALYZE, &["--window", "120"], "no trace path");
}

const SCALESTUDY: &str = env!("CARGO_BIN_EXE_scalestudy");
const SERVE: &str = env!("CARGO_BIN_EXE_wsu-serve");
const LOADGEN: &str = env!("CARGO_BIN_EXE_wsu-loadgen");
const HTTPGET: &str = env!("CARGO_BIN_EXE_wsu-httpget");

/// The first line of stderr: the error, before the usage line.
fn error_line(stderr: &str) -> &str {
    stderr.lines().next().unwrap_or_default()
}

#[test]
fn serve_rejects_a_duration_it_cannot_sleep_before_binding() {
    for duration in ["inf", "1e300", "-1", "nan"] {
        let args = [
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--duration",
            duration,
        ];
        let stderr = rejects(SERVE, &args, "--duration");
        assert!(error_line(&stderr).contains("--duration"), "{stderr}");
    }
}

#[test]
fn serve_and_loadgen_reject_an_unknown_flag_before_binding_or_connecting() {
    rejects(SERVE, &["--addr", "127.0.0.1:0", "--bogus"], "--bogus");
    let args = ["--addr", "127.0.0.1:9", "--bogus"];
    let stderr = rejects(LOADGEN, &args, "--bogus");
    assert!(error_line(&stderr).contains("unknown argument --bogus"));
    let args = ["--addr", "127.0.0.1:9", "--connections", "0"];
    rejects(LOADGEN, &args, "--connections");
}

#[test]
fn scalestudy_rejects_a_config_it_cannot_run_before_any_shard_starts() {
    let stderr = rejects(
        SCALESTUDY,
        &["--quick", "--shards-list", "0"],
        "--shards-list",
    );
    assert!(error_line(&stderr).contains("shard counts"), "{stderr}");
    let stderr = rejects(SCALESTUDY, &["--quick", "--demands", "100"], "--demands");
    assert!(error_line(&stderr).contains("100 demands"), "{stderr}");
    rejects(
        SCALESTUDY,
        &["--quick", "--shards-list", "1,x"],
        "--shards-list",
    );
}

#[test]
fn scalestudy_never_writes_its_report_to_a_flag_name() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_flags_scalestudy");
    std::fs::create_dir_all(&dir).expect("create the working directory");
    let out = Command::new(SCALESTUDY)
        .args(["--bench-out", "--quick"])
        .current_dir(&dir)
        .output()
        .expect("spawn scalestudy");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        error_line(&stderr).contains("not the flag --quick"),
        "{stderr}"
    );
    assert!(!dir.join("--quick").exists(), "a report named --quick");
}

#[test]
fn table2_rejects_zero_seeds_before_printing_the_table() {
    rejects(TABLE2, &["--quick", "--seeds", "0"], "--seeds");
}

#[test]
fn httpget_rejects_an_extra_or_missing_argument() {
    let stderr = rejects(HTTPGET, &["127.0.0.1:9", "/metrics", "extra"], "extra");
    assert!(error_line(&stderr).contains("unknown argument extra"));
    rejects(HTTPGET, &["127.0.0.1:9"], "no path given");
}

#[cfg(unix)]
#[test]
fn an_argument_that_is_not_utf8_exits_2_and_is_printed_lossily() {
    use std::os::unix::ffi::OsStrExt;
    let trace = OsStr::from_bytes(b"\xff.jsonl");
    let stderr = rejects(TABLE5, &[OsStr::new("--trace"), trace], "--trace");
    assert!(error_line(&stderr).contains("\u{fffd}.jsonl"), "{stderr}");
    let path = OsStr::from_bytes(b"/\xff");
    let stderr = rejects(HTTPGET, &[OsStr::new("127.0.0.1:9"), path], "/\u{fffd}");
    assert!(error_line(&stderr).contains("not UTF-8"), "{stderr}");
}

/// Runs `bin` with `args`, whose command line is sound but whose output
/// cannot be made, and checks the failure contract: status 1, no panic,
/// no `Debug` rendering of an `io::Error` (what a `main` returning
/// `io::Result` prints), and a last stderr line `<binary>: <what>
/// failed: <error>`, which is returned.
fn fails(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("Error: Os"), "{bin} {args:?}: {stderr}");
    let name = std::path::Path::new(bin)
        .file_name()
        .unwrap()
        .to_string_lossy();
    let last = stderr.lines().last().unwrap_or_default().to_owned();
    assert!(
        last.starts_with(&format!("{name}: ")) && last.contains(" failed: "),
        "{bin} {args:?}: {stderr}"
    );
    last
}

/// A path under a regular file, which no process can create.
fn under_a_file(test: &str, name: &str) -> String {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::write(&file, "a regular file").expect("write the regular file");
    file.join(name).to_str().expect("UTF-8 path").to_owned()
}

#[test]
fn a_metrics_port_in_use_exits_1_without_a_panic() {
    let held = std::net::TcpListener::bind("127.0.0.1:0").expect("hold a port");
    let port = held.local_addr().expect("held address").port().to_string();
    let line = fails(TABLE5, &["--quick", "--serve-metrics", &port]);
    assert!(line.contains(&format!("bind 127.0.0.1:{port}")), "{line}");
}

#[test]
fn an_observability_file_that_cannot_be_written_exits_1_without_a_panic() {
    let path = under_a_file("cli_flags_metrics_file", "x.prom");
    let line = fails(TABLE5, &["--quick", "--metrics", &path]);
    assert!(line.contains("cli_flags_metrics_file"), "{line}");
}

#[test]
fn analyze_exits_1_without_a_panic_when_it_cannot_write_an_output() {
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_flags_phases.jsonl");
    std::fs::write(
        &trace,
        "{\"kind\":\"Adjudicated\",\"t\":10.0,\"verdict\":\"CR\",\"response_time\":0.5}\n",
    )
    .expect("write trace");
    let path = under_a_file("cli_flags_phases_file", "x.tsv");
    let trace = trace.to_str().expect("UTF-8 path");
    let line = fails(ANALYZE, &[trace, "--phases", &path]);
    assert!(line.contains(&format!("write {path}")), "{line}");
}

#[test]
fn scalestudy_exits_1_without_a_panic_when_it_cannot_write_its_report() {
    let path = under_a_file("cli_flags_bench_file", "x.json");
    let args = ["--quick", "--shards-list", "1", "--bench-out", &path];
    let line = fails(SCALESTUDY, &args);
    assert!(line.contains(&format!("write {path}")), "{line}");
}

const ALL: &str = env!("CARGO_BIN_EXE_all");

#[test]
fn all_exits_1_without_a_panic_when_it_cannot_write_its_outputs() {
    let path = under_a_file("cli_flags_all_out", "x");
    let line = fails(ALL, &["--quick", "--out", &path]);
    assert!(line.contains(&format!("create {path}")), "{line}");
}
