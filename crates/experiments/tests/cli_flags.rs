//! The experiment binaries reject a bad command line before doing any
//! work: status 2, nothing on stdout, and the offending flag named on
//! stderr (followed by the usage line).

use std::process::Command;

/// Runs `bin` with `args` and checks the rejection contract, returning
/// stderr.
fn rejects(bin: &str, args: &[&str], named: &str) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
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
