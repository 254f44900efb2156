//! `bench_compare` and `perf_report` reject a bad command line with
//! status 2 before they read a report or time anything.

use std::path::Path;
use std::process::Command;

const BENCH_COMPARE: &str = env!("CARGO_BIN_EXE_bench_compare");
const PERF_REPORT: &str = env!("CARGO_BIN_EXE_perf_report");

/// Runs `bin` with `args` and checks status 2, empty stdout and `named`
/// in the error line; returns stderr.
fn rejects(bin: &str, args: &[&str], named: &str) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed on stdout");
    let error = stderr.lines().next().unwrap_or_default();
    assert!(error.contains(named), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    stderr
}

#[test]
fn bench_compare_rejects_a_threshold_that_passes_every_regression() {
    // A readable report: reading it would print rows on stdout.
    let report = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_obs.json");
    assert!(Path::new(report).exists());
    for threshold in ["nan", "inf", "0", "-2", "abc"] {
        rejects(
            BENCH_COMPARE,
            &[report, report, "--threshold", threshold],
            "--threshold",
        );
    }
    rejects(BENCH_COMPARE, &[report, report, "--min-ns"], "--min-ns");
    rejects(
        BENCH_COMPARE,
        &[report, report, "--thresold", "3"],
        "--thresold",
    );
    rejects(BENCH_COMPARE, &[report], "no fresh.json given");
    rejects(BENCH_COMPARE, &[report, report, report], "unknown argument");
}

#[test]
fn perf_report_rejects_a_bad_command_line_before_timing_anything() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perf_report_cli");
    let out = out.to_str().expect("UTF-8 path");
    for (args, named) in [
        (vec!["--out", out, "--samples", "abc"], "--samples"),
        (vec!["--out", out, "--ful"], "--ful"),
        (vec!["--out", out, "--samples"], "--samples"),
        (vec!["--out"], "--out"),
    ] {
        let stderr = rejects(PERF_REPORT, &args, named);
        assert!(
            !stderr.contains("experiments/"),
            "timed something: {stderr}"
        );
    }
    assert!(!Path::new(out).join("BENCH_experiments.json").exists());
}

#[test]
fn perf_report_fails_before_timing_anything_when_it_cannot_write() {
    // A path under a regular file, which no process can create.
    let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perf_report_out_file");
    std::fs::write(&file, "a regular file").expect("write the regular file");
    let out = file.join("x");
    let out = out.to_str().expect("UTF-8 path");
    let run = Command::new(PERF_REPORT)
        .args(["--out", out])
        .output()
        .expect("spawn perf_report");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(
        !stderr.contains("experiments/"),
        "timed something: {stderr}"
    );
    assert!(!stderr.contains("Error: Os"), "{stderr}");
    let last = stderr.lines().last().unwrap_or_default();
    assert!(
        last.starts_with(&format!("perf_report: create {out} failed: ")),
        "{stderr}"
    );
}
