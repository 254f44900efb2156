//! `bench_compare` and `perf_report` reject a bad command line with
//! status 2 before they read a report or time anything, and
//! `bench_compare` judges only what it could read whole.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use wsu_obs::bench::{BenchRecord, BenchRow};

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

/// The six committed reports.
fn committed_reports() -> Vec<PathBuf> {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut reports: Vec<PathBuf> = std::fs::read_dir(&results)
        .expect("read results/")
        .map(|entry| entry.expect("a results/ entry").path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    reports.sort();
    assert_eq!(reports.len(), 6, "{reports:?}");
    reports
}

fn compare(baseline: &Path, fresh: &Path) -> Output {
    Command::new(BENCH_COMPARE)
        .args([baseline, fresh])
        .output()
        .expect("spawn bench_compare")
}

/// A report file under the test target's temporary directory.
fn temp_report(name: &str, contents: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, contents).expect("write a temporary report");
    path
}

#[test]
fn bench_compare_exits_2_on_a_report_it_cannot_read_whole() {
    // Not JSON, though it holds the schema marker.
    let not_json = temp_report(
        "bench_compare_not_json.json",
        "\"schema\": \"wsu-bench/1\"\n",
    );
    for report in committed_reports() {
        let text = std::fs::read_to_string(&report).expect("read a committed report");
        let name = report
            .file_name()
            .and_then(|n| n.to_str())
            .expect("UTF-8 name");
        // The first 300 bytes, and all but the closing brace.
        for cut in [300, text.trim_end().len() - 1] {
            let truncated = temp_report(&format!("truncated_{cut}_{name}"), &text[..cut]);
            for (baseline, fresh) in [(&report, &truncated), (&truncated, &report)] {
                let out = compare(baseline, fresh);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(2), "{name} cut at {cut}: {stderr}");
                assert!(out.stdout.is_empty(), "{name} cut at {cut} judged rows");
                assert!(stderr.contains("truncated_"), "{stderr}");
            }
        }
        let out = compare(&report, &not_json);
        assert_eq!(out.status.code(), Some(2), "{name} vs not JSON");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn bench_compare_exits_1_when_the_reports_share_no_row() {
    let report = |bench: &str, name: &str| BenchRecord {
        rows: vec![BenchRow {
            name: name.to_owned(),
            median_ns: 5_000,
            min_ns: 4_000,
            max_ns: 6_000,
        }],
        ..BenchRecord::new(bench)
    };
    let a = temp_report("bench_compare_a.json", &report("BENCH_a", "a/row").render());
    let b = temp_report("bench_compare_b.json", &report("BENCH_b", "b/row").render());
    let out = compare(&a, &b);
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("new      b/row"), "{stdout}");
    assert!(stdout.contains("retired  a/row"), "{stdout}");
    assert!(stderr.contains("share no row"), "{stderr}");
}

#[test]
fn bench_compare_passes_each_committed_report_against_itself_row_for_row() {
    for report in committed_reports() {
        let text = std::fs::read_to_string(&report).expect("read a committed report");
        let record = BenchRecord::parse(&text).expect("a committed report is a record");
        assert!(record.stamp.is_some(), "{} has no stamp", report.display());
        let out = compare(&report, &report);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{stdout}");
        let judged = stdout
            .lines()
            .filter(|line| line.starts_with("  ok ") || line.starts_with("  skipped "))
            .count();
        assert_eq!(judged, record.rows.len(), "{stdout}");
        assert!(!stdout.contains("stamps"), "{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let summary = format!(
            "bench_compare: {} shared rows within 2.00x",
            record.rows.len()
        );
        assert_eq!(last, summary);
    }
}

#[test]
fn bench_compare_names_both_stamps_when_they_differ() {
    let mut record = BenchRecord::new("BENCH_stamps");
    record.rows.push(BenchRow {
        name: "r".to_owned(),
        median_ns: 5_000,
        min_ns: 5_000,
        max_ns: 5_000,
    });
    let stamped = temp_report("bench_compare_stamped.json", &record.render());
    record.stamp = None;
    let bare = temp_report("bench_compare_bare.json", &record.render());
    let out = compare(&stamped, &bare);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let line = stdout.lines().next().unwrap_or_default();
    assert!(
        line.starts_with("  stamps   baseline {\"nproc\":") && line.ends_with("| fresh (no stamp)"),
        "{stdout}"
    );
    assert_eq!(stdout.lines().filter(|l| l.contains("stamp")).count(), 1);
}
