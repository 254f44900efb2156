//! Perf regression guard: compares a fresh `BENCH_*.json` report
//! against a committed baseline and fails on large slowdowns.
//!
//! Usage: `bench_compare <baseline.json> <fresh.json> [--threshold X]
//! [--min-ns N]`
//!
//! Both reports are read whole through [`BenchRecord::parse`], the one
//! `wsu-bench/1` reader: a file that is not a well-formed record (not
//! JSON, truncated, another schema, a row without its counts, a row
//! name given twice) exits with status 2 before any row is judged.
//!
//! Rows are matched by name; a row slower than `threshold ×` its
//! baseline median fails the run. The threshold is a finite number
//! above 0 and defaults to 2× —
//! deliberately generous, so the guard catches real regressions (an
//! accidental `clone()` in the demand loop, a quadratic scan) while
//! staying robust to shared-runner noise. Rows whose baseline median is
//! below `--min-ns` (default 1000) are reported but never failed:
//! single-digit-nanosecond medians jitter by integer factors on busy
//! machines. Rows present on only one side are informational — adding
//! or retiring a benchmark must not break CI — but two reports that
//! share no row at all compared nothing, and exit with status 1.
//!
//! When the two reports' stamps differ, or one has none, one line names
//! both before the rows: the reports were measured on different hosts
//! or builds. The rows are judged the same way either way.
//!
//! Exit status: 0 when every shared row is within the threshold, 1 on a
//! regression or when no row is shared, 2 on a bad command line or a
//! report that cannot be read.

use std::process::ExitCode;

use wsu_experiments::cli;
use wsu_obs::bench::BenchRecord;
use wsu_obs::jsonl::JsonValue;

/// Outcome of comparing one shared row.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Within threshold (or faster).
    Ok { ratio: f64 },
    /// Baseline too small to compare reliably.
    TooSmall,
    /// Slower than `threshold ×` baseline.
    Regressed { ratio: f64 },
}

fn judge(baseline_ns: u64, fresh_ns: u64, threshold: f64, min_ns: u64) -> Verdict {
    if baseline_ns < min_ns {
        return Verdict::TooSmall;
    }
    let ratio = fresh_ns as f64 / baseline_ns as f64;
    if ratio > threshold {
        Verdict::Regressed { ratio }
    } else {
        Verdict::Ok { ratio }
    }
}

fn load(path: &str) -> Result<BenchRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("{path}: {err}"))?;
    BenchRecord::parse(&text).map_err(|err| format!("{path}: {err}"))
}

fn describe(stamp: Option<&JsonValue>) -> String {
    stamp.map_or_else(|| "(no stamp)".to_owned(), JsonValue::to_string)
}

fn main() -> ExitCode {
    let args = cli::BENCH_COMPARE.parse();
    let (baseline_path, fresh_path) = (args.positional(0), args.positional(1));
    let threshold = args.value("--threshold").unwrap_or(2.0);
    let min_ns = args.value("--min-ns").unwrap_or(1_000);

    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("bench_compare: {err}");
            return ExitCode::from(2);
        }
    };
    if baseline.stamp != fresh.stamp {
        println!(
            "  stamps   baseline {} | fresh {}",
            describe(baseline.stamp.as_ref()),
            describe(fresh.stamp.as_ref())
        );
    }

    let mut regressions = 0usize;
    let mut compared = 0usize;
    for row in &fresh.rows {
        let Some(base) = baseline.rows.iter().find(|b| b.name == row.name) else {
            println!(
                "  new      {:<50} {} ns (no baseline)",
                row.name, row.median_ns
            );
            continue;
        };
        compared += 1;
        let (name, fresh_ns, base_ns) = (&row.name, row.median_ns, base.median_ns);
        match judge(base_ns, fresh_ns, threshold, min_ns) {
            Verdict::Ok { ratio } => {
                println!("  ok       {name:<50} {fresh_ns} ns vs {base_ns} ns ({ratio:.2}x)")
            }
            Verdict::TooSmall => {
                println!("  skipped  {name:<50} baseline {base_ns} ns < {min_ns} ns floor")
            }
            Verdict::Regressed { ratio } => {
                regressions += 1;
                let over = format!("({ratio:.2}x > {threshold:.2}x)");
                println!("  SLOWER   {name:<50} {fresh_ns} ns vs {base_ns} ns {over}");
            }
        }
    }
    for base in &baseline.rows {
        if !fresh.rows.iter().any(|r| r.name == base.name) {
            println!("  retired  {:<50} (baseline only)", base.name);
        }
    }

    if compared == 0 {
        eprintln!("bench_compare: {baseline_path} and {fresh_path} share no row");
        ExitCode::FAILURE
    } else if regressions > 0 {
        eprintln!(
            "bench_compare: {regressions} of {compared} shared rows regressed past {threshold:.2}x"
        );
        ExitCode::FAILURE
    } else {
        println!("bench_compare: {compared} shared rows within {threshold:.2}x");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_threshold_and_floor() {
        assert_eq!(
            judge(10_000, 19_000, 2.0, 1_000),
            Verdict::Ok { ratio: 1.9 }
        );
        assert!(matches!(
            judge(10_000, 25_000, 2.0, 1_000),
            Verdict::Regressed { .. }
        ));
        // Sub-floor baselines are never failed, however large the ratio.
        assert_eq!(judge(2, 50, 2.0, 1_000), Verdict::TooSmall);
        // Faster is always fine.
        assert!(matches!(
            judge(10_000, 3_000, 2.0, 1_000),
            Verdict::Ok { .. }
        ));
    }
}
