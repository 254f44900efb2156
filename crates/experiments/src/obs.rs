//! `--trace` / `--metrics` wiring shared by the experiment binaries.
//!
//! Every experiment binary accepts the same optional flags, declared
//! once in [`crate::cli`]:
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
//! With no flag nothing is attached anywhere: the middleware keeps
//! its [`wsu_obs::NullRecorder`], the monitor records no metrics, and
//! stdout stays byte-identical to the unobserved run. Diagnostics about
//! the written files go to stderr so they never disturb the tables.

use std::fs;
use std::io;
use std::path::PathBuf;

use wsu_obs::{
    MetricsExporter, PhaseTimings, Recorder, SharedRecorder, SharedRegistry, TraceEvent,
};

use crate::bayes_study::StudyRun;
use crate::cli::Args;
use crate::midsim::ObsSinks;

/// Live observability sinks for one binary run; the default has none.
#[derive(Debug, Default)]
pub struct ObsContext {
    /// The shared trace recorder, present iff `--trace` was given.
    pub recorder: Option<SharedRecorder>,
    /// The shared metrics registry, present iff `--metrics` or
    /// `--serve-metrics` was given.
    pub metrics: Option<SharedRegistry>,
    exporter: Option<MetricsExporter>,
    timings: PhaseTimings,
    trace_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    serve_hold: Option<f64>,
    phase_metrics: bool,
}

impl ObsContext {
    /// Builds the live context from a command line that declares the
    /// observability flags: one sink per requested output file, and a
    /// live HTTP exporter when `--serve-metrics` was given (which also
    /// implies a metrics registry, so there is something to serve).
    ///
    /// # Errors
    ///
    /// The exporter's bind error, naming the address.
    pub fn from_args(args: &Args) -> io::Result<ObsContext> {
        let exporter = match args.value::<u16>("--serve-metrics") {
            Some(port) => {
                let addr = format!("127.0.0.1:{port}");
                let exporter =
                    MetricsExporter::bind(&addr).map_err(naming(format!("bind {addr}")))?;
                eprintln!("metrics: serving http://{}/metrics", exporter.local_addr());
                Some(exporter)
            }
            None => None,
        };
        let trace_path: Option<PathBuf> = args.value("--trace");
        let metrics_path: Option<PathBuf> = args.value("--metrics");
        Ok(ObsContext {
            recorder: trace_path.as_ref().map(|_| SharedRecorder::new()),
            metrics: (metrics_path.is_some() || exporter.is_some()).then(SharedRegistry::new),
            exporter,
            timings: PhaseTimings::new(),
            trace_path,
            metrics_path,
            serve_hold: args.value("--serve-hold"),
            phase_metrics: args.has("--phase-metrics"),
        })
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
    /// # Errors
    ///
    /// The first output that could not be written, naming its path.
    ///
    /// The wall-clock phase gauges (`wsu_phase_seconds`) are only
    /// exported under `--phase-metrics`: they measure this run's real
    /// elapsed time, so including them by default would make otherwise
    /// deterministic snapshots differ run to run.
    pub fn finish(self) -> io::Result<()> {
        for (phase, elapsed) in self.timings.entries() {
            eprintln!("phase {phase} finished in {:.3}s", elapsed.as_secs_f64());
        }
        if let (Some(recorder), Some(path)) = (&self.recorder, &self.trace_path) {
            recorder
                .write_jsonl(path)
                .map_err(naming(format!("write {}", path.display())))?;
            eprintln!("trace: {} events -> {}", recorder.len(), path.display());
        }
        if let Some(metrics) = &self.metrics {
            if self.phase_metrics {
                self.timings.export(metrics);
            }
            let rendered = metrics.render_snapshot();
            if let Some(path) = &self.metrics_path {
                if let Some(dir) = path.parent() {
                    if !dir.as_os_str().is_empty() {
                        fs::create_dir_all(dir)
                            .map_err(naming(format!("create {}", dir.display())))?;
                    }
                }
                fs::write(path, &rendered).map_err(naming(format!("write {}", path.display())))?;
                eprintln!("metrics: snapshot -> {}", path.display());
            }
            if let Some(exporter) = &self.exporter {
                exporter.publish_metrics(&rendered);
                if let Some(hold) = self.serve_hold {
                    eprintln!(
                        "metrics: holding http://{}/metrics for {hold}s",
                        exporter.local_addr()
                    );
                    std::thread::sleep(std::time::Duration::from_secs_f64(hold));
                }
            }
        }
        if let Some(exporter) = self.exporter {
            exporter.shutdown();
        }
        Ok(())
    }
}

/// Puts `what` in front of an I/O error, so the one line a binary
/// prints for it names the port or the path.
fn naming(what: String) -> impl FnOnce(io::Error) -> io::Error {
    move |error| io::Error::new(error.kind(), format!("{what}: {error}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::TABLE5;

    fn context(args: &[&str]) -> ObsContext {
        ObsContext::from_args(&TABLE5.read(args).expect("a valid table5 command line"))
            .expect("an exporter on port 0 binds")
    }

    #[test]
    fn parses_both_flags_anywhere() {
        let ctx = context(&["--quick", "--trace", "t.jsonl", "--metrics", "m.prom"]);
        assert_eq!(ctx.trace_path, Some(PathBuf::from("t.jsonl")));
        assert_eq!(ctx.metrics_path, Some(PathBuf::from("m.prom")));
        assert!(ctx.recorder.is_some() && ctx.metrics.is_some());
    }

    #[test]
    fn missing_flags_disable_everything() {
        let ctx = context(&["--quick"]);
        assert!(!ctx.enabled());
        assert!(ctx.sinks().recorder.is_none());
        assert!(ctx.sinks().metrics.is_none());
        assert!(ctx.exporter.is_none());
        assert_eq!((ctx.serve_hold, ctx.phase_metrics), (None, false));
    }

    #[test]
    fn parses_serve_and_phase_flags() {
        // Port 0: the exporter binds an ephemeral port.
        let args = [
            "--serve-metrics",
            "0",
            "--serve-hold",
            "2.5",
            "--phase-metrics",
        ];
        let ctx = context(&args);
        assert!(ctx.exporter.is_some());
        assert_eq!(ctx.serve_hold, Some(2.5));
        assert!(ctx.phase_metrics);
    }

    #[test]
    fn serving_implies_a_registry_and_serves_its_rendering() {
        let ctx = context(&["--serve-metrics", "0"]); // ephemeral port
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
        let mut ctx = ObsContext::default();
        assert_eq!(ctx.time("phase", || 7), 7);
    }

    #[test]
    fn timing_records_nothing_in_the_trace() {
        let mut ctx = context(&["--trace", "unused.jsonl"]);
        assert_eq!(ctx.time("simulate", || 7), 7);
        assert!(ctx.recorder.as_ref().unwrap().snapshot().is_empty());
        assert_eq!(ctx.timings.entries().len(), 1, "the phase is still timed");
    }
}
