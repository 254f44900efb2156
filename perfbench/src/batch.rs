//! The driver both batch workloads share: whole operations (a table, a
//! study) run back to back over cycled seeds, each output checked
//! against the digest its seed produced on the first pass.

use std::time::{Duration, Instant};

use wsu_simcore::rng::MasterSeed;

use crate::stats::{ns, percentile, Report, SeedCycle};
use crate::{RunArgs, Setups, SETUP_Q_SERIAL};

/// How often the untimed set-up is timed again during the untraced
/// phase, between two operations: a set-up is one more operation plus a
/// seed list, and sampled across the run it sees the host states the
/// operations see.
const SETUP_EVERY: Duration = Duration::from_millis(500);

/// What a batch workload runs per seed.
pub trait BatchWork {
    /// One whole operation on `seed`: its rendered output and the
    /// demands it served. A traced call pushes the wall time (ns) of
    /// each layer call it makes into that layer's slot of `layers`.
    fn op(&self, seed: MasterSeed, layers: Option<&mut [Vec<f64>]>) -> (String, u64);
}

/// The definition of one batch workload.
pub struct Batch {
    pub name: &'static str,
    /// Distinct seeds a run cycles through, derived from `--seed` with
    /// salts `salt..salt + seeds`.
    pub seeds: u64,
    pub salt: u64,
    /// The operation-time percentile reported as `latency_tail_us`.
    pub tail_q: f64,
    /// Layer slots a traced operation fills.
    pub layers: usize,
    /// The committed golden output, a file under `--golden-dir`.
    pub golden: &'static str,
}

/// A finished batch run, for the workload to add its own layer metrics to.
pub struct BatchRun<W> {
    pub report: Report,
    pub work: W,
    /// The first seed of the cycle, the one the layer replays use.
    pub first_seed: MasterSeed,
    /// Each slot's layer-call times in the traced phase (`None` untraced).
    pub layers: Option<Vec<Vec<f64>>>,
}

/// The operations of one timed phase.
struct Phase {
    op_ns: Vec<f64>,
    demands: u64,
    layers: Vec<Vec<f64>>,
}

impl Batch {
    /// Sets up (`setup`, then one untimed warm-up operation on the first
    /// seed), runs the timed phases with more set-ups timed during the
    /// untraced one, and verifies every seed's digest and the default-seed
    /// output (`default_output`) against the golden file.
    pub fn run<W: BatchWork>(
        &self,
        run: &RunArgs,
        setup: impl Fn() -> W,
        default_output: impl FnOnce() -> String,
    ) -> BatchRun<W> {
        let mut report = Report::default();
        let set_up = || {
            let work = setup();
            let mut cycle = SeedCycle::new(
                (0..self.seeds)
                    .map(|i| MasterSeed::new(run.derive(self.salt + i)))
                    .collect(),
            );
            let (warm, _) = work.op(cycle.seed(0), None);
            cycle
                .check(0, &warm)
                .expect("first output of the first seed");
            (work, cycle)
        };
        let mut setups = Setups::new(run);
        let (work, mut cycle) = setups.batch(Duration::ZERO, set_up);

        let length = if run.traced {
            run.seconds / 2
        } else {
            run.seconds
        };
        let mut untraced = self.phase(
            &work,
            &mut cycle,
            length,
            1,
            false,
            &mut report,
            &mut || drop(setups.once(set_up)),
        );
        setups.report(SETUP_Q_SERIAL, &mut report);
        let traced = run.traced.then(|| {
            let first = 1 + untraced.op_ns.len();
            self.phase(
                &work,
                &mut cycle,
                length,
                first,
                true,
                &mut report,
                &mut || {},
            )
        });

        let n = untraced.op_ns.len();
        let busy_s = untraced.op_ns.iter().sum::<f64>() / 1e9;
        report.metric("demands_per_s", untraced.demands as f64 / busy_s, "1/s", n);
        report.metric(
            "latency_p50_us",
            percentile(&mut untraced.op_ns, 0.5) / 1e3,
            "us",
            n,
        );
        report.metric(
            "latency_tail_us",
            percentile(&mut untraced.op_ns, self.tail_q) / 1e3,
            "us",
            n,
        );
        let ops = n + traced.as_ref().map_or(0, |t| t.op_ns.len());
        report.attempted = ops as u64;

        // Verification, outside the timed phases: every seed's digest
        // repeated (checked as the phases ran) and the default-seed
        // output is the committed golden, byte for byte.
        report.check(
            cycle.seen() == cycle.len().min(ops + 1),
            format!(
                "{}: {ops} operations over {} seeds, each seed's digest repeating",
                self.name,
                cycle.len()
            ),
        );
        let golden_path = run.golden_dir.join(self.golden);
        let golden = std::fs::read(&golden_path).unwrap_or_default();
        report.check(
            default_output().as_bytes() == golden.as_slice(),
            format!(
                "{}: default-seed output == {}",
                self.name,
                golden_path.display()
            ),
        );

        let layers = traced.map(|traced| {
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            report.metric(
                "trace.overhead_share",
                mean(&traced.op_ns) / mean(&untraced.op_ns) - 1.0,
                "1",
                2,
            );
            let covered: f64 = traced.layers.iter().flatten().sum();
            let wall: f64 = traced.op_ns.iter().sum();
            report.metric(
                "unattributed_share",
                1.0 - covered / wall,
                "1",
                traced.op_ns.len(),
            );
            traced.layers
        });
        BatchRun {
            report,
            work,
            first_seed: cycle.seed(0),
            layers,
        }
    }

    /// Runs whole operations for `length`, cycling through the seeds from
    /// seed `first`, and calls `between` every `SETUP_EVERY`; a traced
    /// phase has each operation time its layers.
    #[allow(clippy::too_many_arguments)]
    fn phase<W: BatchWork>(
        &self,
        work: &W,
        cycle: &mut SeedCycle,
        length: Duration,
        first: usize,
        traced: bool,
        report: &mut Report,
        between: &mut dyn FnMut(),
    ) -> Phase {
        let mut phase = Phase {
            op_ns: Vec::new(),
            demands: 0,
            layers: vec![Vec::new(); if traced { self.layers } else { 0 }],
        };
        let start = Instant::now();
        let mut next = start + SETUP_EVERY;
        while start.elapsed() < length {
            if Instant::now() >= next {
                between();
                next += SETUP_EVERY;
            }
            let op = first + phase.op_ns.len();
            let began = Instant::now();
            let (output, demands) = work.op(
                cycle.seed(op),
                traced.then_some(phase.layers.as_mut_slice()),
            );
            phase.op_ns.push(ns(began.elapsed()));
            phase.demands += demands;
            if let Err(mismatch) = cycle.check(op, &output) {
                report.check(false, format!("{}: {mismatch}", self.name));
            }
        }
        phase
    }
}
