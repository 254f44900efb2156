//! The text goldens under `results/`: one builder per file, and the one
//! [`Scale`] that sizes them all.
//!
//! Every caller that makes a golden's text goes through this module.
//! Each experiment binary prints its builder's text, `all` writes every
//! entry of [`ARTEFACTS`], the golden tests compare each builder's
//! paper-size text with the committed file, and `perf_report` takes its
//! sizes from [`Scale`]. So a size is written once, and `--quick` means
//! the same size for a binary and for `all`.

use wsu_bayes::whitebox::Resolution;
use wsu_simcore::par::Jobs;
use wsu_simcore::rng::MasterSeed;
use wsu_workload::outcomes::CorrelatedOutcomes;
use wsu_workload::runs::RunSpec;
use wsu_workload::timing::ExecTimeModel;

use crate::bayes_study::StudyConfig;
use crate::campaign::{run_campaign_jobs, standard_plans, CampaignConfig, PlanSpec};
use crate::figures::FigureRuns;
use crate::fleetstudy::{run_fleetstudy_jobs, standard_cells, CellSpec, FleetStudyConfig};
use crate::midsim::ObsSinks;
use crate::obs::ObsContext;
use crate::scalestudy::{render_table, run_scalestudy, ScaleConfig};
use crate::table5::{run_table5_jobs, SimulationTable};
use crate::table6::run_table6_jobs;
use crate::{ablation, capacity, figures, table2, DEFAULT_SEED, PAPER_REQUESTS, PAPER_TIMEOUTS};

/// The size every experiment runs at: the paper's, which the goldens
/// hold, or the reduced one `--quick` selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's sizes.
    Paper,
    /// The reduced sizes: seconds instead of minutes.
    Quick,
}

impl Scale {
    /// [`Scale::Quick`] when `quick` is set (the `--quick` flag), else
    /// [`Scale::Paper`].
    pub fn new(quick: bool) -> Scale {
        if quick {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }

    fn pick<T>(self, paper: T, quick: T) -> T {
        match self {
            Scale::Paper => paper,
            Scale::Quick => quick,
        }
    }

    /// Scenario 1's Bayesian study (Table 2, Fig. 7, ablations A3–A5):
    /// 50,000 demands with a checkpoint every 500 (quick: 10,000).
    pub fn study1(self) -> StudyConfig {
        self.study(self.pick(50_000, 10_000), 500)
    }

    /// Scenario 2's Bayesian study (Table 2, Fig. 8): 10,000 demands
    /// with a checkpoint every 100 (quick: 4,000).
    pub fn study2(self) -> StudyConfig {
        self.study(self.pick(10_000, 4_000), 100)
    }

    /// Both studies use the default grid (quick: 48×48×16), confidence
    /// 0.99, criterion 2's target 1e-3 and [`DEFAULT_SEED`].
    fn study(self, demands: u64, checkpoint_every: u64) -> StudyConfig {
        let quick_grid = Resolution {
            a_cells: 48,
            b_cells: 48,
            q_cells: 16,
        };
        StudyConfig {
            demands,
            checkpoint_every,
            resolution: self.pick(Resolution::default(), quick_grid),
            confidence: 0.99,
            target: 1e-3,
            seed: DEFAULT_SEED,
        }
    }

    /// Requests per cell of Tables 5–6 and ablations A1–A2:
    /// [`PAPER_REQUESTS`] (quick: 2,000).
    pub fn requests(self) -> u64 {
        self.pick(PAPER_REQUESTS, 2_000)
    }

    /// Demands per cell of the capacity study: 20,000 (quick: 3,000).
    pub fn capacity_demands(self) -> u64 {
        self.pick(20_000, 3_000)
    }

    /// Ablation A6's seeds per ratio and demands per seed: 10 × 20,000
    /// (quick: 3 × 4,000).
    pub fn abort_trials(self) -> (u64, u64) {
        self.pick((10, 20_000), (3, 4_000))
    }

    /// The fault campaign's configuration.
    pub fn campaign(self) -> CampaignConfig {
        self.pick(CampaignConfig::paper(), CampaignConfig::quick())
    }

    /// The fleet study's configuration.
    pub fn fleet(self) -> FleetStudyConfig {
        self.pick(FleetStudyConfig::paper(), FleetStudyConfig::quick())
    }

    /// The scale study's sweep.
    pub fn scale_study(self) -> ScaleConfig {
        self.pick(ScaleConfig::paper(), ScaleConfig::quick())
    }
}

/// How many seeds `table2_spread.txt` covers.
pub const SPREAD_SEEDS: u64 = 10;

/// The first `n` seeds of a spread: [`DEFAULT_SEED`], then each next
/// value.
pub fn spread_seeds(n: u64) -> Vec<MasterSeed> {
    (0..n)
        .map(|i| MasterSeed::new(DEFAULT_SEED.value().wrapping_add(i)))
        .collect()
}

/// A builder: the file's exact text at a scale, over a worker pool,
/// observed through a context's sinks.
type Build = fn(Scale, Jobs, &ObsContext) -> String;

/// One text golden: its file name under `results/` and its builder.
#[derive(Debug, Clone, Copy)]
pub struct Artefact {
    /// The file name under `results/`, which also names the phase its
    /// build is timed as.
    pub name: &'static str,
    build: Build,
}

impl Artefact {
    /// The file's exact text at `scale`, timed as the phase named after
    /// the file. `jobs` changes the wall time, never a byte.
    pub fn build(&self, scale: Scale, jobs: Jobs, ctx: &mut ObsContext) -> String {
        ctx.time(self.name, |ctx| (self.build)(scale, jobs, ctx))
    }
}

/// Every text golden under `results/`, in the order `all` writes them.
/// (`results/table5.prom` is the snapshot `table5 --quick --metrics`
/// writes, and the `BENCH_*.json` files are timing reports.)
pub const ARTEFACTS: [Artefact; 13] = [
    TABLE2,
    TABLE2_SPREAD,
    FIG7,
    FIG8,
    TABLE5,
    TABLE6,
    TABLE5_CALIBRATED,
    TABLE6_CALIBRATED,
    ABLATIONS,
    FAULTCAMPAIGN,
    CAPACITY,
    FLEETSTUDY,
    SCALESTUDY,
];

/// Table 2, each of its six studies replayed into the sinks.
pub const TABLE2: Artefact = Artefact {
    name: "table2.txt",
    build: |scale, _, ctx| {
        let table = table2::run_table2_with(&scale.study1(), &scale.study2());
        for run in &table.runs {
            let tag = format!("table2/s{}/{:?}", run.scenario, run.detection);
            ctx.record_study(run, &tag);
        }
        table.render()
    },
};

/// Table 2's spread over [`SPREAD_SEEDS`] seeds.
pub const TABLE2_SPREAD: Artefact = Artefact {
    name: "table2_spread.txt",
    build: |scale, _, _| table2_spread(scale, SPREAD_SEEDS),
};

/// Table 2's spread over the first `seeds` of [`spread_seeds`]
/// (`table2 --seeds N`).
pub fn table2_spread(scale: Scale, seeds: u64) -> String {
    let rows = table2::run_table2_spread(&spread_seeds(seeds), &scale.study1(), &scale.study2());
    table2::render_spread(&rows)
}

/// Fig. 7 as a TSV table, its studies replayed into the sinks.
pub const FIG7: Artefact = Artefact {
    name: "fig7.tsv",
    build: |scale, _, ctx| {
        let (set, runs) = figures::run_fig7(&scale.study1());
        record_figure(ctx, "fig7", &runs);
        set.to_tsv()
    },
};

/// Fig. 8 as a TSV table, its studies replayed into the sinks.
pub const FIG8: Artefact = Artefact {
    name: "fig8.tsv",
    build: |scale, _, ctx| {
        let (set, runs) = figures::run_fig8(&scale.study2());
        record_figure(ctx, "fig8", &runs);
        set.to_tsv()
    },
};

fn record_figure(ctx: &ObsContext, figure: &str, runs: &FigureRuns) {
    ctx.record_study(&runs.perfect, &format!("{figure}/perfect"));
    if let Some(omission) = &runs.omission {
        ctx.record_study(omission, &format!("{figure}/omission"));
    }
    ctx.record_study(&runs.back_to_back, &format!("{figure}/back-to-back"));
}

/// Table 5 with the paper's timing.
pub const TABLE5: Artefact = Artefact {
    name: "table5.txt",
    build: |scale, jobs, ctx| {
        simulation_table(run_table5_jobs, ExecTimeModel::paper(), scale, jobs, ctx)
    },
};

/// Table 6 with the paper's timing.
pub const TABLE6: Artefact = Artefact {
    name: "table6.txt",
    build: |scale, jobs, ctx| {
        simulation_table(run_table6_jobs, ExecTimeModel::paper(), scale, jobs, ctx)
    },
};

/// Table 5 with the calibrated timing, unobserved: its cells carry the
/// paper-timing cells' tags, so in one context the two would merge.
pub const TABLE5_CALIBRATED: Artefact = Artefact {
    name: "table5_calibrated.txt",
    build: |scale, jobs, _| {
        let timing = ExecTimeModel::calibrated();
        simulation_table(run_table5_jobs, timing, scale, jobs, &ObsContext::default())
    },
};

/// Table 6 with the calibrated timing, unobserved as
/// [`TABLE5_CALIBRATED`] is.
pub const TABLE6_CALIBRATED: Artefact = Artefact {
    name: "table6_calibrated.txt",
    build: |scale, jobs, _| {
        let timing = ExecTimeModel::calibrated();
        simulation_table(run_table6_jobs, timing, scale, jobs, &ObsContext::default())
    },
};

/// `run_table5_jobs` or `run_table6_jobs`.
pub type TableRunner =
    fn(MasterSeed, u64, &[f64], ExecTimeModel, &ObsSinks, Jobs) -> SimulationTable;

/// Table 5 or 6 (by `run`) with `timing` at `scale`, its cells observed
/// through the context's sinks (`table5 [--calibrated]`).
pub fn simulation_table(
    run: TableRunner,
    timing: ExecTimeModel,
    scale: Scale,
    jobs: Jobs,
    ctx: &ObsContext,
) -> String {
    run(
        DEFAULT_SEED,
        scale.requests(),
        &PAPER_TIMEOUTS,
        timing,
        &ctx.sinks(),
        jobs,
    )
    .render()
}

/// The six ablation tables (A1–A6), separated by blank lines.
pub const ABLATIONS: Artefact = Artefact {
    name: "ablations.txt",
    build: |scale, jobs, _| {
        let (study, requests) = (scale.study1(), scale.requests());
        let (abort_seeds, abort_demands) = scale.abort_trials();
        [
            ablation::render_adjudicator_table(&ablation::run_adjudicator_ablation_jobs(
                DEFAULT_SEED,
                requests,
                jobs,
            )),
            ablation::render_mode_table(&ablation::run_mode_ablation_jobs(
                DEFAULT_SEED,
                requests,
                jobs,
            )),
            ablation::render_coverage_table(&ablation::run_coverage_ablation_jobs(
                &study,
                &[0.0, 0.05, 0.10, 0.15, 0.25, 0.40],
                jobs,
            )),
            ablation::render_prior_table(&ablation::run_prior_ablation_jobs(&study, jobs)),
            ablation::render_class_detection_table(&ablation::run_class_detection_ablation(
                study.demands,
                study.resolution,
                DEFAULT_SEED,
                0.5,
                &[1.0, 0.85, 0.70, 0.50, 0.25],
            )),
            ablation::render_abort_table(&ablation::run_abort_ablation_jobs(
                abort_seeds,
                abort_demands,
                study.resolution,
                DEFAULT_SEED,
                &[0.5, 1.0, 2.0, 5.0, 10.0],
                jobs,
            )),
        ]
        .join("\n")
    },
};

/// The fault-injection campaign over the standard plans.
pub const FAULTCAMPAIGN: Artefact = Artefact {
    name: "faultcampaign.txt",
    build: |scale, jobs, ctx| faultcampaign(scale, &standard_plans(), jobs, ctx),
};

/// The fault-injection campaign over `plans` (`faultcampaign --plan`),
/// observed, with each plan's dependability snapshot published on the
/// context's `/snapshot`.
pub fn faultcampaign(scale: Scale, plans: &[PlanSpec], jobs: Jobs, ctx: &ObsContext) -> String {
    let table = run_campaign_jobs(plans, &scale.campaign(), DEFAULT_SEED, &ctx.sinks(), jobs);
    ctx.publish_snapshot(&table.snapshots_json());
    table.render()
}

/// The server-capacity study (extension E6) on run 2's correlated
/// workload with the calibrated timing.
pub const CAPACITY: Artefact = Artefact {
    name: "capacity.txt",
    build: |scale, jobs, _| {
        let gen = CorrelatedOutcomes::from_run(&RunSpec::run2());
        capacity::render_capacity_table(&capacity::run_capacity_study_jobs(
            &gen,
            ExecTimeModel::calibrated(),
            &[0.2, 0.4, 0.6, 0.8],
            scale.capacity_demands(),
            DEFAULT_SEED,
            jobs,
        ))
    },
};

/// The fleet study over the standard cells.
pub const FLEETSTUDY: Artefact = Artefact {
    name: "fleetstudy.txt",
    build: |scale, jobs, ctx| fleetstudy(scale, &standard_cells(), jobs, ctx),
};

/// The fleet study over `cells` (`fleetstudy --cell`), observed, with
/// the per-cell results published on the context's `/snapshot`.
pub fn fleetstudy(scale: Scale, cells: &[CellSpec], jobs: Jobs, ctx: &ObsContext) -> String {
    let table = run_fleetstudy_jobs(cells, &scale.fleet(), DEFAULT_SEED, &ctx.sinks(), jobs);
    ctx.publish_snapshot(&table.rows_json());
    table.render()
}

/// The scale study's deterministic digest table. Its shards run on
/// their own threads, so it takes no pool.
pub const SCALESTUDY: Artefact = Artefact {
    name: "scalestudy.txt",
    build: |scale, _, _| render_table(&run_scalestudy(&scale.scale_study(), DEFAULT_SEED.value())),
};
