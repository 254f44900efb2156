//! Demand streams: per-release planned responses.
//!
//! The middleware simulation needs, for each demand, the jointly
//! sampled behaviour of both releases: outcome classes (from an
//! [`OutcomePairGen`]) and execution times (from an
//! [`ExecTimeModel`]). [`DemandPlanner`] bundles the two; the experiment
//! harness hands each planned pair directly to the middleware.
//!
//! A plan is a flat `Vec<PlannedDemand>` of plain `Copy` values: nothing
//! per demand lives on the heap, so planning a batch costs one
//! allocation however many demands it holds.

use wsu_simcore::rng::StreamRng;
use wsu_wstack::endpoint::PlannedResponse;

use crate::outcomes::OutcomePairGen;
use crate::timing::ExecTimeModel;

/// One fully planned demand: how each release will answer it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedDemand {
    /// Release 1's planned behaviour.
    pub rel1: PlannedResponse,
    /// Release 2's planned behaviour.
    pub rel2: PlannedResponse,
}

/// Plans demands by jointly sampling outcomes and execution times.
pub struct DemandPlanner<'a> {
    outcomes: &'a dyn OutcomePairGen,
    timing: ExecTimeModel,
    planned: u64,
}

impl<'a> DemandPlanner<'a> {
    /// Creates a planner drawing outcomes from `outcomes` and execution
    /// times from `timing`.
    pub fn new(outcomes: &'a dyn OutcomePairGen, timing: ExecTimeModel) -> DemandPlanner<'a> {
        DemandPlanner {
            outcomes,
            timing,
            planned: 0,
        }
    }

    /// Plans the next demand.
    pub fn plan(&mut self, rng: &mut StreamRng) -> PlannedDemand {
        self.planned += 1;
        let (class1, class2) = self.outcomes.sample_pair(rng);
        let (t1, t2) = self.timing.sample_pair(rng);
        PlannedDemand {
            rel1: PlannedResponse {
                class: class1,
                exec_time: t1,
            },
            rel2: PlannedResponse {
                class: class2,
                exec_time: t2,
            },
        }
    }

    /// Plans a batch of `n` demands into one exactly sized buffer.
    pub fn plan_batch(&mut self, n: usize, rng: &mut StreamRng) -> Vec<PlannedDemand> {
        (0..n).map(|_| self.plan(rng)).collect()
    }

    /// Demands planned so far.
    pub fn planned(&self) -> u64 {
        self.planned
    }
}

impl std::fmt::Debug for DemandPlanner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DemandPlanner")
            .field("outcomes", &self.outcomes.label())
            .field("timing", &self.timing)
            .field("planned", &self.planned)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcomes::CorrelatedOutcomes;
    use crate::runs::RunSpec;
    use wsu_wstack::outcome::ResponseClass;

    #[test]
    fn single_plans_replay_the_batch() {
        let run = RunSpec::run1();
        let outcomes = CorrelatedOutcomes::from_run(&run);
        let mut planner = DemandPlanner::new(&outcomes, ExecTimeModel::paper());
        let mut rng = StreamRng::from_seed(1);
        let d0 = planner.plan(&mut rng);
        let d1 = planner.plan(&mut rng);
        assert_eq!(planner.planned(), 2);
        let mut batch_planner = DemandPlanner::new(&outcomes, ExecTimeModel::paper());
        let batch = batch_planner.plan_batch(2, &mut StreamRng::from_seed(1));
        assert_eq!(batch, vec![d0, d1]);
    }

    #[test]
    fn batch_planning() {
        let run = RunSpec::run1();
        let outcomes = CorrelatedOutcomes::from_run(&run);
        let mut planner = DemandPlanner::new(&outcomes, ExecTimeModel::paper());
        let mut rng = StreamRng::from_seed(2);
        let batch = planner.plan_batch(100, &mut rng);
        assert_eq!(batch.len(), 100);
        assert_eq!(batch.capacity(), 100);
        assert_eq!(planner.planned(), 100);
    }

    #[test]
    fn planned_outcomes_follow_generator() {
        let run = RunSpec::run1();
        let outcomes = CorrelatedOutcomes::from_run(&run);
        let mut planner = DemandPlanner::new(&outcomes, ExecTimeModel::paper());
        let mut rng = StreamRng::from_seed(3);
        let n = 50_000;
        let batch = planner.plan_batch(n, &mut rng);
        let rel1_correct = batch
            .iter()
            .filter(|d| d.rel1.class == ResponseClass::Correct)
            .count();
        assert!((rel1_correct as f64 / n as f64 - 0.70).abs() < 0.01);
        // Agreement should track the run-1 diagonal (0.9).
        let agree = batch
            .iter()
            .filter(|d| d.rel1.class == d.rel2.class)
            .count();
        assert!((agree as f64 / n as f64 - 0.9).abs() < 0.01);
    }

    #[test]
    fn exec_times_are_positive_and_distinct() {
        let run = RunSpec::run1();
        let outcomes = CorrelatedOutcomes::from_run(&run);
        let mut planner = DemandPlanner::new(&outcomes, ExecTimeModel::paper());
        let mut rng = StreamRng::from_seed(4);
        let d = planner.plan(&mut rng);
        assert!(d.rel1.exec_time.as_secs() > 0.0);
        assert!(d.rel2.exec_time.as_secs() > 0.0);
        assert_ne!(d.rel1.exec_time, d.rel2.exec_time);
    }

    #[test]
    fn debug_format_mentions_label() {
        let run = RunSpec::run1();
        let outcomes = CorrelatedOutcomes::from_run(&run);
        let planner = DemandPlanner::new(&outcomes, ExecTimeModel::paper());
        assert!(format!("{planner:?}").contains("correlated"));
    }
}
