//! Online serving: play a request stream against the trained stage
//! predictors and the catalog-backed deployment planner.
//!
//! This wires `eda-cloud-serve` into the workflow: [`Workflow::serve`]
//! materializes the caller's [`WorkloadConfig`] (count, Poisson rate,
//! seed, request mix) over the synthetic design pool and plays it
//! through a [`eda_cloud_serve::Server`] whose planner is the
//! workflow's own MCKP deployment planner ([`WorkflowPlanner`]) priced
//! on the real instance catalog rather than the service's flat rate
//! table.

use crate::optimize::VCPU_SWEEP;
use crate::{StageRuntimes, Workflow, WorkflowError};
use eda_cloud_flow::StageKind;
use eda_cloud_mckp::{Frontier, Objective};
use eda_cloud_serve::{
    design_pool, synthetic_requests, ModelSnapshot, PlanSummary, Planner, RequestOutcome,
    ServeConfig, ServeError, ServeReport, Server, WorkloadConfig,
};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Designs whose frontier a [`WorkflowPlanner`] keeps: the stock
/// 18-design pool fits with room to spare.
const FRONTIER_SLOTS: usize = 32;

/// A design's predicted stage runtimes by bit pattern: the planner's
/// only varying input, since the catalog behind a [`Workflow`] is fixed.
type DesignKey = [[u64; 4]; 4];

/// The workflow's deployment planner behind the serving API: predicted
/// per-stage runtimes are priced on the workflow's catalog
/// ([`Workflow::deployment_problem`]) and solved as an exact min-cost
/// MCKP instead of on the service's built-in flat rate table.
///
/// The knapsack is solved once per design: the planner keeps the
/// budget-free Pareto [`Frontier`] of up to 32 designs for its own
/// lifetime, overwriting the oldest first, and answers each deadline by
/// a binary search on it that rebuilds the one selection it picks — bit
/// for bit what [`Workflow::plan_deployment`] returns.
#[derive(Debug)]
pub struct WorkflowPlanner {
    workflow: Workflow,
    /// Per-design frontiers, oldest first.
    frontiers: Mutex<VecDeque<(DesignKey, Frontier)>>,
}

impl WorkflowPlanner {
    /// Wrap a workflow (cheap: the workflow shares its catalog, tracer,
    /// and metrics by handle).
    #[must_use]
    pub fn new(workflow: Workflow) -> Self {
        Self { workflow, frontiers: Mutex::default() }
    }

    /// The budget-free frontier of one design's catalog-priced knapsack.
    fn frontier(&self, stage_secs: &[[f64; 4]; 4]) -> Result<Frontier, WorkflowError> {
        let runtimes: Vec<StageRuntimes> = StageKind::ALL
            .iter()
            .zip(stage_secs)
            .map(|(&kind, &runtimes_secs)| StageRuntimes { kind, runtimes_secs })
            .collect();
        let problem = self.workflow.deployment_problem(&runtimes)?;
        Ok(Frontier::new(&problem, Objective::MinCost))
    }
}

impl Planner for WorkflowPlanner {
    fn plan(
        &self,
        stage_secs: &[[f64; 4]; 4],
        budget_secs: u64,
    ) -> Result<Option<PlanSummary>, ServeError> {
        let key: DesignKey = stage_secs.map(|row| row.map(f64::to_bits));
        let mut memo = self.frontiers.lock().expect("frontier memo");
        let slot = match memo.iter().position(|(k, _)| *k == key) {
            Some(slot) => slot,
            None => {
                let frontier = self
                    .frontier(stage_secs)
                    .map_err(|e| ServeError::Plan { message: e.to_string() })?;
                if memo.len() == FRONTIER_SLOTS {
                    memo.pop_front();
                }
                memo.push_back((key, frontier));
                memo.len() - 1
            }
        };
        Ok(memo[slot].1.cut(budget_secs).map(|selection| PlanSummary {
            vcpus: std::array::from_fn(|k| VCPU_SWEEP[selection.picks[k]]),
            total_runtime_secs: selection.total_runtime_secs,
            total_cost_usd: selection.total_cost_usd,
        }))
    }
}

impl Workflow {
    /// Serve the workload's request stream — seeded Poisson arrivals
    /// over the synthetic design pool, uniform deadline windows, a
    /// seeded Predict/Plan mix — against `snapshot` with the workflow's
    /// catalog-backed planner under the caller's serving knobs: the
    /// end-to-end materialize → serve → report pipeline for the online
    /// tier.
    ///
    /// Same workload, snapshot and `config`, same report —
    /// byte-identical [`ServeReport::to_json`] output across runs and
    /// `config.workers`. Serving counters are folded into the
    /// workflow's metrics under `serve.*`.
    ///
    /// # Errors
    ///
    /// Surfaces planner failures as [`WorkflowError::Serve`] (sheds are
    /// outcomes in the report, not errors).
    ///
    /// # Examples
    ///
    /// ```
    /// use eda_cloud_core::Workflow;
    /// use eda_cloud_gcn::ModelConfig;
    /// use eda_cloud_serve::{ModelSnapshot, ServeConfig, WorkloadConfig};
    ///
    /// let workflow = Workflow::with_defaults();
    /// let snapshot = ModelSnapshot::seeded(&ModelConfig::fast(), 7);
    /// let workload = WorkloadConfig { requests: 8, seed: 7, ..WorkloadConfig::default() };
    /// let (report, outcomes) = workflow.serve(&workload, &snapshot, ServeConfig::default())?;
    /// assert_eq!(outcomes.len(), 8);
    /// assert_eq!(report.counters.requests, 8);
    /// # Ok::<(), eda_cloud_core::WorkflowError>(())
    /// ```
    pub fn serve(
        &self,
        workload: &WorkloadConfig,
        snapshot: &ModelSnapshot,
        config: ServeConfig,
    ) -> Result<(ServeReport, Vec<RequestOutcome>), WorkflowError> {
        let requests = synthetic_requests(&design_pool(), workload);
        let server = Server::new(snapshot.clone(), Box::new(WorkflowPlanner::new(self.clone())), config)
            .with_tracer(self.tracer().clone());
        let (report, outcomes) = server.run(workload.seed, &requests)?;
        let m = self.metrics();
        m.add("serve.requests", report.counters.requests);
        m.add("serve.completed", report.counters.completed);
        m.add("serve.shed", report.counters.shed);
        m.add("serve.cache_hits", report.counters.cache_hits);
        m.add("serve.plans", report.counters.plans);
        m.set_gauge("serve.deadline_hit_rate", report.deadline_hit_rate);
        Ok((report, outcomes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetBuilder, DatasetConfig};
    use crate::predict::StagePredictors;
    use eda_cloud_gcn::{ModelConfig, Trainer};
    use eda_cloud_mckp::Selection;

    fn seeded_snapshot(seed: u64) -> ModelSnapshot {
        ModelSnapshot::seeded(&ModelConfig::fast(), seed)
    }

    fn workload(requests: usize, seed: u64) -> WorkloadConfig {
        WorkloadConfig { requests, seed, ..WorkloadConfig::default() }
    }

    #[test]
    fn serve_is_deterministic_and_worker_invariant() {
        let wf = Workflow::with_defaults();
        let snapshot = seeded_snapshot(7);
        let workload = workload(24, 7);
        let with_workers = |workers| ServeConfig { workers, ..ServeConfig::default() };
        let (base, base_outcomes) =
            wf.serve(&workload, &snapshot, with_workers(1)).expect("serves");
        assert_eq!(base.counters.requests, 24);
        for workers in [2usize, 8] {
            let (report, outcomes) =
                wf.serve(&workload, &snapshot, with_workers(workers)).expect("serves");
            assert_eq!(report.to_json(), base.to_json(), "workers {workers}");
            assert_eq!(outcomes, base_outcomes, "workers {workers}");
        }
    }

    #[test]
    fn workflow_planner_matches_plan_deployment() {
        let wf = Workflow::with_defaults();
        let planner = WorkflowPlanner::new(wf.clone());
        // More designs than slots, so the first pass overwrites; the
        // second runs backwards, so it starts on designs still kept.
        // Designs `d` and `d + 16` differ in one runtime only, so a memo
        // key that skipped it would hand one the other's frontier.
        let designs: Vec<[[f64; 4]; 4]> = (0..FRONTIER_SLOTS + 8)
            .map(|d| {
                let mut secs = eda_cloud_serve::TABLE1_SECS.map(|row| row.map(|s| s + 0.25));
                secs[d % 16 / 4][d % 4] += (1 + d / 16) as f64 * 211.0;
                secs
            })
            .collect();
        let check = |stage_secs: &[[f64; 4]; 4]| {
            let runtimes: Vec<StageRuntimes> = StageKind::ALL
                .iter()
                .zip(stage_secs)
                .map(|(&kind, &runtimes_secs)| StageRuntimes { kind, runtimes_secs })
                .collect();
            let problem = wf.deployment_problem(&runtimes).expect("valid");
            let fastest = problem.min_total_runtime();
            let slowest: u64 = problem
                .stages()
                .iter()
                .map(|s| s.choices.iter().map(|c| c.runtime_secs).max().unwrap_or(0))
                .sum();
            // A sweep, plus each Pareto point's runtime and the second
            // before it: where the answer changes. The points are found
            // slowest first, each by cutting just below the one before.
            let step = ((slowest - fastest) / 97).max(1);
            let sweep = (0..=99).map(|i| (fastest - 1 + i * step).min(slowest + 1));
            let frontier = Frontier::new(&problem, Objective::MinCost);
            let cut_below = |s: &Selection| frontier.cut(s.total_runtime_secs - 1);
            let edges = std::iter::successors(frontier.cut(u64::MAX), cut_below)
                .flat_map(|s| [s.total_runtime_secs - 1, s.total_runtime_secs]);
            for budget in sweep.chain(edges).chain([0, u64::MAX]) {
                let got = planner.plan(stage_secs, budget).expect("valid");
                let want = wf.plan_deployment(&runtimes, budget).expect("valid");
                let bits = |(vcpus, t, cost): ([u32; 4], u64, f64)| (vcpus, t, cost.to_bits());
                assert_eq!(
                    got.map(|p| bits((p.vcpus, p.total_runtime_secs, p.total_cost_usd))),
                    want.map(|p| bits((
                        std::array::from_fn(|k| p.stages[k].vcpus),
                        p.total_runtime_secs,
                        p.total_cost_usd,
                    ))),
                    "budget {budget} on {stage_secs:?}"
                );
            }
        };
        designs.iter().for_each(check);
        assert_eq!(planner.frontiers.lock().expect("memo").len(), FRONTIER_SLOTS);
        designs.iter().rev().for_each(check);
    }

    #[test]
    fn trained_predictors_snapshot_and_serve() {
        let wf = Workflow::with_defaults();
        let data = DatasetBuilder::new(&wf).build(&DatasetConfig::smoke()).expect("corpus");
        let mut trainer = Trainer::fast();
        trainer.epochs = 2; // keep the unit test quick
        let predictors = StagePredictors::train(&data, &trainer).expect("training");
        let snapshot = ModelSnapshot::new(
            predictors.synthesis.model.clone(),
            predictors.placement.model.clone(),
            predictors.routing.model.clone(),
            predictors.sta.model.clone(),
        );
        // Snapshot predictions match the live predictors bit-for-bit.
        let text = snapshot.to_text();
        let reloaded = ModelSnapshot::from_text(&text).expect("parses");
        let direct = predictors.predict_design(&data.synthesis[0], &data.routing[0]);
        let via = reloaded.stage(0).predict_secs(&data.synthesis[0]);
        assert_eq!(direct[0].runtimes_secs, via);
        let (report, outcomes) =
            wf.serve(&workload(8, 3), &snapshot, ServeConfig::default()).expect("serves");
        assert_eq!(outcomes.len(), 8);
        assert_eq!(report.counters.completed + report.counters.shed, 8);
    }

    #[test]
    fn serving_counters_fold_into_workflow_metrics() {
        let wf = Workflow::with_defaults().with_metrics(eda_cloud_trace::Metrics::new());
        let (report, _) = wf
            .serve(&workload(10, 5), &seeded_snapshot(5), ServeConfig::default())
            .expect("serves");
        assert_eq!(wf.metrics().counter("serve.requests"), 10);
        assert_eq!(wf.metrics().counter("serve.completed"), report.counters.completed);
        let gauge = format!(
            "\"serve.deadline_hit_rate\":{}",
            eda_cloud_trace::fmt_f64(report.deadline_hit_rate)
        );
        assert!(wf.metrics().to_json().contains(&gauge), "{gauge}");
    }
}
