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

use crate::predict::StagePredictors;
use crate::{StageRuntimes, Workflow, WorkflowError};
use eda_cloud_flow::StageKind;
use eda_cloud_serve::{
    design_pool, synthetic_requests, ModelSnapshot, PlanSummary, Planner, RequestOutcome,
    ServeConfig, ServeError, ServeReport, Server, WorkloadConfig, VCPUS,
};

/// The workflow's deployment planner behind the serving API: predicted
/// per-stage runtimes go through [`Workflow::plan_deployment`] — the
/// catalog-priced exact MCKP — instead of the service's built-in flat
/// rate table.
#[derive(Debug, Clone)]
pub struct WorkflowPlanner {
    workflow: Workflow,
}

impl WorkflowPlanner {
    /// Wrap a workflow (cheap: the workflow shares its catalog, tracer,
    /// and metrics by handle).
    #[must_use]
    pub fn new(workflow: Workflow) -> Self {
        Self { workflow }
    }
}

impl Planner for WorkflowPlanner {
    fn plan(
        &self,
        stage_secs: &[[f64; 4]; 4],
        budget_secs: u64,
    ) -> Result<Option<PlanSummary>, ServeError> {
        let runtimes: Vec<StageRuntimes> = StageKind::ALL
            .iter()
            .enumerate()
            .map(|(k, &kind)| StageRuntimes { kind, runtimes_secs: stage_secs[k] })
            .collect();
        let plan = self
            .workflow
            .plan_deployment(&runtimes, budget_secs)
            .map_err(|e| ServeError::Plan { message: e.to_string() })?;
        let Some(plan) = plan else {
            return Ok(None);
        };
        let mut vcpus = [VCPUS[0]; 4];
        for (slot, stage) in vcpus.iter_mut().zip(&plan.stages) {
            *slot = stage.vcpus;
        }
        Ok(Some(PlanSummary {
            vcpus,
            total_runtime_secs: plan.total_runtime_secs,
            total_cost_usd: plan.total_cost_usd,
        }))
    }
}

impl StagePredictors {
    /// Freeze the four trained stage models into a serving snapshot
    /// (evaluation reports stay behind; only the weights ship).
    #[must_use]
    pub fn snapshot(&self) -> ModelSnapshot {
        ModelSnapshot::new(
            self.synthesis.model.clone(),
            self.placement.model.clone(),
            self.routing.model.clone(),
            self.sta.model.clone(),
        )
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
    use eda_cloud_gcn::{ModelConfig, Trainer};

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
        let stage_secs = [
            [6_100.0, 4_342.0, 3_449.0, 3_352.0],
            [1_206.0, 905.0, 644.0, 519.0],
            [10_461.0, 5_514.0, 2_894.0, 1_692.0],
            [183.0, 119.0, 90.0, 82.0],
        ];
        let planner = WorkflowPlanner::new(wf.clone());
        let summary = planner.plan(&stage_secs, 100_000).expect("valid").expect("feasible");
        let runtimes: Vec<StageRuntimes> = StageKind::ALL
            .iter()
            .enumerate()
            .map(|(k, &kind)| StageRuntimes { kind, runtimes_secs: stage_secs[k] })
            .collect();
        let direct = wf.plan_deployment(&runtimes, 100_000).expect("valid").expect("feasible");
        assert_eq!(summary.total_runtime_secs, direct.total_runtime_secs);
        assert_eq!(summary.total_cost_usd, direct.total_cost_usd);
        for (v, s) in summary.vcpus.iter().zip(&direct.stages) {
            assert_eq!(*v, s.vcpus);
        }
        // Below the fastest selection there is no feasible plan.
        assert!(planner.plan(&stage_secs, 5_000).expect("valid").is_none());
    }

    #[test]
    fn trained_predictors_snapshot_and_serve() {
        let wf = Workflow::with_defaults();
        let data = DatasetBuilder::new(&wf).build(&DatasetConfig::smoke()).expect("corpus");
        let mut trainer = Trainer::fast();
        trainer.epochs = 2; // keep the unit test quick
        let predictors = StagePredictors::train(&data, &trainer).expect("training");
        let snapshot = predictors.snapshot();
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
