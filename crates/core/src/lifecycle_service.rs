//! Model lifecycle under traffic: drift detection, shadow retraining,
//! and canary rollout for the serving tier's frozen snapshot.
//!
//! This wires `eda-cloud-lifecycle` into the workflow: a
//! [`LifecycleScenario`] describes the request stream and the
//! ground-truth drift to inject, and [`Workflow::lifecycle`] runs the
//! full detect → retrain → canary → promote/rollback arc in simulated
//! time, folding the controller's counters into the workflow's metrics
//! under `lifecycle.*` and tracing every control decision through the
//! workflow's tracer.

use crate::{Workflow, WorkflowError};
use eda_cloud_lifecycle::{FeedbackEvent, LifecycleConfig, LifecycleController, LifecycleReport};

/// A model-lifecycle workload description: the request stream to serve
/// and the runtime drift to inject into its ground truth. Everything
/// else (detector thresholds, retrain hyper-parameters, rollout
/// guardrails) stays at the [`LifecycleConfig`] defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleScenario {
    /// Number of requests in the stream.
    pub requests: usize,
    /// Mean arrival rate, requests per second (Poisson process).
    pub rate_per_sec: f64,
    /// Seed driving arrivals, design choice, bootstrap, and retrains.
    pub seed: u64,
    /// Stage-model fan-out threads (0 = available parallelism, capped
    /// at 4). Any value produces the identical report.
    pub workers: usize,
    /// Request ordinal at which ground-truth runtimes shift; at or past
    /// `requests` disables drift.
    pub drift_at: u64,
    /// Multiplicative runtime shift applied from `drift_at` onward.
    pub drift_factor: f64,
    /// Route every n-th request ordinal to the canary candidate.
    pub canary_every: u64,
}

impl LifecycleScenario {
    /// A `requests`-request scenario with drift injected a third of the
    /// way into the stream, at the default rate, drift factor, and
    /// canary slice.
    #[must_use]
    pub fn new(requests: usize, seed: u64) -> Self {
        let d = LifecycleConfig::default();
        Self {
            requests,
            rate_per_sec: d.rate_per_sec,
            seed,
            workers: 0,
            drift_at: (requests as u64) / 3,
            drift_factor: d.drift_factor,
            canary_every: d.canary_every,
        }
    }

    /// The full controller configuration this scenario expands to.
    #[must_use]
    pub fn config(&self) -> LifecycleConfig {
        LifecycleConfig {
            requests: self.requests,
            rate_per_sec: self.rate_per_sec,
            seed: self.seed,
            workers: self.workers,
            drift_at: self.drift_at,
            drift_factor: self.drift_factor,
            canary_every: self.canary_every,
            ..LifecycleConfig::default()
        }
    }
}

impl Workflow {
    /// Run the model-lifecycle controller over the scenario's request
    /// stream: serve from the registry-managed snapshot, join
    /// ground-truth feedback, detect the injected drift, shadow-retrain
    /// a candidate, canary it, and promote or roll back under the
    /// default guardrails.
    ///
    /// Same scenario, same report — byte-identical
    /// [`LifecycleReport::to_json`] output across runs and worker
    /// counts. Lifecycle counters are folded into the workflow's
    /// metrics under `lifecycle.*`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkflowError::Lifecycle`] for out-of-range scenario
    /// knobs or a registry operation rejected mid-run.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use eda_cloud_core::{LifecycleScenario, Workflow};
    ///
    /// let workflow = Workflow::with_defaults();
    /// let (report, _) = workflow.lifecycle(&LifecycleScenario::new(320, 7))?;
    /// assert!(report.counters.drift_detections > 0);
    /// assert!(report.counters.promotions > 0);
    /// # Ok::<(), eda_cloud_core::WorkflowError>(())
    /// ```
    pub fn lifecycle(
        &self,
        scenario: &LifecycleScenario,
    ) -> Result<(LifecycleReport, Vec<FeedbackEvent>), WorkflowError> {
        let controller =
            LifecycleController::new(scenario.config())?.with_tracer(self.tracer().clone());
        let (report, feedback) = controller.run()?;
        let m = self.metrics();
        m.add("lifecycle.requests", report.counters.requests);
        m.add("lifecycle.feedback_joins", report.counters.feedback_joins);
        m.add("lifecycle.drift_detections", report.counters.drift_detections);
        m.add("lifecycle.retrains", report.counters.retrains);
        m.add("lifecycle.canaries_started", report.counters.canaries_started);
        m.add("lifecycle.promotions", report.counters.promotions);
        m.add("lifecycle.rollbacks", report.counters.rollbacks);
        m.set_gauge("lifecycle.final_primary_version", f64::from(report.final_primary_version));
        Ok((report, feedback))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_scenario() -> LifecycleScenario {
        LifecycleScenario { requests: 48, drift_at: 200, ..LifecycleScenario::new(48, 7) }
    }

    #[test]
    fn scenario_expands_to_validated_config() {
        let scenario = LifecycleScenario::new(320, 7);
        assert_eq!(scenario.drift_at, 106);
        let config = scenario.config();
        assert_eq!(config.requests, 320);
        assert_eq!(config.seed, 7);
        config.validate().expect("scenario defaults are in range");
    }

    #[test]
    fn invalid_scenario_surfaces_lifecycle_error() {
        let wf = Workflow::with_defaults();
        let bad = LifecycleScenario { drift_factor: -1.0, ..LifecycleScenario::new(16, 7) };
        match wf.lifecycle(&bad) {
            Err(WorkflowError::Lifecycle(e)) => {
                assert!(e.to_string().contains("drift_factor"));
            }
            other => panic!("expected a lifecycle error, got {other:?}"),
        }
    }

    #[test]
    fn counters_fold_into_workflow_metrics() {
        // Drift disabled keeps the run cheap: no retrain, no canary —
        // the metrics plumbing is what's under test.
        let wf = Workflow::with_defaults().with_metrics(eda_cloud_trace::Metrics::new());
        let (report, feedback) = wf.lifecycle(&quick_scenario()).expect("runs");
        assert_eq!(report.counters.requests, 48);
        assert_eq!(feedback.len(), 48);
        assert_eq!(wf.metrics().counter("lifecycle.requests"), 48);
        assert_eq!(wf.metrics().counter("lifecycle.feedback_joins"), 48);
        assert_eq!(wf.metrics().counter("lifecycle.drift_detections"), 0);
        let json = wf.metrics().to_json();
        assert!(json.contains("\"lifecycle.final_primary_version\":1.000000"), "{json}");
    }

    #[test]
    fn scenario_overrides_reach_the_config() {
        let scenario = LifecycleScenario {
            workers: 2,
            drift_factor: 1.7,
            canary_every: 9,
            ..LifecycleScenario::new(64, 11)
        };
        let config = scenario.config();
        assert_eq!(config.workers, 2);
        assert!((config.drift_factor - 1.7).abs() < 1e-12);
        assert_eq!(config.canary_every, 9);
        assert_eq!(config.drift_at, 21, "a third of the stream");
    }
}
