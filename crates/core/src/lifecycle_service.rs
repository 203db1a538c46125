//! Model lifecycle under traffic: drift detection, shadow retraining,
//! and canary rollout for the serving tier's frozen snapshot.
//!
//! This wires `eda-cloud-lifecycle` into the workflow:
//! [`Workflow::lifecycle`] runs the full detect → retrain → canary →
//! promote/rollback arc a [`LifecycleConfig`] describes in simulated
//! time, folding the controller's counters into the workflow's metrics
//! under `lifecycle.*` and tracing every control decision through the
//! workflow's tracer.

use crate::{Workflow, WorkflowError};
use eda_cloud_lifecycle::{FeedbackEvent, LifecycleConfig, LifecycleController, LifecycleReport};

impl Workflow {
    /// Run the model-lifecycle controller over the configured request
    /// stream: serve from the primary snapshot, join
    /// ground-truth feedback, detect the injected drift, shadow-retrain
    /// a candidate, canary it, and promote or roll back under the
    /// configured guardrails.
    ///
    /// Same config, same report — byte-identical
    /// [`LifecycleReport::to_json`] output across runs and
    /// `config.workers`. Lifecycle counters are folded into the
    /// workflow's metrics under `lifecycle.*`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkflowError::Lifecycle`] for out-of-range knobs.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use eda_cloud_core::Workflow;
    /// use eda_cloud_lifecycle::LifecycleConfig;
    ///
    /// let workflow = Workflow::with_defaults();
    /// let (report, _) = workflow.lifecycle(&LifecycleConfig::new(320, 7))?;
    /// assert!(report.counters.drift_detections > 0);
    /// assert!(report.counters.promotions > 0);
    /// # Ok::<(), eda_cloud_core::WorkflowError>(())
    /// ```
    pub fn lifecycle(
        &self,
        config: &LifecycleConfig,
    ) -> Result<(LifecycleReport, Vec<FeedbackEvent>), WorkflowError> {
        let controller =
            LifecycleController::new(config.clone())?.with_tracer(self.tracer().clone());
        let (report, feedback) = controller.run();
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

    #[test]
    fn invalid_config_surfaces_lifecycle_error() {
        let wf = Workflow::with_defaults();
        let bad = LifecycleConfig { drift_factor: -1.0, ..LifecycleConfig::new(16, 7) };
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
        let quick = LifecycleConfig { drift_at: 200, ..LifecycleConfig::new(48, 7) };
        let (report, feedback) = wf.lifecycle(&quick).expect("runs");
        assert_eq!(report.counters.requests, 48);
        assert_eq!(feedback.len(), 48);
        assert_eq!(wf.metrics().counter("lifecycle.requests"), 48);
        assert_eq!(wf.metrics().counter("lifecycle.feedback_joins"), 48);
        assert_eq!(wf.metrics().counter("lifecycle.drift_detections"), 0);
        let json = wf.metrics().to_json();
        assert!(json.contains("\"lifecycle.final_primary_version\":1.000000"), "{json}");
    }
}
