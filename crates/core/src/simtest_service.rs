//! Fault-injection runs as a workflow step.
//!
//! [`Workflow::simtest`] drives the fleet/serve/lifecycle loops under a
//! caller's [`FaultPlan`] — seed-generated or a replayed reproducer —
//! via `eda-cloud-simtest`, and folds the outcome into the workflow's
//! metrics under `simtest.*`. The returned [`SimtestReport`] renders to
//! canonical JSON for golden pinning and cross-worker byte diffs.

use crate::{Workflow, WorkflowError};
use eda_cloud_simtest::{run_simtest_traced, FaultPlan, SimtestConfig, SimtestReport};

impl Workflow {
    /// Run the fault-injection harness: drive the fleet, serve, and
    /// lifecycle loops under `plan` and run the full invariant-checker
    /// suite over the results.
    ///
    /// Invariant violations are data, not errors — they come back in
    /// [`SimtestReport::violations`] (and as the `simtest.violations`
    /// counter) so callers can shrink the plan to a reproducer.
    ///
    /// # Errors
    ///
    /// Returns [`WorkflowError::Simtest`] for an invalid plan or when a
    /// driven loop rejects its workload outright.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use eda_cloud_core::Workflow;
    /// use eda_cloud_simtest::{FaultPlan, SimtestConfig};
    ///
    /// let workflow = Workflow::with_defaults();
    /// let config = SimtestConfig { seed: 7, ..SimtestConfig::default() };
    /// let report = workflow.simtest(&config, &FaultPlan::generate(7, 4))?;
    /// assert!(report.passed());
    /// # Ok::<(), eda_cloud_core::WorkflowError>(())
    /// ```
    pub fn simtest(
        &self,
        config: &SimtestConfig,
        plan: &FaultPlan,
    ) -> Result<SimtestReport, WorkflowError> {
        // The harness runs each phase on a private tracer (it drains
        // them to count fault spans); the drained phase traces are
        // adopted into the workflow tracer so `--trace` exports the
        // full fleet/serve/lifecycle span tree.
        let report = run_simtest_traced(config, plan, self.tracer())?.report;
        let m = self.metrics();
        m.add("simtest.fault_events", report.plan.events.len() as u64);
        m.add("simtest.fault_spans", report.fault_spans);
        m.add("simtest.corruption_injected", report.corruption_injected);
        m.add("simtest.corruption_rejected", report.corruption_rejected);
        m.add("simtest.violations", report.violations.len() as u64);
        m.add("simtest.fleet_jobs_completed", report.fleet.jobs_completed);
        m.add("simtest.fleet_jobs_exhausted", report.fleet.jobs_exhausted);
        m.add("simtest.serve_shed", report.serve.shed);
        m.add("simtest.feedback_dropped", report.lifecycle.feedback_dropped);
        Ok(report)
    }
}
