//! Fault-injection runs as a workflow step.
//!
//! A [`SimtestScenario`] names a seed, a fault budget, and a worker
//! count; [`Workflow::simtest`] generates the corresponding
//! [`FaultPlan`], drives the fleet/serve/lifecycle loops under it via
//! `eda-cloud-simtest`, and folds the outcome into the workflow's
//! metrics under `simtest.*`. The returned [`SimtestReport`] renders to
//! canonical JSON for golden pinning and cross-worker byte diffs.

use crate::{Workflow, WorkflowError};
use eda_cloud_simtest::{run_simtest_traced, FaultPlan, SimtestConfig, SimtestReport};

/// A fault-injection workload description. The harness's workload
/// sizes stay at the [`SimtestConfig`] defaults; the scenario only
/// chooses the seed, how many faults to draw from it, and the fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimtestScenario {
    /// Seed driving the three workloads and the fault draw.
    pub seed: u64,
    /// Number of fault events to generate from the seed.
    pub faults: usize,
    /// Stage fan-out threads (0 = available parallelism, capped at 4).
    /// Any value produces byte-identical reports.
    pub workers: usize,
}

impl SimtestScenario {
    /// A scenario at `seed` drawing `faults` events, sequential stages.
    #[must_use]
    pub fn new(seed: u64, faults: usize) -> Self {
        Self { seed, faults, workers: 1 }
    }

    /// The harness configuration this scenario expands to.
    #[must_use]
    pub fn config(&self) -> SimtestConfig {
        SimtestConfig { seed: self.seed, workers: self.workers, ..SimtestConfig::default() }
    }

    /// The fault plan this scenario generates.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::generate(self.seed, self.faults, &self.config())
    }
}

impl Workflow {
    /// Run the fault-injection harness: generate the scenario's fault
    /// plan, drive the fleet, serve, and lifecycle loops under it, and
    /// run the full invariant-checker suite over the results.
    ///
    /// Invariant violations are data, not errors — they come back in
    /// [`SimtestReport::violations`] (and as the `simtest.violations`
    /// counter) so callers can shrink the plan to a reproducer.
    ///
    /// # Errors
    ///
    /// Returns [`WorkflowError::Simtest`] for invalid scenarios or when
    /// a driven loop rejects its workload outright.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use eda_cloud_core::{SimtestScenario, Workflow};
    ///
    /// let workflow = Workflow::with_defaults();
    /// let report = workflow.simtest(&SimtestScenario::new(7, 4))?;
    /// assert!(report.passed());
    /// # Ok::<(), eda_cloud_core::WorkflowError>(())
    /// ```
    pub fn simtest(&self, scenario: &SimtestScenario) -> Result<SimtestReport, WorkflowError> {
        let config = scenario.config();
        // The harness runs each phase on a private tracer (it drains
        // them to count fault spans); the drained phase traces are
        // adopted into the workflow tracer so `--trace` exports the
        // full fleet/serve/lifecycle span tree.
        let run = run_simtest_traced(&config, &scenario.plan(), self.tracer())?;
        let report = run.report;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_expands_to_config_and_plan_deterministically() {
        let scenario = SimtestScenario::new(11, 5);
        let config = scenario.config();
        assert_eq!(config.seed, 11);
        assert_eq!(config.workers, 1);
        config.validate().expect("defaults are valid");
        let plan = scenario.plan();
        assert_eq!(plan.events.len(), 5);
        assert_eq!(plan, scenario.plan(), "same scenario, same plan");
        plan.validate().expect("generated plans are well-formed");
    }

    #[test]
    fn worker_override_reaches_the_config() {
        let scenario = SimtestScenario { workers: 4, ..SimtestScenario::new(7, 2) };
        assert_eq!(scenario.config().workers, 4);
        assert_eq!(
            scenario.plan(),
            SimtestScenario::new(7, 2).plan(),
            "the fault draw ignores the fan-out knob"
        );
    }
}
