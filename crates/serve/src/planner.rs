//! Deployment planning behind the serving API.
//!
//! The server itself is planner-agnostic: anything implementing
//! [`Planner`] can turn a design's per-stage runtime predictions into a
//! deployment plan. [`CostTablePlanner`] is the built-in
//! implementation — a flat hourly-rate table fed to the exact MCKP
//! solver on every call — and `eda-cloud-core`'s `WorkflowPlanner`
//! implements the same trait on the catalog's pricing, solving each
//! design's knapsack once and answering every deadline from its Pareto
//! frontier, so the service can run standalone or on the full pricing
//! model.

use crate::{ServeError, STAGE_NAMES};
use eda_cloud_mckp::{Choice, Problem, Solver, Stage};

/// The swept vCPU counts, index-aligned with every `[f64; 4]` runtime
/// vector in this crate.
pub const VCPUS: [u32; 4] = [1, 2, 4, 8];

/// The paper's Table I: measured `sparc_core` stage runtimes in
/// seconds, `[stage][vcpu]` in [`STAGE_NAMES`] × [`VCPUS`] order.
pub const TABLE1_SECS: [[f64; 4]; 4] = [
    [6_100.0, 4_342.0, 3_449.0, 3_352.0],
    [1_206.0, 905.0, 644.0, 519.0],
    [10_461.0, 5_514.0, 2_894.0, 1_692.0],
    [183.0, 119.0, 90.0, 82.0],
];

/// A solved deployment: one vCPU size per stage plus the totals.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSummary {
    /// Selected vCPU count per stage, in [`STAGE_NAMES`] order.
    pub vcpus: [u32; 4],
    /// Total flow runtime of the selection, whole seconds.
    pub total_runtime_secs: u64,
    /// Total cost of the selection, USD.
    pub total_cost_usd: f64,
}

/// Turns per-stage runtime predictions into a deployment plan.
pub trait Planner {
    /// Plan a deployment for one design. `stage_secs[k]` holds stage
    /// `k`'s predicted runtimes at [`VCPUS`]; `budget_secs` bounds the
    /// total flow runtime. `Ok(None)` means no selection meets the
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Plan`] when the instance is malformed
    /// (e.g. non-finite costs from a corrupt rate table).
    fn plan(
        &self,
        stage_secs: &[[f64; 4]; 4],
        budget_secs: u64,
    ) -> Result<Option<PlanSummary>, ServeError>;
}

/// A planner pricing each stage from a flat hourly-rate table,
/// per-second billing, solved exactly with the MCKP dynamic program.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTablePlanner {
    /// `hourly_usd[k][j]`: hourly rate of stage `k` on `VCPUS[j]`.
    pub hourly_usd: [[f64; 4]; 4],
}

impl CostTablePlanner {
    /// AWS-shaped default rates: synthesis and STA on general-purpose
    /// prices, placement on memory-optimized, routing on
    /// compute-optimized — linear in vCPU count, like the m5/r5/c5
    /// ladders.
    #[must_use]
    pub fn aws_like() -> Self {
        let ladder = |base: f64| [base, base * 2.0, base * 4.0, base * 8.0];
        Self {
            hourly_usd: [
                ladder(0.096), // synthesis: m5-shaped
                ladder(0.126), // placement: r5-shaped
                ladder(0.085), // routing: c5-shaped
                ladder(0.096), // sta: m5-shaped
            ],
        }
    }
}

impl Planner for CostTablePlanner {
    fn plan(
        &self,
        stage_secs: &[[f64; 4]; 4],
        budget_secs: u64,
    ) -> Result<Option<PlanSummary>, ServeError> {
        let stages: Vec<Stage> = STAGE_NAMES
            .iter()
            .enumerate()
            .map(|(k, name)| {
                let choices = VCPUS
                    .iter()
                    .enumerate()
                    .map(|(j, &vcpus)| {
                        let secs = stage_secs[k][j].max(0.0);
                        // Per-second billing on the hourly rate; whole-
                        // second runtimes as the knapsack requires.
                        let cost = self.hourly_usd[k][j] * secs / 3600.0;
                        Choice::new(format!("{vcpus} vCPU"), secs.ceil() as u64, cost)
                    })
                    .collect();
                Stage::new(*name, choices)
            })
            .collect();
        let problem = Problem::new(stages)?;
        let Some(selection) = Solver::new().solve_min_cost(&problem, budget_secs) else {
            return Ok(None);
        };
        let mut vcpus = [0u32; 4];
        for (k, &pick) in selection.picks.iter().enumerate() {
            vcpus[k] = VCPUS[pick];
        }
        Ok(Some(PlanSummary {
            vcpus,
            total_runtime_secs: selection.total_runtime_secs,
            total_cost_usd: selection.total_cost_usd,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table-I-shaped per-stage runtimes.
    fn paper_secs() -> [[f64; 4]; 4] {
        [
            [6100.0, 4342.0, 3449.0, 3352.0],
            [1206.0, 905.0, 644.0, 519.0],
            [10461.0, 5514.0, 2894.0, 1692.0],
            [183.0, 119.0, 90.0, 82.0],
        ]
    }

    #[test]
    fn loose_budget_buys_small_machines() {
        let planner = CostTablePlanner::aws_like();
        let plan = planner.plan(&paper_secs(), 100_000).expect("valid").expect("feasible");
        assert_eq!(plan.vcpus, [1, 1, 1, 1], "no deadline pressure, cheapest wins");
        assert!(plan.total_cost_usd > 0.0);
    }

    #[test]
    fn tight_budget_upgrades_and_impossible_is_none() {
        let planner = CostTablePlanner::aws_like();
        let tight = planner.plan(&paper_secs(), 5_700).expect("valid").expect("feasible");
        assert!(tight.vcpus.contains(&8), "tight deadline forces big machines");
        assert!(tight.total_runtime_secs <= 5_700);
        assert!(planner.plan(&paper_secs(), 5_000).expect("valid").is_none(), "below fastest");
    }

    #[test]
    fn corrupt_rates_surface_as_plan_error() {
        let mut planner = CostTablePlanner::aws_like();
        planner.hourly_usd[2][1] = f64::NAN;
        let err = planner.plan(&paper_secs(), 100_000).unwrap_err();
        assert!(matches!(err, ServeError::Plan { .. }), "{err}");
    }
}
