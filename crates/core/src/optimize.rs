//! Problem 3: deployment planning via MCKP.

use crate::{recommended_family, WorkflowError, Workflow};
use eda_cloud_cloud::{Catalog, CloudError};
use eda_cloud_flow::StageKind;
use eda_cloud_mckp::{savings_of, Choice, CostSavings, Problem, Solver, Stage};
use eda_cloud_serve::TABLE1_SECS;

/// Per-stage runtimes at the four swept vCPU counts (1, 2, 4, 8) —
/// either measured by characterization or predicted by the GCN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageRuntimes {
    /// Which application.
    pub kind: StageKind,
    /// Runtimes in seconds at 1, 2, 4 and 8 vCPUs.
    pub runtimes_secs: [f64; 4],
}

impl StageRuntimes {
    /// The paper's Table-I `sparc_core` measurements
    /// ([`TABLE1_SECS`]), one entry per stage in flow order.
    #[must_use]
    pub fn table1() -> [StageRuntimes; 4] {
        std::array::from_fn(|k| StageRuntimes {
            kind: StageKind::ALL[k],
            runtimes_secs: TABLE1_SECS[k],
        })
    }
}

/// The configuration selected for one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePlan {
    /// Which application.
    pub kind: StageKind,
    /// Catalog instance name (e.g. `"r5.xlarge"`).
    pub instance: String,
    /// vCPU count of the selection.
    pub vcpus: u32,
    /// Stage runtime on that instance, seconds.
    pub runtime_secs: u64,
    /// Stage cost on that instance, USD.
    pub cost_usd: f64,
}

/// The optimized deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPlan {
    /// Per-stage selections in flow order.
    pub stages: Vec<StagePlan>,
    /// Total runtime across stages, seconds.
    pub total_runtime_secs: u64,
    /// Total cost, USD.
    pub total_cost_usd: f64,
    /// Savings vs over-/under-provisioning baselines.
    pub savings: CostSavings,
}

/// The swept vCPU counts, index-aligned with [`StageRuntimes`].
pub const VCPU_SWEEP: [u32; 4] = [1, 2, 4, 8];

/// Price one stage's four vCPU choices: the cheapest instance of the
/// stage's recommended family at each swept size, runtime rounded up to
/// whole seconds, cost from the catalog's per-second billing.
pub(crate) fn stage_choices(
    catalog: &Catalog,
    kind: StageKind,
    runtimes_secs: &[f64; 4],
) -> Result<Vec<Choice>, CloudError> {
    let family = recommended_family(kind);
    VCPU_SWEEP
        .iter()
        .zip(runtimes_secs)
        .map(|(&vcpus, &secs)| {
            let instance = catalog.cheapest_with(family, vcpus).ok_or_else(|| {
                CloudError::UnknownInstance(format!("{family} with {vcpus} vCPUs"))
            })?;
            let cost = catalog.pricing().cost_usd(instance, secs);
            Ok(Choice::new(instance.name.clone(), secs.max(0.0).ceil() as u64, cost))
        })
        .collect()
}

impl Workflow {
    /// Build the MCKP instance: one stage per application, one choice
    /// per vCPU size of its recommended family, costs from the catalog
    /// pricing (per-second billing), runtimes rounded up to whole
    /// seconds as the paper's formulation requires.
    ///
    /// # Errors
    ///
    /// Returns [`WorkflowError::Mckp`] if the instance is malformed and
    /// [`WorkflowError::Cloud`] if a catalog size is missing.
    pub fn deployment_problem(
        &self,
        runtimes: &[StageRuntimes],
    ) -> Result<Problem, WorkflowError> {
        let mut stages = Vec::with_capacity(runtimes.len());
        for sr in runtimes {
            let choices = stage_choices(self.catalog(), sr.kind, &sr.runtimes_secs)?;
            stages.push(Stage::new(sr.kind.to_string(), choices));
        }
        Ok(Problem::new(stages)?)
    }

    /// Solve the deployment under a total-runtime constraint.
    ///
    /// Returns `Ok(None)` when no selection meets the deadline — the
    /// paper's "NA" rows in Table I.
    ///
    /// # Errors
    ///
    /// Propagates problem-construction failures.
    pub fn plan_deployment(
        &self,
        runtimes: &[StageRuntimes],
        constraint_secs: u64,
    ) -> Result<Option<DeploymentPlan>, WorkflowError> {
        let problem = self.deployment_problem(runtimes)?;
        let Some(selection) = Solver::new().solve_min_cost(&problem, constraint_secs) else {
            return Ok(None);
        };
        let savings = savings_of(&problem, &selection);
        let stages = selection
            .picks
            .iter()
            .zip(runtimes)
            .zip(problem.stages())
            .map(|((&j, sr), stage)| {
                let choice = &stage.choices[j];
                StagePlan {
                    kind: sr.kind,
                    instance: choice.label.clone(),
                    vcpus: VCPU_SWEEP[j],
                    runtime_secs: choice.runtime_secs,
                    cost_usd: choice.cost_usd,
                }
            })
            .collect();
        Ok(Some(DeploymentPlan {
            stages,
            total_runtime_secs: selection.total_runtime_secs,
            total_cost_usd: selection.total_cost_usd,
            savings,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table-I-shaped runtimes (seconds) for the four stages.
    fn paper_runtimes() -> Vec<StageRuntimes> {
        vec![
            StageRuntimes {
                kind: StageKind::Synthesis,
                runtimes_secs: [6100.0, 4342.0, 3449.0, 3352.0],
            },
            StageRuntimes {
                kind: StageKind::Placement,
                runtimes_secs: [1206.0, 905.0, 644.0, 519.0],
            },
            StageRuntimes {
                kind: StageKind::Routing,
                runtimes_secs: [10461.0, 5514.0, 2894.0, 1692.0],
            },
            StageRuntimes {
                kind: StageKind::Sta,
                runtimes_secs: [183.0, 119.0, 90.0, 82.0],
            },
        ]
    }

    #[test]
    fn problem_shape_matches_sweep() {
        let wf = Workflow::with_defaults();
        let p = wf.deployment_problem(&paper_runtimes()).expect("builds");
        assert_eq!(p.stages().len(), 4);
        for s in p.stages() {
            assert_eq!(s.choices.len(), 4);
        }
        // Placement uses the memory-optimized family.
        assert!(p.stages()[1].choices[0].label.starts_with("r5"));
        // Synthesis uses general purpose.
        assert!(p.stages()[0].choices[0].label.starts_with("m5"));
    }

    #[test]
    fn tightening_deadline_upgrades_machines() {
        let wf = Workflow::with_defaults();
        let runtimes = paper_runtimes();
        let loose = wf
            .plan_deployment(&runtimes, 100_000)
            .expect("solves")
            .expect("feasible");
        let tight = wf
            .plan_deployment(&runtimes, 5_645)
            .expect("solves")
            .expect("feasible");
        assert!(tight.total_cost_usd >= loose.total_cost_usd);
        assert_eq!(tight.total_runtime_secs, 5_645);
        // At the edge every stage runs on 8 vCPUs.
        assert!(tight.stages.iter().all(|s| s.vcpus == 8));
    }

    #[test]
    fn impossible_deadline_is_na() {
        let wf = Workflow::with_defaults();
        let plan = wf
            .plan_deployment(&paper_runtimes(), 5_000)
            .expect("solves");
        assert!(plan.is_none(), "paper Table I marks 5000s as NA");
    }

    #[test]
    fn plan_reports_positive_savings_at_moderate_deadline() {
        let wf = Workflow::with_defaults();
        let plan = wf
            .plan_deployment(&paper_runtimes(), 10_000)
            .expect("solves")
            .expect("feasible");
        assert!(plan.savings.saving_vs_over > 0.0);
        assert!(plan.total_runtime_secs <= 10_000);
        assert_eq!(plan.stages.len(), 4);
    }
}
