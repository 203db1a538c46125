//! Fleet serving: plan a seeded stream of flow jobs with the MCKP and
//! play it through the deterministic fleet simulator.
//!
//! This is the plan → simulate → report pipeline: [`FleetScenario`]
//! describes a workload (job count, Poisson arrival rate, deadline
//! slack, optional spot policy), [`Workflow::fleet_workload`] turns it
//! into per-job [`JobPlan`]s — Table-I-shaped stage runtimes scaled by
//! a seeded per-job size factor, each planned by the knapsack against
//! its own deadline minus a boot budget — and
//! [`Workflow::simulate_fleet`] serves the stream on the simulated
//! cloud. Planning fans out over the sweep worker pool with canonical
//! reduction, so the workload (and therefore the report) is
//! byte-identical at any worker count.

use crate::sweep::{map_metered, reduce_results, resolve_workers};
use crate::{StageRuntimes, Workflow, WorkflowError};
use eda_cloud_fleet::{
    poisson_arrivals, FleetConfig, FleetJob, FleetReport, FleetSimulator, JobPlan, PlannedStage,
    SpotPolicy, BOOT_SECS,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A fleet workload description: everything needed to regenerate the
/// same job stream and simulation from a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    /// Number of jobs in the stream.
    pub jobs: usize,
    /// Poisson arrival rate, jobs per hour (non-positive = all at t=0).
    pub rate_per_hour: f64,
    /// Seed driving arrivals, job sizes, and fault injection.
    pub seed: u64,
    /// Deadline as a multiple of the job's fastest achievable runtime
    /// (all stages at 8 vCPUs). Values near 1.0 force every job onto
    /// the biggest machines; larger values let the knapsack downsize.
    pub deadline_slack: f64,
    /// Buy stage capacity on the spot market under this policy.
    pub spot: Option<SpotPolicy>,
    /// Planning fan-out (0 = one worker per core, capped at 8). Any
    /// value produces the identical workload.
    pub workers: usize,
}

impl FleetScenario {
    /// A `jobs`-job scenario at 60 arrivals/hour with 1.6x deadline
    /// slack, on-demand capacity, and automatic planning fan-out.
    #[must_use]
    pub fn new(jobs: usize, seed: u64) -> Self {
        Self {
            jobs,
            rate_per_hour: 60.0,
            seed,
            deadline_slack: 1.6,
            spot: None,
            workers: 0,
        }
    }

    /// The same scenario buying spot capacity under `policy`.
    #[must_use]
    pub fn with_spot(mut self, policy: SpotPolicy) -> Self {
        self.spot = Some(policy);
        self
    }
}

impl Workflow {
    /// Generate the scenario's job stream: seeded Poisson arrivals, a
    /// per-job size factor (0.5–1.5x Table I, with mild per-stage
    /// jitter), and a knapsack deployment plan per job solved against
    /// the job's deadline minus the four-stage boot budget.
    ///
    /// Deterministic per scenario: arrivals and sizes are drawn up
    /// front in job order, and planning is a pure function of each
    /// job's runtimes, so the fan-out worker count cannot change the
    /// result.
    ///
    /// # Errors
    ///
    /// Propagates MCKP construction errors and catalog misses.
    pub fn fleet_workload(&self, scenario: &FleetScenario) -> Result<Vec<FleetJob>, WorkflowError> {
        let arrivals = poisson_arrivals(scenario.jobs, scenario.rate_per_hour, scenario.seed);
        // All randomness is consumed serially here, before the fan-out.
        let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed ^ 0x0f1e_e75c_a1e5_u64);
        let sized: Vec<(f64, [StageRuntimes; 4])> = arrivals
            .into_iter()
            .map(|arrival_secs| {
                let size: f64 = rng.gen_range(0.5..1.5);
                let mut runtimes = StageRuntimes::table1();
                for stage in &mut runtimes {
                    let jitter: f64 = rng.gen_range(0.9..1.1);
                    for r in &mut stage.runtimes_secs {
                        *r *= size * jitter;
                    }
                }
                (arrival_secs, runtimes)
            })
            .collect();

        let slack = scenario.deadline_slack.max(1.0);
        let workers = resolve_workers(scenario.workers);
        let planned =
            map_metered(workers, sized, self.metrics(), |index, (arrival_secs, runtimes)| {
                // Keyed by job index, so planning spans merge into the
                // same canonical order at any worker count.
                let span = self.tracer().root_at(index as u64, &format!("plan/{index:04}"));
                let job = self.plan_fleet_job(index as u64, arrival_secs, &runtimes, slack);
                if let Ok(job) = &job {
                    span.counter("deadline_secs", job.plan.deadline_secs);
                    span.counter("planned_runtime_secs", job.plan.planned_runtime_secs());
                }
                job
            });
        reduce_results(planned)
    }

    /// Plan one job: deadline from the slack factor, knapsack constraint
    /// from the deadline minus the boot budget (clamped to feasibility).
    fn plan_fleet_job(
        &self,
        id: u64,
        arrival_secs: f64,
        runtimes: &[StageRuntimes; 4],
        slack: f64,
    ) -> Result<FleetJob, WorkflowError> {
        // Fastest achievable: every stage on 8 vCPUs (runtime index 3).
        let fastest_ceil: u64 = runtimes
            .iter()
            .map(|r| r.runtimes_secs[3].max(0.0).ceil() as u64)
            .sum();
        let fastest: f64 = runtimes.iter().map(|r| r.runtimes_secs[3]).sum();
        // The simulator's boot, once per stage VM, is budgeted out of
        // the deadline.
        let boot_budget = BOOT_SECS * runtimes.len() as f64;
        let deadline_secs = (slack * fastest + boot_budget).ceil() as u64;
        let constraint = deadline_secs
            .saturating_sub(boot_budget.ceil() as u64)
            .max(fastest_ceil);
        let plan = self
            .plan_deployment(runtimes, constraint)?
            .expect("constraint is clamped to the fastest selection");
        let stages = plan
            .stages
            .iter()
            .map(|s| PlannedStage {
                name: s.kind.to_string(),
                instance: s.instance.clone(),
                runtime_secs: s.runtime_secs,
            })
            .collect();
        Ok(FleetJob {
            plan: JobPlan { id, stages, deadline_secs },
            arrival_secs,
        })
    }

    /// Plan the scenario's workload and serve it on the simulated
    /// cloud: the end-to-end plan → simulate → report pipeline.
    ///
    /// Same scenario, same report — byte-identical
    /// [`FleetReport::to_json`] output across runs and worker counts.
    ///
    /// # Errors
    ///
    /// Propagates planning errors ([`WorkflowError::Mckp`],
    /// [`WorkflowError::Cloud`]) and simulation rejections
    /// ([`WorkflowError::Fleet`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use eda_cloud_core::{FleetScenario, Workflow};
    ///
    /// let workflow = Workflow::with_defaults();
    /// let report = workflow.simulate_fleet(&FleetScenario::new(3, 7))?;
    /// assert_eq!(report.counters.jobs_completed, 3);
    /// # Ok::<(), eda_cloud_core::WorkflowError>(())
    /// ```
    pub fn simulate_fleet(&self, scenario: &FleetScenario) -> Result<FleetReport, WorkflowError> {
        let jobs = self.fleet_workload(scenario)?;
        let mut config = FleetConfig::on_demand(scenario.seed);
        config.spot = scenario.spot;
        let report = FleetSimulator::new(self.catalog().clone())
            .with_tracer(self.tracer().clone())
            .run(&jobs, &config)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_cloud::SpotMarket;

    #[test]
    fn workload_is_deterministic_and_worker_invariant() {
        let wf = Workflow::with_defaults();
        let mut scenario = FleetScenario::new(6, 11);
        scenario.workers = 1;
        let serial = wf.fleet_workload(&scenario).expect("plans");
        scenario.workers = 4;
        let parallel = wf.fleet_workload(&scenario).expect("plans");
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 6);
        // Jobs differ from each other (sizes drawn per job).
        assert_ne!(
            serial[0].plan.planned_runtime_secs(),
            serial[1].plan.planned_runtime_secs()
        );
    }

    #[test]
    fn plans_fit_their_deadlines_with_boot_headroom() {
        let wf = Workflow::with_defaults();
        let jobs = wf.fleet_workload(&FleetScenario::new(8, 3)).expect("plans");
        for job in &jobs {
            let boots = BOOT_SECS as u64 * job.plan.stages.len() as u64;
            assert!(
                job.plan.planned_runtime_secs() + boots <= job.plan.deadline_secs,
                "job {} plan {}s + {}s boots exceeds deadline {}s",
                job.plan.id,
                job.plan.planned_runtime_secs(),
                boots,
                job.plan.deadline_secs
            );
            assert_eq!(job.plan.stages.len(), 4);
        }
    }

    #[test]
    fn tight_slack_buys_bigger_machines_than_loose_slack() {
        let wf = Workflow::with_defaults();
        let mut tight = FleetScenario::new(5, 9);
        tight.deadline_slack = 1.0;
        let mut loose = FleetScenario::new(5, 9);
        loose.deadline_slack = 4.0;
        let cost = |jobs: &[FleetJob]| -> u64 {
            jobs.iter().map(|j| j.plan.planned_runtime_secs()).sum()
        };
        let tight_jobs = wf.fleet_workload(&tight).expect("plans");
        let loose_jobs = wf.fleet_workload(&loose).expect("plans");
        // Looser deadlines allow slower (cheaper) machines -> more
        // total planned seconds.
        assert!(cost(&loose_jobs) > cost(&tight_jobs));
    }

    #[test]
    fn on_demand_fleet_hits_every_deadline() {
        let wf = Workflow::with_defaults();
        let report = wf.simulate_fleet(&FleetScenario::new(10, 5)).expect("simulates");
        assert_eq!(report.counters.jobs_completed, 10);
        assert_eq!(report.deadline_hit_rate, 1.0, "{report:?}");
        assert_eq!(report.counters.interruptions, 0);
        assert!(report.total_cost_usd > 0.0);
    }

    #[test]
    fn spot_fleet_is_cheaper_but_misses_deadlines() {
        let wf = Workflow::with_defaults();
        let on_demand = wf.simulate_fleet(&FleetScenario::new(12, 5)).expect("simulates");
        let stormy = SpotPolicy {
            market: SpotMarket { price_fraction: 0.3, interruption_per_hour: 0.25 },
        };
        let spot = wf
            .simulate_fleet(&FleetScenario::new(12, 5).with_spot(stormy))
            .expect("simulates");
        assert_eq!(spot.counters.jobs_completed, 12, "retries always finish jobs");
        assert!(spot.counters.interruptions > 0, "hour-long stages get reclaimed");
        assert!(spot.total_cost_usd < on_demand.total_cost_usd);
        assert!(spot.deadline_hit_rate < on_demand.deadline_hit_rate);
    }

    #[test]
    fn simulate_fleet_is_reproducible() {
        let wf = Workflow::with_defaults();
        let scenario = FleetScenario::new(8, 21).with_spot(SpotPolicy::typical());
        let a = wf.simulate_fleet(&scenario).expect("simulates");
        let b = wf.simulate_fleet(&scenario).expect("simulates");
        assert_eq!(a.to_json(), b.to_json());
    }
}
