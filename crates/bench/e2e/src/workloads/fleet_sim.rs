//! `fleet_sim` — the fleet event loop: `engine::EventHeap`,
//! `cloud::Provisioner`, the autoscaler, seeded spot interruptions, and
//! retry/backoff, serving a stream of pre-planned flow jobs.
//!
//! Planning is deliberately in set-up: it is an exact MCKP per job and
//! MCKP already has `serve_plan`. Keeping it in `setup_s` means work
//! moved *into* planning still shows. One planning pass is tiled into a
//! longer stream (see [`gen::tile_jobs`]) so the simulator, not the
//! planner, sets the iteration time.
//!
//! The stream is 5 000 jobs, not the 40 000 first sized for: the
//! simulator is quadratic in VMs launched (measured with spot on: 4 000
//! jobs 0.19 s, 8 000 jobs 1.6 s, 16 000 jobs 11.8 s; 40 000 took
//! 88 s), so a "long" stream measures that pathology and nothing else.
//! `jobs_per_s` here is therefore a number *at 5 000 jobs*; a fix for
//! the quadratic term will show as a large gain, which is the point.

use super::{heap_push_pop_ns, ms, ratio, Iteration, TraceSink, Workload, WORKERS};
use crate::gen;
use eda_cloud_core::{FleetScenario, Workflow};
use eda_cloud_fleet::{FleetConfig, FleetJob, FleetReport, FleetSimulator, SpotPolicy};
use std::time::{Duration, Instant};

/// Jobs planned once, in set-up.
const PLANNED_JOBS: usize = 2_500;
/// Copies of the planned stream one iteration simulates.
const TILES: usize = 2;

/// The `fleet_sim` workload.
pub struct FleetSim {
    simulator: FleetSimulator,
    config: FleetConfig,
    jobs: Vec<FleetJob>,
    plan_wall: Duration,
}

impl FleetSim {
    /// Plan [`PLANNED_JOBS`] seeded jobs (timed, reported as
    /// `fleet.plan_ms`) and tile them into the simulated stream.
    ///
    /// # Errors
    ///
    /// Reports a planning failure.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let workflow = Workflow::with_defaults();
        let scenario = FleetScenario {
            workers: WORKERS,
            ..FleetScenario::new(PLANNED_JOBS, seed)
        };
        let start = Instant::now();
        let planned = workflow
            .fleet_workload(&scenario)
            .map_err(|e| format!("fleet planning: {e}"))?;
        let plan_wall = start.elapsed();
        Ok(Self {
            simulator: FleetSimulator::new(workflow.catalog().clone()),
            config: FleetConfig::on_demand(seed).with_spot(SpotPolicy::typical()),
            jobs: gen::tile_jobs(&planned, TILES),
            plan_wall,
        })
    }

    fn run(&self) -> Result<(Iteration, FleetReport), String> {
        let start = Instant::now();
        let report = self.simulator.run(&self.jobs, &self.config);
        let wall = start.elapsed();
        let report = report.map_err(|e| format!("FleetSimulator::run: {e}"))?;
        let c = &report.counters;
        let jobs = self.jobs.len() as u64;
        if c.jobs_submitted != jobs || c.jobs_completed + c.jobs_exhausted != jobs {
            return Err(format!(
                "conservation: {} completed + {} exhausted != {jobs} jobs",
                c.jobs_completed, c.jobs_exhausted
            ));
        }
        let iteration = Iteration {
            wall,
            ops: c.jobs_completed,
            attempted: jobs,
            failed: jobs - c.jobs_completed,
            // Jobs finished within their deadline per dollar spent:
            // falls when the fleet gets dearer or later.
            quality: ratio(
                report.deadline_hit_rate * c.jobs_completed as f64,
                report.total_cost_usd,
            ),
            report: report.to_json(),
        };
        Ok((iteration, report))
    }
}

impl Workload for FleetSim {
    fn iterate(&self) -> Result<Iteration, String> {
        Ok(self.run()?.0)
    }

    fn trace(&self, sink: &mut TraceSink) -> Result<(), String> {
        let run = sink.log.reserve("fleet.sim", None);
        let (iteration, report) = sink.log.fill(run, || self.run())?;
        let heap_ns = sink
            .log
            .time("engine.heap_push_pop", None, heap_push_pop_ns);
        let c = &report.counters;
        let layers = &mut sink.layers;
        layers.set("fleet.sim_ms", ms(iteration.wall));
        layers.set("fleet.plan_ms", ms(self.plan_wall));
        layers.set("fleet.vms_launched", c.vms_launched as f64);
        layers.set("fleet.interruptions", c.interruptions as f64);
        layers.set("fleet.retries", c.retries as f64);
        layers.set("engine.heap_push_pop_ns", heap_ns);
        layers.set("quality.deadline_hit_rate", report.deadline_hit_rate);
        layers.set(
            "quality.cost_usd_per_job",
            ratio(report.total_cost_usd, c.jobs_completed as f64),
        );
        // The whole call is one layer's span: fleet owns the loop.
        layers.set("trace.attributed_share", 1.0);
        Ok(())
    }
}
