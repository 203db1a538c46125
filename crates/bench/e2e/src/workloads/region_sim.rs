//! `region_sim` — the sharded multi-region substrate:
//! `engine::ShardedSim` barrier windows, cross-shard merge, and
//! `FairShare` admission, on the synthetic multi-region workload. The
//! timed call is `RegionSim::run_with` on a job stream drawn in set-up.
//!
//! Like every workload it runs at **workers 1** (shards 3), and here
//! that matters most: at workers 2 `ShardedSim` spawns scoped threads
//! per barrier window (~19 k windows here) and measured 4.0-19.2 s run
//! to run for the 200 k-job run that takes 0.22 s at workers 1. That is
//! reported as a layer ratio (`engine.w2_over_w1`) from one small
//! iteration instead.

use super::{
    heap_push_pop_ns, ms, ratio, Iteration, TraceSink, Workload, PARALLEL_WORKERS, WORKERS,
};
use eda_cloud_engine::{
    synthetic_region_jobs, NoEngineFaults, RegionJob, RegionReport, RegionSim, RegionSimConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs per timed iteration.
const JOBS: u64 = 400_000;
/// Jobs of the small iteration the shard/worker ratios come from.
const RATIO_JOBS: u64 = 20_000;
/// Shards the timed call fans the three regions over.
const SHARDS: usize = 3;

/// The `region_sim` workload.
pub struct RegionSimLoad {
    config: RegionSimConfig,
    jobs: Vec<RegionJob>,
}

impl RegionSimLoad {
    /// Draw the seeded job stream. `RegionSim::run` is
    /// `synthetic_region_jobs` followed by `run_with`; the benchmark
    /// makes the first call here, so that the simulator receives only
    /// generated inputs and input generation shows in `setup_s`, and
    /// times the second.
    ///
    /// # Errors
    ///
    /// Reports a rejected config.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let config = RegionSimConfig {
            seed,
            regions: 3,
            tenants: 4,
            jobs: JOBS,
            ..Default::default()
        };
        let jobs = synthetic_region_jobs(&config).map_err(|e| format!("job stream: {e}"))?;
        Ok(Self { config, jobs })
    }
}

fn timed_run(
    config: &RegionSimConfig,
    jobs: &[RegionJob],
    workers: usize,
    shards: usize,
) -> Result<(RegionReport, Duration), String> {
    let start = Instant::now();
    let report = RegionSim::run_with(config, jobs, Arc::new(NoEngineFaults), workers, shards);
    let wall = start.elapsed();
    Ok((
        report.map_err(|e| format!("RegionSim::run_with: {e}"))?,
        wall,
    ))
}

/// Every submitted job must end served, quota-rejected, or shed —
/// migration moves jobs between regions but never loses one.
fn check(report: &RegionReport, jobs: u64) -> Result<(u64, u64), String> {
    let sum =
        |f: fn(&eda_cloud_engine::TenantUsage) -> u64| report.tenants.iter().map(f).sum::<u64>();
    let (submitted, served) = (sum(|t| t.submitted), sum(|t| t.served));
    let refused = sum(|t| t.quota_rejected) + sum(|t| t.shed);
    if submitted != jobs || served + refused != jobs {
        return Err(format!(
            "conservation: {served} served + {refused} refused != {jobs} jobs ({submitted} submitted)"
        ));
    }
    if report.messages.sent != report.messages.delivered + report.messages.dropped {
        return Err("cross-shard messages were lost".into());
    }
    Ok((served, refused))
}

impl Workload for RegionSimLoad {
    fn iterate(&self) -> Result<Iteration, String> {
        let (report, wall) = timed_run(&self.config, &self.jobs, WORKERS, SHARDS)?;
        // Fair-share refusals are the workload working as designed (the
        // synthetic tenants overdrive their quotas on purpose), not
        // failed operations: every job is *processed*.
        let (served, refused) = check(&report, self.config.jobs)?;
        Ok(Iteration {
            wall,
            ops: served + refused,
            attempted: self.config.jobs,
            failed: 0,
            quality: 100.0 * ratio(served as f64, self.config.jobs as f64),
            report: report.to_json(),
        })
    }

    fn trace(&self, sink: &mut TraceSink) -> Result<(), String> {
        let log = &sink.log;
        let (report, wall) = log.time("engine.sharded_run", None, || {
            timed_run(&self.config, &self.jobs, WORKERS, SHARDS)
        })?;
        check(&report, self.config.jobs)?;

        let small = RegionSimConfig {
            jobs: RATIO_JOBS,
            ..self.config.clone()
        };
        let small_jobs = synthetic_region_jobs(&small).map_err(|e| format!("job stream: {e}"))?;
        let run_small = |name: &'static str, workers: usize, shards: usize| {
            log.time(name, None, || {
                timed_run(&small, &small_jobs, workers, shards)
            })
        };
        let (one_shard, s1_wall) = run_small("engine.s1_w1", WORKERS, 1)?;
        let (three_shards, s3_wall) = run_small("engine.s3_w1", WORKERS, SHARDS)?;
        let (two_workers, w2_wall) = run_small("engine.s3_w2", PARALLEL_WORKERS, SHARDS)?;
        let baseline = one_shard.to_json();
        if baseline != three_shards.to_json() || baseline != two_workers.to_json() {
            return Err("region report depends on the shard or worker count".into());
        }
        let heap_ns = log.time("engine.heap_push_pop", None, heap_push_pop_ns);

        let layers = &mut sink.layers;
        layers.set("engine.sharded_run_ms", ms(wall));
        layers.set("engine.windows", report.windows as f64);
        layers.set("engine.messages_sent", report.messages.sent as f64);
        layers.set("engine.s3_over_s1", ratio(ms(s3_wall), ms(s1_wall)));
        layers.set("engine.w2_over_w1", ratio(ms(w2_wall), ms(s3_wall)));
        layers.set("engine.heap_push_pop_ns", heap_ns);
        layers.set("trace.attributed_share", 1.0);
        Ok(())
    }
}
