//! The end-to-end fault-injection harness.
//!
//! One [`run_simtest`] call drives all three production loops — the
//! fleet simulator, the serve tier, and the lifecycle controller —
//! under one shared [`PlanFaults`] hook object, then runs every
//! invariant checker over the results and folds them into a
//! byte-deterministic [`SimtestReport`]. The worker knob fans out only
//! the per-stage GCN forwards (joined by stage index), so the same
//! `(config, plan)` pair produces byte-identical reports at 1, 2, or
//! 8 workers.

use crate::report::EnginePhase;
use crate::{
    check, FaultEvent, FaultPlan, PlanFaults, SimtestError, SimtestReport, Violation,
};
use eda_cloud_cloud::Catalog;
use eda_cloud_engine::{
    synthetic_region_jobs, EngineFaults, RegionReport, RegionSim, RegionSimConfig,
};
use eda_cloud_fleet::{
    poisson_arrivals, FleetConfig, FleetJob, FleetReport, FleetSimulator, JobPlan, PlannedStage,
    SharedFleetFaults,
};
use eda_cloud_gcn::ModelConfig;
use eda_cloud_lifecycle::{
    FeedbackEvent, LifecycleConfig, LifecycleController, LifecycleReport, SharedLifecycleFaults,
};
use eda_cloud_ingest::{fixtures, FrontDoor, FrontDoorConfig};
use eda_cloud_serve::{
    design_pool, synthetic_requests_with_uploads, CostTablePlanner, ModelSnapshot, RequestOutcome,
    ServeConfig, ServeReport, Server, SharedServeFaults, WorkloadConfig,
};
use eda_cloud_trace::{fnv1a64, Trace, Tracer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Stage attempts allowed before the fleet abandons a job — low enough
/// that an eight-attempt spot storm produces a typed exhaustion, high
/// enough that ordinary storms retry through.
const MAX_STAGE_ATTEMPTS: u32 = 6;

/// Jobs in the fleet stream.
pub(crate) const FLEET_JOBS: usize = 6;
/// Requests in the serve stream.
pub(crate) const SERVE_REQUESTS: usize = 48;
/// Requests in the lifecycle stream (the controller needs calibration
/// traffic: at least 48).
pub(crate) const LIFECYCLE_REQUESTS: usize = 160;
/// Regions in the engine phase's multi-region simulation (cross-shard
/// faults need a link to cut: at least 2).
pub(crate) const ENGINE_REGIONS: usize = 3;
/// Jobs in the engine phase's multi-region workload.
const ENGINE_JOBS: u64 = 120;

/// Harness knobs: the shared seed and fan-out width. Workload sizes per
/// loop are fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimtestConfig {
    /// Seed driving all three workloads (and, by default, plan
    /// generation).
    pub seed: u64,
    /// Stage fan-out threads (0 = available parallelism, capped at 4).
    /// Any value produces byte-identical reports.
    pub workers: usize,
    /// Arm the deliberately planted guardrail bug in the lifecycle
    /// controller. Requires the `planted-guardrail-bug` feature; exists
    /// so the invariant suite can demonstrate catching a real
    /// violation.
    pub planted_guardrail_bug: bool,
}

impl Default for SimtestConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            workers: 1,
            planted_guardrail_bug: false,
        }
    }
}

impl SimtestConfig {
    /// A default-shaped config at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// The lifecycle controller configuration this harness drives: a
    /// compressed version of the production defaults that still walks
    /// the full detect → retrain → canary → decide arc.
    #[must_use]
    fn lifecycle_config(&self) -> LifecycleConfig {
        LifecycleConfig {
            requests: LIFECYCLE_REQUESTS,
            seed: self.seed,
            workers: self.workers,
            drift_at: (LIFECYCLE_REQUESTS as u64) * 5 / 16,
            calibration: 12,
            min_retrain: 6,
            canary_min: 5,
            bootstrap_epochs: 20,
            retrain_epochs: 20,
            ..LifecycleConfig::default()
        }
    }
}

/// Everything one harness run produced: the canonical report plus the
/// raw per-loop artifacts for deeper assertions.
#[derive(Debug, Clone)]
pub struct SimtestRun {
    /// The folded, byte-deterministic report (violations included).
    pub report: SimtestReport,
    /// The fleet phase's full report.
    pub fleet: FleetReport,
    /// The serve phase's full report.
    pub serve: ServeReport,
    /// One serve outcome per request, ordinal order.
    pub serve_outcomes: Vec<RequestOutcome>,
    /// The lifecycle phase's full report.
    pub lifecycle: LifecycleReport,
    /// The lifecycle phase's feedback log, join order.
    pub feedback: Vec<FeedbackEvent>,
    /// The engine phase's full multi-region report.
    pub regions: RegionReport,
}

/// The fleet workload: four-stage jobs shaped like Table I's
/// `sparc_core` flow, scaled by a seeded per-job size factor. Plain
/// catalog instances — no planner dependency — because the harness
/// exercises the simulator, not the knapsack.
fn fleet_jobs(config: &SimtestConfig) -> Vec<FleetJob> {
    const STAGES: [(&str, &str, f64); 4] = [
        ("synthesis", "c5.2xlarge", 3_449.0),
        ("placement", "r5.xlarge", 644.0),
        ("routing", "c5.2xlarge", 2_894.0),
        ("sta", "m5.large", 90.0),
    ];
    let arrivals = poisson_arrivals(FLEET_JOBS, 60.0, config.seed);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x51E7_F1EE_7B05_0002);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(id, arrival_secs)| {
            let size: f64 = rng.gen_range(0.5..1.5);
            let stages: Vec<PlannedStage> = STAGES
                .iter()
                .map(|&(name, instance, base_secs)| PlannedStage {
                    name: name.into(),
                    instance: instance.into(),
                    runtime_secs: (base_secs * size).round().max(1.0) as u64,
                })
                .collect();
            let total: u64 = stages.iter().map(|s| s.runtime_secs).sum();
            FleetJob {
                plan: JobPlan { id: id as u64, stages, deadline_secs: total * 9 / 5 + 240 },
                arrival_secs,
            }
        })
        .collect()
}

/// Spans marking an injected fault: a `fault/…` path segment or a
/// `fault` attribute on a request span.
fn count_fault_spans(trace: &Trace) -> u64 {
    trace
        .records()
        .iter()
        .filter(|r| r.path.contains("fault/") || r.attrs.iter().any(|(k, _)| k == "fault"))
        .count() as u64
}

/// Drive all three loops under `plan`, check every invariant, and fold
/// the outcome into a [`SimtestReport`].
///
/// # Errors
///
/// Returns [`SimtestError`] for invalid plans, or when a driven loop
/// rejects its workload outright. Invariant violations are
/// NOT errors — they are data, reported in
/// [`SimtestReport::violations`] so the shrinker can bisect the plan.
pub fn run_simtest(config: &SimtestConfig, plan: &FaultPlan) -> Result<SimtestRun, SimtestError> {
    run_simtest_traced(config, plan, &Tracer::disabled())
}

/// [`run_simtest`] with span export: each phase runs on a private
/// tracer (the harness must drain them to count fault spans), and the
/// drained traces are adopted into `tracer` under `fleet/`, `serve/`,
/// and `lifecycle/` roots so callers can export the full span tree.
///
/// # Errors
///
/// Same contract as [`run_simtest`].
pub fn run_simtest_traced(
    config: &SimtestConfig,
    plan: &FaultPlan,
    tracer: &Tracer,
) -> Result<SimtestRun, SimtestError> {
    plan.validate()?;
    let hooks = Arc::new(PlanFaults::new(plan.clone()));
    let mut violations: Vec<Violation> = Vec::new();
    let mut fault_spans = 0u64;

    // Fleet phase.
    let jobs = fleet_jobs(config);
    let mut fleet_config = FleetConfig::on_demand(config.seed);
    fleet_config.max_stage_attempts = MAX_STAGE_ATTEMPTS;
    let fleet_tracer = Tracer::new();
    let fleet = FleetSimulator::new(Catalog::aws_like())
        .with_tracer(fleet_tracer.clone())
        .with_faults(Arc::clone(&hooks) as SharedFleetFaults)
        .run(&jobs, &fleet_config)?;
    let fleet_trace = fleet_tracer.drain();
    fault_spans += count_fault_spans(&fleet_trace);
    tracer.adopt(0, "fleet", fleet_trace);
    violations.extend(check::check_fleet_conservation(&fleet));

    // Serve phase. The workload interleaves external uploads (the
    // checked-in ingest fixtures) so corruption and flood faults have
    // real ingest traffic to hit, and the quarantine invariant gets
    // exercised on every run.
    let pool = design_pool();
    let requests = synthetic_requests_with_uploads(
        &pool,
        &fixtures::uploads(),
        &WorkloadConfig {
            requests: SERVE_REQUESTS,
            rate_per_sec: 150.0,
            seed: config.seed,
            ingest_every: 4,
            ..Default::default()
        },
    );
    let serve_tracer = Tracer::new();
    let server = Server::new(
        ModelSnapshot::seeded(&ModelConfig::fast(), config.seed),
        Box::new(CostTablePlanner::aws_like()),
        ServeConfig { workers: config.workers, ..Default::default() },
    )
    .with_ingestor(Box::new(FrontDoor::with_pool_profile(FrontDoorConfig::default())))
    .with_tracer(serve_tracer.clone())
    .with_faults(Arc::clone(&hooks) as SharedServeFaults);
    let (serve, serve_outcomes) = server.run(config.seed, &requests)?;
    let serve_trace = serve_tracer.drain();
    fault_spans += count_fault_spans(&serve_trace);
    tracer.adopt(1, "serve", serve_trace);
    violations.extend(check::check_serve_conservation(
        &serve,
        &serve_outcomes,
        SERVE_REQUESTS as u64,
    ));
    violations.extend(check::check_ingest_quarantine(&serve, &serve_outcomes));

    // Lifecycle phase.
    let lifecycle_config = config.lifecycle_config();
    let lifecycle_tracer = Tracer::new();
    let controller = LifecycleController::new(lifecycle_config.clone())?
        .with_tracer(lifecycle_tracer.clone())
        .with_faults(Arc::clone(&hooks) as SharedLifecycleFaults);
    #[cfg(feature = "planted-guardrail-bug")]
    let controller = if config.planted_guardrail_bug {
        controller.with_planted_guardrail_bug()
    } else {
        controller
    };
    #[cfg(not(feature = "planted-guardrail-bug"))]
    if config.planted_guardrail_bug {
        return Err(SimtestError::Config(
            "planted_guardrail_bug requires the `planted-guardrail-bug` feature",
        ));
    }
    let (lifecycle, feedback) = controller.run();
    let lifecycle_trace = lifecycle_tracer.drain();
    fault_spans += count_fault_spans(&lifecycle_trace);
    tracer.adopt(2, "lifecycle", lifecycle_trace);
    violations.extend(check::check_lifecycle_conservation(
        &lifecycle,
        &feedback,
        LIFECYCLE_REQUESTS as u64,
    ));
    violations.extend(check::check_cache_coherence(&feedback));
    violations.extend(check::check_monotonic_time(&lifecycle));
    violations.extend(check::check_guardrail_soundness(&lifecycle, &feedback, &lifecycle_config));

    // Engine phase: the multi-region simulation under the plan's
    // cross-shard faults. Delays and partitions bend delivery times;
    // the conservation checker demands that no envelope (and no
    // migrated job) is lost without being accounted as dropped.
    let region_config = RegionSimConfig {
        seed: config.seed,
        regions: ENGINE_REGIONS as u32,
        jobs: ENGINE_JOBS,
        ..RegionSimConfig::default()
    };
    let region_jobs = synthetic_region_jobs(&region_config)?;
    let regions = RegionSim::run_with(
        &region_config,
        &region_jobs,
        Arc::clone(&hooks) as Arc<dyn EngineFaults>,
        config.workers,
        ENGINE_REGIONS,
    )?;
    violations.extend(check::check_cross_shard_conservation(&regions));

    // Corruption phase: every scheduled snapshot bit-flip must be
    // rejected by the snapshot checksum with a typed error.
    let snapshot_text = ModelSnapshot::seeded(&ModelConfig::fast(), config.seed).to_text();
    let mut corruption_injected = 0u64;
    let mut corruption_rejected = 0u64;
    for event in &plan.events {
        if let FaultEvent::SnapshotCorruption { byte_index } = *event {
            corruption_injected += 1;
            let idx = (byte_index as usize) % snapshot_text.len();
            let mut bytes = snapshot_text.clone().into_bytes();
            bytes[idx] ^= 0x01;
            let rejected = match String::from_utf8(bytes) {
                Ok(corrupted) => ModelSnapshot::from_text(&corrupted).is_err(),
                // A flip that breaks UTF-8 cannot even reach the
                // parser; that counts as rejected.
                Err(_) => true,
            };
            if rejected {
                corruption_rejected += 1;
            } else {
                violations.push(Violation {
                    checker: "corruption_rejected",
                    detail: format!("snapshot with byte {idx} flipped loaded without error"),
                });
            }
        }
    }

    let sum = |f: fn(&eda_cloud_engine::RegionCounters) -> u64| {
        regions.regions.iter().map(f).sum::<u64>()
    };
    let engine = EnginePhase {
        submitted: sum(|c| c.submitted),
        served: sum(|c| c.served),
        quota_rejected: sum(|c| c.quota_rejected),
        shed: sum(|c| c.shed),
        migrated: sum(|c| c.migrated_out),
        sent: regions.messages.sent,
        delivered: regions.messages.delivered,
        dropped: regions.messages.dropped,
        delayed: regions.messages.delayed,
        held: regions.messages.held,
    };
    let report = SimtestReport {
        seed: config.seed,
        plan: plan.clone(),
        fleet: fleet.counters,
        serve: serve.counters,
        lifecycle: lifecycle.counters,
        engine,
        fleet_digest: fnv1a64(fleet.to_json().as_bytes()),
        serve_digest: fnv1a64(serve.to_json().as_bytes()),
        lifecycle_digest: fnv1a64(lifecycle.to_json().as_bytes()),
        engine_digest: fnv1a64(regions.to_json().as_bytes()),
        fault_spans,
        corruption_injected,
        corruption_rejected,
        violations,
    };
    Ok(SimtestRun { report, fleet, serve, serve_outcomes, lifecycle, feedback, regions })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_workload_is_deterministic_and_sized() {
        let config = SimtestConfig::default();
        let a = fleet_jobs(&config);
        let b = fleet_jobs(&config);
        assert_eq!(a, b);
        assert_eq!(a.len(), FLEET_JOBS);
        assert!(a.iter().all(|j| j.plan.stages.len() == 4));
        // Sizes differ across jobs (seeded per-job factor).
        assert_ne!(a[0].plan.planned_runtime_secs(), a[1].plan.planned_runtime_secs());
    }
}
