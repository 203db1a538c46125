//! The multi-region workload: tenant job streams, per-region service
//! slots behind fair-share admission, and all three cross-region
//! traffic kinds — job migration, staged model-rollout waves, and
//! replicated cache invalidations — riding the sharded substrate.
//!
//! Every region is a [`RegionShard`]: an event heap, a
//! [`FairShare`]-fronted run queue ordered by stride tag, a bank of
//! service slots, and a replicated design cache. The simulation is a
//! pure function of `(config, jobs, faults)`; the folded
//! [`RegionReport`] renders to byte-stable JSON, so worker- and
//! shard-count invariance is checked with `diff`.

use crate::message::{Envelope, Outbox};
use eda_cloud_trace::Histogram;
use crate::sharded::{MessageStats, RegionShard, ShardedSim};
use crate::time::checked_add_us;
use crate::{AdmitRejection, EngineError, EngineFaults, EventHeap, FairShare, TenantPolicy};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;

/// Latency histogram bucket edges, µs (job arrival → completion).
const LATENCY_EDGES_US: [f64; 7] =
    [10_000.0, 50_000.0, 100_000.0, 500_000.0, 1_000_000.0, 5_000_000.0, 10_000_000.0];

/// Cross-region traffic histogram bucket edges, µs (send → delivery).
const TRAFFIC_EDGES_US: [f64; 5] = [50_000.0, 100_000.0, 200_000.0, 500_000.0, 1_000_000.0];

/// Service slots per region.
const SERVERS_PER_REGION: u32 = 2;
/// Mean job service time, µs.
const MEAN_SERVICE_US: u64 = 40_000;
/// Mean inter-arrival gap of the synthetic workload, µs.
const MEAN_GAP_US: u64 = 5_000;
/// Cross-region message latency, µs; must be at least the lookahead.
const INTER_REGION_LATENCY_US: u64 = 60_000;
/// Gap between model-rollout wave starts, µs.
const WAVE_INTERVAL_US: u64 = 200_000;

/// How to run a multi-region simulation. Every tenant has fair-share
/// weight 1.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSimConfig {
    /// Seed for the synthetic workload.
    pub seed: u64,
    /// Number of regions.
    pub regions: u32,
    /// Number of tenants sharing every region.
    pub tenants: u32,
    /// Jobs in the synthetic workload.
    pub jobs: u64,
    /// Distinct cacheable design keys.
    pub designs: u64,
    /// Percent of jobs that update their design (completing one
    /// broadcasts a cache invalidation to every other region), 0–100.
    pub update_pct: u32,
    /// Conservative lookahead window, µs; at most the cross-region
    /// message latency.
    pub lookahead_us: u64,
    /// Local queue depth at which a fresh arrival is migrated to the
    /// next region instead of queued.
    pub migrate_threshold: u32,
    /// Run-queue capacity per region (fair-share total).
    pub queue_capacity: usize,
    /// Per-tenant hard quota on queued jobs per region.
    pub tenant_quota: u32,
    /// Model-rollout waves to stage through the regions.
    pub rollout_waves: u32,
}

impl Default for RegionSimConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            regions: 3,
            tenants: 4,
            jobs: 200,
            designs: 16,
            update_pct: 25,
            lookahead_us: 50_000,
            migrate_threshold: 12,
            queue_capacity: 32,
            tenant_quota: 16,
            rollout_waves: 2,
        }
    }
}

impl RegionSimConfig {
    /// Check every structural constraint the simulation relies on.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.regions == 0 {
            return Err(EngineError::InvalidConfig("region sim needs at least one region"));
        }
        if self.tenants == 0 {
            return Err(EngineError::InvalidConfig("region sim needs at least one tenant"));
        }
        if self.designs == 0 {
            return Err(EngineError::InvalidConfig("the design pool cannot be empty"));
        }
        if self.update_pct > 100 {
            return Err(EngineError::InvalidConfig("update percentage must be in 0..=100"));
        }
        if self.lookahead_us == 0 {
            return Err(EngineError::InvalidConfig("lookahead window must be positive"));
        }
        if INTER_REGION_LATENCY_US < self.lookahead_us {
            return Err(EngineError::InvalidConfig(
                "cross-region latency must be at least the lookahead window",
            ));
        }
        if self.queue_capacity == 0 {
            return Err(EngineError::InvalidConfig("queue capacity must be positive"));
        }
        if self.tenant_quota == 0 {
            return Err(EngineError::InvalidConfig("tenant quota must be positive"));
        }
        Ok(())
    }

    /// The per-tenant policies this config implies.
    fn policies(&self) -> Vec<TenantPolicy> {
        let policy = TenantPolicy { weight: 1, max_queued: self.tenant_quota };
        vec![policy; self.tenants as usize]
    }
}

/// One job in the multi-region workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionJob {
    /// Arrival time at the home region, µs.
    pub arrival_us: u64,
    /// Home region.
    pub region: u32,
    /// Owning tenant.
    pub tenant: u32,
    /// Service time, µs (halved on a warm design cache).
    pub service_us: u64,
    /// Design key (the cache key).
    pub design: u64,
    /// Whether completing this job invalidates the design's cached
    /// result in every other region.
    pub update: bool,
}

/// The seeded synthetic workload for `config`.
pub fn synthetic_region_jobs(config: &RegionSimConfig) -> Result<Vec<RegionJob>, EngineError> {
    config.validate()?;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5EED_0E61_0E5C_u64);
    let mut t = 0u64;
    let mut jobs = Vec::with_capacity(config.jobs as usize);
    for _ in 0..config.jobs {
        t = checked_add_us(t, rng.gen_range(0..=MEAN_GAP_US * 2))?;
        let service_lo = MEAN_SERVICE_US / 2;
        let service_hi = (MEAN_SERVICE_US * 3).div_ceil(2);
        jobs.push(RegionJob {
            arrival_us: t,
            region: rng.gen_range(0..config.regions),
            tenant: rng.gen_range(0..config.tenants),
            service_us: rng.gen_range(service_lo..service_hi),
            design: rng.gen_range(0..config.designs),
            update: rng.gen_range(0u32..100) < config.update_pct,
        });
    }
    Ok(jobs)
}

/// A job as it moves through queues and across regions.
#[derive(Debug, Clone, Copy)]
struct QueuedJob {
    /// Global workload ordinal — the deterministic tie-breaker.
    ord: u64,
    tenant: u32,
    design: u64,
    service_us: u64,
    arrival_us: u64,
    update: bool,
    /// Set when the job has already been migrated once; migrated jobs
    /// never bounce again.
    migrated: bool,
}

/// Cross-region message payloads.
#[derive(Debug, Clone, Copy)]
enum RegionMsg {
    /// A job forwarded from an overloaded region.
    Migrate(QueuedJob),
    /// The staged model-rollout wave, forwarded region by region.
    Rollout { version: u32 },
    /// A replicated cache invalidation for one design.
    Invalidate { design: u64 },
}

/// Local events inside one region.
#[derive(Debug, Clone, Copy)]
enum RegionEvent {
    /// A job arriving at its home region.
    Arrival(QueuedJob),
    /// The wave origin firing in region 0.
    Wave { version: u32 },
    /// A cross-region message reaching its delivery time.
    Deliver { send_time_us: u64, msg: RegionMsg },
    /// A service slot finishing a job.
    Done { tenant: u32, tag: u64, design: u64, arrival_us: u64, update: bool },
}

/// Per-region outcome counters for the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionCounters {
    /// Jobs that arrived at this region as their home.
    pub submitted: u64,
    /// Jobs admitted into the run queue (home or migrated-in).
    pub admitted: u64,
    /// Jobs served to completion here.
    pub served: u64,
    /// Jobs rejected by a tenant quota / share bound.
    pub quota_rejected: u64,
    /// Jobs shed because the whole queue was full.
    pub shed: u64,
    /// Fresh arrivals forwarded to the next region under overload.
    pub migrated_out: u64,
    /// Migrated jobs accepted from another region.
    pub migrated_in: u64,
    /// Jobs served from a warm design cache.
    pub cache_hits: u64,
    /// Cache invalidations applied from other regions.
    pub invalidations_applied: u64,
    /// Model-rollout waves applied.
    pub waves_applied: u64,
    /// Model version after the last applied wave.
    pub final_version: u32,
    /// Time of the last completion in this region, µs.
    pub makespan_us: u64,
}

/// Per-tenant usage folded across regions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Fair-share weight.
    pub weight: u64,
    /// Jobs the tenant submitted (workload-wide).
    pub submitted: u64,
    /// Jobs admitted across regions.
    pub admitted: u64,
    /// Jobs served across regions.
    pub served: u64,
    /// Quota rejections across regions.
    pub quota_rejected: u64,
    /// Capacity rejections across regions.
    pub shed: u64,
}

/// One region's full state.
struct RegionState {
    id: u32,
    regions: u32,
    latency_us: u64,
    migrate_threshold: u32,
    heap: EventHeap<RegionEvent>,
    fair: FairShare,
    queue: BTreeMap<(u64, u64), QueuedJob>,
    slots_free: u32,
    cache: BTreeSet<u64>,
    counters: RegionCounters,
    latency_hist: Histogram,
    traffic_hist: Histogram,
}

impl RegionState {
    fn new(id: u32, config: &RegionSimConfig) -> Result<Self, EngineError> {
        Ok(Self {
            id,
            regions: config.regions,
            latency_us: INTER_REGION_LATENCY_US,
            migrate_threshold: config.migrate_threshold,
            heap: EventHeap::new(),
            fair: FairShare::new(config.policies(), config.queue_capacity)?,
            queue: BTreeMap::new(),
            slots_free: SERVERS_PER_REGION,
            cache: BTreeSet::new(),
            counters: RegionCounters::default(),
            latency_hist: Histogram::new(LATENCY_EDGES_US.to_vec()),
            traffic_hist: Histogram::new(TRAFFIC_EDGES_US.to_vec()),
        })
    }

    /// Admit (or reject) a job, migrating fresh arrivals away when the
    /// local queue is already deep.
    fn accept(
        &mut self,
        now: u64,
        mut job: QueuedJob,
        outbox: &mut Outbox<RegionMsg>,
        fresh_arrival: bool,
    ) -> Result<(), EngineError> {
        let deep = self.queue.len() >= self.migrate_threshold as usize;
        if fresh_arrival && deep && !job.migrated && self.regions > 1 {
            job.migrated = true;
            let next = (self.id + 1) % self.regions;
            outbox.send(now, next, self.latency_us, RegionMsg::Migrate(job))?;
            self.counters.migrated_out += 1;
            return Ok(());
        }
        match self.fair.try_admit(job.tenant) {
            Ok(tag) => {
                self.counters.admitted += 1;
                self.queue.insert((tag, job.ord), job);
                self.pump(now)
            }
            Err(AdmitRejection::QuotaExceeded { .. }) => {
                self.counters.quota_rejected += 1;
                Ok(())
            }
            Err(AdmitRejection::CapacityExhausted { .. }) => {
                self.counters.shed += 1;
                Ok(())
            }
        }
    }

    /// Start queued jobs on free slots, in ascending stride-tag order.
    fn pump(&mut self, now: u64) -> Result<(), EngineError> {
        while self.slots_free > 0 {
            let Some((&(tag, ord), _)) = self.queue.first_key_value() else {
                break;
            };
            let job = self.queue.remove(&(tag, ord)).expect("key just observed");
            self.slots_free -= 1;
            let mut service = job.service_us.max(1);
            if self.cache.contains(&job.design) {
                self.counters.cache_hits += 1;
                service = (service / 2).max(1);
            }
            let done_at = checked_add_us(now, service)?;
            self.heap.push(
                done_at,
                RegionEvent::Done {
                    tenant: job.tenant,
                    tag,
                    design: job.design,
                    arrival_us: job.arrival_us,
                    update: job.update,
                },
            );
        }
        Ok(())
    }

    /// Apply a rollout wave locally and forward it to the next region
    /// in the staged chain.
    fn apply_wave(
        &mut self,
        now: u64,
        version: u32,
        outbox: &mut Outbox<RegionMsg>,
    ) -> Result<(), EngineError> {
        self.counters.waves_applied += 1;
        self.counters.final_version = version;
        // A new model version invalidates every replicated result.
        self.cache.clear();
        if self.id + 1 < self.regions {
            outbox.send(now, self.id + 1, self.latency_us, RegionMsg::Rollout { version })?;
        }
        Ok(())
    }

    fn handle(
        &mut self,
        now: u64,
        event: RegionEvent,
        outbox: &mut Outbox<RegionMsg>,
    ) -> Result<(), EngineError> {
        match event {
            RegionEvent::Arrival(job) => {
                self.counters.submitted += 1;
                self.accept(now, job, outbox, true)
            }
            RegionEvent::Wave { version } => self.apply_wave(now, version, outbox),
            RegionEvent::Deliver { send_time_us, msg } => {
                self.traffic_hist.record((now - send_time_us) as f64);
                match msg {
                    RegionMsg::Migrate(job) => {
                        self.counters.migrated_in += 1;
                        self.accept(now, job, outbox, false)
                    }
                    RegionMsg::Rollout { version } => self.apply_wave(now, version, outbox),
                    RegionMsg::Invalidate { design } => {
                        self.counters.invalidations_applied += 1;
                        self.cache.remove(&design);
                        Ok(())
                    }
                }
            }
            RegionEvent::Done { tenant, tag, design, arrival_us, update } => {
                self.slots_free += 1;
                self.fair.on_serve(tenant, tag);
                self.counters.served += 1;
                self.counters.makespan_us = self.counters.makespan_us.max(now);
                self.latency_hist.record((now - arrival_us) as f64);
                self.cache.insert(design);
                if update {
                    // Replicate the invalidation to every other region.
                    for r in 0..self.regions {
                        if r != self.id {
                            outbox.send(now, r, self.latency_us, RegionMsg::Invalidate { design })?;
                        }
                    }
                }
                self.pump(now)
            }
        }
    }
}

impl RegionShard for RegionState {
    type Msg = RegionMsg;

    fn next_time(&self) -> Option<u64> {
        self.heap.peek_time()
    }

    fn advance(
        &mut self,
        horizon_us: u64,
        outbox: &mut Outbox<RegionMsg>,
    ) -> Result<(), EngineError> {
        while self.heap.peek_time().is_some_and(|t| t < horizon_us) {
            let (t, event) = self.heap.pop().expect("peeked above");
            self.handle(t, event, outbox)?;
        }
        Ok(())
    }

    fn deliver(&mut self, envelope: Envelope<RegionMsg>) -> Result<(), EngineError> {
        self.heap.push(
            envelope.deliver_at_us,
            RegionEvent::Deliver { send_time_us: envelope.send_time_us, msg: envelope.payload },
        );
        Ok(())
    }
}

/// The folded multi-region run report. Renders to byte-stable JSON —
/// identical at any worker or shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// The workload seed.
    pub seed: u64,
    /// Per-region counters, indexed by region id.
    pub regions: Vec<RegionCounters>,
    /// Per-tenant usage folded across regions, indexed by tenant id.
    pub tenants: Vec<TenantUsage>,
    /// Cross-shard message accounting.
    pub messages: MessageStats,
    /// Barrier windows the coordinator executed.
    pub windows: u64,
    /// Last completion time across regions, µs.
    pub makespan_us: u64,
    /// Job latency distribution (arrival → completion), µs.
    pub latency_hist: Histogram,
    /// Cross-region traffic latency distribution (send → delivery), µs.
    pub traffic_hist: Histogram,
}

impl RegionReport {
    /// Render as a single JSON object with fixed key order — two
    /// reports are equal iff their JSON is byte-identical.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push('{');
        let _ = write!(s, "\"seed\":{},", self.seed);
        let sum = |f: fn(&RegionCounters) -> u64| self.regions.iter().map(f).sum::<u64>();
        let _ = write!(
            s,
            "\"totals\":{{\"submitted\":{},\"admitted\":{},\"served\":{},\"quota_rejected\":{},\
             \"shed\":{},\"migrated\":{},\"cache_hits\":{},\"invalidations\":{},\"waves\":{}}},",
            sum(|c| c.submitted),
            sum(|c| c.admitted),
            sum(|c| c.served),
            sum(|c| c.quota_rejected),
            sum(|c| c.shed),
            sum(|c| c.migrated_out),
            sum(|c| c.cache_hits),
            sum(|c| c.invalidations_applied),
            sum(|c| c.waves_applied),
        );
        let m = &self.messages;
        let _ = write!(
            s,
            "\"messages\":{{\"sent\":{},\"delivered\":{},\"dropped\":{},\"delayed\":{},\
             \"held\":{}}},",
            m.sent, m.delivered, m.dropped, m.delayed, m.held
        );
        let _ = write!(s, "\"windows\":{},", self.windows);
        let _ = write!(s, "\"makespan_us\":{},", self.makespan_us);
        s.push_str("\"per_region\":[");
        for (i, c) in self.regions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"region\":{i},\"submitted\":{},\"admitted\":{},\"served\":{},\
                 \"quota_rejected\":{},\"shed\":{},\"migrated_out\":{},\"migrated_in\":{},\
                 \"cache_hits\":{},\"invalidations_applied\":{},\"waves_applied\":{},\
                 \"final_version\":{},\"makespan_us\":{}}}",
                c.submitted,
                c.admitted,
                c.served,
                c.quota_rejected,
                c.shed,
                c.migrated_out,
                c.migrated_in,
                c.cache_hits,
                c.invalidations_applied,
                c.waves_applied,
                c.final_version,
                c.makespan_us,
            );
        }
        s.push_str("],\"per_tenant\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"tenant\":{i},\"weight\":{},\"submitted\":{},\"admitted\":{},\"served\":{},\
                 \"quota_rejected\":{},\"shed\":{}}}",
                t.weight, t.submitted, t.admitted, t.served, t.quota_rejected, t.shed,
            );
        }
        s.push_str("],");
        let _ = write!(s, "\"latency_hist\":{},", self.latency_hist.to_json());
        let _ = write!(s, "\"traffic_hist\":{}", self.traffic_hist.to_json());
        s.push('}');
        s
    }
}

/// The multi-region simulation entry points.
pub struct RegionSim;

impl RegionSim {
    /// Run the seeded synthetic workload for `config` at the given
    /// fan-out. `workers` and `shards` shape execution only — the
    /// report is byte-identical for any values.
    pub fn run(
        config: &RegionSimConfig,
        workers: usize,
        shards: usize,
    ) -> Result<RegionReport, EngineError> {
        let jobs = synthetic_region_jobs(config)?;
        Self::run_with(config, &jobs, Arc::new(crate::NoEngineFaults), workers, shards)
    }

    /// Run an explicit workload under fault hooks.
    pub fn run_with(
        config: &RegionSimConfig,
        jobs: &[RegionJob],
        faults: Arc<dyn EngineFaults>,
        workers: usize,
        shards: usize,
    ) -> Result<RegionReport, EngineError> {
        config.validate()?;
        let mut regions = (0..config.regions)
            .map(|id| RegionState::new(id, config))
            .collect::<Result<Vec<_>, _>>()?;
        for (ord, job) in jobs.iter().enumerate() {
            if job.region >= config.regions {
                return Err(EngineError::InvalidConfig("job names a region outside the topology"));
            }
            if job.tenant >= config.tenants {
                return Err(EngineError::InvalidConfig("job names a tenant outside the table"));
            }
            regions[job.region as usize].heap.push(
                job.arrival_us,
                RegionEvent::Arrival(QueuedJob {
                    ord: ord as u64,
                    tenant: job.tenant,
                    design: job.design % config.designs,
                    service_us: job.service_us,
                    arrival_us: job.arrival_us,
                    update: job.update,
                    migrated: false,
                }),
            );
        }
        // Rollout waves originate in region 0 and stage outward.
        for wave in 0..config.rollout_waves {
            let at = WAVE_INTERVAL_US
                .checked_mul(u64::from(wave) + 1)
                .ok_or(EngineError::Time("wave start overflows the microsecond clock"))?;
            regions[0].heap.push(at, RegionEvent::Wave { version: wave + 1 });
        }
        let mut sim = ShardedSim::with_faults(regions, config.lookahead_us, faults)?;
        sim.run(workers, shards)?;
        let stats = sim.stats();
        let windows = sim.windows();
        let regions = sim.into_regions();

        let mut tenants =
            vec![TenantUsage { weight: 1, ..TenantUsage::default() }; config.tenants as usize];
        for job in jobs {
            tenants[job.tenant as usize].submitted += 1;
        }
        let mut latency_hist = Histogram::new(LATENCY_EDGES_US.to_vec());
        let mut traffic_hist = Histogram::new(TRAFFIC_EDGES_US.to_vec());
        let mut makespan_us = 0u64;
        let mut counters = Vec::with_capacity(regions.len());
        for region in &regions {
            for (t, c) in region.fair.counters().iter().enumerate() {
                tenants[t].admitted += c.admitted;
                tenants[t].served += c.served;
                tenants[t].quota_rejected += c.quota_rejected;
                tenants[t].shed += c.capacity_rejected;
            }
            // Every region builds its histograms from the same constant
            // edges, so a mismatch here is a bug in this file.
            latency_hist.merge(&region.latency_hist).expect("regions share LATENCY_EDGES_US");
            traffic_hist.merge(&region.traffic_hist).expect("regions share TRAFFIC_EDGES_US");
            makespan_us = makespan_us.max(region.counters.makespan_us);
            counters.push(region.counters);
        }
        Ok(RegionReport {
            seed: config.seed,
            regions: counters,
            tenants,
            messages: stats,
            windows,
            makespan_us,
            latency_hist,
            traffic_hist,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates_and_runs() {
        let report = RegionSim::run(&RegionSimConfig::default(), 1, 1).expect("runs");
        let submitted: u64 = report.regions.iter().map(|c| c.submitted).sum();
        assert_eq!(submitted, 200);
        let served: u64 = report.regions.iter().map(|c| c.served).sum();
        let quota: u64 = report.regions.iter().map(|c| c.quota_rejected).sum();
        let shed: u64 = report.regions.iter().map(|c| c.shed).sum();
        assert_eq!(served + quota + shed, submitted, "every job reaches a terminal outcome");
        assert!(report.messages.sent > 0, "cross-region traffic flows");
        assert_eq!(report.messages.sent, report.messages.delivered + report.messages.dropped);
        assert!(report.regions.iter().all(|c| c.final_version == 2), "both waves landed");
    }

    #[test]
    fn report_is_byte_identical_across_workers_and_shards() {
        let config = RegionSimConfig::default();
        let baseline = RegionSim::run(&config, 1, 1).expect("runs").to_json();
        for (workers, shards) in [(2, 1), (2, 3), (8, 3), (8, 1), (1, 3)] {
            let json = RegionSim::run(&config, workers, shards).expect("runs").to_json();
            assert_eq!(baseline, json, "workers={workers} shards={shards}");
        }
    }

    #[test]
    fn quota_bounds_a_bursting_tenant() {
        // Tenant 0 floods region 0 at t=0; tenants 1..3 trickle in.
        // The fair-share bound keeps tenant 0 from monopolizing the
        // queue and the rejection counters prove enforcement.
        let config = RegionSimConfig {
            regions: 1,
            tenants: 3,
            migrate_threshold: u32::MAX, // isolate admission from migration
            queue_capacity: 12,
            tenant_quota: 16, // higher than the share bound: the fair share binds
            rollout_waves: 0,
            ..RegionSimConfig::default()
        };
        let mut jobs = Vec::new();
        for i in 0..60u64 {
            jobs.push(RegionJob {
                arrival_us: 0,
                region: 0,
                tenant: 0,
                service_us: 50_000,
                design: i % 4,
                update: false,
            });
        }
        for i in 0..6u64 {
            jobs.push(RegionJob {
                arrival_us: 1_000 + i,
                region: 0,
                tenant: 1 + (i % 2) as u32,
                service_us: 50_000,
                design: i % 4,
                update: false,
            });
        }
        let report = RegionSim::run_with(
            &config,
            &jobs,
            Arc::new(crate::NoEngineFaults),
            1,
            1,
        )
        .expect("runs");
        let t0 = &report.tenants[0];
        // Share bound for tenant 0: capacity 12 * weight 1 / Σ3 = 4.
        assert!(t0.quota_rejected > 0, "the burst hits the quota: {t0:?}");
        assert_eq!(t0.submitted, 60);
        assert!(
            t0.admitted <= 4 + t0.served,
            "tenant 0 never holds more than its share: {t0:?}"
        );
        // The trickling tenants were not starved by the burst.
        assert_eq!(report.tenants[1].quota_rejected, 0, "{:?}", report.tenants[1]);
        assert_eq!(report.tenants[2].quota_rejected, 0, "{:?}", report.tenants[2]);
        assert_eq!(report.tenants[1].served, report.tenants[1].submitted);
        assert_eq!(report.tenants[2].served, report.tenants[2].submitted);
    }

    #[test]
    fn migration_moves_overload_and_conserves_jobs() {
        let config = RegionSimConfig {
            regions: 2,
            migrate_threshold: 2,
            queue_capacity: 64,
            tenant_quota: 64,
            rollout_waves: 0,
            update_pct: 0,
            ..RegionSimConfig::default()
        };
        // Flood region 0 only.
        let jobs: Vec<RegionJob> = (0..40)
            .map(|i| RegionJob {
                arrival_us: i * 100,
                region: 0,
                tenant: (i % 4) as u32,
                service_us: 80_000,
                design: i % 8,
                update: false,
            })
            .collect();
        let report =
            RegionSim::run_with(&config, &jobs, Arc::new(crate::NoEngineFaults), 1, 1)
                .expect("runs");
        assert!(report.regions[0].migrated_out > 0, "overload migrates");
        assert_eq!(report.regions[0].migrated_out, report.regions[1].migrated_in);
        let served: u64 = report.regions.iter().map(|c| c.served).sum();
        let rejected: u64 =
            report.regions.iter().map(|c| c.quota_rejected + c.shed).sum();
        assert_eq!(served + rejected, 40, "migration loses no jobs");
        assert!(report.regions[1].served > 0, "the neighbor absorbed work");
    }

    #[test]
    fn waves_stage_region_by_region_in_order() {
        let config = RegionSimConfig {
            jobs: 0,
            rollout_waves: 3,
            ..RegionSimConfig::default()
        };
        let report = RegionSim::run_with(
            &config,
            &[],
            Arc::new(crate::NoEngineFaults),
            1,
            1,
        )
        .expect("runs");
        for c in &report.regions {
            assert_eq!(c.waves_applied, 3);
            assert_eq!(c.final_version, 3);
        }
        // Each wave crosses regions-1 hops.
        assert_eq!(report.messages.sent, u64::from(3 * (config.regions - 1)));
    }

    #[test]
    fn json_shape_is_stable() {
        let report = RegionSim::run(&RegionSimConfig { jobs: 20, ..Default::default() }, 1, 1)
            .expect("runs");
        let json = report.to_json();
        assert_eq!(json, report.to_json());
        assert!(json.starts_with("{\"seed\":7,\"totals\":{\"submitted\":20,"));
        assert!(json.contains("\"per_region\":[{\"region\":0,"));
        assert!(json.contains("\"per_tenant\":[{\"tenant\":0,\"weight\":1,"));
        assert!(json.ends_with('}'));
    }
}
