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
use crate::{AdmitRejection, EngineError, EngineFaults, EventHeap, FairShare};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
/// Conservative lookahead window, µs; at most the cross-region message
/// latency.
const LOOKAHEAD_US: u64 = 50_000;
const _: () = assert!(0 < LOOKAHEAD_US && LOOKAHEAD_US <= INTER_REGION_LATENCY_US);
/// Distinct cacheable design keys.
const DESIGNS: u64 = 16;
const _: () = assert!(DESIGNS <= u16::BITS as u64, "every design needs a bit of DesignCache");
/// Gap between model-rollout wave starts, µs.
const WAVE_INTERVAL_US: u64 = 200_000;

/// How to run a multi-region simulation. Every tenant gets an equal
/// share of each region's run queue.
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
    /// Percent of jobs that update their design (completing one
    /// broadcasts a cache invalidation to every other region), 0–100.
    pub update_pct: u32,
    /// Local queue depth at which a fresh arrival is migrated to the
    /// next region instead of queued.
    pub migrate_threshold: u32,
    /// Run-queue capacity per region, split equally among the tenants.
    pub queue_capacity: usize,
    /// Per-tenant hard quota on queued jobs per region, applied on top
    /// of the tenant's equal share of `queue_capacity`.
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
            update_pct: 25,
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
        if self.update_pct > 100 {
            return Err(EngineError::InvalidConfig("update percentage must be in 0..=100"));
        }
        if self.queue_capacity == 0 {
            return Err(EngineError::InvalidConfig("queue capacity must be positive"));
        }
        if self.tenant_quota == 0 {
            return Err(EngineError::InvalidConfig("tenant quota must be positive"));
        }
        Ok(())
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
            design: rng.gen_range(0..DESIGNS),
            update: rng.gen_range(0u32..100) < config.update_pct,
        });
    }
    Ok(jobs)
}

/// A job as it moves through queues and across regions. The derived
/// order compares `ord` first, and no two jobs share one, so it is the
/// ordinal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

/// A region's run queue: admitted jobs, popped in ascending
/// `(stride tag, ordinal)` order. The pair is unique, so the order is
/// total.
type RunQueue = BinaryHeap<Reverse<(u64, QueuedJob)>>;

/// A region's replicated design cache: bit `d` is set while design
/// `d`'s result is warm. `RegionSim::run_with` reduces every design
/// below [`DESIGNS`].
#[derive(Clone, Copy, Default)]
struct DesignCache(u16);

impl DesignCache {
    fn contains(self, design: u64) -> bool {
        self.0 & (1 << design) != 0
    }

    fn insert(&mut self, design: u64) {
        self.0 |= 1 << design;
    }

    fn remove(&mut self, design: u64) {
        self.0 &= !(1 << design);
    }
}

/// One region's full state.
struct RegionState {
    id: u32,
    regions: u32,
    latency_us: u64,
    migrate_threshold: u32,
    heap: EventHeap<RegionEvent>,
    fair: FairShare,
    queue: RunQueue,
    slots_free: u32,
    cache: DesignCache,
    counters: RegionCounters,
    latency_hist: Histogram,
    traffic_hist: Histogram,
}

impl RegionState {
    /// A region whose event heap holds its `arrivals` without
    /// regrowing.
    fn new(id: u32, arrivals: usize, config: &RegionSimConfig) -> Result<Self, EngineError> {
        Ok(Self {
            id,
            regions: config.regions,
            latency_us: INTER_REGION_LATENCY_US,
            migrate_threshold: config.migrate_threshold,
            heap: EventHeap::with_capacity(arrivals),
            fair: FairShare::new(config.tenants, config.tenant_quota, config.queue_capacity)?,
            queue: RunQueue::new(),
            slots_free: SERVERS_PER_REGION,
            cache: DesignCache::default(),
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
                self.queue.push(Reverse((tag, job)));
                self.pump(now)
            }
            Err(AdmitRejection::QuotaExceeded) => {
                self.counters.quota_rejected += 1;
                Ok(())
            }
            Err(AdmitRejection::CapacityExhausted) => {
                self.counters.shed += 1;
                Ok(())
            }
        }
    }

    /// Start queued jobs on free slots, in ascending stride-tag order.
    fn pump(&mut self, now: u64) -> Result<(), EngineError> {
        while self.slots_free > 0 {
            let Some(Reverse((tag, job))) = self.queue.pop() else {
                break;
            };
            self.slots_free -= 1;
            let mut service = job.service_us.max(1);
            if self.cache.contains(job.design) {
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
        self.cache = DesignCache::default();
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
                        self.cache.remove(design);
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
                "{{\"tenant\":{i},\"submitted\":{},\"admitted\":{},\"served\":{},\
                 \"quota_rejected\":{},\"shed\":{}}}",
                t.submitted, t.admitted, t.served, t.quota_rejected, t.shed,
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
        let mut tenants = vec![TenantUsage::default(); config.tenants as usize];
        let mut arrivals = vec![0usize; config.regions as usize];
        for job in jobs {
            if job.region >= config.regions {
                return Err(EngineError::InvalidConfig("job names a region outside the topology"));
            }
            if job.tenant >= config.tenants {
                return Err(EngineError::InvalidConfig("job names a tenant outside the table"));
            }
            tenants[job.tenant as usize].submitted += 1;
            arrivals[job.region as usize] += 1;
        }
        let mut regions = (0..config.regions)
            .zip(arrivals)
            .map(|(id, arrivals)| RegionState::new(id, arrivals, config))
            .collect::<Result<Vec<_>, _>>()?;
        for (ord, job) in jobs.iter().enumerate() {
            regions[job.region as usize].heap.push(
                job.arrival_us,
                RegionEvent::Arrival(QueuedJob {
                    ord: ord as u64,
                    tenant: job.tenant,
                    design: job.design % DESIGNS,
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
        let mut sim = ShardedSim::with_faults(regions, LOOKAHEAD_US, faults)?;
        sim.run(workers, shards)?;
        let stats = sim.stats();
        let windows = sim.windows();
        let regions = sim.into_regions();

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
mod tests;
