//! The deterministic simulated-time serving loop.
//!
//! The server plays an arrival-ordered request stream on a logical
//! microsecond clock: arrivals are admitted into the bounded
//! deadline-ordered [`AdmissionQueue`] (shedding with
//! [`ServeError::Overloaded`] when full), the head of the queue is
//! coalesced into a micro-batch, batch misses run through one padded
//! batched GCN forward pass (fanned over up to four stage-model
//! threads), hits come from the keyed LRU result cache, and the clock
//! advances by a service-time model that charges per batch, per miss,
//! per request, and per plan. Everything outside the stage fan-out is
//! single-threaded and the fan-out joins by stage index, so the report
//! and every outcome are byte-identical across runs and worker counts.

use crate::{
    AdmissionQueue, IngestDisposition, IngestOutcome, Ingestor, LruCache, ModelSnapshot,
    NoServeFaults, PlanSummary, Planner, RecipePlanSummary, RecipePlanner, RequestKind,
    ServeCounters, ServeError, ServeReport, ServeRequest, SharedServeFaults,
};
use eda_cloud_trace::{Histogram, LatencyFold, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Simulated marginal cost of one GCN forward (a cache miss), µs. The
/// serving loop charges it per missed design of a batch, the lifecycle
/// controller per missed request.
pub const PER_MISS_US: u64 = 1_000;
/// Simulated per-request assembly cost, µs: every request of a batch
/// here, a cache hit's whole service time in the lifecycle controller.
pub const PER_HIT_US: u64 = 50;
/// Simulated fixed cost of executing one micro-batch, µs.
const BATCH_OVERHEAD_US: u64 = 4_000;
/// Simulated cost of one MCKP solve, µs.
const PLAN_US: u64 = 500;
/// Ingest-cache capacity (uploads, keyed by content fingerprint).
const INGEST_CACHE_CAPACITY: usize = 16;
/// Simulated cost of one fresh (uncached) parse + validate + OOD-gate
/// pass, µs.
const INGEST_US: u64 = 2_000;

/// Serving knobs: batching, queueing, caching and the stage fan-out
/// (the simulated service-time model is the constants above).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Most requests coalesced into one micro-batch.
    pub max_batch: usize,
    /// Admission-queue capacity; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Result-cache capacity (designs); 0 disables caching.
    pub cache_capacity: usize,
    /// Pad each graph's node rows to a multiple of this stride when
    /// packing batches (predictions are stride-invariant).
    pub pad_stride: usize,
    /// Threads for the per-stage batched forwards (capped at 4, one
    /// per stage model); 0 picks the available parallelism. Worker
    /// count never changes results.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            queue_capacity: 32,
            cache_capacity: 32,
            pad_stride: 8,
            workers: 1,
        }
    }
}

impl ServeConfig {
    /// Resolve the worker knob: explicit values pass through, 0 means
    /// the machine's available parallelism; either way at most 4 (one
    /// thread per stage model).
    #[must_use]
    pub fn resolved_workers(&self) -> usize {
        eda_cloud_trace::par::resolve_workers(self.workers, 4)
    }
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// The request was answered.
    Completed {
        /// The request's arrival ordinal.
        ordinal: u64,
        /// Arrival-to-response time on the simulated clock, µs.
        latency_us: u64,
        /// Whether the response met the request's deadline.
        deadline_met: bool,
        /// Whether the prediction came from the result cache.
        cache_hit: bool,
        /// Per-stage predicted runtimes at 1/2/4/8 vCPUs, seconds.
        stage_secs: [[f64; 4]; 4],
        /// The deployment plan, for feasible [`RequestKind::Plan`]
        /// requests; `None` for predictions and infeasible budgets.
        plan: Option<PlanSummary>,
        /// The joint recipe × VM plan, for feasible
        /// [`RequestKind::PlanRecipe`] requests; `None` otherwise
        /// (boxed to keep the outcome enum small).
        recipe: Option<Box<RecipePlanSummary>>,
        /// For [`RequestKind::Ingest`] requests, how the upload was
        /// disposed; `None` for every other kind (boxed to keep the
        /// outcome enum small). Rejected uploads complete quarantined:
        /// `stage_secs` zeroed, never cached, never predicted.
        ingest: Option<Box<IngestDisposition>>,
    },
    /// The request was rejected at admission
    /// ([`ServeError::Overloaded`]).
    Shed {
        /// The request's arrival ordinal.
        ordinal: u64,
        /// Queue depth at the moment of rejection.
        queue_depth: usize,
    },
}

impl RequestOutcome {
    /// The arrival ordinal this outcome belongs to.
    #[must_use]
    pub fn ordinal(&self) -> u64 {
        match self {
            Self::Completed { ordinal, .. } | Self::Shed { ordinal, .. } => *ordinal,
        }
    }
}

/// The prediction & planning server.
pub struct Server {
    snapshot: ModelSnapshot,
    planner: Box<dyn Planner>,
    recipe_planner: Option<Box<dyn RecipePlanner>>,
    ingestor: Option<Box<dyn Ingestor>>,
    config: ServeConfig,
    tracer: Tracer,
    faults: SharedServeFaults,
}

impl Server {
    /// Build a server over a frozen model snapshot and a planner. The
    /// configuration is checked by [`Server::run`].
    #[must_use]
    pub fn new(snapshot: ModelSnapshot, planner: Box<dyn Planner>, config: ServeConfig) -> Self {
        Self {
            snapshot,
            planner,
            recipe_planner: None,
            ingestor: None,
            config,
            tracer: Tracer::disabled(),
            faults: std::sync::Arc::new(NoServeFaults),
        }
    }

    /// Attach a joint recipe × VM planner; without one,
    /// [`RequestKind::PlanRecipe`] requests fail with
    /// [`ServeError::Plan`].
    #[must_use]
    pub fn with_recipe_planner(mut self, planner: Box<dyn RecipePlanner>) -> Self {
        self.recipe_planner = Some(planner);
        self
    }

    /// Attach an ingestor (see [`Ingestor`]); without one,
    /// [`RequestKind::Ingest`] requests fail with
    /// [`ServeError::Ingest`].
    #[must_use]
    pub fn with_ingestor(mut self, ingestor: Box<dyn Ingestor>) -> Self {
        self.ingestor = Some(ingestor);
        self
    }

    /// Attach a tracer; every request gets a root span keyed by its
    /// arrival ordinal.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach fault hooks (see [`crate::ServeFaults`]); the default is
    /// the inert [`NoServeFaults`].
    #[must_use]
    pub fn with_faults(mut self, faults: SharedServeFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Serve an arrival-ordered request stream to completion; `seed`
    /// only stamps the report. Returns the report plus one outcome per
    /// request, sorted by ordinal.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] if `max_batch`, `queue_capacity`
    /// or `pad_stride` is zero, [`ServeError::Unsorted`] if `requests`
    /// is not sorted by arrival time, and [`ServeError::Plan`] if the
    /// planner rejects an instance (sheds are outcomes, not errors).
    pub fn run(
        &self,
        seed: u64,
        requests: &[ServeRequest],
    ) -> Result<(ServeReport, Vec<RequestOutcome>), ServeError> {
        for (field, value) in [
            ("max_batch", self.config.max_batch),
            ("queue_capacity", self.config.queue_capacity),
            ("pad_stride", self.config.pad_stride),
        ] {
            if value == 0 {
                return Err(ServeError::Config { field });
            }
        }
        if let Some(w) = requests.windows(2).find(|w| w[0].arrival_us > w[1].arrival_us) {
            return Err(ServeError::Unsorted { ordinal: w[1].ordinal });
        }
        // The stream is one slice, already sorted, so arrivals are a
        // cursor walk rather than heap events: "admit every arrival
        // <= now, then form the batch" needs no same-time tie rule.
        let mut run = Run::new(self, requests);
        while run.next < requests.len() || !run.queue.is_empty() {
            run.admit();
            let mut slots = run.form_batch();
            if slots.is_empty() {
                continue; // every arrival of this instant was shed
            }
            run.resolve_ingest(&mut slots)?;
            run.forward_misses(&mut slots);
            run.complete(slots)?;
        }
        Ok(run.report(seed))
    }
}

/// One batch slot on its way to an outcome.
struct Slot {
    request: ServeRequest,
    /// The design to predict: the request's own, or the one an accepted
    /// upload parsed to. `None` quarantines the slot — a rejected
    /// upload never reaches the result cache or the GCN.
    design: Option<Arc<crate::ServeDesign>>,
    /// How the upload was disposed; `None` for non-Ingest requests.
    disposition: Option<IngestDisposition>,
    /// Zero until `forward_misses` fills it; stays zero when quarantined.
    stage_secs: [[f64; 4]; 4],
    cache_hit: bool,
}

/// The state of one [`Server::run`]: the simulated clock, the arrival
/// cursor, the queue, both caches, and everything the report folds.
struct Run<'a> {
    server: &'a Server,
    requests: &'a [ServeRequest],
    /// Simulated clock, µs; each phase charges its own service cost.
    now: u64,
    /// Index of the next request not yet arrived.
    next: usize,
    queue: AdmissionQueue,
    /// Predictions by design fingerprint: a server serves one snapshot
    /// for its whole life, so the fingerprint alone is the key.
    cache: LruCache<u64, [[f64; 4]; 4]>,
    ingest_cache: LruCache<u64, IngestOutcome>,
    counters: ServeCounters,
    outcomes: Vec<RequestOutcome>,
    latencies: LatencyFold,
    batch_hist: Histogram,
    depth_hist: Histogram,
    max_depth: usize,
}

impl<'a> Run<'a> {
    fn new(server: &'a Server, requests: &'a [ServeRequest]) -> Self {
        let config = &server.config;
        Self {
            server,
            requests,
            now: 0,
            next: 0,
            queue: AdmissionQueue::new(config.queue_capacity),
            cache: LruCache::new(config.cache_capacity),
            ingest_cache: LruCache::new(INGEST_CACHE_CAPACITY),
            counters: ServeCounters::default(),
            outcomes: Vec::with_capacity(requests.len()),
            latencies: LatencyFold::with_capacity(requests.len()),
            batch_hist: Histogram::new(vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            depth_hist: Histogram::new(vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
            max_depth: 0,
        }
    }

    /// Admit (or shed) every arrival up to `now`; an idle server first
    /// jumps the clock to the next arrival.
    fn admit(&mut self) {
        let faults = &self.server.faults;
        if let (true, Some(request)) = (self.queue.is_empty(), self.requests.get(self.next)) {
            self.now = self.now.max(request.arrival_us);
        }
        while let Some(request) = self.requests.get(self.next).filter(|r| r.arrival_us <= self.now)
        {
            self.next += 1;
            self.counters.requests += 1;
            let ordinal = request.ordinal;
            if faults.wipe_cache(ordinal) {
                self.cache.clear();
                let span = self.server.tracer.root_at(ordinal, "fault/cache_wipe");
                span.attr("fault", "cache_wipe");
            }
            if faults.force_shed(ordinal) {
                // An injected overload burst: rejected exactly like a
                // capacity shed, so conservation still holds.
                self.shed(ordinal, self.queue.len(), true);
            } else if let Err(ServeError::Overloaded { queue_depth, .. }) =
                self.queue.try_admit(request.clone())
            {
                self.shed(ordinal, queue_depth, false);
            }
        }
    }

    fn shed(&mut self, ordinal: u64, queue_depth: usize, forced: bool) {
        self.counters.shed += 1;
        let span = self.server.tracer.root_at(ordinal, "request");
        span.attr("outcome", "shed");
        span.attr("queue_depth", queue_depth);
        if forced {
            span.attr("fault", "force_shed");
        }
        self.outcomes.push(RequestOutcome::Shed { ordinal, queue_depth });
    }

    /// Record the queue depth, then pop up to `max_batch` slots in
    /// deadline order.
    fn form_batch(&mut self) -> Vec<Slot> {
        let depth = self.queue.len();
        self.depth_hist.record(depth as f64);
        self.max_depth = self.max_depth.max(depth);
        let slots: Vec<Slot> = std::iter::from_fn(|| self.queue.pop())
            .take(self.server.config.max_batch)
            .map(|request| Slot {
                design: Some(request.design.clone()),
                disposition: None,
                stage_secs: [[0.0; 4]; 4],
                cache_hit: false,
                request,
            })
            .collect();
        if !slots.is_empty() {
            self.counters.batches += 1;
            self.batch_hist.record(slots.len() as f64);
        }
        slots
    }

    /// Swap each Ingest slot's design for the one its upload parses to;
    /// a rejected upload quarantines the slot.
    fn resolve_ingest(&mut self, slots: &mut [Slot]) -> Result<(), ServeError> {
        for slot in slots.iter_mut().filter(|s| s.request.kind == RequestKind::Ingest) {
            (slot.design, slot.disposition) = match self.ingest(&slot.request)? {
                IngestOutcome::Accepted(summary) => {
                    let disposition = IngestDisposition::Accepted {
                        fingerprint: summary.design.fingerprint,
                        ood_distance_micros: summary.ood_distance_micros,
                        ood: summary.ood,
                    };
                    (Some(summary.design), Some(disposition))
                }
                IngestOutcome::Rejected { reason } => {
                    (None, Some(IngestDisposition::Rejected { reason }))
                }
            };
        }
        Ok(())
    }

    /// One upload through flood control, the fingerprint-keyed ingest
    /// cache and, on a miss, the ingestor (charged [`INGEST_US`]).
    fn ingest(&mut self, request: &ServeRequest) -> Result<IngestOutcome, ServeError> {
        let faults = &self.server.faults;
        let upload = request.upload.as_deref().ok_or_else(|| ServeError::Ingest {
            message: format!("request {} is Ingest but carries no upload", request.ordinal),
        })?;
        let ingestor = self.server.ingestor.as_deref().ok_or_else(|| ServeError::Ingest {
            message: "Ingest request without an ingestor".into(),
        })?;
        if faults.flood(request.ordinal) {
            // Flood control rejects without caching: a later clean
            // upload of the same bytes ingests normally.
            let reason = "rejected by ingest flood control".into();
            return Ok(IngestOutcome::Rejected { reason });
        }
        let doc = if faults.corrupt_upload(request.ordinal) {
            std::borrow::Cow::Owned(upload.corrupted())
        } else {
            std::borrow::Cow::Borrowed(upload)
        };
        if let Some(hit) = self.ingest_cache.get(&doc.fingerprint) {
            return Ok(hit);
        }
        self.now += INGEST_US;
        let fresh = ingestor.ingest(&doc);
        self.ingest_cache.insert(doc.fingerprint, fresh.clone());
        Ok(fresh)
    }

    /// Fill each slot's prediction from the result cache, or from one
    /// padded batched forward ([`PER_MISS_US`] each) over the unique
    /// missed designs in first-occurrence order, packed from the row-class
    /// quotients each design keeps; duplicates of a missed design within
    /// the batch ride the single forward.
    fn forward_misses(&mut self, slots: &mut [Slot]) {
        let config = &self.server.config;
        let mut miss_designs: Vec<Arc<crate::ServeDesign>> = Vec::new();
        let mut miss_of: BTreeMap<u64, usize> = BTreeMap::new();
        let mut missed: Vec<(usize, usize)> = Vec::new(); // (slot, index into miss_designs)
        for (i, slot) in slots.iter_mut().enumerate() {
            let Some(design) = &slot.design else {
                continue; // quarantined: no lookup, no forward
            };
            if let Some(hit) = self.cache.get(&design.fingerprint) {
                slot.stage_secs = hit;
                slot.cache_hit = true;
            } else {
                let miss = *miss_of.entry(design.fingerprint).or_insert_with(|| {
                    miss_designs.push(design.clone());
                    miss_designs.len() - 1
                });
                missed.push((i, miss));
            }
        }
        if miss_designs.is_empty() {
            return;
        }
        let refs: Vec<&crate::ServeDesign> = miss_designs.iter().map(|d| &**d).collect();
        let (aig_batch, net_batch) = crate::ServeDesign::pack_views(&refs, config.pad_stride);
        let workers = config.resolved_workers();
        let miss_secs = self.server.snapshot.predict_batches(&aig_batch, &net_batch, workers);
        for (design, secs) in miss_designs.iter().zip(&miss_secs) {
            self.cache.insert(design.fingerprint, *secs);
        }
        for (i, miss) in missed {
            slots[i].stage_secs = miss_secs[miss];
        }
        self.counters.gcn_predictions += miss_designs.len() as u64;
        self.now += miss_designs.len() as u64 * PER_MISS_US;
    }

    /// Charge the batch's fixed, per-request and per-plan costs, then
    /// plan, count, trace and emit every slot at that completion time.
    fn complete(&mut self, slots: Vec<Slot>) -> Result<(), ServeError> {
        let plans = slots
            .iter()
            .filter(|s| {
                matches!(s.request.kind, RequestKind::Plan { .. } | RequestKind::PlanRecipe { .. })
            })
            .count() as u64;
        let len = slots.len() as u64;
        self.now += BATCH_OVERHEAD_US + len * PER_HIT_US + plans * PLAN_US;
        for slot in slots {
            let Slot { request, disposition, stage_secs, cache_hit, .. } = slot;
            let latency_us = self.now.saturating_sub(request.arrival_us);
            let deadline_met = self.now <= request.deadline_us;
            let (plan, recipe) = self.plan(&request, &stage_secs)?;
            self.counters.completed += 1;
            self.counters.deadline_hits += u64::from(deadline_met);
            self.latencies.record(latency_us);
            let span = self.server.tracer.root_at(request.ordinal, "request");
            span.attr("outcome", "completed");
            span.attr("cache", if cache_hit { "hit" } else { "miss" });
            span.attr("batch", self.counters.batches - 1);
            span.attr("latency_us", latency_us);
            span.attr("deadline_met", deadline_met);
            if let RequestKind::Plan { .. } = request.kind {
                span.attr("planned", plan.is_some());
            }
            if let RequestKind::PlanRecipe { .. } = request.kind {
                span.attr("recipe_planned", recipe.is_some());
                if let Some(r) = &recipe {
                    span.attr("recipe", &r.recipe);
                }
            }
            match &disposition {
                Some(IngestDisposition::Accepted { ood, .. }) => {
                    self.counters.ingest_accepted += 1;
                    self.counters.ood_flagged += u64::from(*ood);
                    span.attr("ingest", "accepted");
                    span.attr("ood", *ood);
                }
                Some(IngestDisposition::Rejected { .. }) => {
                    self.counters.ingest_rejected += 1;
                    span.attr("ingest", "rejected");
                }
                None => {}
            }
            self.outcomes.push(RequestOutcome::Completed {
                ordinal: request.ordinal,
                latency_us,
                deadline_met,
                cache_hit,
                stage_secs,
                plan,
                recipe,
                ingest: disposition.map(Box::new),
            });
        }
        Ok(())
    }

    /// Solve the request's deployment plan, if it asks for one. Joint
    /// recipe plans share the plan counters so the report schema (and
    /// its goldens) are stable.
    fn plan(
        &mut self,
        request: &ServeRequest,
        stage_secs: &[[f64; 4]; 4],
    ) -> Result<(Option<PlanSummary>, Option<Box<RecipePlanSummary>>), ServeError> {
        let (plan, recipe) = match request.kind {
            RequestKind::Predict | RequestKind::Ingest => return Ok((None, None)),
            RequestKind::Plan { budget_secs } => {
                (self.server.planner.plan(stage_secs, budget_secs)?, None)
            }
            RequestKind::PlanRecipe { deadline_secs } => {
                let planner =
                    self.server.recipe_planner.as_deref().ok_or_else(|| ServeError::Plan {
                        message: "PlanRecipe request without a recipe planner".into(),
                    })?;
                let recipe = planner.plan_recipe(&request.design, stage_secs, deadline_secs)?;
                (None, recipe.map(Box::new))
            }
        };
        self.counters.plans += 1;
        if plan.is_none() && recipe.is_none() {
            self.counters.plans_infeasible += 1;
        }
        Ok((plan, recipe))
    }

    /// Fold the run into its report, outcomes sorted by ordinal.
    fn report(mut self, seed: u64) -> (ServeReport, Vec<RequestOutcome>) {
        self.outcomes.sort_by_key(RequestOutcome::ordinal);
        let mut counters = self.counters;
        counters.cache_hits = self.cache.hits();
        counters.cache_misses = self.cache.misses();
        let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        let report = ServeReport {
            seed,
            counters,
            deadline_hit_rate: ratio(counters.deadline_hits, counters.completed),
            mean_latency_ms: self.latencies.mean_us() / 1_000.0,
            p50_latency_ms: self.latencies.percentile_us(50) as f64 / 1_000.0,
            p95_latency_ms: self.latencies.percentile_us(95) as f64 / 1_000.0,
            // Every batched request completes, so the sizes sum to it.
            mean_batch_size: ratio(counters.completed, counters.batches),
            max_queue_depth: self.max_depth as u64,
            makespan_ms: self.now as f64 / 1_000.0,
            latency_hist: self.latencies.into_histogram(),
            batch_hist: self.batch_hist,
            depth_hist: self.depth_hist,
        };
        (report, self.outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{design_pool, synthetic_requests, CostTablePlanner, ModelSnapshot, WorkloadConfig};
    use eda_cloud_gcn::{GraphSample, ModelConfig};

    fn server(config: ServeConfig) -> Server {
        Server::new(
            ModelSnapshot::seeded(&ModelConfig::fast(), 7),
            Box::new(CostTablePlanner::aws_like()),
            config,
        )
    }

    fn workload(requests: usize, rate_per_sec: f64, seed: u64) -> Vec<ServeRequest> {
        let pool = design_pool();
        synthetic_requests(
            &pool,
            &WorkloadConfig {
                requests,
                rate_per_sec,
                seed,
                ..Default::default()
            },
        )
    }

    #[test]
    fn unsorted_stream_is_a_typed_error_not_a_panic() {
        let mut requests = workload(8, 150.0, 7);
        requests.swap(2, 5);
        let late = requests.windows(2).find(|w| w[0].arrival_us > w[1].arrival_us);
        let ordinal = late.expect("swap unsorted the stream")[1].ordinal;
        assert_eq!(
            server(ServeConfig::default()).run(7, &requests).unwrap_err(),
            ServeError::Unsorted { ordinal }
        );
    }

    #[test]
    fn zero_config_knobs_are_typed_errors_not_panics() {
        // Regression: `max_batch` / `pad_stride` used to assert in
        // `Server::new` and `queue_capacity` inside `run`.
        let requests = workload(4, 150.0, 7);
        let cases = [
            ("max_batch", ServeConfig { max_batch: 0, ..Default::default() }),
            ("queue_capacity", ServeConfig { queue_capacity: 0, ..Default::default() }),
            ("pad_stride", ServeConfig { pad_stride: 0, ..Default::default() }),
        ];
        for (field, config) in cases {
            let err = server(config).run(7, &requests).unwrap_err();
            assert_eq!(err, ServeError::Config { field });
        }
    }

    /// Hand-placed Predict requests, `(arrival_us, deadline_us, pool
    /// design)` each, ordinals in slice order.
    fn placed(specs: &[(u64, u64, usize)]) -> Vec<ServeRequest> {
        let pool = design_pool();
        let request = |(ordinal, &(arrival_us, deadline_us, design)): (usize, &(u64, u64, usize))| {
            ServeRequest {
                ordinal: ordinal as u64,
                arrival_us,
                deadline_us,
                kind: RequestKind::Predict,
                design: pool[design].clone(),
                upload: None,
            }
        };
        specs.iter().enumerate().map(request).collect()
    }

    fn latency_and_hit(outcome: &RequestOutcome) -> (u64, bool) {
        match outcome {
            RequestOutcome::Completed { latency_us, cache_hit, .. } => (*latency_us, *cache_hit),
            RequestOutcome::Shed { .. } => panic!("nothing sheds here: {outcome:?}"),
        }
    }

    #[test]
    fn same_instant_arrivals_at_an_idle_server_ride_one_batch() {
        let requests = placed(&[(1_000, 900_000, 0), (1_000, 800_000, 1)]);
        let (report, outcomes) = server(ServeConfig::default()).run(7, &requests).expect("runs");
        assert_eq!(report.counters.batches, 1, "the idle jump admits both before batching");
        assert_eq!(latency_and_hit(&outcomes[0]).0, latency_and_hit(&outcomes[1]).0);
    }

    #[test]
    fn arrival_on_a_completion_instant_is_admitted_before_the_next_batch() {
        let config = || ServeConfig { max_batch: 2, ..Default::default() };
        // Three at t=0: the two most urgent form batch 0, the third waits.
        let mut specs = vec![(0, 100_000, 0), (0, 200_000, 1), (0, 900_000, 2)];
        let (_, outcomes) = server(config()).run(7, &placed(&specs)).expect("runs");
        let first_done = latency_and_hit(&outcomes[0]).0;
        assert!(latency_and_hit(&outcomes[2]).0 > first_done, "third rides batch 1");
        // A fourth lands exactly when batch 0 completes: it must be in
        // the queue when batch 1 forms, so it shares it with the third.
        specs.push((first_done, 800_000, 3));
        let (report, outcomes) = server(config()).run(7, &placed(&specs)).expect("runs");
        assert_eq!(report.counters.batches, 2, "no third batch for the late arrival");
        let (third, fourth) = (latency_and_hit(&outcomes[2]).0, latency_and_hit(&outcomes[3]).0);
        assert_eq!(third, fourth + first_done, "both complete at the same instant");
    }

    #[test]
    fn cache_wipe_arriving_mid_service_clears_what_that_batch_inserted() {
        struct WipeOnOne;
        impl crate::ServeFaults for WipeOnOne {
            fn wipe_cache(&self, ordinal: u64) -> bool {
                ordinal == 1
            }
        }
        // Request 1 (same design) arrives while batch 0 is in service.
        let requests = placed(&[(0, 900_000, 0), (10, 900_000, 0)]);
        let (clean, outcomes) = server(ServeConfig::default()).run(7, &requests).expect("runs");
        assert!(latency_and_hit(&outcomes[1]).1, "batch 0 cached the design for request 1");
        assert_eq!(clean.counters.gcn_predictions, 1);
        let (wiped, outcomes) = server(ServeConfig::default())
            .with_faults(Arc::new(WipeOnOne))
            .run(7, &requests)
            .expect("runs");
        assert!(!latency_and_hit(&outcomes[1]).1, "the wipe lands after batch 0's insert");
        assert_eq!(wiped.counters.gcn_predictions, 2);
    }

    #[test]
    fn serves_every_request_and_accounts_for_all() {
        let requests = workload(48, 150.0, 7);
        let (report, outcomes) = server(ServeConfig::default())
            .run(7, &requests)
            .expect("runs");
        assert_eq!(report.counters.requests, 48);
        assert_eq!(report.counters.completed + report.counters.shed, 48);
        assert_eq!(outcomes.len(), 48);
        assert!(outcomes.windows(2).all(|w| w[0].ordinal() < w[1].ordinal()));
        assert!(report.counters.batches > 0);
        assert!(
            report.counters.cache_hits > 0,
            "pool smaller than stream => hits"
        );
        assert!(report.counters.gcn_predictions <= report.counters.cache_misses);
        assert!(report.counters.plans > 0);
        assert!(report.mean_latency_ms > 0.0);
        // The histogram holds one latency per completed request.
        let json = report.latency_hist.to_json();
        let counts = json.rsplit_once("\"counts\":[").expect("counts").1.trim_end_matches("]}");
        let total: u64 = counts.split(',').map(|c| c.parse::<u64>().expect("a count")).sum();
        assert_eq!(total, report.counters.completed);
    }

    #[test]
    fn same_seed_reports_are_byte_identical() {
        let requests = workload(48, 150.0, 7);
        let (a, _) = server(ServeConfig::default())
            .run(7, &requests)
            .expect("runs");
        let (b, _) = server(ServeConfig::default())
            .run(7, &requests)
            .expect("runs");
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn worker_count_never_changes_outcomes() {
        let requests = workload(48, 150.0, 7);
        let (base_report, base_outcomes) = server(ServeConfig {
            workers: 1,
            ..Default::default()
        })
        .run(7, &requests)
        .expect("runs");
        for workers in [2usize, 4, 8] {
            let (report, outcomes) = server(ServeConfig {
                workers,
                ..Default::default()
            })
            .run(7, &requests)
            .expect("runs");
            assert_eq!(report.to_json(), base_report.to_json(), "workers {workers}");
            assert_eq!(outcomes, base_outcomes, "workers {workers}");
        }
    }

    #[test]
    fn overload_sheds_with_typed_outcome() {
        // Arrivals far faster than the service rate, tiny queue.
        let requests = workload(64, 5_000.0, 7);
        let config = ServeConfig {
            queue_capacity: 4,
            max_batch: 2,
            ..Default::default()
        };
        let (report, outcomes) = server(config).run(7, &requests).expect("runs");
        assert!(report.counters.shed > 0, "overload must shed");
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, RequestOutcome::Shed { .. })));
        assert_eq!(report.counters.completed + report.counters.shed, 64);
    }

    #[test]
    fn urgent_requests_are_served_first() {
        // A burst arriving together must drain in deadline order:
        // every request of an earlier batch has a deadline no later
        // than any request of a later batch.
        let pool = design_pool();
        let requests = synthetic_requests(
            &pool,
            &WorkloadConfig {
                requests: 12,
                rate_per_sec: 0.0,
                ..Default::default()
            },
        );
        // rate 0 => all arrive at t=0 with seeded spread-out deadlines.
        assert!(requests.iter().all(|r| r.arrival_us == 0));
        let (_, outcomes) = server(ServeConfig {
            max_batch: 3,
            ..Default::default()
        })
        .run(7, &requests)
        .expect("runs");
        let mut served: Vec<(u64, u64)> = outcomes
            .iter()
            .map(|o| match o {
                RequestOutcome::Completed {
                    ordinal,
                    latency_us,
                    ..
                } => (*latency_us, requests[*ordinal as usize].deadline_us),
                RequestOutcome::Shed { .. } => panic!("burst fits the queue"),
            })
            .collect();
        served.sort_unstable(); // completion time, then deadline
        for pair in served.windows(2) {
            let ((t_a, d_a), (t_b, d_b)) = (pair[0], pair[1]);
            if t_a < t_b {
                assert!(
                    d_a <= d_b,
                    "later batch served an earlier deadline: {pair:?}"
                );
            }
        }
    }

    #[test]
    fn fault_hooks_shed_and_wipe_deterministically() {
        struct Plan;
        impl crate::ServeFaults for Plan {
            fn force_shed(&self, ordinal: u64) -> bool {
                ordinal == 3
            }
            fn wipe_cache(&self, ordinal: u64) -> bool {
                ordinal == 10
            }
        }
        let requests = workload(24, 150.0, 7);
        let run = |with_faults: bool| {
            let mut s = server(ServeConfig::default());
            if with_faults {
                s = s.with_faults(std::sync::Arc::new(Plan));
            }
            s.run(7, &requests).expect("runs")
        };
        let (clean, _) = run(false);
        let (faulty, outcomes) = run(true);
        assert!(
            matches!(outcomes[3], RequestOutcome::Shed { ordinal: 3, .. }),
            "forced shed lands on the targeted ordinal: {:?}",
            outcomes[3]
        );
        assert_eq!(faulty.counters.shed, clean.counters.shed + 1);
        assert_eq!(
            faulty.counters.completed + faulty.counters.shed,
            faulty.counters.requests,
            "conservation holds under injected faults"
        );
        let (again, again_outcomes) = run(true);
        assert_eq!(
            faulty.to_json(),
            again.to_json(),
            "fault plans replay exactly"
        );
        assert_eq!(outcomes, again_outcomes);
    }

    #[test]
    fn caching_shortens_service_time() {
        let requests = workload(48, 150.0, 7);
        let cached = server(ServeConfig::default())
            .run(7, &requests)
            .expect("runs")
            .0;
        let uncached = server(ServeConfig {
            cache_capacity: 0,
            ..Default::default()
        })
        .run(7, &requests)
        .expect("runs")
        .0;
        assert_eq!(uncached.counters.cache_hits, 0);
        assert!(cached.counters.gcn_predictions < uncached.counters.gcn_predictions);
        assert!(cached.makespan_ms <= uncached.makespan_ms);
    }

    /// Stub ingestor: accepts text starting with `.model` (serving a
    /// fixed small design named after the upload), flags uploads
    /// containing `ood`, and rejects everything else with a positioned
    /// reason — enough to exercise every server-side ingest path.
    struct StubIngestor;
    impl crate::Ingestor for StubIngestor {
        fn ingest(&self, doc: &crate::UploadDoc) -> crate::IngestOutcome {
            if !doc.text.starts_with(".model") {
                return crate::IngestOutcome::Rejected {
                    reason: "parse error at line 1, col 1: expected `.model`".into(),
                };
            }
            let graph = eda_cloud_netlist::DesignGraph::from_aig(
                &eda_cloud_netlist::generators::adder(4),
            );
            let view = || GraphSample::new(&graph, [1.0; 4]);
            let ood = doc.text.contains("ood");
            crate::IngestOutcome::Accepted(crate::IngestSummary {
                design: Arc::new(crate::ServeDesign::new(doc.name.clone(), view(), view())),
                nodes: graph.node_count() as u64,
                ood_distance_micros: if ood { 5_000_000 } else { 100_000 },
                ood,
            })
        }
    }

    fn ingest_workload(uploads: &[Arc<crate::UploadDoc>], requests: usize) -> Vec<ServeRequest> {
        crate::synthetic_requests_with_uploads(
            &design_pool(),
            uploads,
            &WorkloadConfig {
                requests,
                plan_every: 0,
                ingest_every: 1,
                ..Default::default()
            },
        )
    }

    #[test]
    fn ingest_requests_need_an_ingestor() {
        let uploads = vec![Arc::new(crate::UploadDoc::new("a", "blif", ".model a"))];
        let requests = ingest_workload(&uploads, 8);
        assert!(requests.iter().any(|r| r.kind == RequestKind::Ingest));
        let bare = server(ServeConfig::default()).run(7, &requests);
        assert!(matches!(bare, Err(ServeError::Ingest { .. })));
        // And an Ingest request without an upload is a typed error too.
        let mut torn = requests.clone();
        for r in &mut torn {
            r.upload = None;
        }
        let res = server(ServeConfig::default())
            .with_ingestor(Box::new(StubIngestor))
            .run(7, &torn);
        assert!(matches!(res, Err(ServeError::Ingest { .. })));
    }

    #[test]
    fn accepted_uploads_serve_and_rejected_ones_are_quarantined() {
        let uploads = vec![
            Arc::new(crate::UploadDoc::new("good", "blif", ".model good\n.end\n")),
            Arc::new(crate::UploadDoc::new("bad", "blif", "garbage bytes\n")),
            Arc::new(crate::UploadDoc::new("weird", "blif", ".model ood thing\n.end\n")),
        ];
        let requests = ingest_workload(&uploads, 48);
        let run = || {
            server(ServeConfig::default())
                .with_ingestor(Box::new(StubIngestor))
                .run(7, &requests)
                .expect("runs")
        };
        let (report, outcomes) = run();
        let c = report.counters;
        assert!(c.ingest_accepted > 0 && c.ingest_rejected > 0 && c.ood_flagged > 0);
        assert_eq!(
            c.ingest_accepted + c.ingest_rejected,
            outcomes
                .iter()
                .filter(|o| matches!(o, RequestOutcome::Completed { ingest: Some(_), .. }))
                .count() as u64,
            "every completed ingest request carries a disposition"
        );
        for outcome in &outcomes {
            let RequestOutcome::Completed { ingest: Some(d), stage_secs, cache_hit, .. } =
                outcome
            else {
                continue;
            };
            match d.as_ref() {
                IngestDisposition::Rejected { reason } => {
                    assert_eq!(*stage_secs, [[0.0; 4]; 4], "quarantined => zeroed");
                    assert!(!cache_hit, "quarantined => never a result-cache hit");
                    assert!(reason.contains("line 1"), "positioned reason: {reason}");
                }
                IngestDisposition::Accepted { ood, ood_distance_micros, .. } => {
                    assert_eq!(*ood, *ood_distance_micros >= 1_000_000);
                    assert!(stage_secs.iter().flatten().all(|&s| s > 0.0));
                }
            }
        }
        let (again, again_outcomes) = run();
        assert_eq!(report.to_json(), again.to_json(), "ingest runs replay exactly");
        assert_eq!(outcomes, again_outcomes);
    }

    #[test]
    fn rejected_uploads_never_reach_the_gcn() {
        // All-bad uploads: every ingest request quarantines, so the
        // model never runs and the result cache is never consulted.
        let uploads = vec![Arc::new(crate::UploadDoc::new("bad", "blif", "junk\n"))];
        let requests = ingest_workload(&uploads, 16);
        assert!(requests.iter().all(|r| r.kind == RequestKind::Ingest));
        let (report, _) = server(ServeConfig::default())
            .with_ingestor(Box::new(StubIngestor))
            .run(7, &requests)
            .expect("runs");
        let c = report.counters;
        assert_eq!(c.ingest_rejected, c.completed);
        assert_eq!(c.gcn_predictions, 0, "quarantine: no forwards");
        assert_eq!(c.cache_hits + c.cache_misses, 0, "quarantine: no lookups");
    }

    #[test]
    fn ingest_cache_deduplicates_and_charges_fresh_parses_only() {
        let uploads = vec![Arc::new(crate::UploadDoc::new("good", "blif", ".model g\n.end\n"))];
        let repeated = ingest_workload(&uploads, 16);
        // The same stream with every upload distinct: each one parses fresh.
        let mut distinct = repeated.clone();
        for r in &mut distinct {
            let text = format!(".model g{}\n.end\n", r.ordinal);
            r.upload = Some(Arc::new(crate::UploadDoc::new("good", "blif", text)));
        }
        let run = |requests: &[ServeRequest]| {
            server(ServeConfig::default())
                .with_ingestor(Box::new(StubIngestor))
                .run(7, requests)
                .expect("runs")
                .0
        };
        let (cached, uncached) = (run(&repeated), run(&distinct));
        assert_eq!(cached.counters.ingest_accepted, uncached.counters.ingest_accepted);
        assert!(
            cached.makespan_ms < uncached.makespan_ms,
            "re-parsing every duplicate upload must cost simulated time"
        );
    }

    #[test]
    fn ingest_fault_hooks_corrupt_and_flood_deterministically() {
        struct Plan {
            flood_target: u64,
        }
        impl crate::ServeFaults for Plan {
            fn corrupt_upload(&self, ordinal: u64) -> bool {
                ordinal == 1
            }
            fn flood(&self, ordinal: u64) -> bool {
                ordinal == self.flood_target
            }
        }
        let uploads = vec![Arc::new(crate::UploadDoc::new("good", "blif", ".model g\n.end\n"))];
        let requests = ingest_workload(&uploads, 16);
        let first = requests[0].ordinal;
        let run = || {
            server(ServeConfig::default())
                .with_ingestor(Box::new(StubIngestor))
                .with_faults(std::sync::Arc::new(Plan { flood_target: first }))
                .run(7, &requests)
                .expect("runs")
        };
        let (report, outcomes) = run();
        // The flooded ordinal is rejected; later identical uploads
        // still ingest (the flood rejection was not cached).
        let dispo = |ordinal: u64| {
            outcomes.iter().find_map(|o| match o {
                RequestOutcome::Completed { ordinal: ord, ingest, .. } if *ord == ordinal => {
                    ingest.as_deref().cloned()
                }
                _ => None,
            })
        };
        assert!(matches!(dispo(first), Some(IngestDisposition::Rejected { reason }) if reason.contains("flood")));
        assert!(report.counters.ingest_accepted > 0, "flood rejection is not cached");
        // The corrupted ordinal's torn text no longer starts with
        // `.model`... unless the tear lands mid-document; either way
        // the run replays byte-identically.
        let (again, again_outcomes) = run();
        assert_eq!(report.to_json(), again.to_json());
        assert_eq!(outcomes, again_outcomes);
    }

    /// Threshold stub: feasible only above a deadline cutoff, so one
    /// stream exercises both the feasible and infeasible paths.
    struct ThresholdRecipePlanner;
    impl RecipePlanner for ThresholdRecipePlanner {
        fn plan_recipe(
            &self,
            design: &crate::ServeDesign,
            _stage_secs: &[[f64; 4]; 4],
            deadline_secs: u64,
        ) -> Result<Option<RecipePlanSummary>, ServeError> {
            if deadline_secs < 10_000 {
                return Ok(None);
            }
            Ok(Some(RecipePlanSummary {
                recipe: format!("balance;rewrite@{}", design.name),
                vcpus: [2, 4, 4, 1],
                total_runtime_secs: deadline_secs - 1,
                total_cost_usd: 0.25,
                predicted_synth_ms: [8, 5, 3, 2],
            }))
        }
    }

    #[test]
    fn recipe_requests_route_through_the_recipe_planner() {
        let pool = design_pool();
        let mut requests = synthetic_requests(
            &pool,
            &WorkloadConfig { requests: 48, plan_every: 0, ..Default::default() },
        );
        // Every second request asks for a joint plan, with deadlines on
        // both sides of the stub's cutoff.
        for r in requests.iter_mut().filter(|r| r.ordinal % 2 == 0) {
            r.kind = RequestKind::PlanRecipe { deadline_secs: 6_000 + r.ordinal * 250 };
        }

        // Without a planner attached the request class is a typed error.
        let bare = server(ServeConfig::default()).run(7, &requests);
        assert!(matches!(bare, Err(ServeError::Plan { .. })));

        let run = || {
            server(ServeConfig::default())
                .with_recipe_planner(Box::new(ThresholdRecipePlanner))
                .run(7, &requests)
                .expect("runs")
        };
        let (report, outcomes) = run();
        let recipe_requests = requests
            .iter()
            .filter(|r| matches!(r.kind, RequestKind::PlanRecipe { .. }))
            .count() as u64;
        // Joint plans share the plan counters; every PlanRecipe request
        // either produced a summary or counted as infeasible.
        assert_eq!(report.counters.plans, recipe_requests);
        let (with_plan, without_plan) = outcomes.iter().fold((0u64, 0u64), |(w, wo), o| match o {
            RequestOutcome::Completed { recipe: Some(_), .. } => (w + 1, wo),
            _ => (w, wo + 1),
        });
        assert!(with_plan > 0, "some deadlines clear the stub's cutoff");
        assert_eq!(report.counters.plans_infeasible, recipe_requests - with_plan);
        assert_eq!(with_plan + without_plan, outcomes.len() as u64);
        for outcome in &outcomes {
            if let RequestOutcome::Completed { recipe: Some(summary), .. } = outcome {
                assert!(summary.recipe.starts_with("balance;rewrite@"));
                assert_eq!(summary.vcpus, [2, 4, 4, 1]);
            }
        }
        // Replays byte-identically with the planner attached.
        let (again, again_outcomes) = run();
        assert_eq!(report.to_json(), again.to_json());
        assert_eq!(outcomes, again_outcomes);
    }
}
