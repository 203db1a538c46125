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
    AdmissionQueue, IngestDisposition, IngestOutcome, Ingestor, LruCache, NoIngestFaults,
    NoServeFaults, PlanSummary, Planner, RecipePlanSummary, RecipePlanner, RequestKind,
    ServeCounters, ServeError, ServeReport, ServeRequest, ServingSnapshot, SharedIngestFaults,
    SharedServeFaults,
};
use eda_cloud_fleet::Histogram;
use eda_cloud_gcn::{GraphBatch, GraphSample};
use eda_cloud_trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Serving knobs: batching, queueing, caching, and the simulated
/// service-time model.
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
    /// Simulated fixed cost of executing one micro-batch, µs.
    pub batch_overhead_us: u64,
    /// Simulated marginal cost of one GCN forward (a cache miss), µs.
    pub per_miss_us: u64,
    /// Simulated per-request assembly cost (hit or miss), µs.
    pub per_hit_us: u64,
    /// Simulated cost of one MCKP solve, µs.
    pub plan_us: u64,
    /// Version of the snapshot being served; result-cache entries are
    /// keyed by `(model_version, design fingerprint)` so predictions
    /// cached under one model version are never served under another.
    pub model_version: u32,
    /// Ingest-cache capacity (uploads, keyed by content fingerprint);
    /// 0 disables ingest caching so every upload re-parses.
    pub ingest_cache_capacity: usize,
    /// Simulated cost of one fresh (uncached) parse + validate +
    /// OOD-gate pass, µs.
    pub ingest_us: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            queue_capacity: 32,
            cache_capacity: 32,
            pad_stride: 8,
            workers: 1,
            batch_overhead_us: 4_000,
            per_miss_us: 1_000,
            per_hit_us: 50,
            plan_us: 500,
            model_version: 1,
            ingest_cache_capacity: 16,
            ingest_us: 2_000,
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
    snapshot: ServingSnapshot,
    planner: Box<dyn Planner>,
    recipe_planner: Option<Box<dyn RecipePlanner>>,
    ingestor: Option<Box<dyn Ingestor>>,
    config: ServeConfig,
    tracer: Tracer,
    faults: SharedServeFaults,
    ingest_faults: SharedIngestFaults,
}

impl Server {
    /// Build a server over a frozen model snapshot — float or int8
    /// quantized — and a planner.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch`, `queue_capacity`, or `pad_stride` is
    /// zero.
    #[must_use]
    pub fn new(
        snapshot: impl Into<ServingSnapshot>,
        planner: Box<dyn Planner>,
        config: ServeConfig,
    ) -> Self {
        assert!(config.max_batch > 0, "max batch must be positive");
        assert!(config.pad_stride > 0, "pad stride must be positive");
        Self {
            snapshot: snapshot.into(),
            planner,
            recipe_planner: None,
            ingestor: None,
            config,
            tracer: Tracer::disabled(),
            faults: std::sync::Arc::new(NoServeFaults),
            ingest_faults: std::sync::Arc::new(NoIngestFaults),
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

    /// Attach ingest fault hooks (see [`crate::IngestFaults`]); the
    /// default is the inert [`NoIngestFaults`].
    #[must_use]
    pub fn with_ingest_faults(mut self, faults: SharedIngestFaults) -> Self {
        self.ingest_faults = faults;
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

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Serve an arrival-ordered request stream to completion; `seed`
    /// only stamps the report. Returns the report plus one outcome per
    /// request, sorted by ordinal.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Unsorted`] if `requests` is not sorted by
    /// arrival time, and [`ServeError::Plan`] if the planner rejects an
    /// instance (sheds are outcomes, not errors).
    pub fn run(
        &self,
        seed: u64,
        requests: &[ServeRequest],
    ) -> Result<(ServeReport, Vec<RequestOutcome>), ServeError> {
        if let Some(w) = requests.windows(2).find(|w| w[0].arrival_us > w[1].arrival_us) {
            return Err(ServeError::Unsorted { ordinal: w[1].ordinal });
        }
        let workers = self.config.resolved_workers();
        let mut queue = AdmissionQueue::new(self.config.queue_capacity);
        let version = self.config.model_version;
        let mut cache: LruCache<(u32, u64), [[f64; 4]; 4]> =
            LruCache::new(self.config.cache_capacity);
        let mut ingest_cache: LruCache<u64, IngestOutcome> =
            LruCache::new(self.config.ingest_cache_capacity);
        let mut counters = ServeCounters::default();
        let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(requests.len());
        let mut latencies_us: Vec<u64> = Vec::with_capacity(requests.len());
        let mut latency_hist = Histogram::new(vec![
            1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
        ]);
        let mut batch_hist = Histogram::new(vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
        let mut depth_hist = Histogram::new(vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]);
        let mut max_depth = 0usize;
        let mut batch_size_sum = 0u64;
        let mut now = 0u64;
        let mut next = 0usize;

        while next < requests.len() || !queue.is_empty() {
            if queue.is_empty() {
                // Idle server: jump to the next arrival.
                now = now.max(requests[next].arrival_us);
            }
            while next < requests.len() && requests[next].arrival_us <= now {
                let request = requests[next].clone();
                next += 1;
                counters.requests += 1;
                if self.faults.wipe_cache(request.ordinal) {
                    cache.clear();
                    let span = self.tracer.root_at(request.ordinal, "fault/cache_wipe");
                    span.attr("fault", "cache_wipe");
                }
                if self.faults.force_shed(request.ordinal) {
                    // An injected overload burst: rejected exactly like
                    // a capacity shed, so conservation still holds.
                    let (ordinal, queue_depth) = (request.ordinal, queue.len());
                    counters.shed += 1;
                    let span = self.tracer.root_at(ordinal, "request");
                    span.attr("outcome", "shed");
                    span.attr("queue_depth", queue_depth);
                    span.attr("fault", "force_shed");
                    outcomes.push(RequestOutcome::Shed {
                        ordinal,
                        queue_depth,
                    });
                    continue;
                }
                if let Err(ServeError::Overloaded {
                    ordinal,
                    queue_depth,
                    ..
                }) = queue.try_admit(request)
                {
                    counters.shed += 1;
                    let span = self.tracer.root_at(ordinal, "request");
                    span.attr("outcome", "shed");
                    span.attr("queue_depth", queue_depth);
                    outcomes.push(RequestOutcome::Shed {
                        ordinal,
                        queue_depth,
                    });
                }
            }
            let depth = queue.len();
            depth_hist.record(depth as f64);
            max_depth = max_depth.max(depth);

            let mut batch = Vec::with_capacity(self.config.max_batch);
            while batch.len() < self.config.max_batch {
                match queue.pop() {
                    Some(r) => batch.push(r),
                    None => break,
                }
            }
            if batch.is_empty() {
                continue;
            }
            counters.batches += 1;
            batch_hist.record(batch.len() as f64);
            batch_size_sum += batch.len() as u64;

            // Resolve ingest requests first: each Ingest slot either
            // yields a servable design (the upload was accepted, fresh
            // or from the fingerprint-keyed ingest cache) or is
            // quarantined — `effective[i]` stays `None`, so the slot
            // never reaches the result cache or the GCN below.
            let mut dispositions: Vec<Option<IngestDisposition>> = vec![None; batch.len()];
            let mut effective: Vec<Option<Arc<crate::ServeDesign>>> = vec![None; batch.len()];
            let mut fresh_ingests = 0u64;
            for (i, request) in batch.iter().enumerate() {
                if request.kind != RequestKind::Ingest {
                    effective[i] = Some(request.design.clone());
                    continue;
                }
                let upload = request.upload.as_deref().ok_or_else(|| ServeError::Ingest {
                    message: format!("request {} is Ingest but carries no upload", request.ordinal),
                })?;
                let ingestor = self.ingestor.as_deref().ok_or_else(|| ServeError::Ingest {
                    message: "Ingest request without an ingestor".into(),
                })?;
                let outcome = if self.ingest_faults.flood(request.ordinal) {
                    // Flood control rejects without caching: a later
                    // clean upload of the same bytes ingests normally.
                    IngestOutcome::Rejected {
                        reason: "rejected by ingest flood control".into(),
                    }
                } else {
                    let doc = if self.ingest_faults.corrupt_upload(request.ordinal) {
                        std::borrow::Cow::Owned(upload.corrupted())
                    } else {
                        std::borrow::Cow::Borrowed(upload)
                    };
                    match ingest_cache.get(&doc.fingerprint) {
                        Some(hit) => hit,
                        None => {
                            fresh_ingests += 1;
                            let fresh = ingestor.ingest(&doc);
                            ingest_cache.insert(doc.fingerprint, fresh.clone());
                            fresh
                        }
                    }
                };
                match outcome {
                    IngestOutcome::Accepted(summary) => {
                        dispositions[i] = Some(IngestDisposition::Accepted {
                            fingerprint: summary.design.fingerprint,
                            ood_distance_micros: summary.ood_distance_micros,
                            ood: summary.ood,
                        });
                        effective[i] = Some(summary.design);
                    }
                    IngestOutcome::Rejected { reason } => {
                        dispositions[i] = Some(IngestDisposition::Rejected { reason });
                    }
                }
            }

            // Resolve each request from the cache, collecting unique
            // missed designs in first-occurrence order; duplicates of a
            // missed design within one batch ride the single forward.
            let mut cached: Vec<Option<[[f64; 4]; 4]>> = vec![None; batch.len()];
            let mut miss_slot: Vec<usize> = vec![usize::MAX; batch.len()];
            let mut miss_designs: Vec<Arc<crate::ServeDesign>> = Vec::new();
            let mut slot_of: BTreeMap<u64, usize> = BTreeMap::new();
            for (i, design) in effective.iter().enumerate() {
                let Some(design) = design else {
                    continue; // quarantined: no lookup, no forward
                };
                if let Some(hit) = cache.get(&(version, design.fingerprint)) {
                    cached[i] = Some(hit);
                } else {
                    let slot = *slot_of.entry(design.fingerprint).or_insert_with(|| {
                        miss_designs.push(design.clone());
                        miss_designs.len() - 1
                    });
                    miss_slot[i] = slot;
                }
            }

            let miss_secs: Vec<[[f64; 4]; 4]> = if miss_designs.is_empty() {
                Vec::new()
            } else {
                let aig_refs: Vec<&GraphSample> = miss_designs.iter().map(|d| &d.aig).collect();
                let net_refs: Vec<&GraphSample> = miss_designs.iter().map(|d| &d.netlist).collect();
                let aig_batch = GraphBatch::pack_padded(&aig_refs, self.config.pad_stride);
                let net_batch = GraphBatch::pack_padded(&net_refs, self.config.pad_stride);
                self.snapshot
                    .predict_batches(&aig_batch, &net_batch, workers)
            };
            counters.gcn_predictions += miss_designs.len() as u64;
            for (design, secs) in miss_designs.iter().zip(&miss_secs) {
                cache.insert((version, design.fingerprint), *secs);
            }

            let plans_in_batch = batch
                .iter()
                .filter(|r| {
                    matches!(
                        r.kind,
                        RequestKind::Plan { .. } | RequestKind::PlanRecipe { .. }
                    )
                })
                .count() as u64;
            let service_us = self.config.batch_overhead_us
                + miss_designs.len() as u64 * self.config.per_miss_us
                + batch.len() as u64 * self.config.per_hit_us
                + plans_in_batch * self.config.plan_us
                + fresh_ingests * self.config.ingest_us;
            now += service_us;

            for (i, request) in batch.iter().enumerate() {
                let quarantined =
                    matches!(dispositions[i], Some(IngestDisposition::Rejected { .. }));
                let cache_hit = cached[i].is_some();
                let stage_secs = if quarantined {
                    [[0.0; 4]; 4]
                } else {
                    cached[i].unwrap_or_else(|| miss_secs[miss_slot[i]])
                };
                let latency_us = now.saturating_sub(request.arrival_us);
                let deadline_met = now <= request.deadline_us;
                let mut recipe = None;
                let plan = match request.kind {
                    RequestKind::Plan { budget_secs } => {
                        counters.plans += 1;
                        let plan = self.planner.plan(&stage_secs, budget_secs)?;
                        if plan.is_none() {
                            counters.plans_infeasible += 1;
                        }
                        plan
                    }
                    RequestKind::PlanRecipe { deadline_secs } => {
                        // Joint plans share the plan counters so the
                        // report schema (and its goldens) are stable.
                        counters.plans += 1;
                        let planner =
                            self.recipe_planner.as_deref().ok_or_else(|| ServeError::Plan {
                                message: "PlanRecipe request without a recipe planner".into(),
                            })?;
                        recipe = planner
                            .plan_recipe(&request.design, &stage_secs, deadline_secs)?
                            .map(Box::new);
                        if recipe.is_none() {
                            counters.plans_infeasible += 1;
                        }
                        None
                    }
                    RequestKind::Predict | RequestKind::Ingest => None,
                };
                match &dispositions[i] {
                    Some(IngestDisposition::Accepted { ood, .. }) => {
                        counters.ingest_accepted += 1;
                        if *ood {
                            counters.ood_flagged += 1;
                        }
                    }
                    Some(IngestDisposition::Rejected { .. }) => counters.ingest_rejected += 1,
                    None => {}
                }
                counters.completed += 1;
                if deadline_met {
                    counters.deadline_hits += 1;
                }
                latencies_us.push(latency_us);
                latency_hist.record(latency_us as f64 / 1_000.0);
                let span = self.tracer.root_at(request.ordinal, "request");
                span.attr("outcome", "completed");
                span.attr("cache", if cache_hit { "hit" } else { "miss" });
                span.attr("batch", counters.batches - 1);
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
                match &dispositions[i] {
                    Some(IngestDisposition::Accepted { ood, .. }) => {
                        span.attr("ingest", "accepted");
                        span.attr("ood", *ood);
                    }
                    Some(IngestDisposition::Rejected { .. }) => {
                        span.attr("ingest", "rejected");
                    }
                    None => {}
                }
                outcomes.push(RequestOutcome::Completed {
                    ordinal: request.ordinal,
                    latency_us,
                    deadline_met,
                    cache_hit,
                    stage_secs,
                    plan,
                    recipe,
                    ingest: dispositions[i].take().map(Box::new),
                });
            }
        }

        outcomes.sort_by_key(RequestOutcome::ordinal);
        latencies_us.sort_unstable();
        counters.cache_hits = cache.hits();
        counters.cache_misses = cache.misses();
        let report = ServeReport {
            seed,
            counters,
            deadline_hit_rate: if counters.completed == 0 {
                0.0
            } else {
                counters.deadline_hits as f64 / counters.completed as f64
            },
            mean_latency_ms: if latencies_us.is_empty() {
                0.0
            } else {
                latencies_us.iter().sum::<u64>() as f64 / latencies_us.len() as f64 / 1_000.0
            },
            p50_latency_ms: percentile_ms(&latencies_us, 0.50),
            p95_latency_ms: percentile_ms(&latencies_us, 0.95),
            mean_batch_size: if counters.batches == 0 {
                0.0
            } else {
                batch_size_sum as f64 / counters.batches as f64
            },
            max_queue_depth: max_depth as u64,
            makespan_ms: now as f64 / 1_000.0,
            latency_hist,
            batch_hist,
            depth_hist,
        };
        Ok((report, outcomes))
    }
}

/// Nearest-rank percentile over sorted µs latencies, reported in ms.
fn percentile_ms(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1] as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{design_pool, synthetic_requests, CostTablePlanner, ModelSnapshot, WorkloadConfig};
    use eda_cloud_gcn::ModelConfig;

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
        assert_eq!(report.latency_hist.total(), report.counters.completed);
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
    fn quantized_server_is_worker_and_roundtrip_invariant() {
        // The int8 serving path must be bit-identical at any worker
        // count, and across a text round trip of its snapshot.
        let float = ModelSnapshot::seeded(&ModelConfig::fast(), 7);
        let quant = crate::QuantizedSnapshot::quantize(&float);
        let requests = workload(48, 150.0, 7);
        let run = |snapshot: crate::QuantizedSnapshot, workers: usize| {
            Server::new(
                snapshot,
                Box::new(CostTablePlanner::aws_like()),
                ServeConfig {
                    workers,
                    ..Default::default()
                },
            )
            .run(7, &requests)
            .expect("runs")
        };
        let (base_report, base_outcomes) = run(quant.clone(), 1);
        for workers in [2usize, 8] {
            let (report, outcomes) = run(quant.clone(), workers);
            assert_eq!(report.to_json(), base_report.to_json(), "workers {workers}");
            assert_eq!(outcomes, base_outcomes, "workers {workers}");
        }
        let reloaded = crate::QuantizedSnapshot::from_text(&quant.to_text()).expect("parses");
        let (report, outcomes) = run(reloaded, 1);
        assert_eq!(report.to_json(), base_report.to_json(), "text round trip");
        assert_eq!(outcomes, base_outcomes, "text round trip");
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
    fn cache_entries_are_keyed_by_model_version() {
        // Regression: the result cache used to key entries by design
        // fingerprint alone, so a model rollout kept serving the
        // previous version's predictions for any cached design. Keys
        // now carry the model version: the same fingerprint cached
        // under v1 must not answer a v2 lookup.
        let fingerprint = 0xDEAD_BEEFu64;
        let mut cache: LruCache<(u32, u64), [[f64; 4]; 4]> = LruCache::new(8);
        cache.insert((1, fingerprint), [[1.0; 4]; 4]);
        assert_eq!(
            cache.get(&(2, fingerprint)),
            None,
            "v2 must miss a v1 entry"
        );
        cache.insert((2, fingerprint), [[2.0; 4]; 4]);
        assert_eq!(cache.get(&(1, fingerprint)), Some([[1.0; 4]; 4]));
        assert_eq!(cache.get(&(2, fingerprint)), Some([[2.0; 4]; 4]));

        // And the server threads its configured version into the key:
        // identical workloads under different versions still produce
        // identical predictions (same snapshot), but the runs never
        // alias — smoke-checked via byte-identical reports.
        let requests = workload(24, 150.0, 7);
        let v1 = server(ServeConfig::default())
            .run(7, &requests)
            .expect("runs")
            .0;
        let v2 = server(ServeConfig {
            model_version: 2,
            ..Default::default()
        })
        .run(7, &requests)
        .expect("runs")
        .0;
        assert_eq!(v1.to_json(), v2.to_json());
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
        let requests = ingest_workload(&uploads, 16);
        let run = |ingest_cache_capacity: usize| {
            server(ServeConfig { ingest_cache_capacity, ..Default::default() })
                .with_ingestor(Box::new(StubIngestor))
                .run(7, &requests)
                .expect("runs")
                .0
        };
        let cached = run(16);
        let uncached = run(0);
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
        impl crate::IngestFaults for Plan {
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
                .with_ingest_faults(std::sync::Arc::new(Plan { flood_target: first }))
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
        let requests = synthetic_requests(
            &pool,
            &WorkloadConfig {
                requests: 48,
                plan_every: 0,
                recipe_every: 2,
                ..Default::default()
            },
        );
        assert!(requests
            .iter()
            .any(|r| matches!(r.kind, RequestKind::PlanRecipe { .. })));

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
