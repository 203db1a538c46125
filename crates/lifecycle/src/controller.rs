//! The deterministic lifecycle event loop.
//!
//! One simulated-microsecond clock drives two interleaved planes:
//!
//! * **Serving** — requests arrive (Poisson, seeded), are routed to
//!   the primary slot or the in-flight canary, answered from the
//!   versioned result cache or a fresh GCN forward, and charged a FIFO
//!   service time.
//! * **Control** — each response schedules a ground-truth feedback
//!   join a fixed delay later (the flow "executes"). Joins feed the
//!   per-stage [`DriftDetector`]s; a detection flips the controller
//!   into collection mode, a filled replay buffer triggers a shadow
//!   [`Retrainer`] run, the candidate serves a canary slice of traffic,
//!   and its [`RolloutManager`] promotes or rolls it back.
//!
//! Both planes are processed from one [`EventHeap`] (ascending time,
//! push-order ties) on a single thread; the only parallelism is the stage fan-out
//! inside batch forwards and retrains, joined by stage index. The
//! folded [`LifecycleReport`] is therefore byte-identical across runs
//! and worker counts.

use crate::config::{
    CACHE_CAPACITY, FEEDBACK_DELAY_US, PH_DELTA_MICROS, PH_LAMBDA_MICROS, REPLAY_CAPACITY,
};
use crate::{
    ape_micros, log_bias_micros, Arm, DesignBaseline, DriftDetector, DriftSignal, FeedbackEvent,
    LifecycleConfig, LifecycleCounters, LifecycleError, LifecycleReport, NoLifecycleFaults,
    ReplayBuffer, Retrainer, RolloutDecision, RolloutManager, RuntimeOracle, SharedLifecycleFaults,
    StageErrors, TimelineEvent, CANARY_LATENCY_BUDGET_US, PROMOTE_MAX_ERROR_PCT,
};
use eda_cloud_engine::EventHeap;
use eda_cloud_gcn::ModelConfig;
use eda_cloud_serve::{
    design_pool, synthetic_requests, LruCache, ModelSnapshot, ServeDesign, ServeRequest,
    WorkloadConfig, PER_HIT_US, PER_MISS_US, STAGE_NAMES,
};
use eda_cloud_trace::{LatencyFold, Span, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Version of the bootstrapped snapshot: the first one published, the
/// primary until a promotion, and the frozen baseline every later
/// version is compared to.
const FROZEN_VERSION: u32 = 1;

/// What the control plane is currently doing.
enum Mode {
    /// Watching primary-arm error through the drift detectors.
    Monitor,
    /// Drift detected; filling replay buffers with shifted samples.
    Collect,
    /// A candidate serves its canary slice while its guardrails judge it.
    Canary(Box<Canary>),
}

/// The candidate under canary as one value: a promotion moves its
/// snapshot into the primary slot, a rollback drops it with its tallies.
struct Canary {
    version: u32,
    snapshot: ModelSnapshot,
    rollout: RolloutManager,
}

/// One scheduled event on the simulated clock.
enum Event {
    /// Request `index` into the workload arrives.
    Arrival(usize),
    /// A served job's ground truth comes back (boxed: a join carries
    /// full per-stage payloads, an arrival only an index).
    Feedback(Box<FeedbackEvent>),
}

/// The model-lifecycle controller. Construct with a validated
/// [`LifecycleConfig`], optionally attach a tracer, then [`run`].
///
/// [`run`]: LifecycleController::run
pub struct LifecycleController {
    config: LifecycleConfig,
    tracer: Tracer,
    faults: SharedLifecycleFaults,
    /// Test-only toggle for a deliberately planted guardrail bug (see
    /// [`LifecycleController::with_planted_guardrail_bug`]).
    #[cfg(any(test, feature = "planted-guardrail-bug"))]
    planted_guardrail_bug: bool,
}

impl LifecycleController {
    /// Build a controller, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError::Config`] for out-of-range knobs.
    pub fn new(config: LifecycleConfig) -> Result<Self, LifecycleError> {
        config.validate()?;
        Ok(Self {
            config,
            tracer: Tracer::disabled(),
            faults: Arc::new(NoLifecycleFaults),
            #[cfg(any(test, feature = "planted-guardrail-bug"))]
            planted_guardrail_bug: false,
        })
    }

    /// Attach a tracer: requests get spans keyed by their ordinals,
    /// control events by ordinals past the end of the request stream.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach fault hooks (see [`crate::LifecycleFaults`]); the default
    /// is the inert [`NoLifecycleFaults`].
    #[must_use]
    pub fn with_faults(mut self, faults: SharedLifecycleFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Enable a deliberately planted guardrail bug: the rollout manager
    /// is fed canary latencies with any injected spike subtracted out,
    /// so the latency guardrail can no longer see injected canary
    /// degradation and promotes a candidate it should roll back. Exists
    /// solely so the simtest invariant suite can demonstrate catching
    /// (and shrinking) a real guardrail violation; compiled only under
    /// `cfg(test)` or the `planted-guardrail-bug` feature, and off by
    /// default even then.
    #[cfg(any(test, feature = "planted-guardrail-bug"))]
    #[must_use]
    pub fn with_planted_guardrail_bug(mut self) -> Self {
        self.planted_guardrail_bug = true;
        self
    }

    /// Run the full lifecycle to completion. Returns the folded report
    /// plus every feedback join in processing order (the raw material
    /// for assertions the report aggregates away).
    #[must_use]
    pub fn run(&self) -> (LifecycleReport, Vec<FeedbackEvent>) {
        let mut run = Run::new(self);
        while let Some((time_us, event)) = run.events.pop() {
            run.now = time_us;
            match event {
                Event::Arrival(i) => run.on_arrival(i),
                Event::Feedback(fb) => run.on_feedback(*fb),
            }
        }
        run.report()
    }
}

/// The state of one [`LifecycleController::run`]: the event heap and
/// its clock, the serving plane, and the control plane.
struct Run<'a> {
    ctl: &'a LifecycleController,
    workers: usize,
    oracle: RuntimeOracle,
    requests: Vec<ServeRequest>,
    /// Both planes' events. Arrivals are pushed first, so an arrival
    /// precedes a feedback join landing on the same microsecond.
    events: EventHeap<Event>,
    /// Time of the event being handled, µs (the makespan, at the end).
    now: u64,
    // Serving plane.
    /// The primary slot: the version and snapshot non-canary requests
    /// are served from.
    primary: (u32, ModelSnapshot),
    /// The bootstrapped snapshot, [`FROZEN_VERSION`].
    frozen: ModelSnapshot,
    /// Versions published so far; a candidate is published as the next.
    published: u32,
    frozen_preds: BTreeMap<u64, [[f64; 4]; 4]>,
    cache: LruCache<(u32, u64), [[f64; 4]; 4]>,
    serve_free_at: u64,
    latencies: LatencyFold,
    // Control plane.
    mode: Mode,
    counters: LifecycleCounters,
    stages: [StageErrors; 4],
    timeline: Vec<TimelineEvent>,
    detectors: [DriftDetector; 4],
    baselines: [DesignBaseline; 4],
    buffers: [ReplayBuffer; 4],
    seen: BTreeSet<u64>,
    feedback_log: Vec<FeedbackEvent>,
}

impl<'a> Run<'a> {
    fn new(ctl: &'a LifecycleController) -> Self {
        let cfg = &ctl.config;
        let workers = cfg.resolved_workers();
        let oracle = RuntimeOracle::new(cfg.drift_at, cfg.drift_factor);
        let pool = design_pool();
        let requests = synthetic_requests(
            &pool,
            &WorkloadConfig {
                requests: cfg.requests,
                rate_per_sec: cfg.rate_per_sec,
                seed: cfg.seed,
                plan_every: 0,
                ..Default::default()
            },
        );
        // Bootstrap: fine-tune the seeded snapshot on the pre-drift
        // oracle labels, so serving starts from a model that actually
        // fits the distribution it is about to see.
        let mut frozen = ModelSnapshot::seeded(&ModelConfig::fast(), cfg.seed);
        if cfg.bootstrap_epochs > 0 {
            let mut buffers = std::array::from_fn(|_| ReplayBuffer::new(pool.len()));
            for design in &pool {
                push_relabeled(&mut buffers, design, &oracle.runtimes(design, 0));
            }
            let retrainer = Retrainer {
                epochs: cfg.bootstrap_epochs,
                learning_rate: cfg.learning_rate,
                seed: cfg.seed ^ 0xB007,
            };
            frozen = retrainer.retrain(&frozen, &buffers, workers).0;
        }
        let mut events = EventHeap::new();
        for (i, request) in requests.iter().enumerate() {
            events.push(request.arrival_us, Event::Arrival(i));
        }
        Self {
            ctl,
            workers,
            oracle,
            events,
            now: 0,
            primary: (FROZEN_VERSION, frozen.clone()),
            frozen,
            published: FROZEN_VERSION,
            frozen_preds: BTreeMap::new(),
            cache: LruCache::new(CACHE_CAPACITY),
            serve_free_at: 0,
            latencies: LatencyFold::with_capacity(requests.len()),
            mode: Mode::Monitor,
            counters: LifecycleCounters::default(),
            stages: [StageErrors::default(); 4],
            timeline: Vec::new(),
            detectors: std::array::from_fn(|_| {
                DriftDetector::new(cfg.calibration, PH_DELTA_MICROS, PH_LAMBDA_MICROS)
            }),
            baselines: std::array::from_fn(|_| DesignBaseline::new()),
            buffers: std::array::from_fn(|_| ReplayBuffer::new(REPLAY_CAPACITY)),
            seen: BTreeSet::new(),
            feedback_log: Vec::with_capacity(requests.len()),
            requests,
        }
    }

    /// Serving plane: route request `i` to an arm, answer it (cache or
    /// fresh forward) in FIFO service time, schedule its feedback join.
    fn on_arrival(&mut self, i: usize) {
        let faults = &self.ctl.faults;
        let request = &self.requests[i];
        self.counters.requests += 1;
        let (arm, version, snapshot) = match &self.mode {
            Mode::Canary(c) if request.ordinal.is_multiple_of(self.ctl.config.canary_every) => {
                (Arm::Canary, c.version, &c.snapshot)
            }
            _ => (Arm::Primary, self.primary.0, &self.primary.1),
        };
        let key = (version, request.design.fingerprint);
        let (predicted, cache_hit) = match self.cache.get(&key) {
            Some(hit) => (hit, true),
            None => {
                let secs = predict_one(snapshot, &request.design, self.workers);
                self.cache.insert(key, secs);
                self.counters.gcn_predictions += 1;
                (secs, false)
            }
        };
        let service_us = if cache_hit { PER_HIT_US } else { PER_MISS_US };
        let done = self.now.max(self.serve_free_at) + service_us;
        self.serve_free_at = done;
        // An injected spike models a slow response, not a busy server:
        // it lands on this request's observed latency (and its feedback
        // join) but does not push `serve_free_at` for later requests.
        let spike_us = faults.latency_spike_us(request.ordinal, arm);
        let latency_us = done - request.arrival_us + spike_us;
        self.latencies.record(latency_us);
        let span = self.ctl.tracer.root_at(request.ordinal, "request");
        span.attr("design", &request.design.name);
        span.attr("version", version);
        span.attr("arm", if arm == Arm::Canary { "canary" } else { "primary" });
        span.attr("cache", if cache_hit { "hit" } else { "miss" });
        span.attr("latency_us", latency_us);
        if spike_us > 0 {
            span.attr("fault", "latency_spike");
            span.attr("spike_us", spike_us);
        }
        if faults.drop_feedback(request.ordinal) {
            self.counters.feedback_dropped += 1;
            span.attr("fault", "feedback_dropped");
            return;
        }
        let extra_us = faults.feedback_extra_delay_us(request.ordinal);
        if extra_us > 0 {
            span.attr("fault", "feedback_delayed");
            span.attr("extra_us", extra_us);
        }
        let join = FeedbackEvent {
            ordinal: request.ordinal,
            version,
            arm,
            design: request.design.clone(),
            predicted,
            actual: self.oracle.runtimes(&request.design, request.ordinal),
            latency_us,
        };
        self.events.push(done + FEEDBACK_DELAY_US + extra_us, Event::Feedback(Box::new(join)));
    }

    /// Control plane: book one ground-truth join's per-stage errors,
    /// then let the current mode react to it and pick the next one.
    fn on_feedback(&mut self, fb: FeedbackEvent) {
        self.counters.feedback_joins += 1;
        self.seen.insert(fb.design.fingerprint);
        match fb.arm {
            Arm::Primary => self.counters.primary_joins += 1,
            Arm::Canary => self.counters.canary_joins += 1,
        }
        let frozen_pred = *self
            .frozen_preds
            .entry(fb.design.fingerprint)
            .or_insert_with(|| predict_one(&self.frozen, &fb.design, self.workers));
        let mut ape_sum = 0u64;
        for (k, stage) in self.stages.iter_mut().enumerate() {
            let active = ape_micros(&fb.predicted[k], &fb.actual[k]);
            let baseline = ape_micros(&frozen_pred[k], &fb.actual[k]);
            ape_sum += active;
            if fb.ordinal < self.ctl.config.drift_at {
                stage.pre_drift.record(active);
            } else {
                stage.post_drift_frozen.record(baseline);
                if fb.version != FROZEN_VERSION {
                    stage.post_rollout_frozen.record(baseline);
                    stage.post_rollout_active.record(active);
                }
            }
        }
        push_relabeled(&mut self.buffers, &fb.design, &fb.actual);
        self.mode = match std::mem::replace(&mut self.mode, Mode::Monitor) {
            Mode::Monitor => self.monitor(&fb),
            Mode::Collect => self.collect(&fb),
            Mode::Canary(canary) => self.canary(&fb, ape_sum / 4, canary),
        };
        self.feedback_log.push(fb);
    }

    /// Append a timeline entry for the join being handled and open the
    /// control-plane span that goes with it.
    fn control_event(
        &mut self,
        fb: &FeedbackEvent,
        kind: &'static str,
        label: &str,
        stage: &'static str,
        version: u32,
    ) -> Span {
        // Control spans are keyed past the request ordinals, in
        // timeline order.
        let key = (self.requests.len() + self.timeline.len()) as u64;
        let (time_us, ordinal) = (self.now, fb.ordinal);
        self.timeline.push(TimelineEvent { time_us, ordinal, kind, stage, version });
        self.ctl.tracer.root_at(key, label)
    }

    /// Monitor mode: feed the drift detectors; a detection starts
    /// collecting shifted-distribution samples.
    fn monitor(&mut self, fb: &FeedbackEvent) -> Mode {
        // Watch only joins served by the *current* primary: in-flight
        // joins from a version retired mid-flight would poison the
        // fresh baseline profile after a rollout.
        if fb.arm != Arm::Primary || fb.version != self.primary.0 {
            return Mode::Monitor;
        }
        let mut fired = false;
        for (k, &stage) in STAGE_NAMES.iter().enumerate() {
            let bias = log_bias_micros(&fb.predicted[k], &fb.actual[k]);
            let deviation = self.baselines[k].deviation(fb.design.fingerprint, bias);
            if deviation.map(|d| self.detectors[k].observe(d)) != Some(DriftSignal::Drift) {
                continue;
            }
            fired = true;
            self.counters.drift_detections += 1;
            let span = self.control_event(fb, "drift_detected", "drift_detect", stage, fb.version);
            span.attr("stage", stage);
            span.attr("ordinal", fb.ordinal);
            span.attr("baseline_micros", self.detectors[k].baseline_micros().unwrap_or(0));
        }
        if fired {
            // Keep only shifted-distribution samples for the retrain.
            self.buffers.iter_mut().for_each(ReplayBuffer::clear);
            push_relabeled(&mut self.buffers, &fb.design, &fb.actual);
            return Mode::Collect;
        }
        Mode::Monitor
    }

    /// Collect mode: once the replay window is covered, retrain in the
    /// shadow and start the candidate's canary.
    fn collect(&mut self, fb: &FeedbackEvent) -> Mode {
        let cfg = &self.ctl.config;
        // Retrain only once the replay window covers every design
        // traffic has ever shown us: a partial-coverage fine-tune
        // catastrophically distorts the model on the designs it missed.
        let covered = if self.seen.len() <= REPLAY_CAPACITY {
            self.seen.iter().all(|fp| self.buffers[0].contains_key(*fp))
        } else {
            // More designs than the window holds: settle for a full
            // buffer.
            self.buffers[0].len() == REPLAY_CAPACITY
        };
        if !covered || self.buffers.iter().any(|b| b.len() < cfg.min_retrain) {
            return Mode::Collect;
        }
        let retrainer = Retrainer {
            epochs: cfg.retrain_epochs,
            learning_rate: cfg.learning_rate,
            seed: cfg.seed ^ (0x5E7A + self.counters.retrains),
        };
        let (snapshot, trained_on) =
            retrainer.retrain(&self.primary.1, &self.buffers, self.workers);
        self.published += 1;
        let version = self.published;
        self.counters.retrains += 1;
        let span = self.control_event(fb, "retrained", "retrain", "-", version);
        span.attr("version", version);
        span.attr("epochs", cfg.retrain_epochs);
        span.counter("samples", trained_on.iter().sum::<usize>() as u64);
        self.counters.canaries_started += 1;
        let span = self.control_event(fb, "canary_started", "canary", "-", version);
        span.attr("version", version);
        span.attr("every", cfg.canary_every);
        let rollout =
            RolloutManager::new(cfg.canary_min, PROMOTE_MAX_ERROR_PCT, CANARY_LATENCY_BUDGET_US);
        Mode::Canary(Box::new(Canary { version, snapshot, rollout }))
    }

    /// Canary mode: feed the candidate's guardrails; a verdict moves it
    /// into the primary slot or drops it, and monitoring resumes from
    /// scratch.
    fn canary(&mut self, fb: &FeedbackEvent, mean_ape: u64, mut canary: Box<Canary>) -> Mode {
        match fb.arm {
            Arm::Canary => {
                #[allow(unused_mut)]
                let mut observed_us = fb.latency_us;
                // PLANTED BUG (test-only toggle): feed the guardrail a
                // latency with any injected spike subtracted back out,
                // blinding it to canary degradation.
                #[cfg(any(test, feature = "planted-guardrail-bug"))]
                if self.ctl.planted_guardrail_bug {
                    let spike_us = self.ctl.faults.latency_spike_us(fb.ordinal, Arm::Canary);
                    observed_us = observed_us.saturating_sub(spike_us);
                }
                canary.rollout.record_canary(mean_ape, observed_us);
            }
            Arm::Primary => canary.rollout.record_primary(mean_ape),
        }
        let decision = canary.rollout.evaluate();
        if decision == RolloutDecision::Pending {
            return Mode::Canary(canary);
        }
        let Canary { version, snapshot, .. } = *canary;
        let span = if decision == RolloutDecision::Promote {
            self.primary = (version, snapshot);
            self.counters.promotions += 1;
            self.control_event(fb, "promoted", "promote", "-", version)
        } else {
            self.counters.rollbacks += 1;
            self.control_event(fb, "rolled_back", "rollback", "-", version)
        };
        span.attr("version", version);
        if decision == RolloutDecision::RollbackLatency {
            span.attr("guardrail", "latency");
        } else if decision == RolloutDecision::RollbackError {
            span.attr("guardrail", "error_ratio");
        }
        for k in 0..4 {
            self.detectors[k].reset();
            self.baselines[k].clear();
            self.buffers[k].clear();
        }
        Mode::Monitor
    }

    fn report(mut self) -> (LifecycleReport, Vec<FeedbackEvent>) {
        let cfg = &self.ctl.config;
        self.counters.cache_hits = self.cache.hits();
        self.counters.cache_misses = self.cache.misses();
        let report = LifecycleReport {
            seed: cfg.seed,
            requests: cfg.requests as u64,
            drift_at: cfg.drift_at,
            drift_factor: cfg.drift_factor,
            counters: self.counters,
            final_primary_version: self.primary.0,
            stages: self.stages,
            timeline: self.timeline,
            mean_latency_us: self.latencies.mean_us() as u64,
            p95_latency_us: self.latencies.percentile_us(95),
            makespan_us: self.now,
            latency_hist: self.latencies.into_histogram(),
        };
        (report, self.feedback_log)
    }
}

/// One forward pass over a single design: a 1-element batch of the
/// design's kept row-class quotients through the snapshot's stage
/// fan-out (joined by stage index, so the result is worker-invariant).
fn predict_one(snapshot: &ModelSnapshot, design: &ServeDesign, workers: usize) -> [[f64; 4]; 4] {
    let (aig, netlist) = ServeDesign::pack_views(&[design], 1);
    snapshot.predict_batches(&aig, &netlist, workers)[0]
}

/// Relabel a design's graph views with observed stage runtimes and
/// push them into the per-stage buffers, keyed by the design's
/// fingerprint so each buffer holds one freshest sample per design
/// (synthesis learns from the AIG view, the physical stages from the
/// netlist view).
fn push_relabeled(
    buffers: &mut [ReplayBuffer; 4],
    design: &Arc<ServeDesign>,
    runtimes: &[[f64; 4]; 4],
) {
    buffers[0].push_keyed(design.fingerprint, design.aig.with_targets(runtimes[0]));
    for (k, buffer) in buffers.iter_mut().enumerate().skip(1) {
        buffer.push_keyed(design.fingerprint, design.netlist.with_targets(runtimes[k]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> LifecycleConfig {
        // Small but still walks the full detect → retrain → canary →
        // promote arc at seed 7.
        LifecycleConfig {
            requests: 200,
            drift_at: 60,
            calibration: 16,
            min_retrain: 8,
            canary_min: 6,
            bootstrap_epochs: 60,
            ..Default::default()
        }
    }

    /// The routing the two model slots promise, replayed from the
    /// timeline over the feedback log: candidates publish as versions 2,
    /// 3, … after the bootstrap's 1; while a canary is in flight a
    /// request is canary-served at the candidate's version exactly when
    /// its ordinal is a multiple of `canary_every`; every other request
    /// is served by the primary, whose version moves only on a
    /// promotion. Returns how many joins arrived after a promotion and
    /// after a rollback, so a caller can show its case was exercised.
    fn assert_routing(
        config: &LifecycleConfig,
        report: &LifecycleReport,
        feedback: &[FeedbackEvent],
    ) -> (usize, usize) {
        let published: Vec<u32> =
            report.timeline.iter().filter(|e| e.kind == "retrained").map(|e| e.version).collect();
        assert_eq!(published, (2..).take(published.len()).collect::<Vec<u32>>());
        assert!(feedback.iter().any(|f| f.arm == Arm::Canary), "a canary served some joins");
        // The request stream does not depend on the bootstrap: skip it.
        let config = LifecycleConfig { bootstrap_epochs: 0, ..config.clone() };
        let plain = LifecycleController::new(config.clone()).expect("valid");
        let arrivals: BTreeMap<u64, u64> =
            Run::new(&plain).requests.iter().map(|r| (r.ordinal, r.arrival_us)).collect();
        let (mut after_promotion, mut after_rollback) = (0, 0);
        for fb in feedback {
            // An arrival pops before a join on the same microsecond, so
            // only control events strictly earlier have routed it.
            let arrival = arrivals[&fb.ordinal];
            let (mut primary, mut canary, mut last) = (1, None, "");
            for event in report.timeline.iter().take_while(|e| e.time_us < arrival) {
                match event.kind {
                    "canary_started" => canary = Some(event.version),
                    "promoted" => (primary, canary) = (event.version, None),
                    "rolled_back" => canary = None,
                    _ => continue,
                }
                last = event.kind;
            }
            let expected = match canary {
                Some(version) if fb.ordinal % config.canary_every == 0 => (Arm::Canary, version),
                _ => (Arm::Primary, primary),
            };
            assert_eq!((fb.arm, fb.version), expected, "join {}", fb.ordinal);
            after_promotion += usize::from(last == "promoted");
            after_rollback += usize::from(last == "rolled_back");
        }
        (after_promotion, after_rollback)
    }

    #[test]
    fn full_arc_detects_retrains_and_promotes() {
        let config = quick_config();
        let (report, feedback) = LifecycleController::new(config.clone()).expect("valid").run();
        assert_eq!(report.counters.requests, 200);
        assert_eq!(report.counters.feedback_joins, 200);
        assert_eq!(feedback.len(), 200);
        assert!(
            report.counters.drift_detections > 0,
            "drift must be detected"
        );
        assert!(report.counters.retrains > 0);
        assert!(report.counters.canaries_started > 0);
        assert!(report.counters.promotions > 0, "candidate must promote");
        assert!(report.final_primary_version > 1);
        let kinds: Vec<&str> = report.timeline.iter().map(|e| e.kind).collect();
        let detect = kinds
            .iter()
            .position(|k| *k == "drift_detected")
            .expect("detect");
        let retrain = kinds
            .iter()
            .position(|k| *k == "retrained")
            .expect("retrain");
        let promote = kinds
            .iter()
            .position(|k| *k == "promoted")
            .expect("promote");
        assert!(
            detect < retrain && retrain < promote,
            "events in causal order: {kinds:?}"
        );
        for (k, stage) in report.stages.iter().enumerate() {
            assert!(
                stage.post_rollout_active.mean_micros() < stage.post_rollout_frozen.mean_micros(),
                "stage {k}: retrained model must beat the frozen baseline"
            );
        }
        let (after_promotion, _) = assert_routing(&config, &report, &feedback);
        assert!(after_promotion > 0, "the promoted candidate served as primary");
    }

    #[test]
    fn no_drift_means_no_control_activity() {
        let config = LifecycleConfig {
            drift_at: u64::MAX,
            requests: 120,
            ..quick_config()
        };
        let (report, _) = LifecycleController::new(config)
            .expect("valid")
            .run();
        assert_eq!(report.counters.drift_detections, 0);
        assert_eq!(report.counters.retrains, 0);
        assert_eq!(report.counters.promotions, 0);
        assert_eq!(report.final_primary_version, 1);
        assert!(report.timeline.is_empty());
    }

    #[test]
    fn useless_candidate_rolls_back() {
        // Zero retrain epochs publish an unchanged candidate: its error
        // equals the primary's, which fails a sub-100% guardrail.
        let config = LifecycleConfig {
            retrain_epochs: 0,
            ..quick_config()
        };
        let (report, feedback) = LifecycleController::new(config.clone()).expect("valid").run();
        assert!(report.counters.retrains > 0);
        assert_eq!(report.counters.promotions, 0);
        assert!(
            report.counters.rollbacks > 0,
            "identical candidate must roll back"
        );
        assert_eq!(report.final_primary_version, 1, "primary never moves");
        let (_, after_rollback) = assert_routing(&config, &report, &feedback);
        assert!(after_rollback > 0, "the old primary served after the rollback");
    }

    #[test]
    fn diverged_candidate_rolls_back_without_overflow() {
        // At these learning rates the retrain diverges and the candidate
        // predicts runtimes near `exp(700)` s: every canary join's error
        // is capped, so the sums over the canary stay in range and the
        // guardrail rolls the candidate back.
        for learning_rate in [1e2, 1e4, 1e8] {
            let config = LifecycleConfig {
                learning_rate,
                requests: 160,
                drift_at: 50,
                calibration: 12,
                min_retrain: 6,
                canary_min: 5,
                bootstrap_epochs: 10,
                retrain_epochs: 10,
                ..Default::default()
            };
            let (report, _) = LifecycleController::new(config).expect("valid").run();
            assert_eq!(report.counters.rollbacks, 1, "learning rate {learning_rate}");
            assert_eq!(report.counters.promotions, 0, "learning rate {learning_rate}");
        }
    }

    #[test]
    fn rollout_invalidates_cached_predictions() {
        // Regression for the versioned cache keys: after a promotion,
        // requests for designs already cached under the old version
        // must be re-predicted by the new model. If the cache ignored
        // versions, every post-promotion join would still carry the
        // frozen model's predictions.
        let (report, feedback) = LifecycleController::new(quick_config())
            .expect("valid")
            .run();
        assert!(report.counters.promotions > 0);
        let post = feedback.iter().filter(|f| f.version > 1).count();
        assert!(post > 0, "some joins served by the promoted model");
        let changed = feedback
            .iter()
            .filter(|f| f.version > 1)
            .filter(|f| {
                feedback.iter().any(|g| {
                    g.version == 1
                        && g.design.fingerprint == f.design.fingerprint
                        && g.predicted != f.predicted
                })
            })
            .count();
        assert!(
            changed > 0,
            "promoted model's served predictions must differ from the v1 cache's"
        );
    }

    #[test]
    fn bad_config_is_rejected() {
        let bad = LifecycleConfig {
            requests: 0,
            ..Default::default()
        };
        assert!(matches!(
            LifecycleController::new(bad),
            Err(LifecycleError::Config { .. })
        ));
    }

    /// Deterministic fault plan used by the hook tests: drops one join,
    /// delays another, and spikes a third request's latency.
    #[derive(Debug)]
    struct Plan;

    impl crate::LifecycleFaults for Plan {
        fn drop_feedback(&self, ordinal: u64) -> bool {
            ordinal == 5
        }
        fn feedback_extra_delay_us(&self, ordinal: u64) -> u64 {
            if ordinal == 9 {
                2_000_000
            } else {
                0
            }
        }
        fn latency_spike_us(&self, ordinal: u64, _arm: Arm) -> u64 {
            if ordinal == 12 {
                400_000
            } else {
                0
            }
        }
    }

    #[test]
    fn fault_hooks_drop_delay_and_spike_deterministically() {
        let run = |faults: bool| {
            let mut controller = LifecycleController::new(quick_config()).expect("valid");
            if faults {
                controller = controller.with_faults(Arc::new(Plan));
            }
            controller.run()
        };
        let (clean, _) = run(false);
        let (faulty, feedback) = run(true);

        // Conservation: the dropped join is accounted for, not lost.
        assert_eq!(faulty.counters.feedback_dropped, 1);
        assert_eq!(
            faulty.counters.feedback_joins + faulty.counters.feedback_dropped,
            faulty.counters.requests
        );
        assert!(
            feedback.iter().all(|f| f.ordinal != 5),
            "dropped join never lands"
        );

        // The delayed join still arrives, carrying its original payload.
        assert!(
            feedback.iter().any(|f| f.ordinal == 9),
            "delayed join still lands"
        );

        // The spike is observed by latency stats and the join.
        let spiked = feedback.iter().find(|f| f.ordinal == 12).expect("join 12");
        assert!(
            spiked.latency_us >= 400_000,
            "spike lands on observed latency"
        );
        assert!(faulty.p95_latency_us >= clean.p95_latency_us);

        // Same plan, same bytes.
        let (again, _) = run(true);
        assert_eq!(faulty.to_json(), again.to_json());
    }

    #[test]
    fn same_instant_arrival_pops_before_the_feedback_join() {
        // Delay request 0's join so it lands exactly on the last
        // arrival's microsecond, then replay the loop by hand.
        #[derive(Debug)]
        struct Align(u64);
        impl crate::LifecycleFaults for Align {
            fn feedback_extra_delay_us(&self, ordinal: u64) -> u64 {
                if ordinal == 0 {
                    self.0
                } else {
                    0
                }
            }
        }
        let config = LifecycleConfig { requests: 16, bootstrap_epochs: 0, ..quick_config() };
        let plain = LifecycleController::new(config.clone()).expect("valid");
        let arrivals: Vec<u64> = Run::new(&plain).requests.iter().map(|r| r.arrival_us).collect();
        let undelayed = arrivals[0] + PER_MISS_US + FEEDBACK_DELAY_US;
        let tie = arrivals[15];
        assert!(tie > undelayed, "the last arrival is later than join 0 would be");
        let aligned = plain.with_faults(Arc::new(Align(tie - undelayed)));
        let mut run = Run::new(&aligned);
        let mut at_tie = Vec::new();
        while let Some((time_us, event)) = run.events.pop() {
            run.now = time_us;
            match event {
                Event::Arrival(i) => {
                    at_tie.extend((time_us == tie).then(|| format!("arrival {i}")));
                    run.on_arrival(i);
                }
                Event::Feedback(fb) => {
                    at_tie.extend((time_us == tie).then(|| format!("join {}", fb.ordinal)));
                    run.on_feedback(*fb);
                }
            }
        }
        assert_eq!(at_tie, ["arrival 15", "join 0"]);
    }

    #[test]
    fn planted_guardrail_bug_blinds_the_latency_guardrail() {
        // Spike every canary-arm request far past the latency budget:
        // a sound guardrail must roll the candidate back, and the
        // planted bug (which subtracts the spike back out before the
        // guardrail sees it) must promote instead.
        #[derive(Debug)]
        struct CanarySpike;
        impl crate::LifecycleFaults for CanarySpike {
            fn latency_spike_us(&self, _ordinal: u64, arm: Arm) -> u64 {
                if arm == Arm::Canary {
                    10_000_000
                } else {
                    0
                }
            }
        }
        let run = |bug: bool| {
            let mut controller = LifecycleController::new(quick_config())
                .expect("valid")
                .with_faults(Arc::new(CanarySpike));
            if bug {
                controller = controller.with_planted_guardrail_bug();
            }
            controller.run().0
        };
        let sound = run(false);
        assert_eq!(sound.counters.promotions, 0, "sound guardrail rolls back");
        assert!(sound.counters.rollbacks > 0);
        let buggy = run(true);
        assert!(
            buggy.counters.promotions > 0,
            "planted bug promotes a degraded canary"
        );
    }
}
