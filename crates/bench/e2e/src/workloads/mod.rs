//! The eight workloads and the contract they share.
//!
//! A workload is a set of inputs plus **one public call** that is
//! timed whole. [`setup`] makes the inputs from the seed; `iterate`
//! times the call and checks what came back; `trace` runs the traced
//! round that attributes the call's wall time to layers. Each workload
//! is sized so one layer does most of the work in it and little in the
//! others (see `catalog::WORKLOADS` for why each exists).

mod char_sweep;
mod fleet_sim;
mod lifecycle_arc;
mod region_sim;
mod serve;
mod train_fit;

use crate::catalog;
use crate::spans::SpanLog;
use eda_cloud_engine::EventHeap;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Worker count handed to every API that takes one, in set-up and in
/// the timed call: one thread of load. The reference host gives the
/// benchmark two cores of a shared machine; with both busy a run
/// measured the scheduler and the neighbours (the two-worker
/// `serve_miss` spread 35-41 % across runs of one build on the
/// driver), and the host-speed reference (`calib`) can watch only the
/// core it runs on. Passed explicitly, never `0`/auto.
pub const WORKERS: usize = 1;

/// Worker count of the traced round's second run (= `nproc` on the
/// reference host), which must reproduce the one-worker report byte
/// for byte and yields the `*.w2_over_w1` layer ratios.
pub const PARALLEL_WORKERS: usize = 2;

/// One timed, checked iteration of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Iteration {
    /// Wall time of the single public call.
    pub wall: Duration,
    /// Units of work completed (the workload's `op`).
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: shed or errored requests, rejected
    /// uploads, infeasible plans, jobs not completed, netlists not
    /// labelled.
    pub failed: u64,
    /// The workload's deterministic result-quality figure, higher is
    /// better (`catalog::WorkloadSpec::quality` says what it counts).
    /// Computed from the call's result, outside the timed region.
    pub quality: f64,
    /// Byte-stable rendering of the call's result. Must be identical
    /// across iterations and worker counts; its digest is printed.
    pub report: String,
}

/// Per-layer metric values gathered by a traced round. Names are
/// checked against the catalog on the way in, so a typo fails the
/// first traced run instead of silently reporting zero.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Record `value` for the per-layer metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in `catalog::PER_LAYER`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::is_layer_metric(name),
            "`{name}` is not a catalogued layer metric"
        );
        self.values.insert(name, value);
    }

    /// The recorded value, or `0.0`: a layer a workload never enters
    /// did no work in it.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// What a traced round writes into.
#[derive(Debug, Default)]
pub struct TraceSink {
    /// Host-time spans of the round.
    pub log: SpanLog,
    /// Per-layer metric values derived from them.
    pub layers: Layers,
}

/// A benchmark workload, set up and ready to iterate.
pub trait Workload {
    /// Run the workload's one public call (at [`WORKERS`] where it
    /// takes a worker count), time it, and check its output.
    ///
    /// # Errors
    ///
    /// Describes the failed call or the violated output check.
    fn iterate(&self) -> Result<Iteration, String>;

    /// Run the traced round: the same call with timing decorators
    /// where the API has ports for them, then the same inputs replayed
    /// through each layer's public functions. Where the call takes a
    /// worker count, the round also runs it at [`PARALLEL_WORKERS`] and
    /// fails unless both produce the same report.
    ///
    /// # Errors
    ///
    /// Describes the failed call or the violated output check.
    fn trace(&self, sink: &mut TraceSink) -> Result<(), String>;
}

/// Make `name`'s inputs from `seed` and return it ready to iterate.
///
/// # Errors
///
/// Rejects an unknown workload name or reports a failed generator.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "char_sweep" => Box::new(char_sweep::CharSweep::setup(seed)?),
        "train_fit" => Box::new(train_fit::TrainFit::setup(seed)?),
        "serve_miss" => Box::new(serve::Serve::setup(serve::Mix::Miss, seed)?),
        "serve_plan" => Box::new(serve::Serve::setup(serve::Mix::Plan, seed)?),
        "ingest_stream" => Box::new(serve::Serve::setup(serve::Mix::Ingest, seed)?),
        "fleet_sim" => Box::new(fleet_sim::FleetSim::setup(seed)?),
        "region_sim" => Box::new(region_sim::RegionSimLoad::setup(seed)?),
        "lifecycle_arc" => Box::new(lifecycle_arc::LifecycleArc::setup(seed)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Events pushed and popped by the heap microbenchmark.
const HEAP_EVENTS: u64 = 1_000_000;

/// Nanoseconds per push+pop pair on `EventHeap` with a standing queue,
/// events scheduled at pseudo-random near-future times as a simulation
/// does.
pub(crate) fn heap_push_pop_ns() -> f64 {
    let mut heap: EventHeap<u64> = EventHeap::new();
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 44
    };
    for i in 0..1_024 {
        heap.push(next(), i);
    }
    let start = Instant::now();
    for i in 0..HEAP_EVENTS {
        let (now, _) = heap.pop().expect("standing queue never drains");
        heap.push(now + next(), i);
    }
    let elapsed = start.elapsed();
    std::hint::black_box(heap.len());
    elapsed.as_nanos() as f64 / HEAP_EVENTS as f64
}

/// Milliseconds in `d`, as the layer metrics report them.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `numerator / denominator`, or `0.0` when the denominator is zero.
pub(crate) fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}
