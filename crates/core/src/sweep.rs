//! The parallel sweep engine: the workspace's indexed fan-out
//! ([`par::map_indexed`]) with canonical (index-keyed) result
//! reduction, metered, plus a keyed flow-result cache.
//!
//! Characterization sweeps and dataset generation fan the same shape of
//! work out many times: run the four-stage flow for every point of a
//! `(design, recipe, vcpus)` grid. Two properties make that grid cheap
//! to parallelize *without* giving up the repository's determinism
//! guarantees:
//!
//! 1. **Canonical reduction.** Jobs are numbered up front and results
//!    land in index-keyed slots, so the reduced output is a function of
//!    the job list alone — never of thread scheduling. Parallel runs
//!    are bit-identical to serial runs (`workers = 1`), and when
//!    several jobs fail, the error reported is the one the serial loop
//!    would have hit first.
//! 2. **The engines' work is machine-independent; only its cost is
//!    not.** No engine reads its probe back, so the event stream of a
//!    run depends on the design (and recipe), never on the machine the
//!    probe models. For synthesis [`FlowCache`] records the stream once
//!    ([`Synthesizer::run_traced`]) and replays it per machine
//!    configuration. Placement and STA run once per netlist through
//!    their `run_sweep`, one sweep probe costing the run for every
//!    machine at once. Routing depends on the machine through one
//!    number, the strip count (`threads`, capped by the connections
//!    there are to share), plus a closed-form tail (coherence traffic,
//!    the width the parallel work ran at): `Router::run_sweep`
//!    negotiates once per distinct strip count. The 1/2/4/8-vCPU sweep
//!    thus does each piece of structural work once, with counters
//!    bit-identical to a fresh run at each vCPU count.

use eda_cloud_flow::{ExecContext, FlowError, Recipe, StageReport, SynthesisTrace, Synthesizer};
use eda_cloud_netlist::{Aig, AigNode, Netlist};
use eda_cloud_trace::{par, Metrics};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Resolve a `workers` knob to a concrete worker count: `0` (the
/// configs' default) asks for one worker per available core; at most
/// 8 — the widest useful fan-out for a 1/2/4/8-vCPU sweep grid row.
#[must_use]
pub fn resolve_workers(requested: usize) -> usize {
    par::resolve_workers(requested, 8)
}

/// [`par::map_indexed`] plus sweep observability: counts jobs, samples
/// each job's wait from fan-out start to pickup into a histogram, and
/// reports aggregate worker occupancy (busy time / fan-out wall time)
/// as a gauge. All recording goes through [`Metrics`], which is
/// scheduling-dependent by contract — nothing here touches the
/// deterministic trace.
pub(crate) fn map_metered<I, T, F>(workers: usize, items: Vec<I>, metrics: &Metrics, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    metrics.add("sweep.jobs", items.len() as u64);
    let workers = workers.clamp(1, items.len().max(1));
    let start = Instant::now();
    let busy_nanos = AtomicU64::new(0);
    let results = par::map_indexed(workers, items, |index, item| {
        let picked_up = Instant::now();
        metrics.observe("sweep.queue_wait_secs", (picked_up - start).as_secs_f64());
        let result = f(index, item);
        busy_nanos.fetch_add(picked_up.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    });
    let capacity_nanos = start.elapsed().as_nanos() as f64 * workers as f64;
    let busy = busy_nanos.load(Ordering::Relaxed) as f64;
    metrics.set_gauge("sweep.worker_occupancy", (busy / capacity_nanos.max(1.0)).clamp(0.0, 1.0));
    results
}

/// Reduce per-job `Result`s canonically: return all successes in order,
/// or the error the lowest-indexed failing job produced — exactly what
/// a serial loop with `?` would have returned.
pub(crate) fn reduce_results<T, E>(results: Vec<Result<T, E>>) -> Result<Vec<T>, E> {
    results.into_iter().collect()
}

/// Key identifying one synthesis computation: the design's structural
/// fingerprint plus the recipe and verification toggle. Machine
/// configuration is deliberately absent — that is the point of the
/// cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// [`design_fingerprint`] of the input AIG.
    pub design: u64,
    /// Recipe name (recipes in a suite are name-unique).
    pub recipe: String,
    /// Whether synthesis runs its equivalence spot-check.
    pub verify: bool,
}

struct CachedSynthesis {
    netlist: Arc<Netlist>,
    trace: SynthesisTrace,
}

/// A keyed cache of synthesis results shared across the points of a
/// sweep.
///
/// The first lookup for a key runs [`Synthesizer::run_traced`] and
/// stores the mapped netlist plus the machine-independent probe trace;
/// later lookups — the remaining vCPU counts of the sweep, on any
/// worker thread — replay the trace against their machine
/// configuration, which is bit-identical to a fresh run there (see
/// [`Synthesizer::report_from_trace`]). The cache is exactly
/// transparent: no output of a sweep changes by routing synthesis
/// through it.
pub struct FlowCache {
    entries: Mutex<HashMap<FlowKey, Arc<CachedSynthesis>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FlowCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Synthesize `aig` under `recipe` for `ctx`, computing the
    /// structural work at most once per [`FlowKey`].
    ///
    /// # Errors
    ///
    /// Propagates synthesis failures; errors are not cached (the next
    /// lookup retries, matching the serial loop's behavior of failing
    /// at its own sweep point).
    pub fn synthesize(
        &self,
        synthesizer: &Synthesizer,
        aig: &Aig,
        key: &FlowKey,
        recipe: &Recipe,
        ctx: &ExecContext,
    ) -> Result<(Arc<Netlist>, StageReport), FlowError> {
        // The cache is trace-transparent: hit/miss is scheduling-
        // dependent, so the engine-internal pass spans (which only a
        // miss would produce) are suppressed and one uniform stage span
        // is recorded from the report — identical on either path, since
        // replayed reports are bit-identical to fresh runs.
        let record_span = |report: &StageReport| {
            let span = ctx.span.child("synthesis");
            span.counter("instructions", report.counters.instructions);
        };
        if let Some(entry) = self.entries.lock().expect("flow cache map").get(key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let report = Synthesizer::report_from_trace(&entry.trace, ctx);
            record_span(&report);
            return Ok((entry.netlist.clone(), report));
        }

        // Miss: run outside the lock (synthesis is the expensive part).
        // Two workers racing on the same key both compute — identical,
        // deterministic results; first insert wins and both share it.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (netlist, report, trace) = synthesizer.run_traced(aig, recipe, &ctx.without_span())?;
        let entry = Arc::new(CachedSynthesis { netlist: Arc::new(netlist), trace });
        let entry = self
            .entries
            .lock()
            .expect("flow cache map")
            .entry(key.clone())
            .or_insert(entry)
            .clone();
        record_span(&report);
        Ok((entry.netlist.clone(), report))
    }

    /// Lookups served from the cache so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the synthesizer.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl Default for FlowCache {
    fn default() -> Self {
        Self::new()
    }
}

/// A structural fingerprint of an AIG (FNV-1a over name, nodes, and
/// outputs), used as the design component of a [`FlowKey`].
#[must_use]
pub fn design_fingerprint(aig: &Aig) -> u64 {
    fn mix(h: &mut u64, byte: u8) {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x1000_0000_01b3);
    }
    fn mix_u64(h: &mut u64, v: u64) {
        for byte in v.to_le_bytes() {
            mix(h, byte);
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in aig.name().bytes() {
        mix(&mut h, byte);
    }
    mix(&mut h, 0xFF); // name/body separator
    for node in aig.nodes() {
        match node {
            AigNode::Const0 => mix_u64(&mut h, 0),
            AigNode::Pi(pos) => {
                mix_u64(&mut h, 1);
                mix_u64(&mut h, u64::from(*pos));
            }
            AigNode::And(a, b) => {
                mix_u64(&mut h, 2);
                mix_u64(&mut h, u64::from(a.raw()));
                mix_u64(&mut h, u64::from(b.raw()));
            }
        }
    }
    for (name, lit) in aig.outputs() {
        for byte in name.bytes() {
            mix(&mut h, byte);
        }
        mix_u64(&mut h, u64::from(lit.raw()));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_netlist::generators;

    #[test]
    fn metered_fan_out_records_jobs_and_occupancy() {
        let metrics = Metrics::new();
        let got = map_metered(4, (0..32u64).collect(), &metrics, |_, v| v);
        assert_eq!(got, (0..32u64).collect::<Vec<_>>());
        assert_eq!(metrics.counter("sweep.jobs"), 32);
        let occupancy = metrics.gauge("sweep.worker_occupancy");
        assert!(occupancy.is_some_and(|o| (0.0..=1.0).contains(&o)));
    }

    #[test]
    fn reduce_results_picks_first_error_canonically() {
        let all: Vec<Result<u32, &str>> = vec![Ok(1), Err("second"), Ok(3), Err("fourth")];
        assert_eq!(reduce_results(all), Err("second"));
        let ok: Vec<Result<u32, &str>> = vec![Ok(1), Ok(2)];
        assert_eq!(reduce_results(ok), Ok(vec![1, 2]));
    }

    #[test]
    fn fingerprint_separates_structures_and_names() {
        let a = generators::adder(6);
        let b = generators::adder(7);
        let c = generators::parity(6);
        assert_eq!(design_fingerprint(&a), design_fingerprint(&generators::adder(6)));
        assert_ne!(design_fingerprint(&a), design_fingerprint(&b));
        assert_ne!(design_fingerprint(&a), design_fingerprint(&c));
    }

    #[test]
    fn cache_replays_identical_reports() {
        let aig = generators::multiplier(6);
        let recipe = Recipe::balanced();
        let synthesizer = Synthesizer::new();
        let cache = FlowCache::new();
        let key = FlowKey {
            design: design_fingerprint(&aig),
            recipe: recipe.name().to_owned(),
            verify: true,
        };
        for vcpus in [1u32, 2, 4, 8] {
            let ctx = ExecContext::with_vcpus(vcpus);
            let (nl, cached) = cache
                .synthesize(&synthesizer, &aig, &key, &recipe, &ctx)
                .expect("cached synthesis");
            let (fresh_nl, fresh) = synthesizer.run(&aig, &recipe, &ctx).expect("fresh synthesis");
            assert_eq!(cached, fresh, "report mismatch at {vcpus} vCPUs");
            assert_eq!(nl.cell_count(), fresh_nl.cell_count());
        }
        assert_eq!(cache.misses(), 1, "one structural run for the whole sweep");
        assert_eq!(cache.hits(), 3);
    }

}
