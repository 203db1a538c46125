//! The parallel sweep engine: the workspace's indexed fan-out
//! ([`par::map_indexed`]), metered, with canonical result reduction.
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
//!    probe models. Every engine runs once per netlist through its
//!    `run_sweep`, one sweep probe costing the run for every machine at
//!    once; routing adds a closed-form tail per machine (its batches'
//!    makespans on the machine's threads, coherence traffic). The
//!    1/2/4/8-vCPU sweep thus does each piece of structural work once,
//!    with counters bit-identical to a fresh run at each vCPU count;
//!    what fans out here is corpus entries (synthesis) and distinct
//!    corpus netlists (placement, routing, STA).

use eda_cloud_trace::{par, Metrics};
use std::sync::atomic::{AtomicU64, Ordering};
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metered_fan_out_records_jobs_and_occupancy() {
        let metrics = Metrics::new();
        let got = map_metered(4, (0..32u64).collect(), &metrics, |_, v| v);
        assert_eq!(got, (0..32u64).collect::<Vec<_>>());
        assert_eq!(metrics.counter("sweep.jobs"), 32);
        let json = metrics.to_json();
        let (_, rest) = json.split_once("\"sweep.worker_occupancy\":").expect("gauge is set");
        let value = rest.split(['}', ',']).next().expect("a value");
        let occupancy: f64 = value.parse().expect("a number");
        assert!((0.0..=1.0).contains(&occupancy), "{json}");
    }

    #[test]
    fn reduce_results_picks_first_error_canonically() {
        let all: Vec<Result<u32, &str>> = vec![Ok(1), Err("second"), Ok(3), Err("fourth")];
        assert_eq!(reduce_results(all), Err("second"));
        let ok: Vec<Result<u32, &str>> = vec![Ok(1), Ok(2)];
        assert_eq!(reduce_results(ok), Ok(vec![1, 2]));
    }
}
