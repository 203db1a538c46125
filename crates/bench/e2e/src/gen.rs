//! Seeded input generators. The program under test receives only what
//! these produce; `--seed` reaches nothing else.
//!
//! Every generator keeps the *amount* of work independent of the seed
//! and lets the seed choose only order, timing, and deadlines: designs
//! are drawn as shuffled laps over the whole pool (each design exactly
//! once per lap) rather than uniformly at random, so two seeds differ
//! in what is adjacent to what — never in how many large designs the
//! stream happens to contain. That is what lets throughput on two
//! seeds be compared at all.

use eda_cloud_fleet::{poisson_arrivals, FleetJob};
use eda_cloud_flow::{ExecContext, Recipe, Synthesizer};
use eda_cloud_gcn::GraphSample;
use eda_cloud_lifecycle::{ReplayBuffer, RuntimeOracle};
use eda_cloud_netlist::formats::{write_blif, write_verilog};
use eda_cloud_netlist::{generators, DesignGraph, Netlist};
use eda_cloud_serve::{RequestKind, ServeDesign, ServeRequest, UploadDoc};
use eda_cloud_tech::Library;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Build one serving design per `(family, size)` pair, family-major.
/// Like `eda_cloud_serve::design_pool` both graph views derive from the
/// AIG; unlike it the pool is as wide as the caller asks.
///
/// # Errors
///
/// Names the family if the generators do not know it.
pub fn design_pool(families: &[&str], sizes: &[u32]) -> Result<Vec<Arc<ServeDesign>>, String> {
    let mut pool = Vec::with_capacity(families.len() * sizes.len());
    for family in families {
        for &size in sizes {
            let aig = generators::build_family(family, size)
                .ok_or_else(|| format!("unknown design family `{family}`"))?;
            let graph = DesignGraph::from_aig(&aig);
            let view = || GraphSample::new(&graph, [1.0; 4]);
            pool.push(Arc::new(ServeDesign::new(
                format!("{family}{size}"),
                view(),
                view(),
            )));
        }
    }
    Ok(pool)
}

/// One replay buffer per stage holding every pool design labelled with
/// the oracle's ground truth as seen by request `ordinal` — what
/// `LifecycleController` fine-tunes on when it bootstraps (ordinal 0)
/// and, after the drift, when it retrains with full coverage.
#[must_use]
pub fn oracle_buffers(
    pool: &[Arc<ServeDesign>],
    oracle: &RuntimeOracle,
    ordinal: u64,
) -> [ReplayBuffer; 4] {
    let mut buffers = std::array::from_fn(|_| ReplayBuffer::new(pool.len()));
    for design in pool {
        let truth = oracle.runtimes(design, ordinal);
        buffers[0].push_keyed(design.fingerprint, design.aig.with_targets(truth[0]));
        for (k, buffer) in buffers.iter_mut().enumerate().skip(1) {
            buffer.push_keyed(design.fingerprint, design.netlist.with_targets(truth[k]));
        }
    }
    buffers
}

/// `count` indices into a pool of `len` items, as consecutive
/// independently shuffled laps: every index appears once per lap, so
/// any prefix that is a whole number of laps carries the same multiset
/// for every seed.
pub fn shuffled_laps<R: Rng>(len: usize, count: usize, rng: &mut R) -> Vec<usize> {
    let mut out = Vec::with_capacity(count + len);
    let mut lap: Vec<usize> = (0..len).collect();
    while out.len() < count && len > 0 {
        lap.shuffle(rng);
        out.extend_from_slice(&lap);
    }
    out.truncate(count);
    out
}

/// Shape of a generated request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Requests in the stream.
    pub requests: usize,
    /// Mean Poisson arrival rate on the simulated clock, requests/s.
    pub rate_per_sec: f64,
    /// Response-deadline window after arrival, ms (`min..max`).
    pub deadline_ms: std::ops::Range<u64>,
}

/// An open-loop request stream: seeded Poisson arrivals (the same
/// process `synthetic_requests` uses), uniform deadline windows, and
/// designs drawn as [`shuffled_laps`] over `pool`. `kind` decides what
/// each request asks for and which upload (if any) it carries, given
/// the pool index just drawn and the design at it; it gets the stream's
/// RNG so its draws stay part of the one seeded sequence.
pub fn request_stream(
    pool: &[Arc<ServeDesign>],
    spec: &StreamSpec,
    seed: u64,
    mut kind: impl FnMut(usize, &ServeDesign, &mut ChaCha8Rng) -> (RequestKind, Option<Arc<UploadDoc>>),
) -> Vec<ServeRequest> {
    let arrivals = poisson_arrivals(spec.requests, spec.rate_per_sec * 3600.0, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xE2E0_5EED);
    let order = shuffled_laps(pool.len(), spec.requests, &mut rng);
    arrivals
        .into_iter()
        .zip(order)
        .enumerate()
        .map(|(i, (arrival_secs, pick))| {
            let arrival_us = (arrival_secs * 1e6).round() as u64;
            let window_ms = rng.gen_range(spec.deadline_ms.clone());
            let design = Arc::clone(&pool[pick]);
            let (kind, upload) = kind(pick, &design, &mut rng);
            ServeRequest {
                ordinal: i as u64,
                arrival_us,
                deadline_us: arrival_us + window_ms * 1_000,
                kind,
                design,
                upload,
            }
        })
        .collect()
}

/// Rebuild a synthesized netlist so that what the writers emit is what
/// the ingest parsers accept.
///
/// Flow output does not round-trip today: `write_blif` emits a primary
/// output whose port name differs from its net as a `# alias` comment,
/// and `write_verilog`'s alias branch is a no-op, so the front door
/// rejects every synthesized design (`output s0 references unknown
/// net` / `net s0 has no driver`). Until the writers are fixed (a later
/// issue — the crates are out of bounds here), the corpus generator
/// re-creates each netlist through the public builder with every
/// primary output *named after the net that drives it*, and promotes
/// nets left without a sink to outputs so the floating-net lint passes.
/// Structure (cells, wiring, inputs) is copied unchanged.
#[must_use]
pub fn roundtrippable(nl: &Netlist) -> Netlist {
    let mut out = Netlist::new(nl.name(), nl.library());
    let mut map = vec![u32::MAX; nl.net_count()];
    for &pi in nl.primary_inputs() {
        map[pi as usize] = out.add_input(nl.nets()[pi as usize].name.clone());
    }
    for (i, net) in nl.nets().iter().enumerate() {
        if map[i] == u32::MAX {
            map[i] = out.add_net(net.name.clone());
        }
    }
    for cell in nl.cells() {
        let inputs = cell.inputs.iter().map(|&n| map[n as usize]).collect();
        out.add_cell(
            cell.name.clone(),
            cell.cell_name.clone(),
            cell.kind,
            inputs,
            map[cell.output as usize],
        );
    }
    let mut po_nets: BTreeSet<u32> = nl.primary_outputs().iter().map(|&(_, n)| n).collect();
    for (i, net) in nl.nets().iter().enumerate() {
        if net.sinks.is_empty() {
            po_nets.insert(i as u32);
        }
    }
    for n in po_nets {
        out.add_output(nl.nets()[n as usize].name.clone(), map[n as usize]);
    }
    out
}

/// Families the upload corpus is synthesized from (crossbar and sbox
/// are left out: their netlists are several times the others' size).
pub const UPLOAD_FAMILIES: [&str; 16] = [
    "adder",
    "barrel",
    "multiplier",
    "square",
    "max",
    "comparator",
    "parity",
    "decoder",
    "priority",
    "voter",
    "arbiter",
    "ctrl",
    "int2float",
    "alu",
    "gray2bin",
    "hamming",
];
/// Sizes each upload family is built at.
pub const UPLOAD_SIZES: [u32; 3] = [6, 8, 10];

/// Synthesize the upload corpus: every [`UPLOAD_FAMILIES`] x
/// [`UPLOAD_SIZES`] design mapped to gates under the balanced recipe, rebuilt by
/// [`roundtrippable`], and written once as BLIF and once as structural
/// Verilog — two byte-distinct uploads of the same circuit.
///
/// # Errors
///
/// Reports an unknown family or a synthesis failure.
pub fn upload_corpus() -> Result<Vec<Arc<UploadDoc>>, String> {
    let lib = Library::synthetic_14nm();
    let ctx = ExecContext::with_vcpus(1);
    let designs = UPLOAD_FAMILIES
        .iter()
        .flat_map(|family| UPLOAD_SIZES.iter().map(move |size| (*family, *size)));
    let mut docs = Vec::with_capacity(UPLOAD_FAMILIES.len() * UPLOAD_SIZES.len() * 2);
    for (family, size) in designs {
        let aig = generators::build_family(family, size)
            .ok_or_else(|| format!("unknown design family `{family}`"))?;
        let (netlist, _) = Synthesizer::new()
            .run(&aig, &Recipe::balanced(), &ctx)
            .map_err(|e| format!("synthesizing {family}{size}: {e}"))?;
        let netlist = roundtrippable(&netlist);
        let name = format!("{family}{size}");
        docs.push(Arc::new(UploadDoc::new(
            name.clone(),
            "blif",
            write_blif(&netlist, &lib),
        )));
        docs.push(Arc::new(UploadDoc::new(
            name,
            "verilog",
            write_verilog(&netlist, &lib),
        )));
    }
    Ok(docs)
}

/// Tile a planned job stream `copies` times: copy `c` keeps every plan
/// but renumbers ids past the previous copy's and shifts arrivals by
/// `c` times the stream's span (last arrival plus one mean gap), so ids
/// stay unique and arrivals non-decreasing. Planning is the expensive
/// part of fleet set-up; tiling buys a long simulation for one
/// planning pass.
#[must_use]
pub fn tile_jobs(jobs: &[FleetJob], copies: usize) -> Vec<FleetJob> {
    let Some(last) = jobs.last() else {
        return Vec::new();
    };
    let span_secs = last.arrival_secs * (1.0 + 1.0 / jobs.len() as f64);
    let mut out = Vec::with_capacity(jobs.len() * copies);
    for copy in 0..copies {
        for job in jobs {
            let mut job = job.clone();
            job.plan.id += (copy * jobs.len()) as u64;
            job.arrival_secs += copy as f64 * span_secs;
            out.push(job);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_fleet::{JobPlan, PlannedStage};

    #[test]
    fn laps_cover_the_pool_once_per_lap_for_any_seed() {
        for seed in [1u64, 7, 11] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let order = shuffled_laps(5, 12, &mut rng);
            assert_eq!(order.len(), 12);
            for lap in order.chunks(5).take(2) {
                let mut sorted = lap.to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!(shuffled_laps(0, 4, &mut rng).is_empty());
    }

    #[test]
    fn streams_are_seeded_sorted_and_lap_balanced() {
        let pool = design_pool(&["adder", "parity"], &[4, 6]).expect("pool");
        let spec = StreamSpec {
            requests: 8,
            rate_per_sec: 300.0,
            deadline_ms: 30..250,
        };
        let predict = |_: usize, _: &ServeDesign, _: &mut ChaCha8Rng| (RequestKind::Predict, None);
        let a = request_stream(&pool, &spec, 7, predict);
        let b = request_stream(&pool, &spec, 7, predict);
        let c = request_stream(&pool, &spec, 8, predict);
        assert_eq!(a.len(), 8);
        assert!(a.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
        assert!(a.iter().all(|r| r.deadline_us > r.arrival_us));
        let prints = |s: &[ServeRequest]| -> Vec<(u64, u64)> {
            s.iter()
                .map(|r| (r.arrival_us, r.design.fingerprint))
                .collect()
        };
        assert_eq!(prints(&a), prints(&b), "same seed, same stream");
        assert_ne!(prints(&a), prints(&c), "seed matters");
        for design in &pool {
            let uses = a
                .iter()
                .filter(|r| r.design.fingerprint == design.fingerprint)
                .count();
            assert_eq!(uses, 2, "two laps use every design twice");
        }
    }

    fn job(id: u64, arrival_secs: f64) -> FleetJob {
        FleetJob {
            plan: JobPlan {
                id,
                stages: vec![PlannedStage {
                    name: "synthesis".into(),
                    instance: "m5.large".into(),
                    runtime_secs: 60,
                }],
                deadline_secs: 600,
            },
            arrival_secs,
        }
    }

    #[test]
    fn tiling_keeps_ids_unique_and_arrivals_sorted() {
        let base = vec![job(0, 10.0), job(1, 25.0), job(2, 90.0)];
        let tiled = tile_jobs(&base, 4);
        assert_eq!(tiled.len(), 12);
        let ids: BTreeSet<u64> = tiled.iter().map(|j| j.plan.id).collect();
        assert_eq!(ids.len(), 12, "ids unique");
        assert_eq!(ids.iter().next_back(), Some(&11));
        assert!(tiled
            .windows(2)
            .all(|w| w[0].arrival_secs <= w[1].arrival_secs));
        assert_eq!(
            tiled[3].plan.stages, base[0].plan.stages,
            "plans are copied, not re-planned"
        );
        assert!(tile_jobs(&[], 3).is_empty());
    }

    #[test]
    fn rebuilt_netlists_keep_structure_and_name_outputs_after_nets() {
        let aig = generators::adder(4);
        let (nl, _) = Synthesizer::new()
            .run(&aig, &Recipe::balanced(), &ExecContext::with_vcpus(1))
            .expect("synthesizes");
        let rebuilt = roundtrippable(&nl);
        rebuilt.check().expect("well-formed");
        assert_eq!(rebuilt.cell_count(), nl.cell_count());
        assert_eq!(rebuilt.primary_inputs().len(), nl.primary_inputs().len());
        assert!(rebuilt.primary_outputs().len() >= nl.primary_outputs().len().min(1));
        for (name, net) in rebuilt.primary_outputs() {
            assert_eq!(name, &rebuilt.nets()[*net as usize].name);
        }
    }
}
