//! Criterion benches for the serving tier's micro-batching: one padded
//! chunked GCN forward over N designs vs N per-request forwards, vs the
//! naive monolithic batch (one giant block-diagonal matrix), plus the
//! batch-packing overhead itself.
//!
//! The interesting comparison is the three-way one. A monolithic batch
//! streams a multi-hundred-KiB activation matrix through every layer,
//! evicting itself between operations, and lands well *behind* the
//! per-request loop. Chunked packing (cache-sized block-diagonal
//! slices, see `eda_cloud_gcn::CHUNK_TARGET_ROWS`) recovers that loss:
//! batched inference runs at per-request speed while keeping the
//! amortized dispatch, alloc-free steady state, and deterministic
//! worker fan-out the serving tier batches for. Packing also folds each
//! design's node rows into row classes (equal node states, computed
//! once), so on circuit graphs a batched forward runs about half the
//! rows the per-request loop does: `paper_pool_36` shows that saving on
//! the paper model over the `serve_miss` benchmark's design pool.
//! `EXPERIMENTS.md` records the measured numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eda_cloud_gcn::{GraphBatch, GraphSample, ModelConfig, RowQuotient, RuntimePredictor};
use eda_cloud_netlist::{generators, DesignGraph};
use std::hint::black_box;

/// A pool of distinct small designs, cycled to fill a batch.
fn pool() -> Vec<GraphSample> {
    let mut samples = Vec::new();
    for family in ["adder", "parity", "comparator", "max", "gray2bin", "hamming"] {
        for size in [4u32, 6, 8] {
            let aig = generators::build_family(family, size).expect("known family");
            samples.push(GraphSample::new(&DesignGraph::from_aig(&aig), [1.0; 4]));
        }
    }
    samples
}

fn bench_batched_vs_sequential(c: &mut Criterion) {
    let samples = pool();
    let model = RuntimePredictor::new(&ModelConfig::fast(), 7);
    let mut group = c.benchmark_group("inference");
    for n in [1usize, 8, 32] {
        let picked: Vec<&GraphSample> =
            (0..n).map(|i| &samples[i % samples.len()]).collect();
        let chunked = GraphBatch::pack_padded(&picked, 8);
        let monolithic = GraphBatch::pack_chunked(&picked, 8, usize::MAX);
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
            b.iter(|| black_box(model.predict_secs_batch(black_box(&chunked))));
        });
        group.bench_with_input(BenchmarkId::new("monolithic", n), &n, |b, _| {
            b.iter(|| black_box(model.predict_secs_batch(black_box(&monolithic))));
        });
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| {
                for s in &picked {
                    black_box(model.predict_secs(black_box(s)));
                }
            });
        });
    }
    group.finish();
}

/// The 36 designs of the `serve_miss` benchmark pool (every generator
/// family at sizes 4 and 8) on the paper model (GCN 256 → 128, FC 128):
/// one batch packed at the serving tier's pad stride of 8, forwarded
/// over its row classes, against 36 per-sample forwards over every node
/// row. Both predict the same bits.
fn bench_paper_pool(c: &mut Criterion) {
    let mut samples = Vec::new();
    for family in generators::FAMILY_NAMES {
        for size in [4u32, 8] {
            let aig = generators::build_family(family, size).expect("known family");
            samples.push(GraphSample::new(&DesignGraph::from_aig(&aig), [1.0; 4]));
        }
    }
    let picked: Vec<&GraphSample> = samples.iter().collect();
    let model = RuntimePredictor::new(&ModelConfig::paper(), 7);
    let batch = GraphBatch::pack_padded(&picked, 8);
    let mut group = c.benchmark_group("paper_pool_36");
    group.bench_function("batched", |b| {
        b.iter(|| black_box(model.predict_log_batch(black_box(&batch))));
    });
    group.bench_function("sequential", |b| {
        b.iter(|| {
            for s in &picked {
                black_box(model.predict_log(black_box(s)));
            }
        });
    });
    group.finish();
}

/// Packing cost of the 18 stock designs at stride 8. `pack_padded_18`
/// partitions every design into row classes (colour refinement to a
/// stable partition; the classes are 32.1 % of the node rows) and joins
/// the quotients into padded block-diagonal chunks: what a design costs
/// the first time it is packed. `join_18` joins quotients kept from an
/// earlier pack, as the server does for a design it has seen.
fn bench_packing(c: &mut Criterion) {
    let samples = pool();
    let picked: Vec<&GraphSample> = samples.iter().collect();
    c.bench_function("pack_padded_18", |b| {
        b.iter(|| black_box(GraphBatch::pack_padded(black_box(&picked), 8)));
    });
    let kept: Vec<RowQuotient> = samples.iter().map(RowQuotient::from).collect();
    let quotients: Vec<&RowQuotient> = kept.iter().collect();
    c.bench_function("join_18", |b| {
        b.iter(|| black_box(GraphBatch::join(black_box(&quotients), 8)));
    });
}

fn quick() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_batched_vs_sequential, bench_paper_pool, bench_packing
}
criterion_main!(benches);
