//! Criterion benches for the GCN stack: sparse aggregation (allocating
//! and allocation-free CSR kernels), dense matmul and the fused
//! transposed product of the weight gradients, forward/backward
//! passes, a full training step, one fine-tuning epoch over the stock
//! serving pool, and float vs int8-quantized per-request inference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eda_cloud_gcn::{GraphSample, Matrix, ModelConfig, QuantizedPredictor, RuntimePredictor};
use eda_cloud_netlist::{generators, DesignGraph};
use std::hint::black_box;

fn sample() -> GraphSample {
    let aig = generators::openpiton_design("aes").unwrap();
    GraphSample::new(&DesignGraph::from_aig(&aig), [100.0, 60.0, 35.0, 22.0])
}

fn bench_spmm(c: &mut Criterion) {
    let s = sample();
    let dense = Matrix::zeros(s.node_count(), 32);
    // A fresh output per call: what an allocating caller pays.
    c.bench_function("spmm_aes_x32", |b| {
        b.iter(|| {
            let mut out = Matrix::zeros(0, 0);
            s.a_norm.matmul_into(black_box(&dense), &mut out).expect("valid operands");
            black_box(out)
        });
    });
    // The allocation-free CSR kernel the model hot paths run on.
    let mut out = Matrix::zeros(0, 0);
    c.bench_function("spmm_into_aes_x32", |b| {
        b.iter(|| {
            s.a_norm
                .matmul_into(black_box(&dense), &mut out)
                .expect("valid operands");
            black_box(&out);
        });
    });
}

/// A dense operand with no zero in it: the matmul kernels skip
/// `a == 0.0`, so a zero-filled `A` would time the branch, not the MACs.
fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed | 1;
    let data = (0..rows * cols)
        .map(|_| {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(7);
            ((s >> 33) % 1000) as f64 / 100.0 + 0.5
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// [`lcg_matrix`] with about half the entries zeroed by a seeded mask:
/// what a dense product's left operand looks like in the product, where
/// it is the previous layer's ReLU output.
fn relu_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = lcg_matrix(rows, cols, seed);
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for v in m.data_mut() {
        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(7);
        if (s >> 40) & 1 == 0 {
            *v = 0.0;
        }
    }
    m
}

fn bench_dense_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_matmul");
    for n in [64usize, 128, 256] {
        let a = lcg_matrix(n, n, 1);
        let b_mat = lcg_matrix(n, n, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(black_box(&b_mat))));
        });
    }
    group.finish();
    // The traffic rather than the peak: the paper model's second layer
    // on one serving chunk (`CHUNK_TARGET_ROWS` rows, 256 -> 128) with a
    // post-ReLU left operand, forward and weight-gradient.
    let rows = eda_cloud_gcn::CHUNK_TARGET_ROWS;
    let h = relu_matrix(rows, 256, 5);
    let w = lcg_matrix(256, 128, 6);
    let dz = lcg_matrix(rows, 128, 7);
    let mut out = Matrix::zeros(0, 0);
    c.bench_function("dense_matmul_relu/256", |b| {
        b.iter(|| {
            black_box(&h).matmul_into(black_box(&w), &mut out);
            black_box(&out);
        });
    });
    c.bench_function("matmul_tn_relu_256x128", |b| {
        b.iter(|| {
            black_box(&h).matmul_tn_into(black_box(&dz), &mut out);
            black_box(&out);
        });
    });
    // The fast model's second layer on the same chunk (32 -> 16): the
    // narrow rows the dense kernels keep in a register tile.
    let h = relu_matrix(rows, 32, 8);
    let w = lcg_matrix(32, 16, 9);
    c.bench_function("dense_matmul_relu/32x16", |b| {
        b.iter(|| {
            black_box(&h).matmul_into(black_box(&w), &mut out);
            black_box(&out);
        });
    });
    // Its weight gradient on one chunk and on a 6 000-row operand, where
    // an `i`-outer nesting (no 64-row blocks) runs 2x slower.
    let mut group = c.benchmark_group("matmul_tn_relu_32x16");
    for n in [rows, 6000] {
        let h = relu_matrix(n, 32, 10);
        let dz = lcg_matrix(n, 16, 11);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                black_box(&h).matmul_tn_into(black_box(&dz), &mut out);
                black_box(&out);
            });
        });
    }
    group.finish();
    // The weight-gradient shape of the paper model's first layer on
    // `aes`: a tall activation transposed against a tall gradient.
    let s = sample();
    let h = lcg_matrix(s.node_count(), 10, 3);
    let dz = lcg_matrix(s.node_count(), 256, 4);
    let mut out = Matrix::zeros(0, 0);
    c.bench_function("matmul_tn_aes_10x256", |b| {
        b.iter(|| {
            black_box(&h).matmul_tn_into(black_box(&dz), &mut out);
            black_box(&out);
        });
    });
}

fn bench_model(c: &mut Criterion) {
    let s = sample();
    let mut group = c.benchmark_group("model");
    group.sample_size(10);
    for (label, config) in [
        ("fast", ModelConfig::fast()),
        ("paper", ModelConfig::paper()),
    ] {
        let model = RuntimePredictor::new(&config, 3);
        group.bench_function(format!("forward_{label}"), |b| {
            b.iter(|| black_box(model.predict_log(black_box(&s))));
        });
        group.bench_function(format!("train_step_{label}"), |b| {
            let mut m = RuntimePredictor::new(&config, 3);
            b.iter(|| black_box(m.train_step(black_box(&s), 1e-3)));
        });
    }
    // The fast model on a tall graph (`multiplier16`, 2 849 nodes): every
    // weight-gradient product crosses 45 of its 64-row blocks.
    let tall = GraphSample::new(
        &DesignGraph::from_aig(&generators::multiplier(16)),
        [100.0, 60.0, 35.0, 22.0],
    );
    group.bench_function("train_step_fast_tall", |b| {
        let mut m = RuntimePredictor::new(&ModelConfig::fast(), 3);
        b.iter(|| black_box(m.train_step(black_box(&tall), 1e-3)));
    });
    // One epoch of the fast model over the 18 stock serving designs: the
    // call builds each design's row classes, then steps over them.
    let pool = eda_cloud_serve::design_pool();
    let stock: Vec<GraphSample> =
        pool.iter().map(|d| d.aig.with_targets([100.0, 60.0, 35.0, 22.0])).collect();
    let stock: Vec<&GraphSample> = stock.iter().collect();
    group.bench_function("fine_tune_epoch_stock", |b| {
        let mut m = RuntimePredictor::new(&ModelConfig::fast(), 3);
        b.iter(|| black_box(m.fine_tune(black_box(&stock), 1, 1e-3, 7)));
    });
    group.finish();
}

fn bench_quantized(c: &mut Criterion) {
    // Float vs int8 per-request inference at the paper architecture —
    // the serving-path comparison the quantized snapshot exists for.
    let s = sample();
    let float = RuntimePredictor::new(&ModelConfig::paper(), 3);
    let quant = QuantizedPredictor::quantize(&float);
    let mut group = c.benchmark_group("infer_request");
    group.sample_size(10);
    group.bench_function("float_paper", |b| {
        b.iter(|| black_box(float.predict_log(black_box(&s))));
    });
    group.bench_function("int8_paper", |b| {
        b.iter(|| black_box(quant.predict_log(black_box(&s))));
    });
    group.finish();
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
    targets = bench_spmm, bench_dense_matmul, bench_model, bench_quantized
}
criterion_main!(benches);
