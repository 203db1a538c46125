//! Differential oracle for the float training and inference paths.
//!
//! [`reference_train_step`] is the training step as it was before the
//! fused kernels and the reusable scratch: fresh allocations, cloned
//! caches, every transpose materialized, the bottom layer's input
//! gradient computed and dropped. [`reference_predict_log`] is its
//! forward half. Both are built from the naive primitives below only —
//! [`naive_matmul`], [`naive_spmm`], `transpose`, `add`, `relu`,
//! `relu_backward`, `sum_rows` and a local copy of the old row-copy
//! `Āᵀ·D` loop — so they share no fused kernel, no layer form and no
//! buffer with the code they check. The contract is bit-identity: equal
//! `loss.to_bits()` on every step, equal `save_weights()` text, and
//! equal prediction bits from `predict_log` and `predict_log_batch` at
//! any chunking and padding.
//!
//! Every dense product here goes through [`naive_matmul`], the
//! `i`-`k`-`j` loop `Matrix::matmul_into` was before the gather-and-fold
//! kernel replaced it — `Matrix::matmul` is a wrapper over the new body,
//! so using it here would compare the kernel with itself.

use crate::batch::{tests::planted as planted_graph, BatchChunk};
use crate::layers::{DenseLayer, GcnLayer};
use crate::{
    GcnError, GraphBatch, GraphSample, Matrix, ModelConfig, RowQuotient, RuntimePredictor,
    SparseMatrix,
};
use eda_cloud_netlist::{generators, DesignGraph};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// `a · b` as `Matrix::matmul_into` computed it before the
/// gather-and-fold kernel: one AXPY per non-zero `a[i][k]`, `k`
/// ascending, the `a == 0.0` skip a branch.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let x = a.data()[i * a.cols() + k];
            if x == 0.0 {
                continue;
            }
            let rrow = &b.data()[k * b.cols()..(k + 1) * b.cols()];
            let orow = &mut out.data_mut()[i * b.cols()..(i + 1) * b.cols()];
            for (o, &w) in orow.iter_mut().zip(rrow) {
                *o += x * w;
            }
        }
    }
    out
}

/// `a · dense`, one AXPY per stored entry in storage order.
fn naive_spmm(a: &SparseMatrix, dense: &Matrix) -> Matrix {
    assert_eq!(a.cols(), dense.rows(), "inner dimensions must agree");
    let c = dense.cols();
    let mut out = Matrix::zeros(a.rows(), c);
    for (r, j, v) in a.entries() {
        let orow = &mut out.data_mut()[r as usize * c..(r as usize + 1) * c];
        for (o, &d) in orow.iter_mut().zip(dense.row(j as usize)) {
            *o += v * d;
        }
    }
    out
}

/// `aᵀ · dense` the way the allocating transposed product computed it
/// before `matmul_transposed_into` replaced it: copy the dense row out,
/// scatter it entry by entry in storage order.
fn row_copy_matmul_transposed(a: &SparseMatrix, dense: &Matrix) -> Matrix {
    assert_eq!(a.rows(), dense.rows(), "inner dimensions must agree");
    let c = dense.cols();
    let mut out = Matrix::zeros(a.cols(), c);
    for (r, j, v) in a.entries() {
        let drow: Vec<f64> = dense.row(r as usize).to_vec();
        let orow = &mut out.data_mut()[j as usize * c..(j as usize + 1) * c];
        for (o, &d) in orow.iter_mut().zip(&drow) {
            *o += v * d;
        }
    }
    out
}

fn transpose(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.cols(), m.rows());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            out.set(c, r, m.get(r, c));
        }
    }
    out
}

/// Element-wise `a + b`.
fn add(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    let data = a.data().iter().zip(b.data()).map(|(x, y)| x + y).collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

fn relu(m: &Matrix) -> Matrix {
    Matrix::from_vec(m.rows(), m.cols(), m.data().iter().map(|v| v.max(0.0)).collect())
}

/// `grad * (pre > 0)`, masked on the pre-activation.
fn relu_backward(grad: &Matrix, pre_activation: &Matrix) -> Matrix {
    let data = grad.data().iter().zip(pre_activation.data());
    let data = data.map(|(&g, &z)| if z > 0.0 { g } else { 0.0 }).collect();
    Matrix::from_vec(grad.rows(), grad.cols(), data)
}

/// What the reference GCN backward reads of its forward pass.
struct GcnRecord {
    input: Matrix,
    aggregated: Matrix,
    pre_activation: Matrix,
}

fn gcn_forward(layer: &GcnLayer, a_norm: &SparseMatrix, input: &Matrix) -> (Matrix, GcnRecord) {
    let aggregated = naive_spmm(a_norm, input);
    let pre_activation =
        add(&naive_matmul(&aggregated, &layer.w), &naive_matmul(input, &layer.b));
    let out = relu(&pre_activation);
    (
        out,
        GcnRecord {
            input: input.clone(),
            aggregated,
            pre_activation,
        },
    )
}

/// Returns `(dW, dB, dH)`.
fn gcn_backward(
    layer: &GcnLayer,
    a_norm: &SparseMatrix,
    cache: &GcnRecord,
    grad_out: &Matrix,
) -> (Matrix, Matrix, Matrix) {
    let dz = relu_backward(grad_out, &cache.pre_activation);
    let dw = naive_matmul(&transpose(&cache.aggregated), &dz);
    let db = naive_matmul(&transpose(&cache.input), &dz);
    let dzw = naive_matmul(&dz, &transpose(&layer.w));
    let dh = add(
        &row_copy_matmul_transposed(a_norm, &dzw),
        &naive_matmul(&dz, &transpose(&layer.b)),
    );
    (dw, db, dh)
}

fn dense_forward(layer: &DenseLayer, input: &Matrix) -> Matrix {
    let mut out = naive_matmul(input, &layer.w);
    for r in 0..out.rows() {
        for c in 0..out.cols() {
            let v = out.get(r, c) + layer.bias.get(0, c);
            out.set(r, c, v);
        }
    }
    out
}

/// Returns `(dW, dbias, dinput)`.
fn dense_backward(layer: &DenseLayer, input: &Matrix, grad_out: &Matrix) -> (Matrix, Matrix, Matrix) {
    let dw = naive_matmul(&transpose(input), grad_out);
    let dbias = grad_out.sum_rows();
    let dinput = naive_matmul(grad_out, &transpose(&layer.w));
    (dw, dbias, dinput)
}

/// The reference forward pass: the caches the GCN backward reads, then
/// the pooled row, the FC pre-activation and activation, and the head
/// output.
fn reference_forward(
    model: &RuntimePredictor,
    sample: &GraphSample,
) -> (Vec<GcnRecord>, [Matrix; 4]) {
    let mut h = sample.features.clone();
    let mut gcn_caches = Vec::new();
    for layer in &model.gcn {
        let (next, cache) = gcn_forward(layer, &sample.a_norm, &h);
        gcn_caches.push(cache);
        h = next;
    }
    let pooled_scale = 1.0 / (h.rows() as f64).sqrt();
    let mut pooled = h.sum_rows();
    for v in pooled.data_mut() {
        *v *= pooled_scale;
    }
    let fc_pre = dense_forward(&model.fc, &pooled);
    let fc_act = relu(&fc_pre);
    let out = dense_forward(&model.head, &fc_act);
    (gcn_caches, [pooled, fc_pre, fc_act, out])
}

/// Predicted `ln(runtime)` for one sample, the old way.
fn reference_predict_log(model: &RuntimePredictor, sample: &GraphSample) -> [f64; 4] {
    let (_, [.., out]) = reference_forward(model, sample);
    [out.get(0, 0), out.get(0, 1), out.get(0, 2), out.get(0, 3)]
}

/// One Adam step on one sample, the old way; returns the pre-step loss.
pub(crate) fn reference_train_step(
    model: &mut RuntimePredictor,
    sample: &GraphSample,
    lr: f64,
) -> f64 {
    let (gcn_caches, [pooled, fc_pre, fc_act, out]) = reference_forward(model, sample);
    let n = sample.node_count();
    let pooled_scale = 1.0 / (n as f64).sqrt();

    // Loss and output gradient.
    let mut loss = 0.0;
    let mut dout = Matrix::zeros(1, 4);
    for c in 0..4 {
        let diff = out.get(0, c) - sample.log_targets[c];
        loss += diff * diff / 4.0;
        dout.set(0, c, 2.0 * diff / 4.0);
    }

    // Backward through head and FC, un-pool, then the GCN stack.
    let (head_dw, head_dbias, dfc_act) = dense_backward(&model.head, &fc_act, &dout);
    let dfc_pre = relu_backward(&dfc_act, &fc_pre);
    let (fc_dw, fc_dbias, dpooled) = dense_backward(&model.fc, &pooled, &dfc_pre);
    let cols = dpooled.cols();
    let mut grad = Matrix::zeros(n, cols);
    for r in 0..n {
        for c in 0..cols {
            grad.set(r, c, dpooled.get(0, c) * pooled_scale);
        }
    }
    let mut gcn_grads = Vec::new();
    for (layer, cache) in model.gcn.iter().zip(&gcn_caches).rev() {
        let (dw, db, dinput) = gcn_backward(layer, &sample.a_norm, cache, &grad);
        gcn_grads.push((dw, db));
        grad = dinput;
    }
    gcn_grads.reverse();

    // Adam updates, in the order the states were allocated.
    let mut k = 0;
    for (layer, (dw, db)) in model.gcn.iter_mut().zip(&gcn_grads) {
        model.adam[k].step(&mut layer.w, dw, lr);
        model.adam[k + 1].step(&mut layer.b, db, lr);
        k += 2;
    }
    model.adam[k].step(&mut model.fc.w, &fc_dw, lr);
    model.adam[k + 1].step(&mut model.fc.bias, &fc_dbias, lr);
    model.adam[k + 2].step(&mut model.head.w, &head_dw, lr);
    model.adam[k + 3].step(&mut model.head.bias, &head_dbias, lr);
    loss
}

/// `sample`'s one-sample chunk, what `try_fit` and `fine_tune` build
/// for it: its row-class quotient joined at stride 1.
pub(crate) fn class_chunk(sample: &GraphSample) -> BatchChunk {
    GraphBatch::join(&[&RowQuotient::from(sample)], 1).chunks.remove(0)
}

/// A graph of the row-class differentials (chains, rings, combs,
/// planted symmetry, `±0.0` and `NaN` features) with runtime targets
/// drawn from `rng`.
pub(crate) fn planted_sample(rng: &mut ChaCha8Rng) -> GraphSample {
    use rand::Rng;
    let graph = planted_graph(rng);
    let t1 = rng.gen_range(1.0..1_000.0);
    graph.with_targets([t1, t1 / 1.6, t1 / 2.4, t1 / 3.0])
}

fn family_sample(family: &str, size: u32, t1: f64) -> GraphSample {
    let aig = generators::build_family(family, size).expect("family");
    GraphSample::new(&DesignGraph::from_aig(&aig), [t1, t1 / 1.6, t1 / 2.4, t1 / 3.0])
}

fn configs() -> Vec<ModelConfig> {
    vec![
        ModelConfig::fast(),
        ModelConfig::shallow(8),
        ModelConfig {
            gcn_dims: vec![12, 7, 5],
            fc_dim: 6,
        },
    ]
}

/// Matrix contents from a seed: values in `[-5, 5)` with exact `0.0`
/// and `-0.0` planted in about a quarter of the cells, so the kernels'
/// skip-zero branch and the sign of an all-skipped sum are exercised.
/// With `infinities`, one cell in sixteen is `+inf`: a right-hand
/// operand for which skipping a zero multiplier (`0 · inf = NaN`) is
/// observable in the result.
fn planted(seed: u64, rows: usize, cols: usize, infinities: bool) -> Matrix {
    let mut s = seed | 1;
    let data = (0..rows * cols)
        .map(|_| {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(7);
            match (s >> 33) % 16 {
                0 | 1 => 0.0,
                2 | 3 => -0.0,
                4 if infinities => f64::INFINITY,
                _ => ((s >> 37) % 1000) as f64 / 100.0 - 5.0,
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// A used output buffer: larger than anything the case needs and full
/// of values that would show if a kernel read before writing.
fn dirty() -> Matrix {
    Matrix::from_vec(40, 12, vec![f64::NAN; 480])
}

fn bits(m: &Matrix) -> (usize, usize, Vec<u64>) {
    (m.rows(), m.cols(), m.data().iter().map(|v| v.to_bits()).collect())
}

/// Inner dimensions and per-row non-zero counts on both sides of every
/// seam of the dense kernels: the 8 / 4 / 1 fold (0, 1, 3, 4, 7, 8, 9,
/// 12) and the 64-entry gather block (63, 64, 65, 129).
const SEAMS: [usize; 12] = [0, 1, 3, 4, 7, 8, 9, 12, 63, 64, 65, 129];

/// One value of a seamed operand: mostly `[-5, 5) \ {0}`, one in eight
/// `±inf` or `NaN` — all of them non-zero to the kernels' skip.
fn nonzero(s: u64) -> f64 {
    match (s >> 20) % 24 {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        2 => f64::NAN,
        _ => ((s >> 37) % 999) as f64 / 100.0 - 4.995,
    }
}

/// Left operand of the dense-kernel differential, `SEAMS.len() + 1`
/// rows by `k`: row `r` holds `SEAMS[(r + rot) % 12].min(k)` non-zeros
/// at seeded positions (so one row is all zeros, the last one has no
/// zero at all) and `+0.0` / `-0.0` alternating everywhere else.
fn seamed(seed: u64, k: usize, rot: usize) -> Matrix {
    let rows = SEAMS.len() + 1;
    let mut s = seed | 1;
    let mut step = move || {
        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(7);
        s
    };
    let mut data = Vec::with_capacity(rows * k);
    for r in 0..rows {
        let nnz = if r == SEAMS.len() { k } else { SEAMS[(r + rot) % SEAMS.len()].min(k) };
        // Seeded partial shuffle: the first `nnz` slots of `order` are
        // the non-zero positions.
        let mut order: Vec<usize> = (0..k).collect();
        for i in 0..nnz {
            let j = i + (step() >> 33) as usize % (k - i);
            order.swap(i, j);
        }
        let mut row: Vec<f64> = (0..k).map(|c| if c % 2 == 0 { 0.0 } else { -0.0 }).collect();
        for &c in &order[..nnz] {
            row[c] = nonzero(step());
        }
        data.extend(row);
    }
    Matrix::from_vec(rows, k, data)
}

/// Left operand of the tall differential, `height x 13`: planted zeros,
/// `±inf` and `NaN` in three seeded cells, then column 5 and row
/// `height / 2` all `±0.0`.
fn tall(seed: u64, height: usize) -> Matrix {
    let mut a = planted(seed, height, 13, false);
    plant_specials(&mut a, seed);
    for r in 0..height {
        a.set(r, 5, if r % 2 == 0 { 0.0 } else { -0.0 });
    }
    for c in 0..13 {
        a.set(height / 2, c, if c % 2 == 0 { -0.0 } else { 0.0 });
    }
    a
}

/// Overwrite three seeded cells with `+inf`, `-inf` and `NaN`.
fn plant_specials(m: &mut Matrix, seed: u64) {
    let cells = m.data().len() as u64;
    for (t, v) in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN].into_iter().enumerate() {
        let at = (seed ^ 0xA5A5).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        m.data_mut()[(at.rotate_left(17 * t as u32 + 5) % cells) as usize] = v;
    }
}

/// [`bits`] with every `NaN` mapped to one pattern. Which payload and
/// sign a `NaN` result carries when two different `NaN`s meet depends on
/// operand order at the instruction level, which Rust does not fix; that
/// an element *is* `NaN`, and every other element's bits, it does.
fn bits_nan_folded(m: &Matrix) -> (usize, usize, Vec<u64>) {
    let fold = |v: &f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
    (m.rows(), m.cols(), m.data().iter().map(fold).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The scratch-reusing `train_step` and the reference walk the same
    /// trajectory bit for bit, on two graphs of different size visited
    /// alternately (so every buffer is reused dirty and resized), for
    /// every architecture depth the scratch has to follow.
    #[test]
    fn train_step_matches_the_reference(
        fam_a in proptest::sample::select(generators::FAMILY_NAMES.to_vec()),
        fam_b in proptest::sample::select(generators::FAMILY_NAMES.to_vec()),
        size_a in 2u32..9,
        size_b in 2u32..9,
        config in proptest::sample::select(configs()),
        seed in 0u64..1_000,
        lr_exp in 2i32..4,
    ) {
        let samples = [family_sample(fam_a, size_a, 90.0), family_sample(fam_b, size_b, 400.0)];
        let lr = 10f64.powi(-lr_exp);
        let mut fused = RuntimePredictor::new(&config, seed);
        let mut reference = fused.clone();
        for step in 0..24 {
            let sample = &samples[step % 2];
            let got = fused.train_step(sample, lr);
            let want = reference_train_step(&mut reference, sample, lr);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "loss at step {}", step);
        }
        prop_assert_eq!(fused.save_weights(), reference.save_weights());
    }

    /// The class-row step walks the reference trajectory bit for bit on
    /// graphs with planted symmetry (chains, rings, combs, `±0.0` and
    /// `NaN` features), for the fast, paper and one-layer 16-wide
    /// architectures: two graphs visited alternately for 24 steps, each
    /// loss equal by bits to the reference's and to the per-node step's,
    /// then equal `save_weights()`. Most of these graphs fold to fewer
    /// class rows than node rows, so a step that scaled, pooled or summed
    /// weight gradients over classes would show.
    #[test]
    fn class_row_steps_match_the_reference(
        seed in 0u64..u64::MAX,
        config in proptest::sample::select(
            vec![ModelConfig::fast(), ModelConfig::paper(), ModelConfig::shallow(16)],
        ),
        lr_exp in 2i32..4,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let samples = [planted_sample(&mut rng), planted_sample(&mut rng)];
        let chunks = samples.each_ref().map(class_chunk);
        let lr = 10f64.powi(-lr_exp);
        let mut classes = RuntimePredictor::new(&config, seed % 1_000);
        let (mut nodes, mut reference) = (classes.clone(), classes.clone());
        for step in 0..24 {
            let (sample, chunk) = (&samples[step % 2], &chunks[step % 2]);
            let got = classes.train_step_on(sample, Some(chunk), lr);
            let per_node = nodes.train_step(sample, lr);
            let want = reference_train_step(&mut reference, sample, lr);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "loss at step {}", step);
            prop_assert_eq!(per_node.to_bits(), want.to_bits(), "per-node loss at step {}", step);
        }
        prop_assert_eq!(classes.save_weights(), reference.save_weights());
        prop_assert_eq!(nodes.save_weights(), reference.save_weights());
    }

    /// `predict_log` and `predict_log_batch` are the reference forward
    /// pass bit for bit: for every architecture above plus the paper's,
    /// freshly seeded or a few steps in, on up to five graphs of mixed
    /// size, at pad strides 1 and 8 and chunk targets of one sample per
    /// chunk, 64, the 192 default and one monolithic chunk. Every case
    /// reuses the thread's scratch dirty from the one before.
    #[test]
    fn predictions_match_the_reference(
        picks in 0u64..u64::MAX,
        count in 1usize..6,
        config in proptest::sample::select([configs(), vec![ModelConfig::paper()]].concat()),
        seed in 0u64..1_000,
        steps in 0usize..3,
    ) {
        let families = generators::FAMILY_NAMES;
        let samples: Vec<GraphSample> = (0..count)
            .map(|i| {
                let pick = (picks >> (i * 12)) as usize;
                family_sample(families[pick % families.len()], 2 + (pick >> 6) as u32 % 7, 50.0)
            })
            .collect();
        let mut model = RuntimePredictor::new(&config, seed);
        for _ in 0..steps {
            model.train_step(&samples[0], 1e-2);
        }
        let to_bits = |rows: &[[f64; 4]]| -> Vec<[u64; 4]> {
            rows.iter().map(|r| r.map(f64::to_bits)).collect()
        };
        let want: Vec<_> = samples.iter().map(|s| reference_predict_log(&model, s)).collect();
        let per_sample: Vec<[f64; 4]> = samples.iter().map(|s| model.predict_log(s)).collect();
        prop_assert_eq!(to_bits(&per_sample), to_bits(&want));
        let refs: Vec<&GraphSample> = samples.iter().collect();
        for stride in [1usize, 8] {
            for target in [1usize, 64, 192, usize::MAX] {
                let batch = GraphBatch::pack_chunked(&refs, stride, target);
                let got = model.predict_log_batch(&batch);
                let (got, want) = (to_bits(&got), to_bits(&want));
                prop_assert_eq!(got, want, "stride {} target {}", stride, target);
            }
        }
    }

    /// `matmul_tn_into` is the naive product of the transpose bit for
    /// bit, from 1x1 up, with planted zeros and a reused output buffer.
    #[test]
    fn matmul_tn_matches_transpose_then_matmul(
        k in 1usize..20,
        m in 1usize..10,
        n in 1usize..10,
        seed in 0u64..10_000,
    ) {
        let a = planted(seed, k, m, false);
        let b = planted(seed ^ 0x9E37, k, n, true);
        let mut out = dirty();
        a.matmul_tn_into(&b, &mut out);
        prop_assert_eq!(bits(&out), bits(&naive_matmul(&transpose(&a), &b)));
    }

    /// `matmul_into` and `matmul_tn_into` are the naive `i`-`k`-`j` loop
    /// bit for bit at every seam of the gather-and-fold kernel and of the
    /// register tiles: inner dimensions and per-row non-zero counts from
    /// [`SEAMS`], all-zero rows, output widths below, at and far above
    /// one vector and on both sides of 16 and 32, `±0.0`,
    /// `±inf` and `NaN` planted in both operands, and one dirty output
    /// buffer, larger than any case, reused across every shape.
    #[test]
    fn dense_kernels_match_the_naive_loop(seed in 0u64..1_000_000) {
        let mut out = Matrix::from_vec(20, 140, vec![f64::NAN; 2800]);
        for (n, &k) in SEAMS.iter().enumerate() {
            for cols in [1usize, 2, 3, 15, 16, 17, 31, 32, 33, 128] {
                let a = seamed(seed ^ (k * 131 + cols) as u64, k, n);
                let mut b = planted(seed ^ 0x9E37 ^ (cols * 977 + k) as u64, k, cols, true);
                for (i, v) in b.data_mut().iter_mut().enumerate() {
                    if (i as u64 + seed).is_multiple_of(29) {
                        *v = nonzero(seed.wrapping_mul(i as u64 | 1));
                    }
                }
                let want = bits_nan_folded(&naive_matmul(&a, &b));
                a.matmul_into(&b, &mut out);
                prop_assert_eq!(bits_nan_folded(&out), want.clone(), "matmul k {} cols {}", k, cols);
                transpose(&a).matmul_tn_into(&b, &mut out);
                prop_assert_eq!(bits_nan_folded(&out), want, "matmul_tn k {} cols {}", k, cols);
            }
        }
    }

    /// The register tiles over tall operands: `matmul_tn_into` at
    /// heights on both sides of one and two 64-row block edges and at
    /// 6 000 rows, and `matmul_into` over the transpose (so the same
    /// heights become its inner dimension), at output widths on both
    /// sides of 16 and 32. The left operand has an all-zero column and
    /// an all-zero row; `±inf` and `NaN` sit in both operands, and the
    /// right operand's row under the all-zero row holds `inf` and `NaN`,
    /// so a `0 · inf` the naive loop never forms would show. One dirty
    /// output buffer, larger than any case, is reused throughout.
    #[test]
    fn narrow_tiles_match_the_naive_loop_on_tall_operands(seed in 0u64..1_000_000) {
        let mut out = Matrix::from_vec(64, 40, vec![f64::NAN; 2560]);
        for height in [63usize, 64, 65, 129, 6000] {
            let a = tall(seed ^ height as u64, height);
            let at = transpose(&a);
            for cols in [15usize, 16, 17, 31, 32, 33] {
                let b_seed = seed ^ 0x7F ^ (height * 41 + cols) as u64;
                let mut b = planted(b_seed, height, cols, false);
                plant_specials(&mut b, seed ^ cols as u64);
                b.set(height / 2, 1, f64::INFINITY);
                b.set(height / 2, 2, f64::NAN);
                let want = bits_nan_folded(&naive_matmul(&at, &b));
                a.matmul_tn_into(&b, &mut out);
                let got = bits_nan_folded(&out);
                prop_assert_eq!(got, want.clone(), "tn height {} cols {}", height, cols);
                at.matmul_into(&b, &mut out);
                let got = bits_nan_folded(&out);
                prop_assert_eq!(got, want, "matmul height {} cols {}", height, cols);
            }
        }
    }

    /// `matmul_transposed_into` is the old row-copy loop bit for bit,
    /// for random sparsity patterns (entries may hold planted zeros),
    /// non-square shapes and a reused output buffer.
    #[test]
    fn sparse_matmul_transposed_matches_the_row_copy_loop(
        rows in 1usize..12,
        cols in 1usize..12,
        rhs_cols in 1usize..8,
        density in 0u64..100,
        seed in 0u64..10_000,
    ) {
        let vals = planted(seed, rows, cols, false);
        let mask = planted(seed ^ 0xD5, rows, cols, false);
        let mut triplets = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if mask.get(r, c).to_bits() % 100 < density {
                    triplets.push((r as u32, c as u32, vals.get(r, c)));
                }
            }
        }
        let sparse = SparseMatrix::from_triplets(rows, cols, &triplets);
        let dense = planted(seed ^ 0x51, rows, rhs_cols, true);
        let mut out = dirty();
        sparse.matmul_transposed_into(&dense, &mut out).expect("valid operands");
        prop_assert_eq!(bits(&out), bits(&row_copy_matmul_transposed(&sparse, &dense)));
    }

    /// A dense operand of the wrong height is a typed error, not a
    /// panic, for any mismatched shape pair.
    #[test]
    fn sparse_matmul_transposed_rejects_shape_mismatch(
        rows in 1usize..10,
        wrong in 1usize..10,
        rhs_cols in 1usize..6,
    ) {
        let wrong = if wrong == rows { wrong + 10 } else { wrong };
        let sparse = SparseMatrix::from_triplets(rows, 3, &[(0, 0, 1.0)]);
        let mut out = Matrix::zeros(0, 0);
        prop_assert_eq!(
            sparse.matmul_transposed_into(&Matrix::zeros(wrong, rhs_cols), &mut out),
            Err(GcnError::ShapeMismatch {
                op: "sparse transposed matmul",
                expected: (rows, rhs_cols),
                found: (wrong, rhs_cols),
            })
        );
    }
}

/// `fine_tune` is the seeded-shuffle loop over `train_step`; run the
/// same loop over the reference step and compare losses and weights.
#[test]
fn fine_tune_matches_the_reference_loop() {
    let samples = [
        family_sample("adder", 6, 610.0),
        family_sample("parity", 10, 183.0),
        family_sample("decoder", 5, 420.0),
        family_sample("comparator", 6, 318.0),
    ];
    let refs: Vec<&GraphSample> = samples.iter().collect();
    let (epochs, lr, seed) = (6, 3e-3, 7u64);
    let mut fused = RuntimePredictor::new(&ModelConfig::fast(), 41);
    let mut reference = fused.clone();
    let got = fused.fine_tune(&refs, epochs, lr, seed);

    let mut order: Vec<usize> = (0..refs.len()).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF17E_7D4E);
    let mut want = Vec::new();
    for _ in 0..epochs {
        order.shuffle(&mut rng);
        let mut total = 0.0;
        for &i in &order {
            total += reference_train_step(&mut reference, refs[i], lr);
        }
        want.push(total / order.len() as f64);
    }
    let to_bits = |losses: &[f64]| losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(to_bits(&got), to_bits(&want));
    assert_eq!(fused.save_weights(), reference.save_weights());
}
