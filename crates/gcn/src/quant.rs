//! Deterministic int8 fixed-point inference.
//!
//! [`QuantizedPredictor`] is a serving-only replica of
//! [`RuntimePredictor`]: every weight matrix is quantized once to
//! symmetric per-tensor int8 (`scale = max|w| / 127`, values rounded
//! half-away-from-zero and clamped to `±127`), and every dense product
//! runs as an integer GEMM against dynamically quantized activations,
//! dequantized back to `f64` between layers. The sparse adjacency
//! aggregation — a sum of a handful of neighbor rows — stays in `f64`:
//! it is cheap, and quantizing it would compound error for no
//! bandwidth win.
//!
//! Determinism: quantization parameters are pure functions of the
//! tensor contents (a max-abs fold), every GEMM accumulates in `i32`
//! in a fixed order, and nothing depends on thread count — the same
//! weights and inputs produce bit-identical predictions on any worker
//! configuration. Accumulators cannot overflow: `|q| ≤ 127`, so a
//! `k`-term dot product is bounded by `k·127²` (`k ≤ 65 536` covers
//! every architecture [`crate::RuntimePredictor::load_weights`]
//! accepts, staying under `2³⁰`).
//!
//! The kernel design, bottom up:
//!
//! - Rounding is branchless: `trunc(q ± 0.5)` equals
//!   round-half-away-from-zero, and hot loops multiply by a precomputed
//!   reciprocal of the scale instead of dividing per element.
//!   Activations quantize through an `f64 → i32 → i16` staging pipeline
//!   ([`quantize_slice`] plus a narrowing pass) because each half
//!   autovectorizes where a fused `f64 → i8` cast does not.
//! - The GEMM gathers each activation row's nonzero `(index, code)`
//!   pairs once (zeros — most entries, after ReLU — skip their weight
//!   row entirely, like the float kernel's skip-zero path) and folds
//!   them into an `i32` accumulator row four weight rows at a time
//!   ([`qaxpy4`]/[`qaxpy2`]/[`qaxpy`]). Weight codes are kept
//!   pre-widened to `i16` so the unit-stride inner loops run 8-lane
//!   SSE2 `pmullw` multiplies with no per-load sign extension, and row
//!   pairs are summed at `i16` (exact: `2·127² < 2¹⁵`) before widening.
//!   Every kernel is `#[inline(never)]`: inlined into the GEMM loop
//!   nest, LLVM's alias analysis gives up and emits scalar code.
//! - Integer addition is associative, so every regrouping above is
//!   bit-identical to the naive double loop.
//! - Scratch (quantized images, accumulators, activation ping-pong
//!   buffers) lives in a per-thread cell reused across calls; every
//!   slot is overwritten before it is read.

use crate::batch::GraphBatch;
use crate::model::saturating_exp;
use crate::{GraphSample, Matrix, RuntimePredictor};

/// A per-tensor symmetric int8 quantized weight matrix, stored
/// row-major like its float counterpart so the AXPY GEMM streams whole
/// weight rows with unit stride.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    /// Logical rows of the float weight (the GEMM reduction dim `k`).
    in_dim: usize,
    /// Logical columns (output width).
    out_dim: usize,
    /// Dequantization scale: `float ≈ q · scale`.
    scale: f64,
    /// `data[r·out_dim .. (r+1)·out_dim]` is weight row `r`.
    data: Vec<i8>,
    /// `data` pre-widened to `i16`, same layout. The AXPY kernels
    /// multiply `i16` activations against `i16` weight rows, and loading
    /// codes already at product width saves a sign-extension per vector
    /// load in the innermost loop. Derived from `data`.
    wide: Vec<i16>,
}

impl QuantizedMatrix {
    /// Assemble from parts, deriving the widened copy of the codes.
    fn from_codes(in_dim: usize, out_dim: usize, scale: f64, data: Vec<i8>) -> Self {
        let wide = data.iter().map(|&q| i16::from(q)).collect();
        Self {
            in_dim,
            out_dim,
            scale,
            data,
            wide,
        }
    }

    /// Quantize a float weight matrix: `scale = max|w| / 127` (1.0 for
    /// an all-zero tensor), `q = round(w / scale)` clamped to `±127`
    /// (computed as a multiply by the precomputed reciprocal).
    #[must_use]
    pub fn quantize(w: &Matrix) -> Self {
        let (in_dim, out_dim) = (w.rows(), w.cols());
        let scale = tensor_scale(w.data());
        let inv_scale = 1.0 / scale;
        let data = w
            .data()
            .iter()
            .map(|&v| quantize_value(v, inv_scale))
            .collect();
        Self::from_codes(in_dim, out_dim, scale, data)
    }
}

/// Per-tensor symmetric scale: `max|v| / 127`, or 1.0 for all zeros so
/// quantization stays a no-op instead of dividing by zero. The fold
/// runs four independent max accumulators to break the serial
/// dependency chain; `f64::max` is associative and commutative, so the
/// regrouping is exact.
fn tensor_scale(values: &[f64]) -> f64 {
    let mut m = [0.0f64; 4];
    let mut chunks = values.chunks_exact(4);
    for c in &mut chunks {
        for (mi, &v) in m.iter_mut().zip(c) {
            *mi = mi.max(v.abs());
        }
    }
    let mut maxabs = m[0].max(m[1]).max(m[2].max(m[3]));
    for &v in chunks.remainder() {
        maxabs = maxabs.max(v.abs());
    }
    if maxabs == 0.0 {
        1.0
    } else {
        maxabs / 127.0
    }
}

/// Round half-away-from-zero and clamp into the symmetric int8 range.
/// Takes the *reciprocal* of the scale so hot loops multiply instead of
/// divide per element. Branchless — rounding is `trunc(q ± 0.5)`, which
/// equals round-half-away-from-zero and autovectorizes, unlike
/// `f64::round` — and the float-to-int `as` cast keeps NaN degrading to
/// zero.
fn quantize_value(v: f64, inv_scale: f64) -> i8 {
    let q = v * inv_scale;
    (q + 0.5f64.copysign(q)).clamp(-127.0, 127.0) as i8
}

/// One quantized graph-convolution layer (aggregation + self weights).
#[derive(Debug, Clone, PartialEq)]
struct QuantGcnLayer {
    w: QuantizedMatrix,
    b: QuantizedMatrix,
}

/// One quantized dense layer; the bias stays `f64` (it is added after
/// dequantization, so quantizing it would only add error).
#[derive(Debug, Clone, PartialEq)]
struct QuantDenseLayer {
    w: QuantizedMatrix,
    bias: Vec<f64>,
}

/// Buffers private to one [`qgemm_into`] call, grouped so callers can
/// borrow them disjointly from the activation matrices they ping-pong.
#[derive(Default)]
struct GemmScratch {
    /// Row-major image of the activation operand: int8 codes held at
    /// `i16` (the kernels' product width) so the gather feeding the
    /// AXPYs never widens per element.
    qact: Vec<i16>,
    /// Wide staging for activation quantization (the f64 → i32 pipeline
    /// autovectorizes; a direct f64 → i8 cast does not).
    qact32: Vec<i32>,
    /// Nonzero (index, code) pairs of one activation row.
    nz: Vec<(u32, i16)>,
    /// One output row of `i32` GEMM accumulators.
    acc: Vec<i32>,
}

/// Scratch buffers reused across layers/chunks of one prediction call.
#[derive(Default)]
struct QuantScratch {
    gemm: GemmScratch,
    agg: Matrix,
    lin: Matrix,
    tmp: Matrix,
    h: Matrix,
}

std::thread_local! {
    /// Per-thread scratch reused across prediction calls. Serving
    /// threads call `predict_log` per request; without reuse every call
    /// would re-fault and re-zero tens of megabytes of buffers, which
    /// costs more than the GEMMs it feeds. Every buffer is fully
    /// (re)initialized before it is read, so reuse cannot leak state
    /// between requests and results stay bit-identical.
    static SCRATCH: std::cell::RefCell<QuantScratch> =
        std::cell::RefCell::new(QuantScratch::default());
}

/// Int8 serving replica of [`RuntimePredictor`]: identical architecture
/// and pooling, with every dense product quantized. Predictions
/// approximate the float model's (per-tensor int8 keeps the runtime
/// regressor within a few percent) and are bit-for-bit reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedPredictor {
    gcn: Vec<QuantGcnLayer>,
    fc: QuantDenseLayer,
    head: QuantDenseLayer,
}

/// The integer AXPY at the bottom of the quantized GEMM:
/// `acc += x · wrow`, element-wise. |x·w| ≤ 127² = 16129, so the product
/// fits `i16` exactly and the multiply maps to 8-lane SSE2 `pmullw`.
/// `#[inline(never)]` is load-bearing: inlined into the GEMM loop nest,
/// LLVM's alias analysis gives up and emits a scalar loop (~4x slower);
/// as a standalone function the loop autovectorizes.
#[inline(never)]
fn qaxpy(acc: &mut [i32], wrow: &[i16], x: i16) {
    for (o, &a) in acc.iter_mut().zip(wrow) {
        *o += i32::from(x * a);
    }
}

/// Two-row [`qaxpy`]: `acc += x0 · w0 + x1 · w1`, with the pair summed
/// at `i16` *before* widening — exact, since `|x0·a + x1·b| ≤ 2·127² =
/// 32 258 < 2¹⁵` — so half the widening work and half the accumulator
/// load/store traffic per MAC. Integer addition is associative, so the
/// result is bit-identical to two single AXPYs.
#[inline(never)]
fn qaxpy2(acc: &mut [i32], w0: &[i16], w1: &[i16], x0: i16, x1: i16) {
    for ((o, &a), &b) in acc.iter_mut().zip(w0).zip(w1) {
        *o += i32::from(x0 * a + x1 * b);
    }
}

/// Four-row [`qaxpy`]: `acc += x0·w0 + x1·w1 + x2·w2 + x3·w3` as two
/// `i16` pair sums, cutting the accumulator traffic per MAC to a
/// quarter of the single-row kernel's.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn qaxpy4(
    acc: &mut [i32],
    w0: &[i16],
    w1: &[i16],
    w2: &[i16],
    w3: &[i16],
    x0: i16,
    x1: i16,
    x2: i16,
    x3: i16,
) {
    for ((((o, &a), &b), &c), &d) in acc.iter_mut().zip(w0).zip(w1).zip(w2).zip(w3) {
        *o += i32::from(x0 * a + x1 * b) + i32::from(x2 * c + x3 * d);
    }
}

/// Quantize a full activation tensor into `i32` codes in `[-127, 127]`
/// (same value mapping as [`quantize_value`]). Staging wide keeps the
/// multiply / round / clamp pipeline vectorized; the caller narrows the
/// codes to `i8` afterwards. `#[inline(never)]` for the same reason as
/// [`qaxpy`].
#[inline(never)]
fn quantize_slice(out: &mut [i32], values: &[f64], inv_scale: f64) {
    for (q, &v) in out.iter_mut().zip(values) {
        let t = v * inv_scale;
        *q = (t + 0.5f64.copysign(t)).clamp(-127.0, 127.0) as i32;
    }
}

/// Dequantize one accumulator row into the f64 output row. Extracted so
/// the `i32 → f64` convert-and-scale loop vectorizes (`cvtdq2pd`).
#[inline(never)]
fn dequant_row(out: &mut [f64], acc: &[i32], deq: f64) {
    for (o, &v) in out.iter_mut().zip(acc) {
        *o = f64::from(v) * deq;
    }
}

/// Dynamically quantized GEMM: quantize `a` per-tensor to int8, multiply
/// against the pre-quantized weights in `i32`, dequantize into `out`.
/// The kernel is an integer AXPY mirroring the float path's: per
/// activation row, the nonzero quantized activations are gathered once
/// (zeros — most entries, after ReLU — are skipped outright) and then
/// folded into the `i32` accumulator row two weight rows at a time.
fn qgemm_into(a: &Matrix, w: &QuantizedMatrix, scratch: &mut GemmScratch, out: &mut Matrix) {
    let k = a.cols();
    let m = w.out_dim;
    assert_eq!(k, w.in_dim, "inner dimensions must agree");
    let a_scale = tensor_scale(a.data());
    let inv_scale = 1.0 / a_scale;
    let GemmScratch {
        qact,
        qact32,
        nz,
        acc,
    } = scratch;
    qact32.clear();
    qact32.resize(a.data().len(), 0);
    quantize_slice(qact32, a.data(), inv_scale);
    let deq = a_scale * w.scale;
    out.reshape_for_overwrite(a.rows(), m);
    let out_data = out.data_mut();
    qact.clear();
    qact.extend(qact32.iter().map(|&v| v as i16));
    nz.clear();
    nz.resize(k, (0, 0));
    for r in 0..a.rows() {
        acc.clear();
        acc.resize(m, 0);
        let arow = &qact[r * k..(r + 1) * k];
        // Branchless gather of the nonzero (index, code) pairs: every
        // element is written, the cursor only advances past nonzeros —
        // no data-dependent branch for the predictor to miss.
        let mut nlen = 0usize;
        for (i, &x) in arow.iter().enumerate() {
            nz[nlen] = (i as u32, x);
            nlen += usize::from(x != 0);
        }
        let wrow = |i: u32| &w.wide[i as usize * m..][..m];
        let mut quads = nz[..nlen].chunks_exact(4);
        for q in &mut quads {
            let ((i0, x0), (i1, x1), (i2, x2), (i3, x3)) = (q[0], q[1], q[2], q[3]);
            qaxpy4(acc, wrow(i0), wrow(i1), wrow(i2), wrow(i3), x0, x1, x2, x3);
        }
        let mut rest = quads.remainder();
        if let &[(i0, x0), (i1, x1), ref tail @ ..] = rest {
            qaxpy2(acc, wrow(i0), wrow(i1), x0, x1);
            rest = tail;
        }
        if let &[(i, x)] = rest {
            qaxpy(acc, wrow(i), x);
        }
        dequant_row(&mut out_data[r * m..(r + 1) * m], acc, deq);
    }
}

impl QuantizedPredictor {
    /// Quantize a trained float model. Pure function of the weights:
    /// the same model always produces the same quantized replica.
    #[must_use]
    pub fn quantize(model: &RuntimePredictor) -> Self {
        Self {
            gcn: model
                .gcn
                .iter()
                .map(|l| QuantGcnLayer {
                    w: QuantizedMatrix::quantize(&l.w),
                    b: QuantizedMatrix::quantize(&l.b),
                })
                .collect(),
            fc: QuantDenseLayer {
                w: QuantizedMatrix::quantize(&model.fc.w),
                bias: model.fc.bias.data().to_vec(),
            },
            head: QuantDenseLayer {
                w: QuantizedMatrix::quantize(&model.head.w),
                bias: model.head.bias.data().to_vec(),
            },
        }
    }

    /// Run the quantized GCN stack over one activation matrix in place
    /// of `scratch.h`, then return the final activations by reference.
    fn run_gcn_stack<'s>(
        &self,
        a_norm: &crate::SparseMatrix,
        scratch: &'s mut QuantScratch,
    ) -> &'s Matrix {
        for layer in &self.gcn {
            a_norm
                .matmul_into(&scratch.h, &mut scratch.agg)
                .expect("sample adjacency is validated at construction");
            qgemm_into(&scratch.agg, &layer.w, &mut scratch.gemm, &mut scratch.lin);
            qgemm_into(&scratch.h, &layer.b, &mut scratch.gemm, &mut scratch.tmp);
            scratch.lin.add_assign(&scratch.tmp);
            scratch.lin.relu_in_place();
            std::mem::swap(&mut scratch.h, &mut scratch.lin);
        }
        &scratch.h
    }

    /// Dense readout shared by the single and batched paths: FC + ReLU,
    /// then the linear head, per pooled row.
    fn readout(&self, pooled: &Matrix, scratch: &mut QuantScratch) -> Vec<[f64; 4]> {
        qgemm_into(pooled, &self.fc.w, &mut scratch.gemm, &mut scratch.lin);
        for r in 0..scratch.lin.rows() {
            for c in 0..scratch.lin.cols() {
                let v = scratch.lin.get(r, c) + self.fc.bias[c];
                scratch.lin.set(r, c, v.max(0.0));
            }
        }
        qgemm_into(
            &scratch.lin,
            &self.head.w,
            &mut scratch.gemm,
            &mut scratch.tmp,
        );
        (0..scratch.tmp.rows())
            .map(|g| [0, 1, 2, 3].map(|c| scratch.tmp.get(g, c) + self.head.bias[c]))
            .collect()
    }

    /// Predicted `ln(runtime)` for 1/2/4/8 vCPUs.
    #[must_use]
    pub fn predict_log(&self, sample: &GraphSample) -> [f64; 4] {
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.h.clone_from(&sample.features);
            let h = self.run_gcn_stack(&sample.a_norm, scratch);
            let n = h.rows();
            let mut pooled = h.sum_rows();
            let scale = 1.0 / (n as f64).sqrt();
            for v in pooled.data_mut() {
                *v *= scale;
            }
            self.readout(&pooled, scratch)[0]
        })
    }

    /// Batched [`QuantizedPredictor::predict_log`] over a packed batch,
    /// in batch order. Activation quantization is per chunk in the GCN
    /// stack and per batch in the dense readout (one scale over every
    /// sample's pooled row), so the results depend on the
    /// (deterministic) batch packing but never on
    /// thread or worker count — the same batch always yields the same
    /// bytes. A single-sample batch reproduces
    /// [`QuantizedPredictor::predict_log`] exactly. The stack runs over
    /// the chunk's row classes: an activation scale is a max over the
    /// chunk's row values, which the distinct rows hold all of, so each
    /// class row is what its member nodes' rows would be, bit for bit.
    #[must_use]
    pub fn predict_log_batch(&self, batch: &GraphBatch) -> Vec<[f64; 4]> {
        if batch.is_empty() {
            return Vec::new();
        }
        let d = self.fc.w.in_dim;
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let mut pooled = Matrix::zeros(batch.len(), d);
            let mut sample = 0usize;
            for chunk in &batch.chunks {
                scratch.h.clone_from(&chunk.features);
                self.run_gcn_stack(&chunk.a_norm, scratch);
                for &(start, n) in &chunk.segments {
                    let prow = &mut pooled.data_mut()[sample * d..(sample + 1) * d];
                    for r in start..start + n {
                        let row = chunk.class_of[r] as usize;
                        for (o, &v) in prow.iter_mut().zip(scratch.h.row(row)) {
                            *o += v;
                        }
                    }
                    let scale = 1.0 / (n as f64).sqrt();
                    for o in prow {
                        *o *= scale;
                    }
                    sample += 1;
                }
            }
            self.readout(&pooled, scratch)
        })
    }

    /// Batched predicted runtimes in seconds, saturated like
    /// [`RuntimePredictor::predict_secs`].
    #[must_use]
    pub fn predict_secs_batch(&self, batch: &GraphBatch) -> Vec<[f64; 4]> {
        self.predict_log_batch(batch)
            .into_iter()
            .map(|l| l.map(saturating_exp))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;
    use eda_cloud_netlist::{generators, DesignGraph};

    fn sample() -> GraphSample {
        let g = DesignGraph::from_aig(&generators::adder(4));
        GraphSample::new(&g, [100.0, 60.0, 40.0, 30.0])
    }

    fn trained_model() -> RuntimePredictor {
        let s = sample();
        let mut model = RuntimePredictor::new(&ModelConfig::fast(), 9);
        for _ in 0..100 {
            model.train_step(&s, 1e-2);
        }
        model
    }

    /// The float weight a quantized one stands for: `w[r][c] = q[r][c] · scale`.
    fn dequantize(q: &QuantizedMatrix) -> Matrix {
        let codes = q.data.iter().map(|&c| f64::from(c) * q.scale).collect();
        Matrix::from_vec(q.in_dim, q.out_dim, codes)
    }

    #[test]
    fn quantize_dequantize_bounds_error() {
        let model = trained_model();
        let q = QuantizedMatrix::quantize(&model.gcn[0].w);
        let back = dequantize(&q);
        assert_eq!(back.rows(), model.gcn[0].w.rows());
        for r in 0..back.rows() {
            for (a, b) in model.gcn[0].w.row(r).iter().zip(back.row(r)) {
                assert!((a - b).abs() <= q.scale / 2.0 + 1e-12, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn zero_tensor_quantizes_to_zero() {
        let q = QuantizedMatrix::quantize(&Matrix::zeros(3, 4));
        assert_eq!(q.scale, 1.0);
        assert_eq!(dequantize(&q), Matrix::zeros(3, 4));
    }

    #[test]
    fn rounding_is_half_away_from_zero() {
        // maxabs = 127 so scale = 1.0 and the codes are round(v).
        let m = Matrix::from_rows(&[&[0.5, -0.5, 1.49, -2.5, 127.0, -126.0]]);
        let q = QuantizedMatrix::quantize(&m);
        assert_eq!(q.scale, 1.0);
        let back = dequantize(&q);
        assert_eq!(back.row(0), &[1.0, -1.0, 1.0, -3.0, 127.0, -126.0]);
    }

    #[test]
    fn quantized_predictions_are_deterministic() {
        let model = trained_model();
        let q = QuantizedPredictor::quantize(&model);
        let q2 = QuantizedPredictor::quantize(&model);
        assert_eq!(q, q2);
        let s = sample();
        assert_eq!(q.predict_log(&s), q.predict_log(&s), "bitwise repeatable");
    }

    #[test]
    fn quantized_tracks_float_predictions() {
        let model = trained_model();
        let q = QuantizedPredictor::quantize(&model);
        let s = sample();
        let f = model.predict_log(&s);
        let ql = q.predict_log(&s);
        for (a, b) in f.iter().zip(&ql) {
            assert!(
                (a - b).abs() < 0.5,
                "log-space drift too large: {f:?} vs {ql:?}"
            );
        }
        let secs = q.predict_secs_batch(&GraphBatch::pack_padded(&[&s], 1));
        assert!(secs[0].iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn single_sample_batch_matches_per_sample() {
        let model = trained_model();
        let q = QuantizedPredictor::quantize(&model);
        let s = sample();
        let batch = GraphBatch::pack_padded(&[&s], 1);
        assert_eq!(q.predict_log_batch(&batch), vec![q.predict_log(&s)]);
        assert_eq!(q.predict_secs_batch(&batch), vec![q.predict_log(&s).map(saturating_exp)]);
    }

    #[test]
    fn batched_predictions_are_repeatable() {
        let model = trained_model();
        let q = QuantizedPredictor::quantize(&model);
        let samples: Vec<GraphSample> = ["adder", "parity", "max"]
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let aig = generators::build_family(f, 4 + i as u32).expect("family");
                GraphSample::new(&DesignGraph::from_aig(&aig), [10.0, 7.0, 5.0, 4.0])
            })
            .collect();
        let refs: Vec<&GraphSample> = samples.iter().collect();
        let batch = GraphBatch::pack_padded(&refs, 1);
        let a = q.predict_log_batch(&batch);
        let b = q.predict_log_batch(&batch);
        assert_eq!(a, b);
        assert_eq!(a.len(), samples.len());
    }
}
