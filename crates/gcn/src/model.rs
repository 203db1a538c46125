//! The runtime-prediction model (paper Figure 4).

use crate::adam::Adam;
use crate::batch::{BatchChunk, GraphBatch};
use crate::layers::{DenseGrads, DenseLayer, GcnBuffers, GcnLayer, LayerScratch};
use crate::{GcnError, GraphSample, Matrix, SparseMatrix};
use eda_cloud_netlist::FEATURE_DIM;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Model architecture hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Output width of each GCN layer, in order.
    pub gcn_dims: Vec<usize>,
    /// Width of the fully connected layer after pooling.
    pub fc_dim: usize,
}

impl ModelConfig {
    /// The paper's architecture: 2 GCN layers with 256 and 128 hidden
    /// units, then one 128-unit fully connected layer.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            gcn_dims: vec![256, 128],
            fc_dim: 128,
        }
    }

    /// A small configuration for unit tests and quick benches.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            gcn_dims: vec![32, 16],
            fc_dim: 16,
        }
    }

    /// Single-GCN-layer ablation of the given width.
    #[must_use]
    pub fn shallow(width: usize) -> Self {
        Self {
            gcn_dims: vec![width],
            fc_dim: width,
        }
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Saturation bound for log-space predictions: `exp(±700)` is finite in
/// `f64` (`≈ 1e304`), while `exp(710)` overflows to `inf`. Clamping
/// here keeps every predicted runtime (and every speedup ratio) finite
/// no matter how far a model has diverged.
pub const MAX_LOG_SECS: f64 = 700.0;

/// `exp` with saturation: clamps the argument into `±`[`MAX_LOG_SECS`]
/// so the result is always finite and strictly positive; `NaN`
/// saturates to the maximum (an "infinitely slow" reading is the safe
/// default for a corrupt prediction).
#[must_use]
pub fn saturating_exp(log_secs: f64) -> f64 {
    if log_secs.is_nan() {
        MAX_LOG_SECS.exp()
    } else {
        log_secs.clamp(-MAX_LOG_SECS, MAX_LOG_SECS).exp()
    }
}

/// The four-output runtime regressor: GCN layers → scaled sum-pooling →
/// FC(ReLU) → linear head predicting `ln(runtime)` on 1/2/4/8 vCPUs.
///
/// Sum-pooling follows the paper; the pooled vector is scaled by
/// `1/√n` so corpora whose designs span several orders of magnitude in
/// node count keep activations in a trainable range (the scale factor
/// still grows with design size, preserving the size signal).
#[derive(Debug, Clone)]
pub struct RuntimePredictor {
    pub(crate) gcn: Vec<GcnLayer>,
    pub(crate) fc: DenseLayer,
    pub(crate) head: DenseLayer,
    pub(crate) adam: Vec<Adam>,
    config: ModelConfig,
}

impl RuntimePredictor {
    /// Initialize with Xavier weights from a seed.
    ///
    /// # Panics
    ///
    /// Panics if the config has no GCN layers or a zero-width layer
    /// ([`RuntimePredictor::try_new`] is the fallible form).
    #[must_use]
    pub fn new(config: &ModelConfig, seed: u64) -> Self {
        assert!(!config.gcn_dims.is_empty(), "need at least one GCN layer");
        Self::try_new(config, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`RuntimePredictor::new`], rejecting degenerate architectures
    /// (no GCN layers, a zero-width GCN layer, or `fc_dim == 0`) with
    /// a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`GcnError::ZeroDimLayer`] for any of the degenerate
    /// shapes above.
    pub fn try_new(config: &ModelConfig, seed: u64) -> Result<Self, GcnError> {
        if config.gcn_dims.is_empty() || config.gcn_dims.contains(&0) || config.fc_dim == 0 {
            return Err(GcnError::ZeroDimLayer);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut gcn = Vec::new();
        let mut in_dim = FEATURE_DIM;
        for &out_dim in &config.gcn_dims {
            gcn.push(GcnLayer::new(in_dim, out_dim, &mut rng));
            in_dim = out_dim;
        }
        let fc = DenseLayer::new(in_dim, config.fc_dim, &mut rng);
        let head = DenseLayer::new(config.fc_dim, 4, &mut rng);
        let mut adam = Vec::new();
        for layer in &gcn {
            adam.push(Adam::new(layer.w.rows(), layer.w.cols()));
            adam.push(Adam::new(layer.b.rows(), layer.b.cols()));
        }
        for layer in [&fc, &head] {
            adam.push(Adam::new(layer.w.rows(), layer.w.cols()));
            adam.push(Adam::new(layer.bias.rows(), layer.bias.cols()));
        }
        Ok(Self {
            gcn,
            fc,
            head,
            adam,
            config: config.clone(),
        })
    }

    /// The architecture this model was built with.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Predicted `ln(runtime)` for 1/2/4/8 vCPUs.
    ///
    /// The batched pass over a batch of one: the sample is one chunk
    /// with one segment, borrowed as is, so nothing is packed or copied
    /// and a warm call allocates nothing.
    #[must_use]
    pub fn predict_log(&self, sample: &GraphSample) -> [f64; 4] {
        let segment = [(0, sample.node_count())];
        let chunk = (&sample.a_norm, &sample.features, &segment[..], None);
        self.predict([chunk], 1, |out| head_row(out, 0))
    }

    /// Predicted runtimes in seconds for 1/2/4/8 vCPUs.
    ///
    /// Always finite and strictly positive: log-space predictions are
    /// saturated into `±`[`MAX_LOG_SECS`] before exponentiation, so a
    /// diverged or corrupt model yields an astronomically large (or
    /// tiny) runtime instead of `inf`/`NaN` poisoning downstream
    /// knapsack and serving math. A `NaN` output saturates to the
    /// maximum — the conservative "infinitely slow" reading.
    #[must_use]
    pub fn predict_secs(&self, sample: &GraphSample) -> [f64; 4] {
        self.predict_log(sample).map(saturating_exp)
    }

    /// Predicted `ln(runtime)` for every sample of a packed batch, in
    /// batch order — bit-identical to calling
    /// [`RuntimePredictor::predict_log`] per sample (the batch's blocks
    /// are disjoint and every kernel is row-pure, so each class row is
    /// computed by exactly its member nodes' operation sequence), but
    /// one pass through the layer stack per chunk instead of per sample,
    /// over the chunk's row classes instead of its node rows.
    #[must_use]
    pub fn predict_log_batch(&self, batch: &GraphBatch) -> Vec<[f64; 4]> {
        let chunks = batch
            .chunks
            .iter()
            .map(|c| (&c.a_norm, &c.features, &c.segments[..], Some(&c.class_of[..])));
        self.predict(chunks, batch.len(), |out| (0..out.rows()).map(|g| head_row(out, g)).collect())
    }

    /// Batched [`RuntimePredictor::predict_secs`]: saturated, finite,
    /// strictly positive seconds for every sample of the batch.
    #[must_use]
    pub fn predict_secs_batch(&self, batch: &GraphBatch) -> Vec<[f64; 4]> {
        self.predict_log_batch(batch)
            .into_iter()
            .map(|l| l.map(saturating_exp))
            .collect()
    }

    /// [`RuntimePredictor::forward`] in the thread's scratch, handing
    /// the `samples x 4` head output to `read`.
    fn predict<'a, R>(
        &self,
        chunks: impl IntoIterator<Item = Chunk<'a>>,
        samples: usize,
        read: impl FnOnce(&Matrix) -> R,
    ) -> R {
        SCRATCH.with(|cell| {
            let s = &mut cell.borrow_mut().forward;
            self.forward(chunks, samples, s).unwrap_or_else(|e| panic!("{e}"));
            read(&s.out)
        })
    }

    /// One Adam step on one sample; returns the pre-step loss.
    ///
    /// A warm step allocates nothing: activations, gradients and
    /// temporaries live in one per-thread scratch (see `TrainScratch`)
    /// that the forward pass fills and the backward pass reads in
    /// place, and `sample.features` is borrowed, not copied.
    ///
    /// # Panics
    ///
    /// Panics if the sample's adjacency, features and this model's
    /// input width disagree in shape.
    pub fn train_step(&mut self, sample: &GraphSample, lr: f64) -> f64 {
        self.train_step_on(sample, None, lr)
    }

    /// [`RuntimePredictor::train_step`], run over the sample's row
    /// classes when `classes` is its one-sample chunk (its
    /// [`crate::RowQuotient`] joined at stride 1): the forward pass and
    /// the top GCN layer's `∂L/∂Z` products run once per class, and
    /// everything that sums over nodes runs per node in node order (see
    /// [`GcnLayer::backward_into`]). The loss and every updated weight
    /// are the per-node step's bit for bit; `try_fit` and `fine_tune`
    /// build each sample's chunk once per call.
    pub(crate) fn train_step_on(
        &mut self,
        sample: &GraphSample,
        classes: Option<&BatchChunk>,
        lr: f64,
    ) -> f64 {
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            let segment = [(0, sample.node_count())];
            let chunk = classes.map_or(
                (&sample.a_norm, &sample.features, &segment[..], None),
                |c| (&c.a_norm, &c.features, &c.segments[..], Some(&c.class_of[..])),
            );
            assert_eq!(chunk.2, segment, "the chunk must be this sample's alone");
            self.forward([chunk], 1, &mut s.forward).unwrap_or_else(|e| panic!("{e}"));

            // Loss and output gradient.
            let mut loss = 0.0;
            s.dout.reshape_zeroed(1, 4);
            for c in 0..4 {
                let diff = s.forward.out.get(0, c) - sample.log_targets[c];
                loss += diff * diff / 4.0;
                s.dout.set(0, c, 2.0 * diff / 4.0);
            }

            self.backward(&sample.a_norm, chunk, s).unwrap_or_else(|e| panic!("{e}"));

            // Adam updates, in the same order the states were allocated.
            let mut k = 0;
            for (layer, buffers) in self.gcn.iter_mut().zip(&s.forward.layers) {
                self.adam[k].step(&mut layer.w, &buffers.dw, lr);
                self.adam[k + 1].step(&mut layer.b, &buffers.db, lr);
                k += 2;
            }
            self.adam[k].step(&mut self.fc.w, &s.fc_grads.dw, lr);
            self.adam[k + 1].step(&mut self.fc.bias, &s.fc_grads.dbias, lr);
            self.adam[k + 2].step(&mut self.head.w, &s.head_grads.dw, lr);
            self.adam[k + 3].step(&mut self.head.bias, &s.head_grads.dbias, lr);
            loss
        })
    }

    /// The forward pass every prediction and training step runs: the GCN
    /// stack chunk by chunk, each sample's node segment sum-pooled in
    /// node order (a node reads its class's row when the chunk has
    /// classes) and scaled by `1/√n` into row `sample` of `s.pooled`,
    /// then FC (ReLU) and head on all `samples` rows at once into
    /// `s.out`. Chunks are block-diagonal, so a sample's rows see only
    /// its own graph; a dense layer's output row depends only on its
    /// input row. After a one-chunk call without classes, `s` holds
    /// every operand the backward pass reads.
    fn forward<'a>(
        &self,
        chunks: impl IntoIterator<Item = Chunk<'a>>,
        samples: usize,
        s: &mut Forward,
    ) -> Result<(), GcnError> {
        // Grow only: a deeper model that ran on this thread keeps its
        // extra buffers instead of being re-grown every other call.
        if s.layers.len() < self.gcn.len() {
            s.layers.resize_with(self.gcn.len(), GcnBuffers::default);
        }
        let layers = &mut s.layers[..self.gcn.len()];
        // The FC layer's input width equals the last GCN layer's output
        // width by construction.
        let d = self.fc.w.rows();
        s.pooled.reshape_zeroed(samples, d);
        let mut sample = 0;
        for (a_norm, features, segments, class_of) in chunks {
            for (i, layer) in self.gcn.iter().enumerate() {
                let (below, rest) = layers.split_at_mut(i);
                let input = below.last().map_or(features, |b| &b.output);
                layer.forward_into(a_norm, input, &mut rest[0], &mut s.work)?;
            }
            let h = &layers.last().expect("try_new rejects an empty GCN stack").output;
            for &(start, n) in segments {
                let prow = &mut s.pooled.data_mut()[sample * d..(sample + 1) * d];
                for r in start..start + n {
                    let row = class_of.map_or(r, |classes| classes[r] as usize);
                    for (o, &v) in prow.iter_mut().zip(h.row(row)) {
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
        self.fc.forward_into(&s.pooled, &mut s.fc_act);
        s.fc_act.relu_in_place();
        self.head.forward_into(&s.fc_act, &mut s.out);
        Ok(())
    }

    /// Backward pass from `s.dout` through head, FC, pooling and the
    /// GCN stack, leaving every parameter gradient in `s`. `chunk` is
    /// the one-sample chunk the forward pass ran on and `a_norm` the
    /// sample's own per-node `Ā`. The bottom GCN layer has nobody below
    /// it to hand an input gradient to, so none is computed there.
    fn backward(
        &self,
        a_norm: &SparseMatrix,
        (_, features, segments, class_of): Chunk<'_>,
        s: &mut TrainScratch,
    ) -> Result<(), GcnError> {
        let f = &mut s.forward;
        let work = &mut f.work;
        self.head
            .backward_into(&f.fc_act, &s.dout, work, &mut s.head_grads, Some(&mut s.dfc_act));
        s.dfc_act.relu_mask(&f.fc_act);
        self.fc
            .backward_into(&f.pooled, &s.dfc_act, work, &mut s.fc_grads, Some(&mut s.dpooled));

        // Un-pool: every node's gradient is the pooled one times `1/√n`,
        // `n` the sample's node count — one row for all members of a
        // class, so the top layer's `∂L/∂H'` has a row per row the
        // stack ran on.
        let layers = &mut f.layers[..self.gcn.len()];
        let top = layers.last_mut().expect("try_new rejects an empty GCN stack");
        let pooled_scale = 1.0 / (segments[0].1 as f64).sqrt();
        let (rows, cols) = (top.output.rows(), s.dpooled.cols());
        top.grad_output.reshape_for_overwrite(rows, cols);
        for r in 0..rows {
            let row = &mut top.grad_output.data_mut()[r * cols..(r + 1) * cols];
            for (g, &d) in row.iter_mut().zip(s.dpooled.data()) {
                *g = d * pooled_scale;
            }
        }

        // Backward through the GCN stack.
        for (i, layer) in self.gcn.iter().enumerate().rev() {
            let (below, rest) = layers.split_at_mut(i);
            let (input, dinput) = match below.last_mut() {
                Some(b) => (&b.output, Some(&mut b.grad_output)),
                None => (features, None),
            };
            layer.backward_into(a_norm, input, &mut rest[0], work, dinput, class_of)?;
        }
        Ok(())
    }
}

/// One borrowed chunk of graph rows: an adjacency and features over
/// the rows the GCN stack runs on, each sample's `(first_row,
/// node_count)` segment of node rows, and, for a packed chunk, the row
/// class of every node row (the stack then runs on class rows). A
/// single sample is the chunk `(a_norm, features, [(0, n)], None)`.
type Chunk<'a> = (&'a SparseMatrix, &'a Matrix, &'a [(usize, usize)], Option<&'a [u32]>);

/// Row `g` of the head output: the four log-runtimes of sample `g`.
fn head_row(out: &Matrix, g: usize) -> [f64; 4] {
    [out.get(g, 0), out.get(g, 1), out.get(g, 2), out.get(g, 3)]
}

/// What [`RuntimePredictor::forward`] computes: per-layer buffers, the
/// pooled rows, the FC activations and the head output. Kept across
/// calls — a serving thread predicts batch after batch, and fresh
/// activation buffers of up to several hundred KB per call cost more in
/// page faults than the small layers' arithmetic. Every buffer is
/// overwritten (or zeroed) before it is read, so nothing leaks from one
/// call, batch or model into the next.
#[derive(Default)]
struct Forward {
    /// One set of buffers per GCN layer, bottom first.
    layers: Vec<GcnBuffers>,
    /// Temporaries shared by every layer.
    work: LayerScratch,
    pooled: Matrix,
    fc_act: Matrix,
    out: Matrix,
}

/// Everything one [`RuntimePredictor::train_step`] computes besides the
/// loss: the forward pass's record and the gradients of the dense tail.
/// Kept across steps so a warm step reuses the allocations; every
/// buffer is overwritten (or zeroed) before it is read.
#[derive(Default)]
struct TrainScratch {
    forward: Forward,
    dout: Matrix,
    dfc_act: Matrix,
    dpooled: Matrix,
    fc_grads: DenseGrads,
    head_grads: DenseGrads,
}

std::thread_local! {
    /// Per-thread forward and training scratch, the float counterpart
    /// of the int8 path's. It belongs to the thread, not to a model, so
    /// cloning a model (snapshots, the retrainer's
    /// `base.stage(k).clone()`) never copies it, the four stage models
    /// one thread fits or serves share one set of buffers, and
    /// `RuntimePredictor` stays plain `Send + Sync` data.
    static SCRATCH: std::cell::RefCell<TrainScratch> =
        std::cell::RefCell::new(TrainScratch::default());
}

/// Error returned when loading serialized weights fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadWeightsError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for LoadWeightsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot load model weights: {}", self.message)
    }
}

impl std::error::Error for LoadWeightsError {}

impl RuntimePredictor {
    /// Serialize all trainable parameters as a plain-text document
    /// (architecture header + one line of numbers per tensor). Optimizer
    /// state is not saved; a loaded model predicts but restarts Adam if
    /// trained further.
    #[must_use]
    pub fn save_weights(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let dims: Vec<String> = self.config.gcn_dims.iter().map(|d| d.to_string()).collect();
        let _ = writeln!(out, "gcn-runtime-predictor v1");
        let _ = writeln!(out, "gcn_dims {}", dims.join(" "));
        let _ = writeln!(out, "fc_dim {}", self.config.fc_dim);
        let mut dump = |label: &str, m: &Matrix| {
            let _ = write!(out, "{label} {} {}", m.rows(), m.cols());
            for v in m.data() {
                let _ = write!(out, " {v:e}");
            }
            let _ = writeln!(out);
        };
        for (i, layer) in self.gcn.iter().enumerate() {
            dump(&format!("gcn{i}.w"), &layer.w);
            dump(&format!("gcn{i}.b"), &layer.b);
        }
        dump("fc.w", &self.fc.w);
        dump("fc.bias", &self.fc.bias);
        dump("head.w", &self.head.w);
        dump("head.bias", &self.head.bias);
        out
    }

    /// Load parameters produced by [`RuntimePredictor::save_weights`].
    ///
    /// # Errors
    ///
    /// Returns [`LoadWeightsError`] on version/shape mismatches or
    /// unparsable numbers.
    pub fn load_weights(text: &str) -> Result<Self, LoadWeightsError> {
        let mut lines = text.lines();
        let config = parse_header(&mut lines)?;
        let mut model = Self::new(&config, 0);
        let mut matrix = |expect: &str| tensor_line(&mut lines, expect);
        for i in 0..model.gcn.len() {
            model.gcn[i].w = matrix(&format!("gcn{i}.w"))?;
            model.gcn[i].b = matrix(&format!("gcn{i}.b"))?;
        }
        model.fc.w = matrix("fc.w")?;
        model.fc.bias = matrix("fc.bias")?;
        model.head.w = matrix("head.w")?;
        model.head.bias = matrix("head.bias")?;
        Ok(model)
    }
}

fn err(message: &str) -> LoadWeightsError {
    LoadWeightsError { message: message.to_owned() }
}

/// Parse the three header lines a weight document opens with —
/// `gcn-runtime-predictor v1`, `gcn_dims ..`, `fc_dim ..` — into the
/// architecture.
fn parse_header(lines: &mut std::str::Lines<'_>) -> Result<ModelConfig, LoadWeightsError> {
    if lines.next() != Some("gcn-runtime-predictor v1") {
        return Err(err("unknown header"));
    }
    let dims_line = lines.next().ok_or_else(|| err("missing gcn_dims"))?;
    let gcn_dims: Vec<usize> = dims_line
        .strip_prefix("gcn_dims ")
        .ok_or_else(|| err("bad gcn_dims line"))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| err("bad dim")))
        .collect::<Result<_, _>>()?;
    let fc_line = lines.next().ok_or_else(|| err("missing fc_dim"))?;
    let fc_dim: usize = fc_line
        .strip_prefix("fc_dim ")
        .ok_or_else(|| err("bad fc_dim line"))?
        .trim()
        .parse()
        .map_err(|_| err("bad fc_dim"))?;
    // Validate the architecture before building it: an empty layer
    // list would panic `RuntimePredictor::new`, and absurd widths would
    // try to allocate the product — both must surface as typed errors.
    const MAX_DIM: usize = 1 << 16;
    if gcn_dims.is_empty() {
        return Err(err("gcn_dims is empty"));
    }
    if gcn_dims.iter().any(|&d| d == 0 || d > MAX_DIM) || fc_dim == 0 || fc_dim > MAX_DIM {
        return Err(err("layer width out of range"));
    }
    Ok(ModelConfig { gcn_dims, fc_dim })
}

/// Take the next tensor line: check its label is `expect`, read its
/// `rows cols` shape, then parse the values and check their count
/// against that shape.
fn tensor_line(lines: &mut std::str::Lines<'_>, expect: &str) -> Result<Matrix, LoadWeightsError> {
    let line = lines.next().ok_or_else(|| err("missing tensor"))?;
    let mut tok = line.split_whitespace();
    let label = tok.next().ok_or_else(|| err("missing label"))?;
    if label != expect {
        return Err(err(&format!("expected tensor `{expect}`, found `{label}`")));
    }
    let rows: usize = tok.next().and_then(|t| t.parse().ok()).ok_or_else(|| err("bad rows"))?;
    let cols: usize = tok.next().and_then(|t| t.parse().ok()).ok_or_else(|| err("bad cols"))?;
    let data: Vec<f64> = tok.map(finite).collect::<Result<_, _>>()?;
    if data.len() != rows.checked_mul(cols).ok_or_else(|| err("tensor shape overflows"))? {
        return Err(err("value count mismatch"));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// One float weight. `"NaN"` and `"inf"` parse as valid f64s, but a
/// snapshot carrying them is corrupt: reject at load time instead of
/// letting them poison serving.
fn finite(token: &str) -> Result<f64, LoadWeightsError> {
    match token.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        Ok(_) => Err(err("non-finite value")),
        Err(_) => Err(err("bad value")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_netlist::{generators, DesignGraph};

    fn sample() -> GraphSample {
        let g = DesignGraph::from_aig(&generators::adder(4));
        GraphSample::new(&g, [100.0, 60.0, 40.0, 30.0])
    }

    #[test]
    fn training_reduces_loss_on_one_sample() {
        let s = sample();
        let mut model = RuntimePredictor::new(&ModelConfig::fast(), 42);
        let initial = model.train_step(&s, 1e-2);
        for _ in 0..199 {
            model.train_step(&s, 1e-2);
        }
        let fin = model.train_step(&s, 1e-2);
        assert!(fin < initial * 0.1, "loss {initial} -> {fin}");
    }

    #[test]
    fn overfit_single_sample_recovers_targets() {
        let s = sample();
        let mut model = RuntimePredictor::new(&ModelConfig::fast(), 1);
        for _ in 0..800 {
            model.train_step(&s, 1e-2);
        }
        let pred = model.predict_secs(&s);
        for (p, t) in pred.iter().zip(&s.targets_secs) {
            let ape = (p - t).abs() / t;
            assert!(ape < 0.10, "pred {p} vs target {t}");
        }
    }

    #[test]
    fn distinct_graphs_get_distinct_predictions() {
        let s1 = sample();
        let g2 = DesignGraph::from_aig(&generators::multiplier(6));
        let s2 = GraphSample::new(&g2, [900.0, 500.0, 300.0, 200.0]);
        let mut model = RuntimePredictor::new(&ModelConfig::fast(), 5);
        for _ in 0..600 {
            model.train_step(&s1, 5e-3);
            model.train_step(&s2, 5e-3);
        }
        let p1 = model.predict_secs(&s1)[0];
        let p2 = model.predict_secs(&s2)[0];
        assert!(p2 > 2.0 * p1, "model must separate designs: {p1} vs {p2}");
    }

    /// The training scratch is per thread, so the model itself stays
    /// plain data that snapshots can share across serving threads.
    #[test]
    fn predictor_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuntimePredictor>();
    }

    #[test]
    fn paper_config_shapes() {
        let model = RuntimePredictor::new(&ModelConfig::paper(), 0);
        assert_eq!(model.config().gcn_dims, vec![256, 128]);
        assert_eq!(model.gcn.len(), 2);
        assert_eq!(model.head.w.cols(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one GCN layer")]
    fn empty_config_panics() {
        let cfg = ModelConfig {
            gcn_dims: vec![],
            fc_dim: 8,
        };
        let _ = RuntimePredictor::new(&cfg, 0);
    }

    /// Regression: degenerate architectures used to be reachable only
    /// as panics; `try_new` must surface them as typed errors.
    #[test]
    fn try_new_rejects_degenerate_architectures() {
        let degenerate = [
            ModelConfig {
                gcn_dims: vec![],
                fc_dim: 8,
            },
            ModelConfig {
                gcn_dims: vec![32, 0],
                fc_dim: 8,
            },
            ModelConfig {
                gcn_dims: vec![32],
                fc_dim: 0,
            },
        ];
        for cfg in degenerate {
            assert_eq!(
                RuntimePredictor::try_new(&cfg, 0).err(),
                Some(crate::GcnError::ZeroDimLayer),
                "{cfg:?}"
            );
        }
        assert!(RuntimePredictor::try_new(&ModelConfig::fast(), 0).is_ok());
    }

    #[test]
    fn saturating_exp_never_overflows() {
        assert!(saturating_exp(1e9).is_finite());
        assert!(saturating_exp(f64::INFINITY).is_finite());
        assert!(saturating_exp(f64::NAN).is_finite());
        assert_eq!(saturating_exp(f64::NAN), MAX_LOG_SECS.exp());
        assert!(saturating_exp(f64::NEG_INFINITY) > 0.0);
        assert_eq!(saturating_exp(0.0), 1.0);
        assert_eq!(saturating_exp(2.5), 2.5_f64.exp());
    }

    #[test]
    fn diverged_model_still_predicts_finite_seconds() {
        let s = sample();
        let mut model = RuntimePredictor::new(&ModelConfig::fast(), 3);
        // Force the head bias so the raw log predictions overflow exp().
        for v in model.head.bias.data_mut() {
            *v = 5.0e3;
        }
        let raw = model.predict_log(&s);
        assert!(
            raw.iter().all(|l| *l > MAX_LOG_SECS),
            "setup: logs overflow"
        );
        let secs = model.predict_secs(&s);
        assert!(secs.iter().all(|t| t.is_finite() && *t > 0.0), "{secs:?}");
    }

    #[test]
    fn nan_weights_saturate_instead_of_poisoning() {
        let s = sample();
        let mut model = RuntimePredictor::new(&ModelConfig::fast(), 4);
        for v in model.head.bias.data_mut() {
            *v = f64::NAN;
        }
        let secs = model.predict_secs(&s);
        assert!(secs.iter().all(|t| t.is_finite()), "{secs:?}");
        assert_eq!(secs, [MAX_LOG_SECS.exp(); 4]);
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use eda_cloud_netlist::{generators, DesignGraph};

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let g = DesignGraph::from_aig(&generators::adder(4));
        let s = GraphSample::new(&g, [10.0, 7.0, 5.0, 4.0]);
        let mut model = RuntimePredictor::new(&ModelConfig::fast(), 9);
        for _ in 0..30 {
            model.train_step(&s, 1e-2);
        }
        let text = model.save_weights();
        let loaded = RuntimePredictor::load_weights(&text).expect("loads");
        assert_eq!(loaded.predict_log(&s), model.predict_log(&s));
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(RuntimePredictor::load_weights("nope").is_err());
        assert!(RuntimePredictor::load_weights("gcn-runtime-predictor v1\n").is_err());
        let model = RuntimePredictor::new(&ModelConfig::fast(), 0);
        let mut text = model.save_weights();
        text = text.replace("head.bias", "head.oops");
        let e = RuntimePredictor::load_weights(&text).unwrap_err();
        assert!(e.to_string().contains("head.bias"));
    }

    #[test]
    fn load_rejects_non_finite_weights() {
        let model = RuntimePredictor::new(&ModelConfig::fast(), 0);
        let text = model.save_weights();
        let first_value = text
            .lines()
            .find(|l| l.starts_with("gcn0.w"))
            .and_then(|l| l.split_whitespace().nth(3))
            .expect("a weight value")
            .to_owned();
        for poison in ["NaN", "inf", "-inf"] {
            let bad = text.replacen(&first_value, poison, 1);
            let e = RuntimePredictor::load_weights(&bad).unwrap_err();
            assert!(e.to_string().contains("non-finite"), "{poison}: {e}");
        }
    }

    #[test]
    fn load_rejects_degenerate_architectures() {
        let header = |dims: &str, fc: &str| {
            format!("gcn-runtime-predictor v1\ngcn_dims {dims}\nfc_dim {fc}\n")
        };
        assert!(RuntimePredictor::load_weights(&header("", "8")).is_err());
        assert!(RuntimePredictor::load_weights(&header("0", "8")).is_err());
        assert!(RuntimePredictor::load_weights(&header("32", "0")).is_err());
        assert!(RuntimePredictor::load_weights(&header("99999999999", "8")).is_err());
        assert!(RuntimePredictor::load_weights(&header("32", "99999999999")).is_err());
    }

    #[test]
    fn load_rejects_shape_overflow() {
        // A tensor line whose rows*cols product overflows usize must be
        // a typed error, not a multiply-overflow panic.
        let text = format!(
            "gcn-runtime-predictor v1\ngcn_dims 32\nfc_dim 16\ngcn0.w {} {} 1.0\n",
            usize::MAX,
            2
        );
        let e = RuntimePredictor::load_weights(&text).unwrap_err();
        assert!(e.to_string().contains("overflow"), "{e}");
    }
}
