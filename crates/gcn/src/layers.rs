//! Network layers with manual backpropagation.

use crate::{GcnError, Matrix, SparseMatrix};
use rand::Rng;

/// Temporaries of the layers' training forms (`forward_into` /
/// `backward_into`). One instance serves every layer of a model: each
/// call overwrites what it uses before reading it, so a warm training
/// loop allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct LayerScratch {
    /// `dZ`, the upstream gradient masked by the ReLU.
    dz: Matrix,
    /// A weight matrix transposed for one `dZ·Wᵀ` product.
    transposed: Matrix,
    /// The second operand of a sum of two products (`H·B`, `dZ·Wᵀ`,
    /// `dZ·Bᵀ`), consumed before the next one is formed.
    product: Matrix,
}

/// One graph-convolution layer implementing the paper's Equation (2):
///
/// `H' = ReLU( Ā·H·W  +  H·B )`
///
/// where `Ā` is the mean-aggregation operator over each node's
/// neighbors, `W` the aggregation weights, and `B` the self-loop
/// weights. Both are trainable and shared across all nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnLayer {
    /// Aggregation weight matrix (`in x out`).
    pub w: Matrix,
    /// Self-term weight matrix (`in x out`).
    pub b: Matrix,
}

/// One GCN layer's caller-owned training buffers, kept across steps.
/// `GcnLayer::forward_into` fills the first three; whoever consumes
/// `output` writes the loss gradient with respect to it into
/// `grad_output`; `GcnLayer::backward_into` reads all four and leaves
/// the parameter gradients in `grads`. The layer *input* is not here:
/// it stays borrowed (the layer below's `output`, or the sample's
/// features) instead of being copied.
#[derive(Debug, Clone, Default)]
pub struct GcnBuffers {
    /// Aggregated input `Ā·H`.
    pub aggregated: Matrix,
    /// Pre-activation `Z`.
    pub pre_activation: Matrix,
    /// Activations `H' = ReLU(Z)`.
    pub output: Matrix,
    /// `∂L/∂H'`.
    pub grad_output: Matrix,
    /// `∂L/∂W` and `∂L/∂B`.
    pub grads: GcnGrads,
}

/// Cached forward state needed by the backward pass.
#[derive(Debug, Clone)]
pub struct GcnCache {
    /// Input activations `H`.
    pub input: Matrix,
    /// Aggregated input `Ā·H`.
    pub aggregated: Matrix,
    /// Pre-activation `Z`.
    pub pre_activation: Matrix,
}

/// Parameter gradients of one GCN layer.
#[derive(Debug, Clone, Default)]
pub struct GcnGrads {
    /// `∂L/∂W`.
    pub dw: Matrix,
    /// `∂L/∂B`.
    pub db: Matrix,
}

impl GcnLayer {
    /// Xavier-initialized layer.
    #[must_use]
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Self {
            w: Matrix::xavier(in_dim, out_dim, rng),
            b: Matrix::xavier(in_dim, out_dim, rng),
        }
    }

    /// Forward pass; returns activations and the cache for backward.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch or corrupt adjacency.
    #[must_use]
    pub fn forward(&self, a_norm: &SparseMatrix, input: &Matrix) -> (Matrix, GcnCache) {
        let mut buffers = GcnBuffers::default();
        self.forward_into(a_norm, input, &mut buffers, &mut LayerScratch::default())
            .unwrap_or_else(|e| panic!("{e}"));
        (
            buffers.output,
            GcnCache {
                input: input.clone(),
                aggregated: buffers.aggregated,
                pre_activation: buffers.pre_activation,
            },
        )
    }

    /// [`GcnLayer::forward`] into caller-owned buffers: `buffers`
    /// receives the aggregate, the pre-activation and the activations,
    /// and `input` is only borrowed.
    ///
    /// # Errors
    ///
    /// Propagates the adjacency kernel's typed errors (see
    /// [`SparseMatrix::matmul_into`]); the buffers hold unspecified
    /// partial products after an error.
    pub(crate) fn forward_into(
        &self,
        a_norm: &SparseMatrix,
        input: &Matrix,
        buffers: &mut GcnBuffers,
        work: &mut LayerScratch,
    ) -> Result<(), GcnError> {
        a_norm.matmul_into(input, &mut buffers.aggregated)?;
        buffers.aggregated.matmul_into(&self.w, &mut buffers.pre_activation);
        input.matmul_into(&self.b, &mut work.product);
        buffers.pre_activation.add_assign(&work.product);
        buffers.pre_activation.relu_into(&mut buffers.output);
        Ok(())
    }

    /// Inference-only forward: the same arithmetic as
    /// [`GcnLayer::forward`] — bit-identical output — without
    /// materializing the backward caches. Serving runs batches of
    /// thousands of node rows, where the cache clones triple the
    /// memory traffic for state inference never reads.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch or corrupt adjacency.
    #[must_use]
    pub fn infer(&self, a_norm: &SparseMatrix, input: &Matrix) -> Matrix {
        let mut out = a_norm.matmul(input).matmul(&self.w);
        out.add_assign(&input.matmul(&self.b));
        out.relu_in_place();
        out
    }

    /// Backward pass: given `∂L/∂H'`, produce parameter gradients and
    /// `∂L/∂H` for the upstream layer.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch or corrupt adjacency.
    #[must_use]
    pub fn backward(
        &self,
        a_norm: &SparseMatrix,
        cache: &GcnCache,
        grad_out: &Matrix,
    ) -> (GcnGrads, Matrix) {
        let mut buffers = GcnBuffers {
            aggregated: cache.aggregated.clone(),
            pre_activation: cache.pre_activation.clone(),
            grad_output: grad_out.clone(),
            ..GcnBuffers::default()
        };
        let mut dinput = Matrix::zeros(0, 0);
        let work = &mut LayerScratch::default();
        self.backward_into(a_norm, &cache.input, &mut buffers, work, Some(&mut dinput))
            .unwrap_or_else(|e| panic!("{e}"));
        (buffers.grads, dinput)
    }

    /// [`GcnLayer::backward`] into caller-owned buffers. `input` is the
    /// matrix the forward pass borrowed, `buffers` holds what it
    /// recorded plus `grad_output`, and receives `grads`. The input
    /// gradient `∂L/∂H = Āᵀ·(dZ·Wᵀ) + dZ·Bᵀ` — two dense products, a
    /// transposed aggregation and a sum — is computed only when
    /// `dinput` is `Some`: the first layer of a stack has nobody
    /// upstream to hand it to.
    ///
    /// # Errors
    ///
    /// Propagates the adjacency kernel's typed errors (see
    /// [`SparseMatrix::matmul_transposed_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `input` and the buffers disagree in shape.
    pub(crate) fn backward_into(
        &self,
        a_norm: &SparseMatrix,
        input: &Matrix,
        buffers: &mut GcnBuffers,
        work: &mut LayerScratch,
        dinput: Option<&mut Matrix>,
    ) -> Result<(), GcnError> {
        buffers
            .grad_output
            .relu_backward_into(&buffers.pre_activation, &mut work.dz);
        buffers.aggregated.matmul_tn_into(&work.dz, &mut buffers.grads.dw);
        input.matmul_tn_into(&work.dz, &mut buffers.grads.db);
        if let Some(dinput) = dinput {
            // dH = Āᵀ (dZ Wᵀ) + dZ Bᵀ
            self.w.transpose_into(&mut work.transposed);
            work.dz.matmul_into(&work.transposed, &mut work.product);
            a_norm.matmul_transposed_into(&work.product, dinput)?;
            self.b.transpose_into(&mut work.transposed);
            work.dz.matmul_into(&work.transposed, &mut work.product);
            dinput.add_assign(&work.product);
        }
        Ok(())
    }
}

/// A fully connected layer `y = x·W + bias`, with optional ReLU handled
/// by the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    /// Weights (`in x out`).
    pub w: Matrix,
    /// Bias (`1 x out`).
    pub bias: Matrix,
}

/// Cached forward state of a dense layer.
#[derive(Debug, Clone)]
pub struct DenseCache {
    /// Layer input.
    pub input: Matrix,
}

/// Parameter gradients of a dense layer.
#[derive(Debug, Clone, Default)]
pub struct DenseGrads {
    /// `∂L/∂W`.
    pub dw: Matrix,
    /// `∂L/∂bias`.
    pub dbias: Matrix,
}

impl DenseLayer {
    /// Xavier-initialized layer with zero bias.
    #[must_use]
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Self {
            w: Matrix::xavier(in_dim, out_dim, rng),
            bias: Matrix::zeros(1, out_dim),
        }
    }

    /// Forward pass (`rows` of `input` are independent samples).
    #[must_use]
    pub fn forward(&self, input: &Matrix) -> (Matrix, DenseCache) {
        (
            self.infer(input),
            DenseCache {
                input: input.clone(),
            },
        )
    }

    /// Inference-only forward, bit-identical to [`DenseLayer::forward`]
    /// without cloning the input for a backward pass.
    #[must_use]
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(input, &mut out);
        out
    }

    /// [`DenseLayer::infer`] into a caller-owned buffer. Nothing is
    /// recorded: the backward pass reads only the layer input, which
    /// the caller still holds.
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch or a bias narrower than
    /// the output.
    pub fn forward_into(&self, input: &Matrix, out: &mut Matrix) {
        input.matmul_into(&self.w, out);
        let cols = out.cols();
        let bias = &self.bias.row(0)[..cols];
        for r in 0..out.rows() {
            let orow = &mut out.data_mut()[r * cols..(r + 1) * cols];
            for (o, &b) in orow.iter_mut().zip(bias) {
                *o += b;
            }
        }
    }

    /// Backward pass: returns gradients and `∂L/∂input`.
    #[must_use]
    pub fn backward(&self, cache: &DenseCache, grad_out: &Matrix) -> (DenseGrads, Matrix) {
        let mut grads = DenseGrads::default();
        let mut dinput = Matrix::zeros(0, 0);
        self.backward_into(
            &cache.input,
            grad_out,
            &mut LayerScratch::default(),
            &mut grads,
            Some(&mut dinput),
        );
        (grads, dinput)
    }

    /// [`DenseLayer::backward`] into caller-owned buffers; `input` is
    /// the matrix the forward pass was given. `∂L/∂input = dY·Wᵀ` is
    /// computed only when `dinput` is `Some` — a layer fed by data
    /// rather than by another layer has no use for it.
    ///
    /// # Panics
    ///
    /// Panics if `input` and `grad_out` disagree in row count.
    pub fn backward_into(
        &self,
        input: &Matrix,
        grad_out: &Matrix,
        work: &mut LayerScratch,
        grads: &mut DenseGrads,
        dinput: Option<&mut Matrix>,
    ) {
        input.matmul_tn_into(grad_out, &mut grads.dw);
        grad_out.sum_rows_into(&mut grads.dbias);
        if let Some(dinput) = dinput {
            self.w.transpose_into(&mut work.transposed);
            grad_out.matmul_into(&work.transposed, dinput);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_graph() -> SparseMatrix {
        // 3 nodes: 0 -> 2, 1 -> 2 (node 2 averages its two fanins).
        SparseMatrix::from_triplets(3, 3, &[(2, 0, 0.5), (2, 1, 0.5)])
    }

    #[test]
    fn gcn_forward_aggregates_neighbors() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut layer = GcnLayer::new(1, 1, &mut rng);
        // Make weights identity-ish: W = 1, B = 0.
        layer.w = Matrix::from_rows(&[&[1.0]]);
        layer.b = Matrix::from_rows(&[&[0.0]]);
        let x = Matrix::from_rows(&[&[2.0], &[4.0], &[100.0]]);
        let (out, _) = layer.forward(&tiny_graph(), &x);
        // Node 2 receives mean(2, 4) = 3; nodes 0, 1 have no fanins.
        assert_eq!(out.get(2, 0), 3.0);
        assert_eq!(out.get(0, 0), 0.0);
    }

    /// Numerical gradient check: the analytic backward pass must match
    /// finite differences on every parameter.
    #[test]
    fn gcn_gradients_match_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let layer = GcnLayer::new(2, 2, &mut rng);
        let a = tiny_graph();
        let x = Matrix::from_rows(&[&[0.5, -1.0], &[1.5, 0.3], &[-0.2, 0.8]]);
        // Loss = sum of outputs (grad_out = ones).
        let loss = |l: &GcnLayer| -> f64 {
            let (out, _) = l.forward(&a, &x);
            out.data().iter().sum()
        };
        let (out, cache) = layer.forward(&a, &x);
        let ones = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
        let (grads, _) = layer.backward(&a, &cache, &ones);

        let eps = 1e-6;
        for (pick_grad, name) in [(0usize, "w"), (1, "b")] {
            for r in 0..2 {
                for c in 0..2 {
                    let mut plus = layer.clone();
                    let mut minus = layer.clone();
                    let (p, m) = if pick_grad == 0 {
                        (&mut plus.w, &mut minus.w)
                    } else {
                        (&mut plus.b, &mut minus.b)
                    };
                    p.set(r, c, p.get(r, c) + eps);
                    m.set(r, c, m.get(r, c) - eps);
                    let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                    let analytic = if pick_grad == 0 {
                        grads.dw.get(r, c)
                    } else {
                        grads.db.get(r, c)
                    };
                    assert!(
                        (numeric - analytic).abs() < 1e-5,
                        "{name}[{r}][{c}]: numeric {numeric} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    fn gcn_input_gradient_matches_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let layer = GcnLayer::new(2, 2, &mut rng);
        let a = tiny_graph();
        let x = Matrix::from_rows(&[&[0.5, -1.0], &[1.5, 0.3], &[-0.2, 0.8]]);
        let loss = |x: &Matrix| -> f64 {
            let (out, _) = layer.forward(&a, x);
            out.data().iter().sum()
        };
        let (out, cache) = layer.forward(&a, &x);
        let ones = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
        let (_, dx) = layer.backward(&a, &cache, &ones);
        let eps = 1e-6;
        for r in 0..3 {
            for c in 0..2 {
                let mut plus = x.clone();
                let mut minus = x.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                minus.set(r, c, minus.get(r, c) - eps);
                let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                assert!(
                    (numeric - dx.get(r, c)).abs() < 1e-5,
                    "x[{r}][{c}]: numeric {numeric} vs analytic {}",
                    dx.get(r, c)
                );
            }
        }
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let layer = DenseLayer::new(3, 2, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, -2.0, 0.5]]);
        let loss = |l: &DenseLayer| -> f64 {
            let (out, _) = l.forward(&x);
            out.data().iter().sum()
        };
        let (out, cache) = layer.forward(&x);
        let ones = Matrix::from_vec(1, out.cols(), vec![1.0; out.cols()]);
        let (grads, _) = layer.backward(&cache, &ones);
        let eps = 1e-6;
        for r in 0..3 {
            for c in 0..2 {
                let mut plus = layer.clone();
                plus.w.set(r, c, plus.w.get(r, c) + eps);
                let mut minus = layer.clone();
                minus.w.set(r, c, minus.w.get(r, c) - eps);
                let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                assert!((numeric - grads.dw.get(r, c)).abs() < 1e-5);
            }
        }
        for c in 0..2 {
            let mut plus = layer.clone();
            plus.bias.set(0, c, plus.bias.get(0, c) + eps);
            let mut minus = layer.clone();
            minus.bias.set(0, c, minus.bias.get(0, c) - eps);
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!((numeric - grads.dbias.get(0, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn dense_bias_applied_per_row() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut layer = DenseLayer::new(1, 1, &mut rng);
        layer.w = Matrix::from_rows(&[&[2.0]]);
        layer.bias = Matrix::from_rows(&[&[10.0]]);
        let (out, _) = layer.forward(&Matrix::from_rows(&[&[1.0], &[3.0]]));
        assert_eq!(out.get(0, 0), 12.0);
        assert_eq!(out.get(1, 0), 16.0);
    }
}
