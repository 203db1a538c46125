//! Network layers with manual backpropagation: one `forward_into` and
//! one `backward_into` per layer, over caller-owned buffers.

use crate::{GcnError, Matrix, SparseMatrix};
use rand::Rng;

/// Temporaries of the layers' passes (`forward_into` / `backward_into`).
/// One instance serves every layer of a model: each call overwrites what
/// it uses before reading it, so a warm loop allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct LayerScratch {
    /// A weight matrix transposed for one `dZ·Wᵀ` product.
    transposed: Matrix,
    /// The second operand of a sum of two products (`H·B`, `dZ·Wᵀ`,
    /// `dZ·Bᵀ`), consumed before the next one is formed.
    product: Matrix,
    /// Class rows laid out as node rows for a pass that runs per node.
    nodes: Matrix,
    /// A per-class `∂L/∂Z` laid out as node rows.
    node_dz: Matrix,
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

/// One GCN layer's caller-owned buffers, kept across calls.
/// `GcnLayer::forward_into` fills the first two; whoever consumes
/// `output` writes the loss gradient with respect to it into
/// `grad_output`; `GcnLayer::backward_into` reads all three and leaves
/// the parameter gradients in `dw` and `db`. The layer *input* is not
/// here: it stays borrowed (the layer below's `output`, or the sample's
/// features) instead of being copied.
#[derive(Debug, Clone, Default)]
pub struct GcnBuffers {
    /// Aggregated input `Ā·H`.
    pub aggregated: Matrix,
    /// Activations `H' = ReLU(Z)`; the backward pass masks on them.
    pub output: Matrix,
    /// `∂L/∂H'`, masked in place into `∂L/∂Z` by the backward pass.
    pub grad_output: Matrix,
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

    /// Forward pass into caller-owned buffers: `buffers` receives the
    /// aggregate `Ā·H` and the activations `ReLU(Ā·H·W + H·B)`, and
    /// `input` is only borrowed.
    ///
    /// # Errors
    ///
    /// Propagates the adjacency kernel's typed errors (see
    /// [`SparseMatrix::matmul_into`]); the buffers hold unspecified
    /// partial products after an error.
    ///
    /// # Panics
    ///
    /// Panics if `input` and the weights disagree in width.
    pub fn forward_into(
        &self,
        a_norm: &SparseMatrix,
        input: &Matrix,
        buffers: &mut GcnBuffers,
        work: &mut LayerScratch,
    ) -> Result<(), GcnError> {
        a_norm.matmul_into(input, &mut buffers.aggregated)?;
        buffers.aggregated.matmul_into(&self.w, &mut buffers.output);
        input.matmul_into(&self.b, &mut work.product);
        buffers.output.add_assign(&work.product);
        buffers.output.relu_in_place();
        Ok(())
    }

    /// Backward pass into caller-owned buffers. `input` is the matrix
    /// the forward pass borrowed, `buffers` holds what it recorded plus
    /// `grad_output`, and receives `dw` and `db`. The input gradient
    /// `∂L/∂H = Āᵀ·(dZ·Wᵀ) + dZ·Bᵀ` — two dense products, a transposed
    /// aggregation and a sum — is computed only when `dinput` is `Some`:
    /// the first layer of a stack has nobody upstream to hand it to.
    ///
    /// With `class_of`, the forward pass ran over a sample's row classes
    /// (`class_of[r]` is node `r`'s class): `input`, `aggregated` and
    /// `output` hold one row per class, and so does `grad_output` at the
    /// top of a stack, where pooling hands every node the same gradient;
    /// below it, `grad_output` holds one row per node. `a_norm` and
    /// `dinput` are per node. The two products run once per row of
    /// `dZ`; the `Āᵀ` scatter, the sum and both weight gradients run per
    /// node in node order, reading class rows through `class_of`. A
    /// node's row is its class's bit for bit, so every element gets the
    /// operation sequence of the per-node pass.
    ///
    /// # Errors
    ///
    /// Propagates the adjacency kernel's typed errors (see
    /// [`SparseMatrix::matmul_transposed_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `input` and the buffers disagree in shape, or if a
    /// class id is out of range.
    pub fn backward_into(
        &self,
        a_norm: &SparseMatrix,
        input: &Matrix,
        buffers: &mut GcnBuffers,
        work: &mut LayerScratch,
        dinput: Option<&mut Matrix>,
        class_of: Option<&[u32]>,
    ) -> Result<(), GcnError> {
        let LayerScratch { transposed, product, nodes, node_dz } = work;
        let dz = &mut buffers.grad_output;
        // Maps nodes onto `dZ`'s rows when they are classes.
        let dz_classes = class_of.filter(|_| dz.rows() == buffers.output.rows());
        match class_of.filter(|_| dz_classes.is_none()) {
            None => dz.relu_mask(&buffers.output),
            Some(classes) => zip_class_rows(dz, &buffers.output, classes, |g, z| {
                *g = if z > 0.0 { *g } else { 0.0 };
            }),
        }
        if let Some(dinput) = dinput {
            // dH = Āᵀ (dZ Wᵀ) + dZ Bᵀ
            self.w.transpose_into(transposed);
            dz.matmul_into(transposed, product);
            a_norm.matmul_transposed_into(node_rows(product, dz_classes, nodes), dinput)?;
            self.b.transpose_into(transposed);
            dz.matmul_into(transposed, product);
            match dz_classes {
                None => dinput.add_assign(product),
                Some(classes) => zip_class_rows(dinput, product, classes, |d, p| *d += p),
            }
        }
        // Weight gradients sum over nodes, in node order.
        let dz = node_rows(dz, dz_classes, node_dz);
        node_rows(&buffers.aggregated, class_of, nodes).matmul_tn_into(dz, &mut buffers.dw);
        node_rows(input, class_of, nodes).matmul_tn_into(dz, &mut buffers.db);
        Ok(())
    }
}

/// `rows` read per node: row `r` of the result is row `class_of[r]` of
/// `rows`, laid out in `out`; without classes, `rows` itself.
fn node_rows<'m>(rows: &'m Matrix, class_of: Option<&[u32]>, out: &'m mut Matrix) -> &'m Matrix {
    let Some(class_of) = class_of else {
        return rows;
    };
    let cols = rows.cols();
    out.reshape_for_overwrite(class_of.len(), cols);
    for (r, &class) in class_of.iter().enumerate() {
        out.data_mut()[r * cols..(r + 1) * cols].copy_from_slice(rows.row(class as usize));
    }
    out
}

/// `f(x, y)` for every element `x` of node row `r` of `nodes` and the
/// matching element `y` of row `class_of[r]` of `classes`.
fn zip_class_rows(
    nodes: &mut Matrix,
    classes: &Matrix,
    class_of: &[u32],
    f: impl Fn(&mut f64, f64),
) {
    assert_eq!((nodes.rows(), nodes.cols()), (class_of.len(), classes.cols()), "shape mismatch");
    let cols = nodes.cols();
    for (r, &class) in class_of.iter().enumerate() {
        let row = &mut nodes.data_mut()[r * cols..(r + 1) * cols];
        row.iter_mut().zip(classes.row(class as usize)).for_each(|(x, &y)| f(x, y));
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

    /// Forward pass into a caller-owned buffer (`rows` of `input` are
    /// independent samples). Nothing is recorded: the backward pass
    /// reads only the layer input, which the caller still holds.
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

    /// Backward pass into caller-owned buffers; `input` is the matrix
    /// the forward pass was given. `∂L/∂input = dY·Wᵀ` is computed only
    /// when `dinput` is `Some` — a layer fed by data rather than by
    /// another layer has no use for it.
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

    fn gcn_forward(layer: &GcnLayer, a: &SparseMatrix, x: &Matrix) -> GcnBuffers {
        let mut buffers = GcnBuffers::default();
        layer
            .forward_into(a, x, &mut buffers, &mut LayerScratch::default())
            .expect("shapes agree");
        buffers
    }

    /// Parameter and input gradients of `loss = Σ outputs`.
    fn gcn_backward(layer: &GcnLayer, a: &SparseMatrix, x: &Matrix) -> (GcnBuffers, Matrix) {
        let mut buffers = gcn_forward(layer, a, x);
        let (rows, cols) = (buffers.output.rows(), buffers.output.cols());
        buffers.grad_output = Matrix::from_vec(rows, cols, vec![1.0; rows * cols]);
        let mut dx = Matrix::zeros(0, 0);
        layer
            .backward_into(a, x, &mut buffers, &mut LayerScratch::default(), Some(&mut dx), None)
            .expect("shapes agree");
        (buffers, dx)
    }

    fn dense_forward(layer: &DenseLayer, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        layer.forward_into(x, &mut out);
        out
    }

    /// Parameter and input gradients of `loss = Σ outputs`.
    fn dense_backward(layer: &DenseLayer, x: &Matrix) -> (DenseGrads, Matrix) {
        let cols = layer.w.cols();
        let ones = Matrix::from_vec(x.rows(), cols, vec![1.0; x.rows() * cols]);
        let (mut grads, mut dx) = (DenseGrads::default(), Matrix::zeros(0, 0));
        layer.backward_into(x, &ones, &mut LayerScratch::default(), &mut grads, Some(&mut dx));
        (grads, dx)
    }

    fn sum(m: &Matrix) -> f64 {
        m.data().iter().sum()
    }

    #[test]
    fn gcn_forward_aggregates_neighbors() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut layer = GcnLayer::new(1, 1, &mut rng);
        // Make weights identity-ish: W = 1, B = 0.
        layer.w = Matrix::from_rows(&[&[1.0]]);
        layer.b = Matrix::from_rows(&[&[0.0]]);
        let x = Matrix::from_rows(&[&[2.0], &[4.0], &[100.0]]);
        let out = gcn_forward(&layer, &tiny_graph(), &x).output;
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
        let loss = |l: &GcnLayer| sum(&gcn_forward(l, &a, &x).output);
        let (grads, _) = gcn_backward(&layer, &a, &x);

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
        let loss = |x: &Matrix| sum(&gcn_forward(&layer, &a, x).output);
        let (_, dx) = gcn_backward(&layer, &a, &x);
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
        let loss = |l: &DenseLayer| sum(&dense_forward(l, &x));
        let (grads, _) = dense_backward(&layer, &x);
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
    fn dense_input_gradient_matches_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let layer = DenseLayer::new(3, 2, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.3, 0.0, -1.5]]);
        let loss = |x: &Matrix| sum(&dense_forward(&layer, x));
        let (_, dx) = dense_backward(&layer, &x);
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = x.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let mut minus = x.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                assert!((numeric - dx.get(r, c)).abs() < 1e-5, "x[{r}][{c}]");
            }
        }
    }

    #[test]
    fn dense_bias_applied_per_row() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut layer = DenseLayer::new(1, 1, &mut rng);
        layer.w = Matrix::from_rows(&[&[2.0]]);
        layer.bias = Matrix::from_rows(&[&[10.0]]);
        let out = dense_forward(&layer, &Matrix::from_rows(&[&[1.0], &[3.0]]));
        assert_eq!(out.get(0, 0), 12.0);
        assert_eq!(out.get(1, 0), 16.0);
    }
}
