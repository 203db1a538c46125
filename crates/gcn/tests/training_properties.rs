//! Property-based tests for the GCN stack.

use eda_cloud_gcn::{GcnError, GraphSample, Matrix, ModelConfig, RuntimePredictor, SparseMatrix};
use eda_cloud_netlist::{generators, DesignGraph};
use proptest::prelude::*;

/// Pseudo-random value stream for matrix contents (proptest drives the
/// shapes; an LCG fills the cells deterministically from a seed).
fn lcg_values(seed: u64, n: usize) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(7);
            ((s >> 33) % 1000) as f64 / 100.0 - 5.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Predictions are finite and positive for any seed and any family
    /// graph, even untrained.
    #[test]
    fn untrained_predictions_are_finite(
        seed in 0u64..1_000,
        size in 2u32..8,
        fam in proptest::sample::select(generators::FAMILY_NAMES.to_vec()),
    ) {
        let aig = generators::build_family(fam, size).expect("family");
        let sample = GraphSample::new(&DesignGraph::from_aig(&aig), [1.0, 1.0, 1.0, 1.0]);
        let model = RuntimePredictor::new(&ModelConfig::fast(), seed);
        let pred = model.predict_secs(&sample);
        prop_assert!(pred.iter().all(|p| p.is_finite() && *p > 0.0));
    }

    /// A training step on any sample never produces NaNs in the
    /// prediction path.
    #[test]
    fn training_steps_stay_finite(seed in 0u64..200, lr_exp in 1u32..4) {
        let aig = generators::adder(4);
        let sample = GraphSample::new(&DesignGraph::from_aig(&aig), [50.0, 30.0, 20.0, 15.0]);
        let mut model = RuntimePredictor::new(&ModelConfig::fast(), seed);
        let lr = 10f64.powi(-(lr_exp as i32));
        for _ in 0..20 {
            let loss = model.train_step(&sample, lr);
            prop_assert!(loss.is_finite());
        }
        prop_assert!(model.predict_log(&sample).iter().all(|v| v.is_finite()));
    }

    /// Matmul with identity is a no-op, for random shapes.
    #[test]
    fn matrix_algebra_identities(rows in 1usize..10, cols in 1usize..10, seed in 0u64..500) {
        let m = Matrix::from_vec(rows, cols, lcg_values(seed, rows * cols));
        let id = Matrix::identity(cols);
        prop_assert_eq!(m.matmul(&id), m);
    }

    /// The CSR sparse kernel agrees bit-for-bit with a dense reference
    /// matmul for random sparsity patterns, shapes, and contents: with
    /// entries sorted by `(row, col)`, both kernels accumulate each
    /// output element over the same columns in the same order.
    #[test]
    fn sparse_matmul_matches_dense_reference(
        rows in 1usize..12,
        cols in 1usize..12,
        rhs_cols in 1usize..8,
        density in 0u32..100,
        seed in 0u64..10_000,
    ) {
        let vals = lcg_values(seed, rows * cols);
        let mask = lcg_values(seed ^ 0xD5, rows * cols);
        let mut triplets = Vec::new();
        let mut dense_lhs = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                // `mask` spans [-5, 5); keep ~density% of the cells.
                if (mask[r * cols + c] + 5.0) * 10.0 < f64::from(density) {
                    let v = vals[r * cols + c];
                    triplets.push((r as u32, c as u32, v));
                    dense_lhs.set(r, c, v);
                }
            }
        }
        let sparse = SparseMatrix::from_triplets(rows, cols, &triplets);
        let rhs = Matrix::from_vec(cols, rhs_cols, lcg_values(seed ^ 0x9E, cols * rhs_cols));
        let mut got = Matrix::zeros(0, 0);
        sparse.matmul_into(&rhs, &mut got).expect("valid operands");
        prop_assert_eq!(got, dense_lhs.matmul(&rhs));
    }

    /// A right-hand side of the wrong height is a typed error, for any
    /// mismatched shape pair.
    #[test]
    fn sparse_matmul_rejects_shape_mismatch(
        cols in 1usize..10,
        wrong in 1usize..10,
        rhs_cols in 1usize..6,
    ) {
        // Skew past `cols` instead of discarding the case (the local
        // proptest shim has no `prop_assume`).
        let wrong = if wrong == cols { wrong + 10 } else { wrong };
        let sparse = SparseMatrix::from_triplets(2, cols, &[(0, 0, 1.0)]);
        let rhs = Matrix::zeros(wrong, rhs_cols);
        let mut out = Matrix::zeros(0, 0);
        prop_assert_eq!(
            sparse.matmul_into(&rhs, &mut out),
            Err(GcnError::ShapeMismatch {
                op: "sparse matmul",
                expected: (cols, rhs_cols),
                found: (wrong, rhs_cols),
            })
        );
    }
}
