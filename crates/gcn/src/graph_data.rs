//! Graph samples: normalized adjacency + features + runtime targets.

use crate::{Matrix, SparseMatrix};
use eda_cloud_netlist::{DesignGraph, FEATURE_DIM};

/// One training/evaluation sample.
///
/// Holds the mean-aggregation operator `Ā = D⁻¹A` built from the
/// design graph's fanin (incoming-edge) structure — the paper's
/// `Σ_{u∈N(v)} h_u / |N(v)|` — plus the node feature matrix and the
/// four runtime targets (1/2/4/8 vCPUs). Targets are stored in
/// log-space; runtimes span orders of magnitude across the corpus, so
/// regressing `ln(t)` with MSE keeps every design's *relative* error in
/// the loss, which is what the paper's percentage-error metric measures.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSample {
    /// Design name (used for family-wise dataset splits).
    pub name: String,
    /// Mean-aggregation operator, `n x n`.
    pub a_norm: SparseMatrix,
    /// Node features, `n x FEATURE_DIM`.
    pub features: Matrix,
    /// `ln(runtime_secs)` for 1, 2, 4, 8 vCPUs.
    pub log_targets: [f64; 4],
    /// Raw runtimes in seconds.
    pub targets_secs: [f64; 4],
}

impl GraphSample {
    /// Build a sample from a converted design graph and its measured
    /// (or simulated) runtimes in seconds.
    ///
    /// # Panics
    ///
    /// Panics if any target is not strictly positive.
    #[must_use]
    pub fn new(graph: &DesignGraph, targets_secs: [f64; 4]) -> Self {
        assert!(
            targets_secs.iter().all(|&t| t > 0.0),
            "runtimes must be positive"
        );
        let n = graph.node_count();
        let mut triplets: Vec<(u32, u32, f64)> = Vec::with_capacity(graph.edge_count());
        for v in 0..n {
            let fanins = graph.in_neighbors(v);
            if fanins.is_empty() {
                continue;
            }
            let w = 1.0 / fanins.len() as f64;
            for &u in fanins {
                triplets.push((v as u32, u, w));
            }
        }
        let a_norm = SparseMatrix::from_triplets(n, n, &triplets);
        let features = Matrix::from_vec(n, FEATURE_DIM, graph.features().to_vec());
        let log_targets = targets_secs.map(f64::ln);
        Self {
            name: graph.name().to_owned(),
            a_norm,
            features,
            log_targets,
            targets_secs,
        }
    }

    /// Node count.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.features.rows()
    }

    /// The same graph relabeled with new runtime targets — the replay
    /// buffer's way of turning a served design plus its observed
    /// ground-truth runtimes into a training sample without rebuilding
    /// the adjacency operator.
    ///
    /// # Panics
    ///
    /// Panics if any target is not strictly positive.
    #[must_use]
    pub fn with_targets(&self, targets_secs: [f64; 4]) -> Self {
        assert!(
            targets_secs.iter().all(|&t| t > 0.0),
            "runtimes must be positive"
        );
        Self {
            log_targets: targets_secs.map(f64::ln),
            targets_secs,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_netlist::generators;

    #[test]
    fn adjacency_rows_sum_to_one_or_zero() {
        let g = DesignGraph::from_aig(&generators::adder(4));
        let s = GraphSample::new(&g, [4.0, 3.0, 2.0, 1.5]);
        // Multiply Ā by a column of ones: every row with fanins sums
        // to exactly 1 (mean aggregation), sources to 0.
        let ones = Matrix::from_vec(s.node_count(), 1, vec![1.0; s.node_count()]);
        let mut sums = Matrix::zeros(0, 0);
        s.a_norm.matmul_into(&ones, &mut sums).expect("shapes agree");
        for r in 0..s.node_count() {
            let v = sums.get(r, 0);
            assert!(
                (v - 1.0).abs() < 1e-12 || v.abs() < 1e-12,
                "row {r} sums to {v}"
            );
        }
    }

    #[test]
    fn log_targets_match() {
        let g = DesignGraph::from_aig(&generators::parity(8));
        let s = GraphSample::new(&g, [100.0, 50.0, 25.0, 12.5]);
        assert!((s.log_targets[0] - 100.0f64.ln()).abs() < 1e-12);
        assert_eq!(s.targets_secs[1], 50.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_target_panics() {
        let g = DesignGraph::from_aig(&generators::parity(8));
        let _ = GraphSample::new(&g, [1.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn with_targets_relabels_without_touching_structure() {
        let g = DesignGraph::from_aig(&generators::adder(4));
        let s = GraphSample::new(&g, [1.0; 4]);
        let relabeled = s.with_targets([80.0, 50.0, 30.0, 20.0]);
        assert_eq!(relabeled.a_norm, s.a_norm);
        assert_eq!(relabeled.features, s.features);
        assert_eq!(relabeled.name, s.name);
        assert_eq!(relabeled.targets_secs, [80.0, 50.0, 30.0, 20.0]);
        assert!((relabeled.log_targets[0] - 80.0f64.ln()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn with_targets_rejects_nonpositive() {
        let g = DesignGraph::from_aig(&generators::adder(4));
        let _ = GraphSample::new(&g, [1.0; 4]).with_targets([1.0, -2.0, 1.0, 1.0]);
    }
}
