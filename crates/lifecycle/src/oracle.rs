//! Ground-truth runtimes with injectable distribution drift.
//!
//! The fleet's flow engines are stood in for by a deterministic
//! oracle: per-stage base runtimes from the paper's Table I
//! (`sparc_core` at 1/2/4/8 vCPUs) scaled by each design's node count.
//! Drift is injected as a multiplicative shift from a configured
//! request ordinal onward — the moment the "design distribution"
//! changes under the serving model's feet.

use eda_cloud_serve::{ServeDesign, TABLE1_SECS};

/// Node count the base runtimes are calibrated to; pool designs scale
/// linearly around it.
const REF_NODES: f64 = 64.0;

/// Deterministic ground-truth runtime source with drift injection.
#[derive(Debug, Clone)]
pub struct RuntimeOracle {
    drift_at: u64,
    drift_factor: f64,
}

impl RuntimeOracle {
    /// An oracle shifting runtimes by `drift_factor` for every request
    /// ordinal at or past `drift_at`.
    #[must_use]
    pub fn new(drift_at: u64, drift_factor: f64) -> Self {
        assert!(drift_factor > 0.0, "drift factor must be positive");
        Self { drift_at, drift_factor }
    }

    /// Whether requests at `ordinal` see the shifted distribution.
    #[must_use]
    pub fn drifted(&self, ordinal: u64) -> bool {
        ordinal >= self.drift_at
    }

    /// Ground-truth runtimes for one stage of `design` observed by the
    /// job at `ordinal`: base runtime × node-count scale × drift.
    /// Synthesis reads the AIG view's size, the physical stages the
    /// netlist view's.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= 4`.
    #[must_use]
    fn stage_runtimes(&self, design: &ServeDesign, stage: usize, ordinal: u64) -> [f64; 4] {
        assert!(stage < 4, "stage index {stage} out of range");
        let nodes = if stage == 0 {
            design.aig.node_count()
        } else {
            design.netlist.node_count()
        };
        let scale = (nodes as f64 / REF_NODES).max(0.05);
        let drift = if self.drifted(ordinal) { self.drift_factor } else { 1.0 };
        TABLE1_SECS[stage].map(|base| base * scale * drift)
    }

    /// Ground truth for all four stages (`[stage][vcpu]` seconds).
    #[must_use]
    pub fn runtimes(&self, design: &ServeDesign, ordinal: u64) -> [[f64; 4]; 4] {
        [
            self.stage_runtimes(design, 0, ordinal),
            self.stage_runtimes(design, 1, ordinal),
            self.stage_runtimes(design, 2, ordinal),
            self.stage_runtimes(design, 3, ordinal),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_serve::design_pool;

    #[test]
    fn drift_multiplies_runtimes_exactly() {
        let oracle = RuntimeOracle::new(100, 2.2);
        let pool = design_pool();
        let design = &pool[0];
        assert!(!oracle.drifted(99));
        assert!(oracle.drifted(100));
        let before = oracle.runtimes(design, 99);
        let after = oracle.runtimes(design, 100);
        for k in 0..4 {
            for j in 0..4 {
                assert!((after[k][j] - before[k][j] * 2.2).abs() < 1e-9);
                assert!(before[k][j] > 0.0);
            }
        }
    }

    #[test]
    fn larger_designs_run_longer() {
        let oracle = RuntimeOracle::new(u64::MAX, 2.0);
        let pool = design_pool();
        // adder4 vs adder8: same family, strictly more nodes.
        let small = pool.iter().find(|d| d.name == "adder4").expect("adder4");
        let large = pool.iter().find(|d| d.name == "adder8").expect("adder8");
        for k in 0..4 {
            assert!(
                oracle.stage_runtimes(large, k, 0)[0] > oracle.stage_runtimes(small, k, 0)[0],
                "stage {k}"
            );
        }
    }

    #[test]
    fn runtimes_follow_table_one_scaling() {
        let oracle = RuntimeOracle::new(u64::MAX, 2.0);
        let pool = design_pool();
        let d = &pool[0];
        let synth = oracle.stage_runtimes(d, 0, 0);
        let scale = (d.aig.node_count() as f64 / 64.0).max(0.05);
        assert!((synth[0] - 6_100.0 * scale).abs() < 1e-9);
        assert!((synth[3] - 3_352.0 * scale).abs() < 1e-9);
    }
}
