//! Out-of-distribution gate for ingested designs.
//!
//! The serving GCN was trained on the synthetic corpus; an uploaded
//! design far outside that distribution gets predictions the model was
//! never calibrated for. The gate scores each ingested graph against a
//! [`FeatureProfile`] of the training corpus (integer-micros mean
//! absolute deviation, fully deterministic) and flags — but does not
//! reject — designs beyond a configured distance. Flagged counts
//! surface in `ServeReport` so operators can see when the upload mix
//! drifts away from what the predictor knows.

use eda_cloud_gcn::{FeatureProfile, GraphSample};

/// Distance threshold semantics: `1_000_000` micros is one corpus
/// mean-absolute-deviation averaged across features.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OodGate {
    profile: FeatureProfile,
    threshold_micros: u64,
}

impl OodGate {
    /// Wrap a corpus profile with a flagging threshold.
    #[must_use]
    pub fn new(profile: FeatureProfile, threshold_micros: u64) -> Self {
        Self { profile, threshold_micros }
    }

    /// Score a graph: `(distance in micros, flagged)`.
    #[must_use]
    pub fn score(&self, sample: &GraphSample) -> (u64, bool) {
        let d = self.profile.distance_micros(sample);
        (d, d > self.threshold_micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_netlist::{generators, DesignGraph};

    fn sample(family: &str, size: u32) -> GraphSample {
        let aig = generators::build_family(family, size).expect("known family");
        GraphSample::new(&DesignGraph::from_aig(&aig), [1.0; 4])
    }

    #[test]
    fn corpus_members_score_below_far_outliers() {
        let corpus: Vec<GraphSample> =
            (2..8).map(|s| sample("adder", s)).collect();
        let profile = FeatureProfile::from_samples(&corpus);
        let gate = OodGate::new(profile, 2_000_000);
        let (near, near_flag) = gate.score(&sample("adder", 5));
        // A much larger design from a different family sits further out.
        let (far, _) = gate.score(&sample("multiplier", 24));
        assert!(near < far, "near={near} far={far}");
        assert!(!near_flag, "in-corpus design flagged at {near}");
    }

    #[test]
    fn scoring_is_deterministic() {
        let corpus: Vec<GraphSample> = (2..6).map(|s| sample("parity", s)).collect();
        let gate = OodGate::new(FeatureProfile::from_samples(&corpus), 1_000_000);
        let probe = sample("adder", 6);
        assert_eq!(gate.score(&probe), gate.score(&probe));
    }
}
