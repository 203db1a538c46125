//! Training-corpus feature profile for out-of-distribution gating.
//!
//! The serving tier's GCN was trained on a known corpus; predictions on
//! designs far outside that corpus's feature distribution are exactly
//! where LOSTIN-style models degrade. A [`FeatureProfile`] summarizes
//! the corpus as a per-feature mean and scale of graph-level feature
//! vectors, both held in **integer micros** so the distance score is a
//! pure function of the inputs — no float-accumulation-order
//! dependence, byte-identical across platforms and worker counts.

use crate::GraphSample;

const MICROS: i64 = 1_000_000;

/// Per-feature integer-micros summary of a training corpus.
///
/// `mean` is the average graph-level feature vector; `scale` is the
/// mean absolute deviation around it (floored at 1 micro so division
/// is always defined). Distances are normalized per feature and
/// averaged, so a score of `1_000_000` means "one corpus deviation
/// away on average".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureProfile {
    dim: usize,
    samples: usize,
    mean_micros: Vec<i64>,
    scale_micros: Vec<i64>,
}

impl FeatureProfile {
    /// Summarize a corpus of graph samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or the samples disagree on feature
    /// dimension.
    #[must_use]
    pub fn from_samples<'a>(samples: impl IntoIterator<Item = &'a GraphSample>) -> Self {
        let vectors: Vec<Vec<i64>> = samples.into_iter().map(graph_vector_micros).collect();
        assert!(!vectors.is_empty(), "profile needs at least one sample");
        let dim = vectors[0].len();
        assert!(
            vectors.iter().all(|v| v.len() == dim),
            "samples must share a feature dimension"
        );
        let n = vectors.len() as i64;
        let mean_micros: Vec<i64> = (0..dim)
            .map(|f| vectors.iter().map(|v| v[f]).sum::<i64>().div_euclid(n))
            .collect();
        let scale_micros: Vec<i64> = (0..dim)
            .map(|f| {
                let mad = vectors
                    .iter()
                    .map(|v| (v[f] - mean_micros[f]).abs())
                    .sum::<i64>()
                    .div_euclid(n);
                mad.max(1)
            })
            .collect();
        Self { dim, samples: vectors.len(), mean_micros, scale_micros }
    }

    /// Distance of one graph from the corpus: per-feature normalized
    /// absolute deviation from the mean, averaged over features, in
    /// micros (`1_000_000` = one corpus deviation).
    ///
    /// # Panics
    ///
    /// Panics if the sample's feature dimension differs from the
    /// profile's.
    #[must_use]
    pub fn distance_micros(&self, sample: &GraphSample) -> u64 {
        let v = graph_vector_micros(sample);
        assert_eq!(v.len(), self.dim, "feature dimension mismatch");
        let total: i128 = (0..self.dim)
            .map(|f| {
                let dev = i128::from((v[f] - self.mean_micros[f]).abs());
                dev * i128::from(MICROS) / i128::from(self.scale_micros[f])
            })
            .sum();
        u64::try_from(total / self.dim as i128).unwrap_or(u64::MAX)
    }
}

/// A graph's feature vector: per-feature mean over nodes, in integer
/// micros. Each node feature is rounded to micros before summing, so
/// the vector is independent of accumulation order.
fn graph_vector_micros(sample: &GraphSample) -> Vec<i64> {
    let rows = sample.features.rows().max(1) as i64;
    let cols = sample.features.cols();
    let mut sums = vec![0i64; cols];
    for r in 0..sample.features.rows() {
        for (f, slot) in sums.iter_mut().enumerate() {
            *slot += to_micros(sample.features.get(r, f));
        }
    }
    sums.iter_mut().for_each(|s| *s = s.div_euclid(rows));
    sums
}

fn to_micros(v: f64) -> i64 {
    let clamped = v.clamp(-1.0e12, 1.0e12);
    (clamped * MICROS as f64).round() as i64
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
    fn corpus_members_score_near_and_outliers_far() {
        let corpus: Vec<GraphSample> = ["adder", "parity", "comparator"]
            .iter()
            .flat_map(|f| [4u32, 6, 8].map(|s| sample(f, s)))
            .collect();
        let profile = FeatureProfile::from_samples(corpus.iter());
        assert_eq!(profile.samples, 9);
        let in_dist = profile.distance_micros(&corpus[0]);
        // A much larger design of an unseen family sits farther out.
        let outlier = sample("hamming", 16);
        let far = profile.distance_micros(&outlier);
        assert!(far > in_dist, "outlier {far} vs corpus member {in_dist}");
    }

    #[test]
    fn distance_is_deterministic() {
        let corpus: Vec<GraphSample> = [4u32, 6, 8].map(|s| sample("adder", s)).into();
        let profile = FeatureProfile::from_samples(corpus.iter());
        let probe = sample("max", 6);
        let d1 = profile.distance_micros(&probe);
        let profile2 = FeatureProfile::from_samples(corpus.iter());
        assert_eq!(profile, profile2);
        assert_eq!(d1, profile2.distance_micros(&probe));
    }
}
