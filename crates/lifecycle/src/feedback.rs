//! Feedback joins and the bounded replay buffer.
//!
//! When a served job "executes", its ground-truth runtimes come back
//! and are joined with the predictions that were served — the raw
//! material for both drift detection (prediction error over time) and
//! retraining (relabeled graph samples in a bounded replay buffer).

use eda_cloud_gcn::GraphSample;
use eda_cloud_serve::ServeDesign;
use std::collections::VecDeque;
use std::sync::Arc;

/// Which model arm served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// The primary (baseline) snapshot.
    Primary,
    /// The canary candidate.
    Canary,
}

/// One served prediction joined with its observed ground truth.
#[derive(Debug, Clone)]
pub struct FeedbackEvent {
    /// Request ordinal this feedback belongs to.
    pub ordinal: u64,
    /// Snapshot version that served the request.
    pub version: u32,
    /// Arm that served the request.
    pub arm: Arm,
    /// The design that was predicted.
    pub design: Arc<ServeDesign>,
    /// Served per-stage predictions, `[stage][vcpu]` seconds.
    pub predicted: [[f64; 4]; 4],
    /// Observed per-stage ground truth, `[stage][vcpu]` seconds.
    pub actual: [[f64; 4]; 4],
    /// Serving latency of the request, µs.
    pub latency_us: u64,
}

/// The largest error [`ape_micros`] reports: 10^12 micros, a prediction
/// 10^6 times its ground truth. A diverged retrain predicts runtimes
/// whose error does not fit a `u64`; capped, the sums the controller,
/// the report and the rollout guardrails keep over a run cannot
/// overflow, and a candidate this far off still rolls back.
const APE_CAP_MICROS: f64 = 1e12;

/// Absolute percentage error between a predicted and an actual runtime
/// vector, averaged over the four vCPU points and fixed-pointed to
/// micros (1_000_000 = 100%), capped at 10^12 micros (10^6 × the
/// truth). All downstream drift statistics stay in this integer
/// domain, so accumulation order can never introduce floating-point
/// divergence.
#[must_use]
pub fn ape_micros(predicted: &[f64; 4], actual: &[f64; 4]) -> u64 {
    let mut sum = 0.0;
    for j in 0..4 {
        debug_assert!(actual[j] > 0.0, "ground truth must be positive");
        sum += (predicted[j] - actual[j]).abs() / actual[j];
    }
    (sum / 4.0 * 1_000_000.0).round().min(APE_CAP_MICROS) as u64
}

/// Signed log-space prediction bias, averaged over the four vCPU
/// points and fixed-pointed to micros: positive means the model
/// under-predicts. This is the drift detector's observable — a
/// multiplicative runtime shift by factor `f` moves it by exactly
/// `ln(f)` for *every* design and stage, so drift separates cleanly
/// from the per-design residual noise that dominates percentage error
/// on a partially-fit model.
#[must_use]
pub fn log_bias_micros(predicted: &[f64; 4], actual: &[f64; 4]) -> i64 {
    let mut sum = 0.0;
    for j in 0..4 {
        debug_assert!(actual[j] > 0.0 && predicted[j] > 0.0, "runtimes must be positive");
        sum += actual[j].ln() - predicted[j].ln();
    }
    (sum / 4.0 * 1_000_000.0).round() as i64
}

/// Bounded FIFO buffer of relabeled training samples for one stage.
/// When full, the oldest sample falls out — the buffer always holds
/// the freshest window of the observed distribution. Each sample is
/// keyed by design fingerprint: a push *replaces* an earlier sample
/// with the same key, so the buffer holds at most one (the freshest)
/// sample per design — fine-tuning on a lopsided,
/// duplicate-heavy window distorts the model on under-represented
/// designs, so replay coverage matters more than replay volume.
#[derive(Debug, Clone, Default)]
pub struct ReplayBuffer {
    capacity: usize,
    samples: VecDeque<(u64, GraphSample)>,
}

impl ReplayBuffer {
    /// An empty buffer holding at most `capacity` samples.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self { capacity, samples: VecDeque::with_capacity(capacity) }
    }

    /// Append a sample keyed by design fingerprint, replacing any
    /// earlier sample with the same key (the replacement moves to the
    /// freshest slot). Evicts the oldest entry if the buffer is full.
    pub fn push_keyed(&mut self, key: u64, sample: GraphSample) {
        if self.capacity == 0 {
            return;
        }
        self.samples.retain(|(k, _)| *k != key);
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back((key, sample));
    }

    /// Whether a sample for this design is currently held.
    #[must_use]
    pub fn contains_key(&self, key: u64) -> bool {
        self.samples.iter().any(|(k, _)| *k == key)
    }

    /// Samples in canonical order, by ascending key. Fine-tuning is
    /// order-sensitive (the epoch shuffle maps positions, not
    /// contents), so training from the canonical order makes the
    /// retrained model a function of the sample *set* rather than of
    /// the arrival order traffic happened to produce.
    #[must_use]
    pub fn samples_canonical(&self) -> Vec<&GraphSample> {
        let mut entries: Vec<&(u64, GraphSample)> = self.samples.iter().collect();
        entries.sort_by_key(|(k, _)| *k);
        entries.iter().map(|(_, s)| s).collect()
    }

    /// Number of samples currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the buffer holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Drop every sample (capacity unchanged).
    pub fn clear(&mut self) {
        self.samples.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_serve::design_pool;

    #[test]
    fn ape_micros_is_exact_on_round_numbers() {
        assert_eq!(ape_micros(&[1.0; 4], &[1.0; 4]), 0);
        assert_eq!(ape_micros(&[2.0; 4], &[1.0; 4]), 1_000_000);
        assert_eq!(ape_micros(&[1.5, 1.0, 1.0, 1.0], &[1.0; 4]), 125_000);
        // Symmetric under sign of the error.
        assert_eq!(ape_micros(&[0.5; 4], &[1.0; 4]), 500_000);
        // A diverged prediction saturates at the cap, not at `u64::MAX`.
        assert_eq!(ape_micros(&[700f64.exp(); 4], &[1.0; 4]), 1_000_000_000_000);
        assert_eq!(ape_micros(&[f64::INFINITY; 4], &[1.0; 4]), 1_000_000_000_000);
    }

    #[test]
    fn log_bias_reflects_multiplicative_shifts_exactly() {
        assert_eq!(log_bias_micros(&[1.0; 4], &[1.0; 4]), 0);
        // A uniform 2.2x runtime shift moves the bias by ln(2.2) for
        // any prediction vector.
        let p = [3.0, 2.0, 1.5, 1.2];
        let a = [4.0, 2.5, 1.4, 1.1];
        let shifted = a.map(|v| v * 2.2);
        let jump = log_bias_micros(&p, &shifted) - log_bias_micros(&p, &a);
        let expected = (2.2f64.ln() * 1e6).round() as i64;
        assert!((jump - expected).abs() <= 1, "jump {jump} vs ln(2.2) {expected}");
        // Over-prediction is negative.
        assert!(log_bias_micros(&[10.0; 4], &[1.0; 4]) < 0);
    }

    #[test]
    fn buffer_evicts_oldest_when_full() {
        let pool = design_pool();
        let mut buffer = ReplayBuffer::new(3);
        for (i, design) in pool.iter().take(5).enumerate() {
            buffer.push_keyed(design.fingerprint, design.netlist.with_targets([(i + 1) as f64; 4]));
        }
        assert_eq!(buffer.len(), 3);
        let held: Vec<f64> = buffer.samples.iter().map(|(_, s)| s.targets_secs[0]).collect();
        assert_eq!(held, vec![3.0, 4.0, 5.0], "oldest two evicted");
        buffer.clear();
        assert!(buffer.is_empty());
    }

    #[test]
    fn keyed_pushes_replace_stale_samples_per_design() {
        let pool = design_pool();
        let mut buffer = ReplayBuffer::new(4);
        buffer.push_keyed(pool[0].fingerprint, pool[0].netlist.with_targets([1.0; 4]));
        buffer.push_keyed(pool[1].fingerprint, pool[1].netlist.with_targets([2.0; 4]));
        // Fresher truth for design 0 replaces the stale sample and
        // moves it to the freshest slot.
        buffer.push_keyed(pool[0].fingerprint, pool[0].netlist.with_targets([3.0; 4]));
        assert_eq!(buffer.len(), 2, "one sample per design");
        assert!(buffer.contains_key(pool[0].fingerprint));
        assert!(!buffer.contains_key(pool[2].fingerprint));
        let held: Vec<f64> = buffer.samples.iter().map(|(_, s)| s.targets_secs[0]).collect();
        assert_eq!(held, vec![2.0, 3.0], "replacement is freshest");
    }

    #[test]
    fn canonical_order_is_by_key_not_by_arrival() {
        let pool = design_pool();
        let mut buffer = ReplayBuffer::new(3);
        for (key, target) in [(30, 1.0), (10, 2.0), (20, 3.0)] {
            buffer.push_keyed(key, pool[0].netlist.with_targets([target; 4]));
        }
        let held: Vec<f64> = buffer.samples_canonical().iter().map(|s| s.targets_secs[0]).collect();
        assert_eq!(held, vec![2.0, 3.0, 1.0]);
    }

    #[test]
    fn zero_capacity_buffer_stays_empty() {
        let pool = design_pool();
        let mut buffer = ReplayBuffer::new(0);
        buffer.push_keyed(pool[0].fingerprint, pool[0].netlist.clone());
        assert!(buffer.is_empty());
    }
}
