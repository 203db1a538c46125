//! Windowed error statistics + Page-Hinkley drift test, in integers.
//!
//! The detector watches one stage's signed log-space prediction bias
//! (micros; see [`crate::log_bias_micros`]). Raw bias varies wildly
//! *across* designs (each design carries its own residual fit error),
//! so a [`DesignBaseline`] first profiles the bias per design
//! fingerprint and reports only the *deviation* from each design's own
//! baseline — under a frozen model that deviation is zero until the
//! runtime distribution actually moves, and a multiplicative shift by
//! `f` moves it by `ln(f)` for every design at once.
//!
//! The [`DriftDetector`] then calibrates a baseline mean over a fixed
//! window and runs a two-sided Page-Hinkley cumulative test on the
//! deviations: the cumulative sum's excursion past `lambda` — upward
//! (runtimes grew; the model under-predicts) or downward (runtimes
//! shrank) — is the drift signal. All state is `i64` micros — no
//! floating point anywhere — so the detector is trivially byte-stable
//! across platforms and worker counts.

use std::collections::BTreeMap;

/// Per-design bias profile: remembers the first bias observed for each
/// design fingerprint and reports subsequent observations as
/// deviations from that baseline. The first sighting of a design
/// yields no deviation (there is nothing to compare against yet).
#[derive(Debug, Clone, Default)]
pub struct DesignBaseline {
    profile: BTreeMap<u64, i64>,
}

impl DesignBaseline {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one observation: returns `Some(bias - baseline)` for a
    /// design seen before, or `None` on first sight (recording the
    /// bias as that design's baseline).
    pub fn deviation(&mut self, fingerprint: u64, bias_micros: i64) -> Option<i64> {
        match self.profile.get(&fingerprint) {
            Some(baseline) => Some(bias_micros - baseline),
            None => {
                self.profile.insert(fingerprint, bias_micros);
                None
            }
        }
    }

    /// Number of designs profiled so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.profile.len()
    }

    /// Whether no design has been profiled yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.profile.is_empty()
    }

    /// Forget every profiled design — called when the model under the
    /// profile changes (its per-design biases change with it).
    pub fn clear(&mut self) {
        self.profile.clear();
    }
}

/// What one observation told the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftSignal {
    /// Still filling the calibration window.
    Calibrating,
    /// Calibrated; no drift detected.
    Stable,
    /// The Page-Hinkley statistic crossed `lambda` on this observation
    /// (reported once; the detector latches until reset).
    Drift,
}

/// Per-stage two-sided Page-Hinkley drift detector over integer
/// log-bias micros.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    calibration: usize,
    delta: i64,
    lambda: i64,
    window: Vec<i64>,
    baseline: Option<i64>,
    ph_up: i64,
    min_up: i64,
    ph_down: i64,
    max_down: i64,
    fired: bool,
    observations: u64,
}

impl DriftDetector {
    /// A detector calibrating over `calibration` observations, with
    /// Page-Hinkley slack `delta` and threshold `lambda` (both micros).
    ///
    /// # Panics
    ///
    /// Panics if `calibration == 0`, `delta < 0`, or `lambda <= 0`.
    #[must_use]
    pub fn new(calibration: usize, delta: i64, lambda: i64) -> Self {
        assert!(calibration > 0, "calibration window must be positive");
        assert!(delta >= 0, "delta must be non-negative");
        assert!(lambda > 0, "lambda must be positive");
        Self {
            calibration,
            delta,
            lambda,
            window: Vec::with_capacity(calibration),
            baseline: None,
            ph_up: 0,
            min_up: 0,
            ph_down: 0,
            max_down: 0,
            fired: false,
            observations: 0,
        }
    }

    /// Feed one observation (signed log-bias micros). Returns what it
    /// signalled; [`DriftSignal::Drift`] is returned exactly once per
    /// detection — afterwards the detector stays latched (reporting
    /// `Stable`) until [`DriftDetector::reset`].
    pub fn observe(&mut self, bias_micros: i64) -> DriftSignal {
        self.observations += 1;
        if self.fired {
            return DriftSignal::Stable;
        }
        let Some(baseline) = self.baseline else {
            self.window.push(bias_micros);
            if self.window.len() == self.calibration {
                let sum: i64 = self.window.iter().sum();
                self.baseline = Some(sum / self.window.len() as i64);
                self.window.clear();
            }
            return DriftSignal::Calibrating;
        };
        let deviation = bias_micros - baseline;
        self.ph_up += deviation - self.delta;
        self.min_up = self.min_up.min(self.ph_up);
        self.ph_down += deviation + self.delta;
        self.max_down = self.max_down.max(self.ph_down);
        if self.ph_up - self.min_up > self.lambda || self.max_down - self.ph_down > self.lambda {
            self.fired = true;
            return DriftSignal::Drift;
        }
        DriftSignal::Stable
    }

    /// The calibrated baseline mean bias (micros), once known.
    #[must_use]
    pub fn baseline_micros(&self) -> Option<i64> {
        self.baseline
    }

    /// Forget everything and recalibrate from scratch — called after a
    /// rollout changes the model under the detector.
    pub fn reset(&mut self) {
        self.window.clear();
        self.baseline = None;
        self.ph_up = 0;
        self.min_up = 0;
        self.ph_down = 0;
        self.max_down = 0;
        self.fired = false;
        self.observations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> DriftDetector {
        DriftDetector::new(8, 50_000, 400_000)
    }

    #[test]
    fn calibrates_then_stays_stable_on_flat_bias() {
        let mut d = detector();
        for i in 0..8 {
            assert_eq!(d.observe(200_000 + (i % 3) * 10_000), DriftSignal::Calibrating);
        }
        assert_eq!(d.baseline_micros(), Some(208_750));
        for i in 0..200 {
            assert_eq!(d.observe(200_000 + (i % 3) * 10_000), DriftSignal::Stable, "obs {i}");
        }
        assert!(!d.fired);
    }

    #[test]
    fn fires_once_on_sustained_upward_shift_and_latches() {
        let mut d = detector();
        for _ in 0..8 {
            d.observe(200_000);
        }
        // Bias jumps by +500_000 (runtimes grew): each observation adds
        // 500_000 - delta = 450_000 excess; fires crossing lambda.
        let mut fires = 0;
        for _ in 0..10 {
            if d.observe(700_000) == DriftSignal::Drift {
                fires += 1;
            }
        }
        assert_eq!(fires, 1, "drift reported exactly once");
        assert!(d.fired);
        d.reset();
        assert!(!d.fired);
        assert_eq!(d.baseline_micros(), None);
        assert_eq!(d.observations, 0);
    }

    #[test]
    fn fires_on_downward_shift_too() {
        let mut d = detector();
        for _ in 0..8 {
            d.observe(200_000);
        }
        // Runtimes shrank: bias drops by 500_000.
        let mut fired = false;
        for _ in 0..10 {
            if d.observe(-300_000) == DriftSignal::Drift {
                fired = true;
            }
        }
        assert!(fired, "two-sided test must catch speedups");
    }

    #[test]
    fn tolerates_transient_spikes() {
        let mut d = detector();
        for _ in 0..8 {
            d.observe(200_000);
        }
        // One spike worth 300_000 excess, then back to baseline: the
        // statistic drains by delta per quiet observation, so no fire.
        assert_eq!(d.observe(550_000), DriftSignal::Stable);
        for _ in 0..50 {
            assert_eq!(d.observe(200_000), DriftSignal::Stable);
        }
        assert!(!d.fired);
    }

    #[test]
    fn design_baseline_zeroes_out_constant_per_design_bias() {
        let mut profile = DesignBaseline::new();
        // Two designs with wildly different constant biases.
        assert_eq!(profile.deviation(0xAA, 900_000), None, "first sight");
        assert_eq!(profile.deviation(0xBB, -1_200_000), None, "first sight");
        assert_eq!(profile.len(), 2);
        for _ in 0..5 {
            assert_eq!(profile.deviation(0xAA, 900_000), Some(0));
            assert_eq!(profile.deviation(0xBB, -1_200_000), Some(0));
        }
        // A uniform multiplicative drift shifts every design by the
        // same amount — exactly what the deviation exposes.
        assert_eq!(profile.deviation(0xAA, 900_000 + 788_457), Some(788_457));
        assert_eq!(profile.deviation(0xBB, -1_200_000 + 788_457), Some(788_457));
        profile.clear();
        assert!(profile.is_empty());
        assert_eq!(profile.deviation(0xAA, 0), None, "cleared profiles re-learn");
    }

    #[test]
    fn integer_state_is_replayable() {
        // The same observation sequence must walk the same state.
        let seq: Vec<i64> = (0..60).map(|i| 180_000 + (i * 37_811) % 90_000).collect();
        let run = |seq: &[i64]| {
            let mut d = detector();
            seq.iter().map(|&x| d.observe(x)).collect::<Vec<_>>()
        };
        assert_eq!(run(&seq), run(&seq));
    }
}
