//! Lifecycle controller configuration.

use crate::LifecycleError;

/// Simulated delay between a response and its ground-truth feedback
/// join, µs (the flow "executes" before truth arrives).
pub(crate) const FEEDBACK_DELAY_US: u64 = 25_000;
/// Per-stage replay-buffer capacity (samples).
pub(crate) const REPLAY_CAPACITY: usize = 48;
/// Page-Hinkley slack per observation, log-bias micros (1e6 = one
/// natural-log unit; a drift factor `f` shifts the bias by
/// `ln(f) * 1e6`).
pub(crate) const PH_DELTA_MICROS: i64 = 250_000;
/// Page-Hinkley firing threshold, cumulative log-bias micros.
pub(crate) const PH_LAMBDA_MICROS: i64 = 2_500_000;
/// The canary promotes only if its mean serving latency stays within
/// this budget, µs.
pub const CANARY_LATENCY_BUDGET_US: u64 = 50_000;

/// The lifecycle controller's knobs: the synthetic workload it serves,
/// the drift it injects into ground truth, the detector calibration,
/// the retrainer, and the canary rollout policy (the constants above fix
/// the rest). Defaults are
/// the golden-report parameters: drift injected a third of the way
/// into the stream is detected, retrained away, canaried, and promoted
/// well before the stream ends.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleConfig {
    /// Number of requests in the synthetic stream.
    pub requests: usize,
    /// Mean Poisson arrival rate, requests per second.
    pub rate_per_sec: f64,
    /// Seed for the workload, bootstrap, and every retrain shuffle.
    pub seed: u64,
    /// Threads for stage-model fan-outs (capped at 4, one per stage);
    /// 0 picks the available parallelism. Never changes results.
    pub workers: usize,
    /// Request ordinal at which ground-truth runtimes shift; set at or
    /// past `requests` to disable drift.
    pub drift_at: u64,
    /// Multiplicative runtime shift applied from `drift_at` onward.
    pub drift_factor: f64,
    /// Serving result-cache capacity (entries); 0 disables caching.
    pub cache_capacity: usize,
    /// Simulated service cost of a cache miss (one GCN forward), µs.
    pub per_miss_us: u64,
    /// Simulated service cost of a cache hit, µs.
    pub per_hit_us: u64,
    /// Fine-tune epochs used to bootstrap the first snapshot from the
    /// oracle-labeled design pool; 0 serves the raw seeded model.
    pub bootstrap_epochs: usize,
    /// Fine-tune epochs per shadow retrain; 0 publishes an unchanged
    /// candidate (useful to exercise the rollback path).
    pub retrain_epochs: usize,
    /// Learning rate for bootstrap and retrains.
    pub learning_rate: f64,
    /// Distinct designs each stage buffer must hold after a drift
    /// detection before a retrain launches (the controller additionally
    /// waits until the buffers cover every design seen in traffic —
    /// partial-coverage fine-tunes distort the designs they miss).
    pub min_retrain: usize,
    /// Primary-arm joins the drift detector calibrates its baseline
    /// over before the Page-Hinkley test arms.
    pub calibration: usize,
    /// Route every `canary_every`-th request ordinal to the candidate.
    pub canary_every: u64,
    /// Joins required on *each* arm before guardrails are evaluated.
    pub canary_min: usize,
    /// Promote only if `canary_mape * 100 <= pct * primary_mape`.
    pub promote_max_error_pct: u64,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        Self {
            requests: 320,
            rate_per_sec: 200.0,
            seed: 7,
            workers: 1,
            drift_at: 106,
            drift_factor: 2.2,
            cache_capacity: 32,
            per_miss_us: 1_000,
            per_hit_us: 50,
            bootstrap_epochs: 40,
            retrain_epochs: 60,
            learning_rate: 3e-3,
            min_retrain: 12,
            calibration: 24,
            canary_every: 4,
            canary_min: 8,
            promote_max_error_pct: 90,
        }
    }
}

impl LifecycleConfig {
    /// Check every knob is in range.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError::Config`] naming the offending knob.
    pub fn validate(&self) -> Result<(), LifecycleError> {
        let err = |m: &str| {
            Err(LifecycleError::Config {
                message: m.to_owned(),
            })
        };
        // NaN compares Greater with nothing, so this also rejects NaN.
        let positive =
            |x: f64| x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater) && x.is_finite();
        if self.requests == 0 {
            return err("requests must be positive");
        }
        if !positive(self.rate_per_sec) {
            return err("rate_per_sec must be positive");
        }
        if !positive(self.drift_factor) {
            return err("drift_factor must be positive");
        }
        if !positive(self.learning_rate) {
            return err("learning_rate must be positive");
        }
        if self.canary_every == 0 {
            return err("canary_every must be positive");
        }
        if self.canary_min == 0 {
            return err("canary_min must be positive");
        }
        if self.calibration == 0 {
            return err("calibration must be positive");
        }
        if self.min_retrain == 0 {
            return err("min_retrain must be positive");
        }
        if self.min_retrain > REPLAY_CAPACITY {
            return err("min_retrain must fit the replay capacity");
        }
        if self.promote_max_error_pct == 0 {
            return err("promote_max_error_pct must be positive");
        }
        Ok(())
    }

    /// Resolve the worker knob: explicit values pass through, 0 means
    /// the machine's available parallelism; at most 4 either way.
    #[must_use]
    pub fn resolved_workers(&self) -> usize {
        eda_cloud_trace::par::resolve_workers(self.workers, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        LifecycleConfig::default()
            .validate()
            .expect("defaults are sane");
    }

    #[test]
    fn each_bad_knob_is_named() {
        let cases: Vec<(LifecycleConfig, &str)> = vec![
            (
                LifecycleConfig {
                    requests: 0,
                    ..Default::default()
                },
                "requests",
            ),
            (
                LifecycleConfig {
                    rate_per_sec: 0.0,
                    ..Default::default()
                },
                "rate_per_sec",
            ),
            (
                LifecycleConfig {
                    drift_factor: -1.0,
                    ..Default::default()
                },
                "drift_factor",
            ),
            (
                LifecycleConfig {
                    learning_rate: 0.0,
                    ..Default::default()
                },
                "learning_rate",
            ),
            (
                LifecycleConfig {
                    canary_every: 0,
                    ..Default::default()
                },
                "canary_every",
            ),
            (
                LifecycleConfig {
                    canary_min: 0,
                    ..Default::default()
                },
                "canary_min",
            ),
            (
                LifecycleConfig {
                    calibration: 0,
                    ..Default::default()
                },
                "calibration",
            ),
            (
                LifecycleConfig {
                    min_retrain: 0,
                    ..Default::default()
                },
                "min_retrain",
            ),
            (
                LifecycleConfig {
                    min_retrain: REPLAY_CAPACITY + 1,
                    ..Default::default()
                },
                "replay capacity",
            ),
            (
                LifecycleConfig {
                    promote_max_error_pct: 0,
                    ..Default::default()
                },
                "promote_max_error_pct",
            ),
        ];
        for (config, needle) in cases {
            let e = config.validate().expect_err(needle);
            assert!(
                e.to_string().contains(needle),
                "{e} should mention {needle}"
            );
        }
    }

    #[test]
    fn worker_resolution_caps_at_four() {
        assert_eq!(
            LifecycleConfig {
                workers: 2,
                ..Default::default()
            }
            .resolved_workers(),
            2
        );
        assert_eq!(
            LifecycleConfig {
                workers: 16,
                ..Default::default()
            }
            .resolved_workers(),
            4
        );
        assert!(
            LifecycleConfig {
                workers: 0,
                ..Default::default()
            }
            .resolved_workers()
                >= 1
        );
    }
}
