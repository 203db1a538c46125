//! The warm-pool autoscaler policy.

use eda_cloud_engine::time;
use std::collections::VecDeque;

/// Warm-pool sizing rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Observation window for the recent arrival rate, seconds.
    pub window_secs: f64,
    /// Hard cap on warm (idle, booted) VMs across all instance types.
    pub max_warm: usize,
    /// A warm VM idle longer than this is terminated.
    pub max_idle_secs: f64,
}

impl Default for AutoscaleConfig {
    /// 30-minute rate window, at most 16 warm VMs, 10-minute idle reap.
    fn default() -> Self {
        Self {
            window_secs: 1800.0,
            max_warm: 16,
            max_idle_secs: 600.0,
        }
    }
}

impl AutoscaleConfig {
    /// A disabled pool: every stage boots a cold VM.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            max_warm: 0,
            ..Self::default()
        }
    }
}

/// Tracks recent arrivals and sizes the warm pool to them: the target
/// is one warm VM per arrival observed in the window, capped at
/// `max_warm`. Purely a function of the arrival sequence, so it is
/// deterministic.
#[derive(Debug, Clone)]
pub(crate) struct Autoscaler {
    window_us: u64,
    max_warm: usize,
    arrivals: VecDeque<u64>,
}

impl Autoscaler {
    pub(crate) fn new(config: &AutoscaleConfig) -> Self {
        Self {
            // Saturating by design: the window is a smoothing horizon,
            // not an event time, so a NaN/negative config degrades to 0
            // and an absurdly large one clamps instead of erroring.
            window_us: time::saturating_secs_to_us(config.window_secs.max(0.0)),
            max_warm: config.max_warm,
            arrivals: VecDeque::new(),
        }
    }

    pub(crate) fn record_arrival(&mut self, now_us: u64) {
        self.arrivals.push_back(now_us);
    }

    /// Warm VMs the pool should hold at `now_us`.
    pub(crate) fn target(&mut self, now_us: u64) -> usize {
        let horizon = now_us.saturating_sub(self.window_us);
        while self.arrivals.front().is_some_and(|&t| t < horizon) {
            self.arrivals.pop_front();
        }
        self.arrivals.len().min(self.max_warm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaler(window_secs: f64, max_warm: usize) -> Autoscaler {
        Autoscaler::new(&AutoscaleConfig {
            window_secs,
            max_warm,
            max_idle_secs: 600.0,
        })
    }

    #[test]
    fn target_counts_recent_arrivals_only() {
        let mut a = scaler(100.0, 16);
        a.record_arrival(0);
        a.record_arrival(50_000_000);
        a.record_arrival(90_000_000);
        assert_eq!(a.target(90_000_000), 3);
        // 0 falls out of the 100 s window at t = 101 s.
        assert_eq!(a.target(101_000_000), 2);
        assert_eq!(a.target(1_000_000_000), 0);
    }

    #[test]
    fn target_respects_the_cap() {
        let mut a = scaler(1000.0, 2);
        for k in 0..10 {
            a.record_arrival(k * 1_000_000);
        }
        assert_eq!(a.target(10_000_000), 2);
    }

    #[test]
    fn disabled_config_targets_zero() {
        let mut a = Autoscaler::new(&AutoscaleConfig::disabled());
        a.record_arrival(5);
        assert_eq!(a.target(5), 0);
    }
}
