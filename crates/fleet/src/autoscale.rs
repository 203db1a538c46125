//! The warm-pool autoscaler policy.

use std::collections::VecDeque;

/// Observation window for the recent arrival rate: 30 minutes, µs.
const WINDOW_US: u64 = 1_800_000_000;

/// Hard cap on warm (idle, booted) VMs across all instance types.
pub(crate) const MAX_WARM: usize = 16;

/// A warm VM idle longer than this is terminated: 10 minutes, µs.
pub(crate) const MAX_IDLE_US: u64 = 600_000_000;

/// Tracks recent arrivals and sizes the warm pool to them: the target
/// is one warm VM per arrival observed in the window, capped at
/// [`MAX_WARM`]. Purely a function of the arrival sequence, so it is
/// deterministic.
#[derive(Debug, Clone, Default)]
pub(crate) struct Autoscaler {
    arrivals: VecDeque<u64>,
}

impl Autoscaler {
    pub(crate) fn record_arrival(&mut self, now_us: u64) {
        self.arrivals.push_back(now_us);
    }

    /// Warm VMs the pool should hold at `now_us`.
    pub(crate) fn target(&mut self, now_us: u64) -> usize {
        let horizon = now_us.saturating_sub(WINDOW_US);
        while self.arrivals.front().is_some_and(|&t| t < horizon) {
            self.arrivals.pop_front();
        }
        self.arrivals.len().min(MAX_WARM)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_counts_recent_arrivals_only() {
        let mut a = Autoscaler::default();
        a.record_arrival(0);
        a.record_arrival(1_000_000_000);
        a.record_arrival(1_700_000_000);
        assert_eq!(a.target(1_700_000_000), 3);
        // 0 falls out of the 1800 s window at t = 1801 s.
        assert_eq!(a.target(1_801_000_000), 2);
        assert_eq!(a.target(10_000_000_000), 0);
    }

    #[test]
    fn target_respects_the_cap() {
        let mut a = Autoscaler::default();
        for k in 0..40 {
            a.record_arrival(k * 1_000_000);
        }
        assert_eq!(a.target(40_000_000), MAX_WARM);
    }
}
