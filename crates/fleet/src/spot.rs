//! Spot-interruption fault injection.

use eda_cloud_cloud::SpotMarket;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How the fleet buys spot capacity and reacts to reclaims.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotPolicy {
    /// The spot market (discount + hourly interruption probability).
    pub market: SpotMarket,
    /// Attempts a stage makes on spot capacity before falling back to
    /// on-demand (stage-boundary checkpointing: only the reclaimed
    /// stage restarts, completed stages keep their results).
    pub max_spot_attempts: u32,
    /// Base retry delay after a reclaim; doubles per failed attempt.
    pub backoff_base_secs: f64,
}

impl SpotPolicy {
    /// Typical conditions: the [`SpotMarket::typical`] market, three
    /// spot attempts, and a 60-second base backoff.
    #[must_use]
    pub fn typical() -> Self {
        Self {
            market: SpotMarket::typical(),
            max_spot_attempts: 3,
            backoff_base_secs: 60.0,
        }
    }

    /// Retry delay before attempt `attempt + 1` after `attempt` failed
    /// ones: exponential backoff capped at 16x the base.
    #[must_use]
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(4);
        self.backoff_base_secs * f64::from(1u32 << exp)
    }
}

/// The seeded fault injector: decides, at stage start, whether the spot
/// market reclaims the VM during the run and at what point. Draw order
/// follows simulation event order, so a fixed seed replays the exact
/// same fault schedule.
#[derive(Debug, Clone)]
pub(crate) struct SpotInjector {
    rng: ChaCha8Rng,
}

impl SpotInjector {
    const SALT: u64 = 0x5907_FA17_C3A1_55ED;

    pub(crate) fn new(seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed ^ Self::SALT),
        }
    }

    /// `Some(fraction)` when a run of `runtime_secs` is reclaimed after
    /// `fraction` of its runtime (drawn uniformly away from the exact
    /// endpoints); `None` when it completes uninterrupted.
    pub(crate) fn reclaim_fraction(
        &mut self,
        runtime_secs: f64,
        market: &SpotMarket,
    ) -> Option<f64> {
        let p_complete = market.completion_probability(runtime_secs);
        let u: f64 = self.rng.gen_range(0.0..1.0);
        if u < p_complete {
            None
        } else {
            Some(self.rng.gen_range(0.05..0.95))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_interruption_market_never_reclaims() {
        let market = SpotMarket { price_fraction: 0.3, interruption_per_hour: 0.0 };
        let mut inj = SpotInjector::new(1);
        for _ in 0..200 {
            assert_eq!(inj.reclaim_fraction(36_000.0, &market), None);
        }
    }

    #[test]
    fn hostile_market_reclaims_long_runs() {
        let market = SpotMarket { price_fraction: 0.3, interruption_per_hour: 0.99 };
        let mut inj = SpotInjector::new(1);
        let reclaims = (0..200)
            .filter_map(|_| inj.reclaim_fraction(10.0 * 3600.0, &market))
            .collect::<Vec<_>>();
        assert!(reclaims.len() > 190, "{} reclaims", reclaims.len());
        assert!(reclaims.iter().all(|f| (0.05..0.95).contains(f)));
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let market = SpotMarket::typical();
        let mut a = SpotInjector::new(9);
        let mut b = SpotInjector::new(9);
        for _ in 0..100 {
            assert_eq!(
                a.reclaim_fraction(7200.0, &market),
                b.reclaim_fraction(7200.0, &market)
            );
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = SpotPolicy::typical();
        assert_eq!(policy.backoff_secs(1), 60.0);
        assert_eq!(policy.backoff_secs(2), 120.0);
        assert_eq!(policy.backoff_secs(3), 240.0);
        assert_eq!(policy.backoff_secs(10), 960.0, "capped at 16x");
    }
}
