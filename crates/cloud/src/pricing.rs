//! Billing rules.

use crate::InstanceType;

/// Billing model: per-second metering with a minimum billed duration,
/// matching AWS Linux on-demand billing (and the paper's assumption that
/// "cloud machines are billed per second (no fractions)", which lets the
/// knapsack round runtimes to whole seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pricing {
    /// Minimum billed seconds per VM launch.
    pub min_billed_secs: u64,
}

impl Pricing {
    /// Per-second billing with AWS's 60-second minimum.
    #[must_use]
    pub fn per_second() -> Self {
        Self {
            min_billed_secs: 60,
        }
    }

    /// Seconds actually billed for a runtime (rounded up to whole
    /// seconds, floored at the minimum).
    #[must_use]
    pub fn billed_secs(&self, runtime_secs: f64) -> u64 {
        (runtime_secs.max(0.0).ceil() as u64).max(self.min_billed_secs)
    }

    /// Cost in USD of running `instance` for `runtime_secs`.
    #[must_use]
    pub fn cost_usd(&self, instance: &InstanceType, runtime_secs: f64) -> f64 {
        self.billed_secs(runtime_secs) as f64 / 3600.0 * instance.price_per_hour
    }
}

impl Default for Pricing {
    fn default() -> Self {
        Self::per_second()
    }
}

/// Spot-market pricing extension: a discounted rate with an
/// interruption probability per hour. Not part of the paper's
/// evaluation (it prices on-demand machines), but the natural follow-on
/// an EDA team asks for; [`Pricing::expected_spot_multiplier`] turns an
/// on-demand cost into the expected spot cost including re-run work
/// after interruptions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotMarket {
    /// Fraction of the on-demand price (e.g. 0.3 = 70% cheaper).
    pub price_fraction: f64,
    /// Probability a running instance is reclaimed within one hour.
    pub interruption_per_hour: f64,
}

impl SpotMarket {
    /// Typical spot conditions: ~70% discount, 5% hourly interruption.
    #[must_use]
    pub fn typical() -> Self {
        Self {
            price_fraction: 0.3,
            interruption_per_hour: 0.05,
        }
    }

    /// Probability the job of the given length completes uninterrupted.
    #[must_use]
    pub fn completion_probability(&self, runtime_secs: f64) -> f64 {
        let hours = runtime_secs.max(0.0) / 3600.0;
        (1.0 - self.interruption_per_hour).powf(hours)
    }
}

impl Pricing {
    /// Ratio of the expected spot cost to the on-demand cost for a job of
    /// the given length. Instance-independent (hourly rates cancel), so
    /// optimizers that already priced their choices on demand — e.g. the
    /// MCKP choices in `eda-cloud-mckp` — can convert by multiplication
    /// without re-deriving the instance. Under 1.0 the spot discount
    /// wins; above it interruption re-runs dominate. Each attempt pays
    /// for the time until interruption (approximated as half the
    /// runtime) and the expected number of attempts is `1 / p_complete`.
    ///
    /// # Examples
    ///
    /// ```
    /// use eda_cloud_cloud::{Catalog, SpotMarket};
    ///
    /// let catalog = Catalog::aws_like();
    /// let m5 = catalog.instance("m5.large")?;
    /// let pricing = catalog.pricing();
    /// let on_demand = pricing.cost_usd(m5, 3600.0);
    /// let expected = on_demand * pricing.expected_spot_multiplier(3600.0, &SpotMarket::typical());
    /// assert!(expected < on_demand, "short jobs: spot wins");
    /// # Ok::<(), eda_cloud_cloud::CloudError>(())
    /// ```
    #[must_use]
    pub fn expected_spot_multiplier(&self, runtime_secs: f64, market: &SpotMarket) -> f64 {
        let p = market.completion_probability(runtime_secs).max(1e-9);
        let failed_attempts = (1.0 - p) / p;
        let full = self.billed_secs(runtime_secs) as f64;
        let half = self.billed_secs(runtime_secs / 2.0) as f64;
        market.price_fraction * (full + half * failed_attempts) / full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Catalog;

    #[test]
    fn rounds_up_to_whole_seconds() {
        let p = Pricing::per_second();
        assert_eq!(p.billed_secs(100.2), 101);
        assert_eq!(p.billed_secs(100.0), 100);
    }

    #[test]
    fn minimum_applies() {
        let p = Pricing::per_second();
        assert_eq!(p.billed_secs(3.0), 60);
        assert_eq!(p.billed_secs(0.0), 60);
        assert_eq!(p.billed_secs(-5.0), 60);
    }

    #[test]
    fn zero_length_jobs_bill_the_minimum() {
        let c = Catalog::aws_like();
        let i = c.instance("m5.large").unwrap();
        let p = c.pricing();
        assert_eq!(p.billed_secs(0.0), 60);
        let floor = 60.0 / 3600.0 * i.price_per_hour;
        assert!((p.cost_usd(i, 0.0) - floor).abs() < 1e-12);
        // Negative and NaN runtimes clamp to zero length, not panic.
        assert!((p.cost_usd(i, -30.0) - floor).abs() < 1e-12);
        assert_eq!(p.billed_secs(f64::NAN), 60);
    }

    #[test]
    fn sub_minute_jobs_all_cost_the_same() {
        let c = Catalog::aws_like();
        let i = c.instance("c5.xlarge").unwrap();
        let p = c.pricing();
        let floor = p.cost_usd(i, 60.0);
        for secs in [0.001, 1.0, 30.0, 59.0, 59.999, 60.0] {
            assert!(
                (p.cost_usd(i, secs) - floor).abs() < 1e-12,
                "{secs}s must bill exactly the 60s minimum"
            );
        }
        // The first second past the minimum is where cost starts moving.
        assert_eq!(p.billed_secs(60.000_1), 61);
        assert!(p.cost_usd(i, 60.01) > floor);
    }

    #[test]
    fn fractional_seconds_round_up_without_drift() {
        let p = Pricing::per_second();
        // ceil never rounds a whole-second runtime up an extra second.
        for whole in [60u64, 61, 100, 3600, 86_400] {
            assert_eq!(p.billed_secs(whole as f64), whole);
        }
        assert_eq!(p.billed_secs(100.000_000_001), 101);
        assert_eq!(p.billed_secs(99.999_999_999), 100);
    }

    #[test]
    fn hour_costs_hourly_price() {
        let c = Catalog::aws_like();
        let i = c.instance("r5.xlarge").unwrap();
        let cost = c.pricing().cost_usd(i, 3600.0);
        assert!((cost - i.price_per_hour).abs() < 1e-12);
    }

    #[test]
    fn cost_proportional_to_time() {
        let c = Catalog::aws_like();
        let i = c.instance("m5.large").unwrap();
        let one = c.pricing().cost_usd(i, 1800.0);
        let two = c.pricing().cost_usd(i, 3600.0);
        assert!((two / one - 2.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod spot_tests {
    use super::*;
    use crate::Catalog;

    #[test]
    fn short_jobs_benefit_from_spot() {
        let c = Catalog::aws_like();
        let i = c.instance("r5.xlarge").unwrap();
        let spot = SpotMarket::typical();
        let on_demand = c.pricing().cost_usd(i, 1800.0);
        let expected = on_demand * c.pricing().expected_spot_multiplier(1800.0, &spot);
        assert!(expected < 0.5 * on_demand);
    }

    #[test]
    fn very_long_jobs_lose_the_discount() {
        let c = Catalog::aws_like();
        let i = c.instance("m5.large").unwrap();
        // A job so long it is almost always interrupted.
        let hostile = SpotMarket {
            price_fraction: 0.3,
            interruption_per_hour: 0.9,
        };
        let week = 7.0 * 24.0 * 3600.0;
        let on_demand = c.pricing().cost_usd(i, week);
        let expected = on_demand * c.pricing().expected_spot_multiplier(week, &hostile);
        assert!(
            expected > on_demand,
            "interruption-dominated jobs cost more than on-demand"
        );
    }

    #[test]
    fn completion_probability_monotone() {
        let spot = SpotMarket::typical();
        assert!(spot.completion_probability(60.0) > spot.completion_probability(36_000.0));
        assert!((spot.completion_probability(0.0) - 1.0).abs() < 1e-12);
    }
}
