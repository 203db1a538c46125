//! Property-based tests for the cloud substrate.

use eda_cloud_cloud::{Catalog, Pricing, SpotMarket};
use proptest::prelude::*;

proptest! {
    /// Billing is monotone and positively priced for every instance.
    #[test]
    fn billing_monotone(secs_a in 0.0f64..100_000.0, secs_b in 0.0f64..100_000.0) {
        let catalog = Catalog::aws_like();
        let (lo, hi) = if secs_a <= secs_b { (secs_a, secs_b) } else { (secs_b, secs_a) };
        for instance in catalog.instances() {
            let p = catalog.pricing();
            prop_assert!(p.cost_usd(instance, lo) <= p.cost_usd(instance, hi) + 1e-12);
            prop_assert!(p.cost_usd(instance, hi) > 0.0);
        }
    }

    /// Billed seconds are never below the runtime or the minimum.
    #[test]
    fn billed_secs_lower_bounds(secs in 0.0f64..1e6) {
        let p = Pricing::per_second();
        let billed = p.billed_secs(secs);
        prop_assert!(billed as f64 >= secs.max(0.0).floor());
        prop_assert!(billed >= p.min_billed_secs);
    }

    /// Spot completion probability is a proper probability and decreases
    /// with runtime.
    #[test]
    fn spot_probability_sane(secs in 0.0f64..1e7, frac in 0.01f64..0.99) {
        let market = SpotMarket { price_fraction: 0.3, interruption_per_hour: frac };
        let p = market.completion_probability(secs);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(market.completion_probability(secs + 3600.0) <= p + 1e-12);
    }
}

#[test]
fn every_family_is_price_ordered_by_size() {
    let catalog = Catalog::aws_like();
    for small in catalog.instances() {
        for large in catalog.instances() {
            if small.family == large.family && small.vcpus < large.vcpus {
                assert!(small.price_per_hour < large.price_per_hour, "{small} vs {large}");
            }
        }
    }
}
