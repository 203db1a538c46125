//! Cost-savings accounting for Figure 6.

use crate::{baselines, Problem, Selection, Solver};
use eda_cloud_cloud::{Pricing, SpotMarket};

/// Savings of an optimized deployment relative to the naive baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSavings {
    /// Optimized deployment cost in USD.
    pub optimized_usd: f64,
    /// Cost of running every stage on the largest machine.
    pub over_provision_usd: f64,
    /// Cost of running every stage on the smallest machine.
    pub under_provision_usd: f64,
    /// Fractional saving vs over-provisioning (0.35 = 35%).
    pub saving_vs_over: f64,
    /// Fractional saving vs under-provisioning.
    pub saving_vs_under: f64,
    /// Runtime overhead vs the all-largest deployment, in seconds.
    pub runtime_overhead_secs: i64,
}

impl CostSavings {
    /// Mean of the two savings figures (the paper reports the average
    /// saving across baselines and constraints: 35.29%).
    #[must_use]
    pub fn average_saving(&self) -> f64 {
        0.5 * (self.saving_vs_over + self.saving_vs_under)
    }
}

/// Compare an existing selection against the baselines.
#[must_use]
pub fn savings_of(problem: &Problem, optimized: &Selection) -> CostSavings {
    let over = baselines::over_provision(problem);
    let under = baselines::under_provision(problem);
    let frac = |base: f64| {
        if base > 0.0 {
            (base - optimized.total_cost_usd) / base
        } else {
            0.0
        }
    };
    CostSavings {
        optimized_usd: optimized.total_cost_usd,
        over_provision_usd: over.total_cost_usd,
        under_provision_usd: under.total_cost_usd,
        saving_vs_over: frac(over.total_cost_usd),
        saving_vs_under: frac(under.total_cost_usd),
        runtime_overhead_secs: optimized.total_runtime_secs as i64
            - over.total_runtime_secs as i64,
    }
}

/// On-demand vs expected-spot cost of one selection: what the same
/// MCKP-optimized deployment would cost on spot capacity, accounting for
/// interruption re-runs (see
/// [`Pricing::expected_spot_multiplier`](eda_cloud_cloud::Pricing::expected_spot_multiplier)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotComparison {
    /// The selection's on-demand cost in USD (what the DP optimized).
    pub on_demand_usd: f64,
    /// Expected cost of the same selection on spot capacity, USD.
    pub expected_spot_usd: f64,
    /// Fractional saving of spot vs on-demand (negative when
    /// interruption re-runs make spot a net loss).
    pub saving_vs_on_demand: f64,
}

/// Price an existing selection on the spot market: each chosen stage's
/// on-demand cost is scaled by the length-dependent expected-spot
/// multiplier (longer stages are likelier to be reclaimed and re-run, so
/// they keep less of the discount).
///
/// # Panics
///
/// Panics if the selection does not match the problem's shape.
#[must_use]
pub fn spot_comparison(
    problem: &Problem,
    selection: &Selection,
    pricing: &Pricing,
    market: &SpotMarket,
) -> SpotComparison {
    assert_eq!(selection.picks.len(), problem.stages().len());
    let expected_spot_usd: f64 = selection
        .picks
        .iter()
        .zip(problem.stages())
        .map(|(&j, stage)| {
            let choice = &stage.choices[j];
            choice.cost_usd * pricing.expected_spot_multiplier(choice.runtime_secs as f64, market)
        })
        .sum();
    let on_demand_usd = selection.total_cost_usd;
    let saving_vs_on_demand = if on_demand_usd > 0.0 {
        (on_demand_usd - expected_spot_usd) / on_demand_usd
    } else {
        0.0
    };
    SpotComparison {
        on_demand_usd,
        expected_spot_usd,
        saving_vs_on_demand,
    }
}

/// Solve at `budget_secs` and report both the on-demand savings vs the
/// naive baselines *and* the spot comparison for the optimized
/// selection — the Figure 6 extension. Returns `None` when the deadline
/// is infeasible.
#[must_use]
pub fn spot_savings_vs_baselines(
    problem: &Problem,
    budget_secs: u64,
    pricing: &Pricing,
    market: &SpotMarket,
) -> Option<(CostSavings, SpotComparison)> {
    let optimized = Solver::new().solve_min_cost(problem, budget_secs)?;
    let savings = savings_of(problem, &optimized);
    let spot = spot_comparison(problem, &optimized, pricing, market);
    Some((savings, spot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Choice, Stage};

    fn problem() -> Problem {
        // Shaped like the paper's Table I costs: mid-size machines are
        // the sweet spot, so optimization saves against both extremes.
        Problem::new(vec![
            Stage::new(
                "syn",
                vec![
                    Choice::new("1v", 6100, 0.16),
                    Choice::new("2v", 4342, 0.15),
                    Choice::new("4v", 3449, 0.19),
                    Choice::new("8v", 3352, 0.37),
                ],
            ),
            Stage::new(
                "route",
                vec![
                    Choice::new("1v", 10461, 0.32),
                    Choice::new("2v", 5514, 0.25),
                    Choice::new("4v", 2894, 0.21),
                    Choice::new("8v", 1692, 0.25),
                ],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn savings_positive_at_moderate_deadline() {
        let p = problem();
        let s = savings_of(&p, &Solver::new().solve_min_cost(&p, 10_000).expect("feasible"));
        assert!(s.saving_vs_over > 0.0, "{s:?}");
        assert!(s.saving_vs_under > 0.0, "{s:?}");
        assert!(s.average_saving() > 0.1);
        assert!(s.runtime_overhead_secs >= 0);
    }

    #[test]
    fn infeasible_deadline_gives_none() {
        let pricing = Pricing::per_second();
        let market = SpotMarket::typical();
        assert!(spot_savings_vs_baselines(&problem(), 100, &pricing, &market).is_none());
    }

    #[test]
    fn typical_spot_market_beats_on_demand_for_these_stages() {
        let p = problem();
        let pricing = Pricing::per_second();
        let market = SpotMarket::typical();
        let (_, spot) =
            spot_savings_vs_baselines(&p, 10_000, &pricing, &market).expect("feasible");
        assert!(spot.expected_spot_usd > 0.0);
        assert!(
            spot.expected_spot_usd < spot.on_demand_usd,
            "hour-scale stages at 5%/h interruption keep most of the discount: {spot:?}"
        );
        assert!(spot.saving_vs_on_demand > 0.5, "{spot:?}");
    }

    #[test]
    fn hostile_spot_market_flips_the_sign() {
        let p = problem();
        let optimized = Solver::new().solve_min_cost(&p, 10_000).expect("feasible");
        let pricing = Pricing::per_second();
        let hostile = SpotMarket {
            price_fraction: 0.9,
            interruption_per_hour: 0.95,
        };
        let spot = spot_comparison(&p, &optimized, &pricing, &hostile);
        assert!(
            spot.expected_spot_usd > spot.on_demand_usd,
            "tiny discount + constant reclaims must cost more: {spot:?}"
        );
        assert!(spot.saving_vs_on_demand < 0.0);
    }

    #[test]
    fn spot_scaling_is_per_stage_length() {
        // Two stages with equal on-demand cost but different lengths: the
        // longer one must contribute a larger expected-spot share.
        let p = Problem::new(vec![
            Stage::new("short", vec![Choice::new("x", 600, 1.0)]),
            Stage::new("long", vec![Choice::new("x", 36_000, 1.0)]),
        ])
        .unwrap();
        let sel = Solver::new().solve_min_cost(&p, 100_000).expect("feasible");
        let pricing = Pricing::per_second();
        let market = SpotMarket::typical();
        let spot = spot_comparison(&p, &sel, &pricing, &market);
        let short_mult = pricing.expected_spot_multiplier(600.0, &market);
        let long_mult = pricing.expected_spot_multiplier(36_000.0, &market);
        assert!(long_mult > short_mult);
        assert!((spot.expected_spot_usd - (short_mult + long_mult)).abs() < 1e-9);
    }

    #[test]
    fn at_the_feasibility_edge_optimized_equals_over_provisioning() {
        let p = problem();
        let edge = p.min_total_runtime();
        let s = savings_of(&p, &Solver::new().solve_min_cost(&p, edge).expect("feasible"));
        assert!(
            (s.optimized_usd - s.over_provision_usd).abs() < 1e-9,
            "at the edge only the all-fastest deployment fits"
        );
        assert_eq!(s.runtime_overhead_secs, 0);
    }
}
