//! Recipe-subsystem integration tests: the joint recipe × VM pipeline
//! (MCTS search → hybrid predictor → `PlanRecipe` through the serving
//! tier) is byte-identical across runs, the CI smoke scenario
//! (`recipe --seed 7`) is pinned against a checked-in golden report,
//! and property tests assert search determinism and evaluation-cache
//! transparency over random seeds.

use eda_cloud::core::{RecipeScenario, Workflow};
use eda_cloud::netlist::generators;
use eda_cloud::recipe::{EvalCache, NoRecipeFaults, RecipeSearch, SearchConfig};
use proptest::prelude::*;

mod common;

#[test]
fn same_seed_reports_are_byte_identical() {
    let workflow = Workflow::with_defaults();
    let mut scenario = RecipeScenario::new(7);
    scenario.designs = vec!["adder".into(), "parity".into()];
    scenario.size = 4;
    scenario.iters = 12;
    let first = workflow.recipe(&scenario).expect("first run");
    let second = workflow.recipe(&scenario).expect("second run");
    assert_eq!(first.to_json(), second.to_json(), "same scenario, same bytes");
}

#[test]
fn seed7_smoke_scenario_matches_golden() {
    // Exactly the CI smoke invocation: `recipe --seed 7 --json`.
    let report = Workflow::with_defaults()
        .recipe(&RecipeScenario::new(7))
        .expect("seed-7 pipeline");
    assert!(
        report.improved_designs() >= 1,
        "the searched recipe should beat the default on at least one design family"
    );
    assert!(
        report.designs.iter().all(|d| d.plan.is_some()),
        "every design should receive a joint recipe × VM plan"
    );
    common::assert_golden(&report.to_json(), "golden/recipe_report.json");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed ⇒ identical search outcome: tree, incumbent,
    /// trajectory and counters.
    #[test]
    fn search_is_deterministic(seed in 0u64..1000, iters in 4u64..20) {
        let aig = generators::build_family("parity", 4).expect("known family");
        let search = RecipeSearch::new(SearchConfig { iters, seed });
        let first = search.run("parity_4", &aig).expect("search");
        let second = search.run("parity_4", &aig).expect("search");
        prop_assert_eq!(&first, &second);
    }

    /// A pre-warmed shared cache is transparent: the tree, incumbent,
    /// and trajectory never move — only the miss/hit split does, and
    /// misses + hits is conserved.
    #[test]
    fn evaluation_cache_is_transparent(seed in 0u64..1000) {
        let aig = generators::build_family("adder", 4).expect("known family");
        let search = RecipeSearch::new(SearchConfig { iters: 10, seed });
        let cold = search.run("adder_4", &aig).expect("cold search");

        let mut cache = EvalCache::new();
        let first = search
            .run_with("adder_4", &aig, &NoRecipeFaults, &mut cache)
            .expect("first warm-up run");
        let warm = search
            .run_with("adder_4", &aig, &NoRecipeFaults, &mut cache)
            .expect("fully warmed run");

        prop_assert_eq!(&first, &cold);
        prop_assert_eq!(&warm.best_key, &cold.best_key);
        prop_assert_eq!(warm.best, cold.best);
        prop_assert_eq!(&warm.tree, &cold.tree);
        prop_assert_eq!(&warm.trajectory, &cold.trajectory);
        prop_assert_eq!(warm.evaluations, 0, "a warmed cache serves every candidate");
        prop_assert_eq!(
            warm.evaluations + warm.cache_hits,
            cold.evaluations + cold.cache_hits
        );
    }
}
