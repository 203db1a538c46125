//! Joint recipe × VM planning: per-design deterministic MCTS recipe
//! search, hybrid (design ⊕ recipe) runtime prediction, and a
//! `PlanRecipe` request per design through the serving tier.
//!
//! ```text
//! cargo run -p eda-cloud-bench --bin recipe --release -- --seed 7
//! cargo run -p eda-cloud-bench --bin recipe --release -- --seed 7 --json
//! cargo run -p eda-cloud-bench --bin recipe --release -- --designs adder,parity --iters 16
//! ```
//!
//! The run is deterministic: the same `--designs/--size/--seed/--iters/
//! --deadline` produce a byte-identical `--json` line. There is no
//! worker-count flag: a search evaluates its batches in order (the
//! fan-out measured slower at every count above one).

use eda_cloud_bench::{or_exit, Args, Observability};
use eda_cloud_core::report::render_table;
use eda_cloud_core::{RecipeScenario, Workflow};
use eda_cloud_recipe::RecipeReport;

fn main() {
    let mut scenario = RecipeScenario::new(7);
    let args = Args::from_env();
    if let Some(designs) = args.value("designs") {
        scenario.designs = designs.split(',').map(str::to_owned).collect();
    }
    scenario.size = args.numeric("size", scenario.size);
    scenario.seed = args.numeric("seed", scenario.seed);
    scenario.iters = args.numeric("iters", scenario.iters);
    scenario.deadline_secs = args.numeric("deadline", scenario.deadline_secs);

    let obs = Observability::from_args(&args);
    let json = args.flag("json");
    args.reject_unknown();
    let workflow = obs.instrument(Workflow::with_defaults());
    let report = or_exit(workflow.recipe(&scenario));
    obs.export();

    if json {
        println!("{}", report.to_json());
        return;
    }

    println!(
        "Recipe — {} designs, seed {}, {} iterations, deadline {} s",
        scenario.designs.len(),
        scenario.seed,
        scenario.iters,
        scenario.deadline_secs,
    );
    print_report(&report);
}

fn print_report(report: &RecipeReport) {
    let rows: Vec<Vec<String>> = report
        .designs
        .iter()
        .map(|d| {
            vec![
                d.design.clone(),
                d.best_recipe.clone(),
                format!("{} / {}", d.best_score, d.baseline_score),
                format!("{} / {}", d.best_runtime_ms[2], d.baseline_runtime_ms[2]),
                format!("{} / {}", d.evaluations, d.cache_hits),
                d.plan.as_ref().map_or("NA".into(), |p| {
                    format!(
                        "{} on {:?} — {} s, ${:.4}",
                        p.recipe, p.vcpus, p.total_runtime_secs, p.total_cost_usd
                    )
                }),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "design",
                "best recipe",
                "score (best/base)",
                "4-vCPU ms (best/base)",
                "evals / hits",
                "joint plan",
            ],
            &rows,
        )
    );
    println!(
        "{} of {} designs improved on the default recipe",
        report.improved_designs(),
        report.designs.len()
    );
}
