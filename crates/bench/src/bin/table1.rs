//! Regenerates the paper's **Table I**: minimizing total cloud
//! deployment cost subject to a time constraint, for the `sparc_core`
//! design.
//!
//! By default the stage runtimes are measured with this repository's
//! simulated flow and the constraints are placed at the same *relative*
//! positions as the paper's (1.77x, 1.06x, 1.00x, 0.886x of the fastest
//! possible total). With `--paper-runtimes` the paper's exact runtime
//! table is used instead, reproducing Table I's rows verbatim.
//!
//! ```text
//! cargo run -p eda-cloud-bench --bin table1 --release
//! cargo run -p eda-cloud-bench --bin table1 --release -- --paper-runtimes
//! cargo run -p eda-cloud-bench --bin table1 --release -- --objective   # ablation
//! ```
//!
//! `--trace <path>` / `--chrome-trace <path>` export the
//! characterization sweep's span trace.

use eda_cloud_bench::{experiment_runtimes, Args, Observability};
use eda_cloud_core::report::render_table;
use eda_cloud_core::Workflow;
use eda_cloud_mckp::{Objective, Solver};

fn main() {
    let args = Args::from_env();
    let obs = Observability::from_args(&args);
    let workflow = obs.instrument(Workflow::with_defaults());

    let objective = args.flag("objective");
    let (design, runtimes) = experiment_runtimes(&args, &workflow);
    args.reject_unknown();
    match design {
        None => println!("Table I — using the paper's exact runtime measurements"),
        Some(name) => println!("Table I — measured runtimes for `{name}`"),
    }

    // Print the per-stage runtime/cost matrix (the top of Table I).
    let problem = workflow.deployment_problem(&runtimes).expect("problem");
    let mut rows = Vec::new();
    for (stage, sr) in problem.stages().iter().zip(&runtimes) {
        for (j, choice) in stage.choices.iter().enumerate() {
            rows.push(vec![
                if j == 0 { sr.kind.to_string() } else { String::new() },
                choice.label.clone(),
                format!("{}", choice.runtime_secs),
                format!("{:.4}", choice.cost_usd),
            ]);
        }
    }
    println!(
        "{}",
        render_table(&["task", "instance", "runtime (s)", "cost ($)"], &rows)
    );

    // Constraints at the paper's relative positions.
    let min_total = problem.min_total_runtime();
    let relative = [1.7715, 1.0629, 1.0, 0.8857];
    println!("fastest possible total: {min_total} s");

    let mut rows = Vec::new();
    for &rel in &relative {
        let budget = (min_total as f64 * rel).round() as u64;
        match workflow.plan_deployment(&runtimes, budget).expect("solves") {
            Some(plan) => {
                let picks: Vec<String> = plan
                    .stages
                    .iter()
                    .map(|s| format!("{}v", s.vcpus))
                    .collect();
                rows.push(vec![
                    format!("{budget}"),
                    picks.join(" / "),
                    format!("{}", plan.total_runtime_secs),
                    format!("{:.2}", plan.total_cost_usd),
                ]);
            }
            None => {
                rows.push(vec![
                    format!("{budget}"),
                    "NA".to_owned(),
                    "NA".to_owned(),
                    "NA".to_owned(),
                ]);
            }
        }
    }
    println!(
        "{}",
        render_table(
            &["constraint (s)", "syn/place/route/sta vCPUs", "total runtime (s)", "min cost ($)"],
            &rows
        )
    );

    if objective {
        // Ablation: the paper's max Σ1/p objective vs direct min-cost.
        println!("ablation: objective comparison at each constraint");
        let mut rows = Vec::new();
        for &rel in &relative {
            let budget = (min_total as f64 * rel).round() as u64;
            let a = Solver::new().solve(&problem, budget, Objective::MaxInverseCost);
            let b = Solver::new().solve(&problem, budget, Objective::MinCost);
            let fmt = |s: &Option<eda_cloud_mckp::Selection>| {
                s.as_ref()
                    .map_or("NA".to_owned(), |sel| format!("{:.2}", sel.total_cost_usd))
            };
            rows.push(vec![format!("{budget}"), fmt(&a), fmt(&b)]);
        }
        println!(
            "{}",
            render_table(&["constraint (s)", "max Σ1/p cost ($)", "min Σp cost ($)"], &rows)
        );
    }
    obs.export();
}
