//! Regenerates the paper's **Figure 6**: cost savings of the
//! multi-choice knapsack deployment vs over-provisioning (8 vCPUs
//! everywhere) and under-provisioning (1 vCPU everywhere), swept across
//! deadline constraints. The paper reports an average saving of 35.29%.
//!
//! ```text
//! cargo run -p eda-cloud-bench --bin fig6 --release
//! cargo run -p eda-cloud-bench --bin fig6 --release -- --paper-runtimes
//! cargo run -p eda-cloud-bench --bin fig6 --release -- --spot
//! ```
//!
//! `--spot` adds the expected-spot cost of each optimized deployment
//! (typical market: 70% discount, 5%/hour interruption).
//! `--trace <path>` / `--chrome-trace <path>` export the
//! characterization sweep's span trace.

use eda_cloud_bench::{experiment_runtimes, Args, Observability};
use eda_cloud_cloud::SpotMarket;
use eda_cloud_core::report::{pct, render_table};
use eda_cloud_core::Workflow;
use eda_cloud_mckp::spot_savings_vs_baselines;

fn main() {
    let args = Args::from_env();
    let obs = Observability::from_args(&args);
    let workflow = obs.instrument(Workflow::with_defaults());

    let spot = args.flag("spot").then(SpotMarket::typical);
    let (design, runtimes) = experiment_runtimes(&args, &workflow);
    args.reject_unknown();
    match design {
        None => println!("Figure 6 — savings with the paper's exact runtimes"),
        Some(name) => println!("Figure 6 — savings for measured `{name}` runtimes"),
    }

    let problem = workflow.deployment_problem(&runtimes).expect("problem");
    let min_total = problem.min_total_runtime();
    let pricing = *workflow.catalog().pricing();

    // Sweep deadlines from the feasibility edge up to fully relaxed.
    let mut rows = Vec::new();
    let mut savings_acc = Vec::new();
    for rel in [1.0, 1.1, 1.25, 1.5, 1.77, 2.0, 2.5, 3.0] {
        let budget = (min_total as f64 * rel).round() as u64;
        let Some(plan) = workflow.plan_deployment(&runtimes, budget).expect("solves") else {
            continue;
        };
        let s = plan.savings;
        savings_acc.push(s.average_saving());
        let mut row = vec![
            format!("{budget}"),
            format!("{:.2}", s.optimized_usd),
            format!("{:.2}", s.over_provision_usd),
            format!("{:.2}", s.under_provision_usd),
            pct(s.saving_vs_over),
            pct(s.saving_vs_under),
            format!("{}", s.runtime_overhead_secs),
        ];
        if let Some(market) = &spot {
            let (_, cmp) = spot_savings_vs_baselines(&problem, budget, &pricing, market)
                .expect("feasible budget already solved");
            row.push(format!("{:.2}", cmp.expected_spot_usd));
            row.push(pct(cmp.saving_vs_on_demand));
        }
        rows.push(row);
    }
    let mut headers = vec![
        "deadline (s)",
        "optimized ($)",
        "over-prov ($)",
        "under-prov ($)",
        "saving vs over",
        "saving vs under",
        "runtime overhead (s)",
    ];
    if spot.is_some() {
        headers.push("E[spot] ($)");
        headers.push("spot saving");
    }
    println!("{}", render_table(&headers, &rows));
    let avg = savings_acc.iter().sum::<f64>() / savings_acc.len().max(1) as f64;
    println!(
        "average saving across constraints: {}   (paper: 35.29%)",
        pct(avg)
    );
    obs.export();
}
