//! Serves a seeded stream of flow jobs on the simulated cloud: the
//! fleet-scale extension of the paper's single-flow deployment
//! analysis. Each job is a scaled copy of the Table-I `sparc_core`
//! flow, planned by the knapsack against its own deadline and executed
//! through the provisioner with warm pools, optional spot purchasing,
//! interruption retries, and stage-boundary checkpointing.
//!
//! ```text
//! cargo run -p eda-cloud-bench --bin fleet --release -- --jobs 50 --seed 7
//! cargo run -p eda-cloud-bench --bin fleet --release -- --jobs 50 --seed 7 --spot
//! cargo run -p eda-cloud-bench --bin fleet --release -- --jobs 50 --seed 7 --json
//! cargo run -p eda-cloud-bench --bin fleet --release -- --jobs 200 --rate 120 --workers 4
//! cargo run -p eda-cloud-bench --bin fleet --release -- --jobs 50 --trace trace.json
//! ```
//!
//! The run is deterministic: the same `--jobs/--seed/--rate/--slack/
//! --spot` produce a byte-identical report (and `--json` line, and
//! `--trace` file) at any `--workers` count. `--chrome-trace <path>`
//! exports the same spans for `chrome://tracing`; `--metrics <path>`
//! snapshots pool occupancy and queue waits (scheduling-dependent).

use eda_cloud_bench::{or_exit, Args, Observability};
use eda_cloud_core::report::{pct, render_table};
use eda_cloud_core::{FleetScenario, Workflow};
use eda_cloud_fleet::{FleetReport, SpotPolicy};

fn main() {
    let args = Args::from_env();
    let mut scenario = FleetScenario::new(args.numeric("jobs", 50), args.numeric("seed", 7));
    scenario.rate_per_hour = args.numeric("rate", 60.0);
    scenario.deadline_slack = args.numeric("slack", 1.6);
    scenario.workers = args.workers(0);
    if args.flag("spot") {
        scenario.spot = Some(SpotPolicy::typical());
    }

    let obs = Observability::from_args(&args);
    let json = args.flag("json");
    args.reject_unknown();
    let report = or_exit(obs.instrument(Workflow::with_defaults()).simulate_fleet(&scenario));
    obs.export();

    if json {
        println!("{}", report.to_json());
        return;
    }

    println!(
        "Fleet — {} jobs at {}/h, seed {}, slack {:.2}x, {}",
        scenario.jobs,
        scenario.rate_per_hour,
        scenario.seed,
        scenario.deadline_slack,
        if scenario.spot.is_some() {
            "spot (typical market)"
        } else {
            "on-demand"
        }
    );
    print_report(&report);
}

fn print_report(report: &FleetReport) {
    let c = report.counters;
    let rows = vec![
        vec!["jobs completed".into(), format!("{} / {}", c.jobs_completed, c.jobs_submitted)],
        vec!["deadline-hit rate".into(), pct(report.deadline_hit_rate)],
        vec!["total cost ($)".into(), format!("{:.2}", report.total_cost_usd)],
        vec!["mean job cost ($)".into(), format!("{:.2}", report.mean_job_cost_usd)],
        vec!["mean latency (s)".into(), format!("{:.0}", report.mean_latency_secs)],
        vec!["p50 / p95 latency (s)".into(),
            format!("{:.0} / {:.0}", report.p50_latency_secs, report.p95_latency_secs)],
        vec!["makespan (s)".into(), format!("{:.0}", report.makespan_secs)],
        vec!["VMs launched".into(), format!("{}", c.vms_launched)],
        vec!["cold starts / warm reuses".into(), format!("{} / {}", c.cold_starts, c.warm_reuses)],
        vec!["idle VMs reaped".into(), format!("{}", c.idle_reaped)],
        vec!["spot interruptions".into(), format!("{}", c.interruptions)],
        vec!["stage retries".into(), format!("{}", c.retries)],
        vec!["on-demand fallbacks".into(), format!("{}", c.spot_fallbacks)],
    ];
    println!("{}", render_table(&["metric", "value"], &rows));
}
