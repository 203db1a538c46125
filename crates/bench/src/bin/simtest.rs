//! Drives the fault-injection harness: generate (or load) a fault
//! plan, run the fleet/serve/lifecycle loops under it, check every
//! global invariant, and — on failure — shrink the plan to a minimal
//! replayable reproducer.
//!
//! ```text
//! cargo run -p eda-cloud-bench --bin simtest --release -- --seed 7 --faults 6
//! cargo run -p eda-cloud-bench --bin simtest --release -- --seed 7 --faults 6 --json
//! cargo run -p eda-cloud-bench --bin simtest --release -- --seed 7 --runs 4 --workers 8
//! cargo run -p eda-cloud-bench --bin simtest --release -- --plan repro.json --shrink
//! ```
//!
//! The run is deterministic: the same `--seed/--faults` (or the same
//! `--plan` file) produce a byte-identical report at any `--workers`
//! count. `--runs N` sweeps seeds `seed..seed+N`, one line per run.
//! Exit status is non-zero when any run trips an invariant, making the
//! binary a drop-in CI smoke check.

use eda_cloud_bench::{or_exit, Args, Observability};
use eda_cloud_core::report::render_table;
use eda_cloud_core::Workflow;
use eda_cloud_simtest::{shrink_plan, FaultPlan, SimtestConfig, SimtestReport};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::from_env();
    let seed: u64 = args.numeric("seed", 7);
    let runs: u64 = args.numeric("runs", 1);
    let faults: usize = args.numeric("faults", 6);
    let workers = args.workers(0);

    // --plan FILE replays a checked-in reproducer instead of a
    // seed-generated plan; --runs is ignored in that mode.
    let loaded_plan = match args.value("plan") {
        None => None,
        Some(path) => {
            let parsed = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| FaultPlan::from_json(&text).map_err(|e| e.to_string()));
            match parsed {
                Ok(plan) => Some(plan),
                Err(e) => {
                    eprintln!("--plan {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let obs = Observability::from_args(&args);
    let (json, shrink) = (args.flag("json"), args.flag("shrink"));
    args.reject_unknown();
    let workflow = obs.instrument(Workflow::with_defaults());

    let mut failed = false;
    let run_seeds: Vec<u64> =
        if loaded_plan.is_some() { vec![seed] } else { (seed..seed + runs.max(1)).collect() };
    for run_seed in run_seeds {
        let config = SimtestConfig { seed: run_seed, workers, ..SimtestConfig::default() };
        // A loaded reproducer replaces the seed-generated plan.
        let plan = loaded_plan.clone().unwrap_or_else(|| FaultPlan::generate(run_seed, faults));
        let report = or_exit(workflow.simtest(&config, &plan));
        if json {
            println!("{}", report.to_json());
        } else {
            print_report(run_seed, &report);
        }
        if !report.passed() {
            failed = true;
            if shrink {
                match shrink_plan(&config, &plan) {
                    Ok(minimal) => {
                        eprintln!(
                            "shrunk {} events to {}; minimal reproducer:",
                            plan.events.len(),
                            minimal.events.len()
                        );
                        eprintln!("{}", minimal.to_json());
                    }
                    Err(e) => eprintln!("shrink failed: {e}"),
                }
            }
        }
    }
    obs.export();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_report(seed: u64, report: &SimtestReport) {
    println!(
        "Simtest — seed {seed}, {} fault events, {} fault spans, {}",
        report.plan.events.len(),
        report.fault_spans,
        if report.passed() { "PASS" } else { "FAIL" },
    );
    let f = &report.fleet;
    let s = &report.serve;
    let l = &report.lifecycle;
    let rows = vec![
        vec![
            "fleet jobs done/exhausted".into(),
            format!("{} / {}", f.jobs_completed, f.jobs_exhausted),
        ],
        vec!["fleet interruptions/retries".into(), format!("{} / {}", f.interruptions, f.retries)],
        vec!["serve completed/shed".into(), format!("{} / {}", s.completed, s.shed)],
        vec![
            "lifecycle joins/dropped".into(),
            format!("{} / {}", l.feedback_joins, l.feedback_dropped),
        ],
        vec![
            "lifecycle promotions/rollbacks".into(),
            format!("{} / {}", l.promotions, l.rollbacks),
        ],
        vec![
            "snapshot corruptions rejected".into(),
            format!("{} / {}", report.corruption_rejected, report.corruption_injected),
        ],
        vec!["violations".into(), format!("{}", report.violations.len())],
    ];
    println!("{}", render_table(&["metric", "value"], &rows));
    for v in &report.violations {
        println!("  VIOLATION [{}] {}", v.checker, v.detail);
    }
}
