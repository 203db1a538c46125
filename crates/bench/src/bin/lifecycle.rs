//! Runs the model-lifecycle controller over a request stream with
//! injected ground-truth drift: serving from the primary snapshot,
//! joining feedback, detecting the drift with per-design
//! Page-Hinkley tests, shadow-retraining a candidate on the replay
//! buffers, and canarying it to promotion or rollback.
//!
//! ```text
//! cargo run -p eda-cloud-bench --bin lifecycle --release -- --requests 320 --seed 7
//! cargo run -p eda-cloud-bench --bin lifecycle --release -- --requests 320 --seed 7 --json
//! cargo run -p eda-cloud-bench --bin lifecycle --release -- --drift 106 --drift-factor 2.2
//! cargo run -p eda-cloud-bench --bin lifecycle --release -- --canary 4 --workers 4
//! cargo run -p eda-cloud-bench --bin lifecycle --release -- --requests 320 --trace trace.json
//! ```
//!
//! The run is deterministic: the same `--requests/--seed/--rate/
//! --drift/--drift-factor/--canary` produce a byte-identical report
//! (and `--json` line, and `--trace` file) at any `--workers` count —
//! the only parallelism is the per-stage fan-out of batched forwards
//! and retrains, joined by stage index.

use eda_cloud_bench::{or_exit, Args, Observability};
use eda_cloud_core::report::render_table;
use eda_cloud_core::Workflow;
use eda_cloud_lifecycle::{LifecycleConfig, LifecycleReport};

fn main() {
    let args = Args::from_env();
    let mut config = LifecycleConfig::new(args.numeric("requests", 320), args.numeric("seed", 7));
    config.rate_per_sec = args.numeric("rate", config.rate_per_sec);
    config.drift_at = args.numeric("drift", config.drift_at);
    config.drift_factor = args.numeric("drift-factor", config.drift_factor);
    config.canary_every = args.numeric("canary", config.canary_every);
    config.workers = args.workers(0);

    let obs = Observability::from_args(&args);
    let json = args.flag("json");
    args.reject_unknown();
    let workflow = obs.instrument(Workflow::with_defaults());
    let (report, _feedback) = or_exit(workflow.lifecycle(&config));
    obs.export();

    if json {
        println!("{}", report.to_json());
        return;
    }

    println!(
        "Lifecycle — {} requests at {}/s, seed {}, drift x{} at ordinal {}, canary 1/{}",
        config.requests,
        config.rate_per_sec,
        config.seed,
        config.drift_factor,
        config.drift_at,
        config.canary_every,
    );
    print_report(&report);
}

fn print_report(report: &LifecycleReport) {
    let c = report.counters;
    let rows = vec![
        vec!["requests / feedback joins".into(), format!("{} / {}", c.requests, c.feedback_joins)],
        vec!["cache hits / misses".into(), format!("{} / {}", c.cache_hits, c.cache_misses)],
        vec!["GCN forwards".into(), format!("{}", c.gcn_predictions)],
        vec!["drift detections".into(), format!("{}", c.drift_detections)],
        vec!["retrains".into(), format!("{}", c.retrains)],
        vec!["canaries started".into(), format!("{}", c.canaries_started)],
        vec!["promotions / rollbacks".into(), format!("{} / {}", c.promotions, c.rollbacks)],
        vec!["final primary version".into(), format!("v{}", report.final_primary_version)],
        vec!["mean / p95 latency (µs)".into(),
            format!("{} / {}", report.mean_latency_us, report.p95_latency_us)],
        vec!["makespan (µs)".into(), format!("{}", report.makespan_us)],
    ];
    println!("{}", render_table(&["metric", "value"], &rows));
    let mut stage_rows = Vec::new();
    for (k, stage) in report.stages.iter().enumerate() {
        stage_rows.push(vec![
            eda_cloud_serve::STAGE_NAMES[k].into(),
            ape_pct(stage.pre_drift.mean_micros()),
            ape_pct(stage.post_drift_frozen.mean_micros()),
            ape_pct(stage.post_rollout_frozen.mean_micros()),
            ape_pct(stage.post_rollout_active.mean_micros()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["stage", "pre-drift", "post-drift frozen", "post-rollout frozen", "post-rollout active"],
            &stage_rows,
        )
    );
    for event in &report.timeline {
        println!(
            "  t={:>9}µs ordinal {:>4}: {} {} (v{})",
            event.time_us, event.ordinal, event.kind, event.stage, event.version
        );
    }
}

fn ape_pct(mean_micros: u64) -> String {
    format!("{}.{:02}%", mean_micros / 10_000, (mean_micros % 10_000) / 100)
}
