//! Plays an open-loop stream of predict/plan requests through the
//! deterministic simulated-time serving tier: seeded Poisson arrivals
//! over the synthetic design pool, micro-batched GCN inference, EDF
//! admission control with load shedding, an LRU result cache, and
//! catalog-backed MCKP planning for the plan-kind requests.
//!
//! ```text
//! cargo run -p eda-cloud-bench --bin serve --release -- --requests 64 --seed 7
//! cargo run -p eda-cloud-bench --bin serve --release -- --requests 64 --seed 7 --json
//! cargo run -p eda-cloud-bench --bin serve --release -- --requests 256 --rate 800 --queue 16
//! cargo run -p eda-cloud-bench --bin serve --release -- --requests 64 --workers 4 --batch 16
//! cargo run -p eda-cloud-bench --bin serve --release -- --requests 64 --trace trace.json
//! ```
//!
//! The run is deterministic: the same `--requests/--seed/--rate/
//! --batch/--queue/--cache` produce a byte-identical report (and
//! `--json` line, and `--trace` file) at any `--workers` count — the
//! only parallelism is the per-stage fan-out of the batched forward,
//! joined by stage index. A bare run uses one worker: the fan-out is
//! measured slower than serial on this workload.

use eda_cloud_bench::{or_exit, Args, Observability};
use eda_cloud_core::report::{pct, render_table};
use eda_cloud_core::Workflow;
use eda_cloud_gcn::ModelConfig;
use eda_cloud_serve::{ModelSnapshot, ServeConfig, ServeReport, WorkloadConfig};

fn main() {
    let args = Args::from_env();
    let workload = WorkloadConfig {
        requests: args.numeric("requests", 64),
        rate_per_sec: args.numeric("rate", 200.0),
        seed: args.numeric("seed", 7),
        ..WorkloadConfig::default()
    };
    let (max_batch, queue_capacity) = (args.numeric("batch", 8), args.numeric("queue", 32));
    let config = ServeConfig {
        max_batch,
        queue_capacity,
        cache_capacity: args.numeric("cache", 32),
        workers: args.workers(1),
        ..ServeConfig::default()
    };

    let obs = Observability::from_args(&args);
    let json = args.flag("json");
    args.reject_unknown();
    let workflow = obs.instrument(Workflow::with_defaults());
    let snapshot = ModelSnapshot::seeded(&ModelConfig::fast(), workload.seed);
    let (report, _outcomes) = or_exit(workflow.serve(&workload, &snapshot, config));
    obs.export();

    if json {
        println!("{}", report.to_json());
        return;
    }

    println!(
        "Serve — {} requests at {}/s, seed {}, batch {max_batch}, queue {queue_capacity}",
        workload.requests, workload.rate_per_sec, workload.seed,
    );
    print_report(&report);
}

fn print_report(report: &ServeReport) {
    let c = report.counters;
    let rows = vec![
        vec!["requests completed".into(), format!("{} / {}", c.completed, c.requests)],
        vec!["requests shed".into(), format!("{}", c.shed)],
        vec!["deadline-hit rate".into(), pct(report.deadline_hit_rate)],
        vec!["mean latency (ms)".into(), format!("{:.1}", report.mean_latency_ms)],
        vec!["p50 / p95 latency (ms)".into(),
            format!("{:.1} / {:.1}", report.p50_latency_ms, report.p95_latency_ms)],
        vec!["makespan (ms)".into(), format!("{:.1}", report.makespan_ms)],
        vec!["cache hits / misses".into(), format!("{} / {}", c.cache_hits, c.cache_misses)],
        vec!["GCN forwards".into(), format!("{}", c.gcn_predictions)],
        vec!["micro-batches".into(), format!("{}", c.batches)],
        vec!["mean batch size".into(), format!("{:.2}", report.mean_batch_size)],
        vec!["max queue depth".into(), format!("{}", report.max_queue_depth)],
        vec!["plans solved / infeasible".into(), format!("{} / {}", c.plans, c.plans_infeasible)],
    ];
    println!("{}", render_table(&["metric", "value"], &rows));
}
