//! Runs the sharded multi-region simulation: N region shards exchange
//! job migrations, staged model-rollout waves, and replicated cache
//! invalidations under a conservative lookahead barrier, with
//! per-tenant fair-share admission (equal weights) in front of every
//! region's run queue.
//!
//! ```text
//! cargo run -p eda-cloud-bench --bin regions --release -- --regions 3 --tenants 4 --jobs 200
//! cargo run -p eda-cloud-bench --bin regions --release -- --jobs 500 --seed 7 --json
//! cargo run -p eda-cloud-bench --bin regions --release -- --jobs 500 --workers 8 --shards 3
//! ```
//!
//! The run is deterministic: the same `--regions/--tenants/--jobs/
//! --seed` produce a byte-identical report (and `--json` line) at any
//! `--workers` and `--shards` count — the CI diff step pins exactly
//! that.

use eda_cloud_bench::{or_exit, Args};
use eda_cloud_core::report::render_table;
use eda_cloud_engine::{RegionReport, RegionSim, RegionSimConfig};

fn main() {
    let args = Args::from_env();
    let config = RegionSimConfig {
        seed: args.numeric("seed", 7),
        regions: args.numeric("regions", 3),
        tenants: args.numeric("tenants", 4),
        jobs: args.numeric("jobs", 200),
        ..RegionSimConfig::default()
    };
    let workers = args.workers(0).max(1);
    let shards = args.numeric("shards", config.regions as usize);
    let json = args.flag("json");
    args.reject_unknown();

    let report = or_exit(RegionSim::run(&config, workers, shards));

    if json {
        println!("{}", report.to_json());
        return;
    }

    println!(
        "Regions — {} jobs over {} regions x {} tenants, seed {}, {} workers, {} shards",
        config.jobs, config.regions, config.tenants, config.seed, workers, shards
    );
    print_report(&report);
}

fn print_report(report: &RegionReport) {
    let sum = |f: fn(&eda_cloud_engine::RegionCounters) -> u64| {
        report.regions.iter().map(f).sum::<u64>()
    };
    let rows = vec![
        vec!["jobs served".into(), format!("{} / {}", sum(|c| c.served), sum(|c| c.submitted))],
        vec!["quota rejected / shed".into(),
            format!("{} / {}", sum(|c| c.quota_rejected), sum(|c| c.shed))],
        vec!["jobs migrated".into(), format!("{}", sum(|c| c.migrated_out))],
        vec!["cache hits".into(), format!("{}", sum(|c| c.cache_hits))],
        vec!["invalidations applied".into(), format!("{}", sum(|c| c.invalidations_applied))],
        vec!["rollout waves applied".into(), format!("{}", sum(|c| c.waves_applied))],
        vec!["messages sent / delivered".into(),
            format!("{} / {}", report.messages.sent, report.messages.delivered)],
        vec!["barrier windows".into(), format!("{}", report.windows)],
        vec!["makespan (ms)".into(), format!("{}", report.makespan_us / 1_000)],
    ];
    println!("{}", render_table(&["metric", "value"], &rows));
    let tenant_rows: Vec<Vec<String>> = report
        .tenants
        .iter()
        .enumerate()
        .map(|(t, u)| {
            vec![
                format!("{t}"),
                format!("{}", u.weight),
                format!("{}", u.submitted),
                format!("{}", u.admitted),
                format!("{}", u.served),
                format!("{}", u.quota_rejected + u.shed),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["tenant", "weight", "submitted", "admitted", "served", "rejected"],
            &tenant_rows)
    );
}
