//! Multi-region engine integration tests: the golden seed-7
//! `RegionReport` is pinned byte-for-byte, the same report survives any
//! worker/shard fan-out (the CI diff step pins the same contract on the
//! `regions` binary), and fair-share admission bounds a bursting tenant
//! while its neighbors ride out the storm untouched.
//!
//! A second golden pins a 20 000-job run, where run queues are deep and
//! migrations, quota rejections and invalidations all fire.
//!
//! Under all of it sits `EventHeap`'s two lanes: a sorted run, and a
//! binary heap of `(key, slot)` nodes over a payload slab, whose pop
//! leaves a hole at the root for the next push to fill. The
//! differential at the end drives it against a `BTreeMap` model through
//! random push/pop scripts, pop-then-push steps included.

use eda_cloud::engine::{EventHeap, RegionJob, RegionSim, RegionSimConfig};
use heap_script::{heap_script, replay_against_model};
use proptest::prelude::*;

mod common;
#[path = "common/heap_script.rs"]
mod heap_script;

fn ci_config() -> RegionSimConfig {
    // Mirrors the CI smoke scenario:
    // `regions --regions 3 --tenants 4 --jobs 200 --seed 7`.
    RegionSimConfig { seed: 7, regions: 3, tenants: 4, jobs: 200, ..Default::default() }
}

#[test]
fn golden_region_report_for_seed_7() {
    let report = RegionSim::run(&ci_config(), 1, 1).expect("multi-region run");
    common::assert_golden(&report.to_json(), "golden/region_report.json");
}

/// `regions --jobs 20000 --seed 11 --json --workers 1 --shards 1`: queues
/// run deep and migrations, quota rejections and invalidations all fire,
/// which the 200-job golden above barely reaches.
#[test]
fn golden_region_report_for_20k_jobs_at_seed_11() {
    let config = RegionSimConfig { seed: 11, jobs: 20_000, ..Default::default() };
    let report = RegionSim::run(&config, 1, 1).expect("multi-region run");
    common::assert_golden(&report.to_json(), "golden/region_report_20k.json");
}

#[test]
fn report_is_byte_identical_across_worker_and_shard_counts() {
    let config = ci_config();
    let baseline = RegionSim::run(&config, 1, 1).expect("runs").to_json();
    for workers in [2usize, 4, 8] {
        for shards in [1usize, 2, 3] {
            let json = RegionSim::run(&config, workers, shards).expect("runs").to_json();
            assert_eq!(baseline, json, "workers={workers} shards={shards}");
        }
    }
}

#[test]
fn overload_burst_is_bounded_to_the_tenants_share() {
    let config = RegionSimConfig {
        regions: 1,
        tenants: 4,
        migrate_threshold: u32::MAX,
        queue_capacity: 16,
        tenant_quota: 32,
        rollout_waves: 0,
        ..Default::default()
    };
    // Tenant 0 bursts 80 jobs at t=0; the rest trickle in afterwards.
    let mut jobs: Vec<RegionJob> = (0..80)
        .map(|i| RegionJob {
            arrival_us: 0,
            region: 0,
            tenant: 0,
            service_us: 40_000,
            design: i % 8,
            update: false,
        })
        .collect();
    for i in 0..9u64 {
        jobs.push(RegionJob {
            arrival_us: 2_000_000 + i * 50_000,
            region: 0,
            tenant: 1 + (i % 3) as u32,
            service_us: 40_000,
            design: i % 8,
            update: false,
        });
    }
    let report = RegionSim::run_with(
        &config,
        &jobs,
        std::sync::Arc::new(eda_cloud::engine::NoEngineFaults),
        1,
        1,
    )
    .expect("runs");
    let t0 = &report.tenants[0];
    assert_eq!(t0.submitted, 80);
    // Four equal shares of capacity 16: tenant 0's share bound is 4.
    assert!(t0.quota_rejected > 0, "the burst must hit the share bound: {t0:?}");
    assert_eq!(
        t0.admitted + t0.quota_rejected + t0.shed,
        t0.submitted,
        "every burst job is accounted: {t0:?}"
    );
    for t in 1..4 {
        let u = &report.tenants[t];
        assert_eq!(u.quota_rejected, 0, "tenant {t} was never squeezed: {u:?}");
        assert_eq!(u.served, u.submitted, "tenant {t} fully served: {u:?}");
    }
}

// ---- EventHeap against a BTreeMap<(t, push index), payload> model ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_heap_matches_an_ordered_map_model(script in heap_script()) {
        replay_against_model(EventHeap::new(), &script);
    }
}
