//! Multi-region engine integration tests: the golden seed-7
//! `RegionReport` is pinned byte-for-byte, the same report survives any
//! worker/shard fan-out (the CI diff step pins the same contract on the
//! `regions` binary), and fair-share admission bounds a bursting tenant
//! while its neighbors ride out the storm untouched.
//!
//! Under all of it sits `EventHeap`'s two lanes (a sorted run and a
//! binary heap); the differential at the end drives it against a
//! `BTreeMap` model through random push/pop scripts.

use eda_cloud::engine::{EventHeap, RegionJob, RegionSim, RegionSimConfig};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;

mod common;

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
    // Equal weights over capacity 16: tenant 0's share bound is 4.
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

/// One step of a heap script.
#[derive(Debug, Clone, Copy)]
enum Step {
    Push(u64),
    Pop,
    /// Pop until empty; later pushes refill the heap.
    Drain,
}

prop_compose! {
    /// A script mixing ascending runs, out-of-order pushes, equal-time
    /// bursts that straddle both lanes, interleaved pops, and drains.
    fn heap_script()(seed in 0u64..u64::MAX, len in 1usize..400) -> Vec<Step> {
        let mut rng = TestRng::for_test(&seed.to_string());
        // The latest time pushed so far: the run lane's tail is at most this.
        let mut clock = 0u64;
        let mut steps = Vec::with_capacity(len + 8);
        while steps.len() < len {
            match rng.below(5) {
                0 => {
                    for _ in 0..=rng.below(12) {
                        clock += rng.below(4);
                        steps.push(Step::Push(clock));
                    }
                }
                1 => {
                    for _ in 0..=rng.below(6) {
                        steps.push(Step::Push(rng.below(clock + 1)));
                    }
                }
                2 => {
                    // Two at `t` join the run, a later push moves its
                    // tail past `t`, two more at `t` go to the heap.
                    let t = clock;
                    clock += 1 + rng.below(3);
                    steps.extend([t, t, clock, t, t].map(Step::Push));
                }
                3 => steps.extend((0..=rng.below(6)).map(|_| Step::Pop)),
                _ => {
                    steps.push(Step::Drain);
                    clock = rng.below(clock + 1); // refill from earlier times too
                }
            }
        }
        steps
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_heap_matches_an_ordered_map_model(script in heap_script()) {
        let mut heap = EventHeap::new();
        let mut model = BTreeMap::new();
        let mut pushed = 0u64;
        let pop_both = |heap: &mut EventHeap<u64>, model: &mut BTreeMap<(u64, u64), u64>| {
            let want = model.pop_first().map(|((t, _), payload)| (t, payload));
            assert_eq!(heap.pop(), want);
        };
        for step in script {
            match step {
                Step::Push(t) => {
                    heap.push(t, pushed);
                    model.insert((t, pushed), pushed);
                    pushed += 1;
                }
                Step::Pop => pop_both(&mut heap, &mut model),
                Step::Drain => {
                    while !model.is_empty() {
                        pop_both(&mut heap, &mut model);
                    }
                    pop_both(&mut heap, &mut model);
                }
            }
            prop_assert_eq!(heap.peek_time(), model.keys().next().map(|&(t, _)| t));
            prop_assert_eq!(heap.len(), model.len());
            prop_assert_eq!(heap.is_empty(), model.is_empty());
        }
    }
}
