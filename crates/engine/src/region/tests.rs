//! Unit tests of the multi-region workload. They sit in their own file so
//! that the `BTreeSet` model the design cache is checked against stays
//! out of the product code.

use super::*;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;

fn queued(ord: u64, tenant: u32) -> QueuedJob {
    QueuedJob {
        ord,
        tenant,
        design: ord % DESIGNS,
        service_us: 1_000,
        arrival_us: ord,
        update: false,
        migrated: false,
    }
}

#[test]
fn run_queue_pops_by_tag_then_ordinal() {
    let mut queue = RunQueue::new();
    // Equal shares hand every tenant the same tag sequence, so tags tie
    // across tenants. Tenant order disagrees with ordinal order here:
    // only the ordinal may break the tie, never the tenant or the push.
    for (tag, ord, tenant) in [(5, 9, 0), (5, 3, 3), (2, 7, 1), (5, 4, 1), (2, 8, 0)] {
        queue.push(Reverse((tag, queued(ord, tenant))));
    }
    // A migrated-in job keeps the ordinal of its home stream: admitted
    // last, it is older than its tag peers and pops first among them.
    let migrated = QueuedJob { migrated: true, ..queued(1, 2) };
    queue.push(Reverse((5, migrated)));
    let order: Vec<(u64, u64)> =
        std::iter::from_fn(|| queue.pop()).map(|Reverse((tag, job))| (tag, job.ord)).collect();
    assert_eq!(order, [(2, 7), (2, 8), (5, 1), (5, 3), (5, 4), (5, 9)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bit mask answers every membership query the set it replaced
    /// would, under cache fills, invalidations and wave clears.
    #[test]
    fn design_cache_matches_a_set_model(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_test(&seed.to_string());
        let (mut cache, mut model) = (DesignCache::default(), BTreeSet::new());
        for _ in 0..200 {
            let design = rng.below(DESIGNS);
            match rng.below(10) {
                0 => {
                    cache = DesignCache::default();
                    model.clear();
                }
                1..=4 => {
                    cache.remove(design);
                    model.remove(&design);
                }
                _ => {
                    cache.insert(design);
                    model.insert(design);
                }
            }
            for d in 0..DESIGNS {
                prop_assert_eq!(cache.contains(d), model.contains(&d), "design {}", d);
            }
        }
    }
}

#[test]
fn default_config_validates_and_runs() {
    let report = RegionSim::run(&RegionSimConfig::default(), 1, 1).expect("runs");
    let submitted: u64 = report.regions.iter().map(|c| c.submitted).sum();
    assert_eq!(submitted, 200);
    let served: u64 = report.regions.iter().map(|c| c.served).sum();
    let quota: u64 = report.regions.iter().map(|c| c.quota_rejected).sum();
    let shed: u64 = report.regions.iter().map(|c| c.shed).sum();
    assert_eq!(served + quota + shed, submitted, "every job reaches a terminal outcome");
    assert!(report.messages.sent > 0, "cross-region traffic flows");
    assert_eq!(report.messages.sent, report.messages.delivered + report.messages.dropped);
    assert!(report.regions.iter().all(|c| c.final_version == 2), "both waves landed");
}

#[test]
fn report_is_byte_identical_across_workers_and_shards() {
    let config = RegionSimConfig::default();
    let baseline = RegionSim::run(&config, 1, 1).expect("runs").to_json();
    for (workers, shards) in [(2, 1), (2, 3), (8, 3), (8, 1), (1, 3)] {
        let json = RegionSim::run(&config, workers, shards).expect("runs").to_json();
        assert_eq!(baseline, json, "workers={workers} shards={shards}");
    }
}

#[test]
fn quota_bounds_a_bursting_tenant() {
    // Tenant 0 floods region 0 at t=0; tenants 1..3 trickle in.
    // The fair-share bound keeps tenant 0 from monopolizing the
    // queue and the rejection counters prove enforcement.
    let config = RegionSimConfig {
        regions: 1,
        tenants: 3,
        migrate_threshold: u32::MAX, // isolate admission from migration
        queue_capacity: 12,
        tenant_quota: 16, // higher than the share bound: the fair share binds
        rollout_waves: 0,
        ..RegionSimConfig::default()
    };
    let mut jobs = Vec::new();
    for i in 0..60u64 {
        jobs.push(RegionJob {
            arrival_us: 0,
            region: 0,
            tenant: 0,
            service_us: 50_000,
            design: i % 4,
            update: false,
        });
    }
    for i in 0..6u64 {
        jobs.push(RegionJob {
            arrival_us: 1_000 + i,
            region: 0,
            tenant: 1 + (i % 2) as u32,
            service_us: 50_000,
            design: i % 4,
            update: false,
        });
    }
    let report = RegionSim::run_with(
        &config,
        &jobs,
        Arc::new(crate::NoEngineFaults),
        1,
        1,
    )
    .expect("runs");
    let t0 = &report.tenants[0];
    // Share bound for tenant 0: capacity 12 / 3 tenants = 4.
    assert!(t0.quota_rejected > 0, "the burst hits the quota: {t0:?}");
    assert_eq!(t0.submitted, 60);
    assert!(
        t0.admitted <= 4 + t0.served,
        "tenant 0 never holds more than its share: {t0:?}"
    );
    // The trickling tenants were not starved by the burst.
    assert_eq!(report.tenants[1].quota_rejected, 0, "{:?}", report.tenants[1]);
    assert_eq!(report.tenants[2].quota_rejected, 0, "{:?}", report.tenants[2]);
    assert_eq!(report.tenants[1].served, report.tenants[1].submitted);
    assert_eq!(report.tenants[2].served, report.tenants[2].submitted);
}

#[test]
fn migration_moves_overload_and_conserves_jobs() {
    let config = RegionSimConfig {
        regions: 2,
        migrate_threshold: 2,
        queue_capacity: 64,
        tenant_quota: 64,
        rollout_waves: 0,
        update_pct: 0,
        ..RegionSimConfig::default()
    };
    // Flood region 0 only.
    let jobs: Vec<RegionJob> = (0..40)
        .map(|i| RegionJob {
            arrival_us: i * 100,
            region: 0,
            tenant: (i % 4) as u32,
            service_us: 80_000,
            design: i % 8,
            update: false,
        })
        .collect();
    let report =
        RegionSim::run_with(&config, &jobs, Arc::new(crate::NoEngineFaults), 1, 1)
            .expect("runs");
    assert!(report.regions[0].migrated_out > 0, "overload migrates");
    assert_eq!(report.regions[0].migrated_out, report.regions[1].migrated_in);
    let served: u64 = report.regions.iter().map(|c| c.served).sum();
    let rejected: u64 =
        report.regions.iter().map(|c| c.quota_rejected + c.shed).sum();
    assert_eq!(served + rejected, 40, "migration loses no jobs");
    assert!(report.regions[1].served > 0, "the neighbor absorbed work");
}

#[test]
fn waves_stage_region_by_region_in_order() {
    let config = RegionSimConfig {
        jobs: 0,
        rollout_waves: 3,
        ..RegionSimConfig::default()
    };
    let report = RegionSim::run_with(
        &config,
        &[],
        Arc::new(crate::NoEngineFaults),
        1,
        1,
    )
    .expect("runs");
    for c in &report.regions {
        assert_eq!(c.waves_applied, 3);
        assert_eq!(c.final_version, 3);
    }
    // Each wave crosses regions-1 hops.
    assert_eq!(report.messages.sent, u64::from(3 * (config.regions - 1)));
}

#[test]
fn json_shape_is_stable() {
    let report = RegionSim::run(&RegionSimConfig { jobs: 20, ..Default::default() }, 1, 1)
        .expect("runs");
    let json = report.to_json();
    assert_eq!(json, report.to_json());
    assert!(json.starts_with("{\"seed\":7,\"totals\":{\"submitted\":20,"));
    assert!(json.contains("\"per_region\":[{\"region\":0,"));
    assert!(json.contains("\"per_tenant\":[{\"tenant\":0,\"submitted\":"));
    assert!(json.ends_with('}'));
}
