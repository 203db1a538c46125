//! Fleet-simulator integration tests: same-seed runs are byte-identical
//! (including under parallel planning workers), and one fixed-seed
//! report is pinned as a golden value so any behavioral drift in the
//! event engine, the planner, or the fault injector is caught.

mod common;

use eda_cloud::core::{FleetScenario, Workflow};
use eda_cloud::fleet::SpotPolicy;

#[test]
fn same_seed_reports_are_byte_identical() {
    let workflow = Workflow::with_defaults();
    let scenario = FleetScenario::new(20, 42).with_spot(SpotPolicy::typical());
    let a = workflow.simulate_fleet(&scenario).expect("first run");
    let b = workflow.simulate_fleet(&scenario).expect("second run");
    assert_eq!(a.to_json(), b.to_json(), "same seed must replay exactly");
    assert_eq!(a, b);
}

#[test]
fn planning_worker_count_cannot_change_the_report() {
    let workflow = Workflow::with_defaults();
    let mut scenario = FleetScenario::new(16, 9).with_spot(SpotPolicy::typical());
    scenario.workers = 1;
    let serial = workflow.simulate_fleet(&scenario).expect("serial");
    scenario.workers = 4;
    let parallel = workflow.simulate_fleet(&scenario).expect("parallel");
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "canonical reduction makes the fan-out invisible"
    );
}

#[test]
fn different_seeds_move_the_fleet() {
    let workflow = Workflow::with_defaults();
    let a = workflow
        .simulate_fleet(&FleetScenario::new(20, 1))
        .expect("seed 1");
    let b = workflow
        .simulate_fleet(&FleetScenario::new(20, 2))
        .expect("seed 2");
    assert_ne!(a.to_json(), b.to_json(), "arrivals and sizes are seeded");
}

/// Golden report for the CI smoke scenario (`fleet --jobs 50 --seed 7`):
/// pins deadline-hit rate, total cost, and retry count, on demand and
/// under the typical spot market, and the whole spot report — histogram
/// edges and counts included — byte for byte in
/// `tests/golden/fleet_report.json` (regenerate with `cargo run -p
/// eda-cloud-bench --bin fleet --release -- --jobs 50 --seed 7 --spot
/// --json`). These values are a contract — they only change when the
/// engine's semantics change, and such a change must be deliberate.
#[test]
fn golden_report_for_seed_7() {
    let workflow = Workflow::with_defaults();

    let on_demand = workflow
        .simulate_fleet(&FleetScenario::new(50, 7))
        .expect("on-demand run");
    assert_eq!(on_demand.counters.jobs_completed, 50);
    assert_eq!(on_demand.deadline_hit_rate, 1.0);
    assert_eq!(on_demand.counters.retries, 0);
    assert_eq!(on_demand.counters.vms_launched, 196);
    assert_eq!(on_demand.counters.warm_reuses, 4);
    assert!(
        (on_demand.total_cost_usd - 18.148707).abs() < 1e-6,
        "on-demand total {}",
        on_demand.total_cost_usd
    );

    let spot = workflow
        .simulate_fleet(&FleetScenario::new(50, 7).with_spot(SpotPolicy::typical()))
        .expect("spot run");
    assert_eq!(spot.counters.jobs_completed, 50);
    assert_eq!(spot.counters.deadline_hits, 48);
    assert!((spot.deadline_hit_rate - 0.96).abs() < 1e-12);
    assert_eq!(spot.counters.interruptions, 2);
    assert_eq!(spot.counters.retries, 2);
    assert_eq!(spot.counters.vms_launched, 202);
    assert!(
        (spot.total_cost_usd - 5.433414).abs() < 1e-6,
        "spot total {}",
        spot.total_cost_usd
    );
    // The typical market's 70% discount dominates its 5%/h reclaim tax.
    assert!(spot.total_cost_usd < 0.5 * on_demand.total_cost_usd);
    common::assert_golden(&spot.to_json(), "golden/fleet_report.json");
}

/// The fleet bills pinned by bits, on demand and on spot: the reports
/// print six decimals, so a refactor of the billing path that moves a
/// total by one ULP would pass every golden. The 2 000-job on-demand
/// run keeps the warm pool and its idle reaps busy.
#[test]
fn fleet_bills_are_bit_identical() {
    let workflow = Workflow::with_defaults();
    for (jobs, seed, on_demand_bits, spot_bits) in [
        (50, 7, 0x4032_2611_a3de_07ce_u64, 0x4015_bbd1_02bc_72e2_u64),
        (2000, 11, 0x4087_ce69_4626_9c94, 0x406b_a591_063b_3bd7),
    ] {
        let on_demand = workflow.simulate_fleet(&FleetScenario::new(jobs, seed)).expect("runs");
        let spot = workflow
            .simulate_fleet(&FleetScenario::new(jobs, seed).with_spot(SpotPolicy::typical()))
            .expect("runs");
        for (label, total, bits) in [
            ("on-demand", on_demand.total_cost_usd, on_demand_bits),
            ("spot", spot.total_cost_usd, spot_bits),
        ] {
            assert_eq!(
                total.to_bits(),
                bits,
                "{jobs} jobs, seed {seed}, {label}: total {total} is {:#x}",
                total.to_bits()
            );
        }
    }
}

/// Thirty fleet reports pinned by one digest: seeds {1, 3, 7, 11, 19} ×
/// {50, 400, 2000} jobs × {on-demand, spot}. Each workload is planned
/// once and served both ways. The goldens cover 50 jobs at seed 7; the
/// larger streams keep the warm pool, its idle reaps and the spot
/// retries busy, so a change to the event loop's bookkeeping that moves
/// any counter, percentile or bill shows here.
#[test]
fn fleet_reports_are_bit_identical_at_scale() {
    use eda_cloud::fleet::{FleetConfig, FleetSimulator};
    let workflow = Workflow::with_defaults();
    let sim = FleetSimulator::new(workflow.catalog().clone());
    let mut bytes = Vec::new();
    for seed in [1, 3, 7, 11, 19] {
        for jobs in [50, 400, 2000] {
            let stream = workflow.fleet_workload(&FleetScenario::new(jobs, seed)).expect("plans");
            let on_demand = FleetConfig::on_demand(seed);
            for config in [on_demand.clone(), on_demand.with_spot(SpotPolicy::typical())] {
                let report = sim.run(&stream, &config).expect("runs");
                bytes.extend_from_slice(report.to_json().as_bytes());
            }
        }
    }
    assert_eq!(eda_cloud::trace::fnv1a64(&bytes), 0x4bfe_75c1_9798_304d, "fleet reports moved");
}
