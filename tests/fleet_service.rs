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
