//! Serving-tier integration tests: same-seed runs are byte-identical
//! (including across inference worker counts), model snapshots
//! round-trip through their text format without disturbing a single
//! byte of the report, overload sheds requests instead of stalling the
//! stream, and the CI smoke scenario (`serve --requests 64 --seed 7`)
//! is pinned against a checked-in golden report.

use eda_cloud::core::{ServeScenario, Workflow, WorkflowPlanner};
use eda_cloud::gcn::ModelConfig;
use eda_cloud::serve::{ModelSnapshot, RequestOutcome, ServeConfig, ServeReport, Server};

mod common;

fn seeded_snapshot(seed: u64) -> ModelSnapshot {
    ModelSnapshot::seeded(&ModelConfig::fast(), seed)
}

fn run_with(
    scenario: &ServeScenario,
    snapshot: &ModelSnapshot,
    config: ServeConfig,
) -> (ServeReport, Vec<RequestOutcome>) {
    Workflow::with_defaults()
        .serve(scenario, snapshot, config)
        .expect("serving run")
}

fn run(scenario: &ServeScenario, snapshot: &ModelSnapshot) -> (ServeReport, Vec<RequestOutcome>) {
    run_with(scenario, snapshot, ServeConfig::default())
}

#[test]
fn same_seed_reports_are_byte_identical() {
    let scenario = ServeScenario::new(32, 42);
    let snapshot = seeded_snapshot(42);
    let (a, a_out) = run(&scenario, &snapshot);
    let (b, b_out) = run(&scenario, &snapshot);
    assert_eq!(a.to_json(), b.to_json(), "same seed must replay exactly");
    assert_eq!(a_out, b_out);
}

#[test]
fn inference_worker_count_cannot_change_the_report() {
    let snapshot = seeded_snapshot(9);
    let scenario = ServeScenario::new(24, 9);
    let with_workers = |workers| ServeConfig { workers, ..ServeConfig::default() };
    let (serial, serial_out) = run_with(&scenario, &snapshot, with_workers(1));
    for workers in [2usize, 8] {
        let (parallel, parallel_out) = run_with(&scenario, &snapshot, with_workers(workers));
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "stage-indexed join makes the fan-out invisible ({workers} workers)"
        );
        assert_eq!(serial_out, parallel_out);
    }
}

#[test]
fn snapshot_text_round_trip_preserves_the_report() {
    let scenario = ServeScenario::new(24, 5);
    let snapshot = seeded_snapshot(5);
    let reloaded = ModelSnapshot::from_text(&snapshot.to_text()).expect("canonical text parses");
    let (original, _) = run(&scenario, &snapshot);
    let (roundtrip, _) = run(&scenario, &reloaded);
    assert_eq!(
        original.to_json(),
        roundtrip.to_json(),
        "snapshot serialization must not perturb any prediction"
    );
}

#[test]
fn overload_sheds_requests_instead_of_stalling() {
    let mut scenario = ServeScenario::new(128, 7);
    scenario.rate_per_sec = 5_000.0;
    let workflow = Workflow::with_defaults();
    let requests = workflow.serve_workload(&scenario);
    let config = ServeConfig {
        max_batch: 4,
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let server = Server::new(
        seeded_snapshot(7),
        Box::new(WorkflowPlanner::new(workflow.clone())),
        config,
    );
    let (report, outcomes) = server.run(scenario.seed, &requests).expect("overloaded run");
    assert!(report.counters.shed > 0, "burst must shed load");
    assert_eq!(
        report.counters.shed + report.counters.completed,
        report.counters.requests,
        "every request is either served or shed, never lost"
    );
    assert!(outcomes
        .iter()
        .any(|o| matches!(o, RequestOutcome::Shed { .. })));
}

/// Golden report for the CI smoke scenario
/// (`serve --requests 64 --seed 7 --json`). The serving tier's output
/// is a pure function of the scenario and the snapshot — independent
/// of worker count, build profile, and platform — so the comparison is
/// byte for byte. Regenerate with `UPDATE_GOLDEN=1 cargo test --test
/// serve_service` if a deliberate engine change shifts it.
#[test]
fn golden_report_for_seed_7() {
    let scenario = ServeScenario::new(64, 7);
    let (report, _) = run(&scenario, &seeded_snapshot(7));
    common::assert_golden(&report.to_json(), "golden/serve_report.json");
}
