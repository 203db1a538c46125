//! Ingestion integration tests: the front door's fixture corpus flows
//! through `Workflow::ingest` deterministically (byte-identical runs,
//! worker-count invariance), malformed uploads come back as typed
//! positioned errors, and the CI smoke scenario
//! (`ingest --requests 64 --seed 7 --json`) is pinned against a
//! checked-in golden report.

use eda_cloud::core::{IngestScenario, Workflow};
use eda_cloud::gcn::ModelConfig;
use eda_cloud::ingest::{fixtures, FrontDoor, FrontDoorConfig, IngestError};
use eda_cloud::serve::{ModelSnapshot, UploadDoc};

mod common;

fn seeded_snapshot(seed: u64) -> ModelSnapshot {
    ModelSnapshot::seeded(&ModelConfig::fast(), seed)
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let scenario = IngestScenario::new(32, 42);
    let snapshot = seeded_snapshot(42);
    let workflow = Workflow::with_defaults();
    let (a, a_out) =
        workflow.ingest(&scenario, &snapshot, &fixtures::uploads()).expect("ingest run");
    let (b, b_out) =
        workflow.ingest(&scenario, &snapshot, &fixtures::uploads()).expect("ingest run");
    assert_eq!(a.to_json(), b.to_json(), "same seed must replay exactly");
    assert_eq!(a_out, b_out);
}

#[test]
fn worker_count_cannot_change_the_report() {
    let snapshot = seeded_snapshot(9);
    let mut scenario = IngestScenario::new(24, 9);
    scenario.workers = 1;
    let workflow = Workflow::with_defaults();
    let (serial, serial_out) =
        workflow.ingest(&scenario, &snapshot, &fixtures::uploads()).expect("ingest run");
    for workers in [2usize, 8] {
        scenario.workers = workers;
        let (parallel, parallel_out) =
            workflow.ingest(&scenario, &snapshot, &fixtures::uploads()).expect("ingest run");
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "fingerprints and reports are worker-invariant ({workers} workers)"
        );
        assert_eq!(serial_out, parallel_out);
    }
}

#[test]
fn malformed_uploads_come_back_as_typed_positioned_errors() {
    let door = FrontDoor::with_pool_profile(FrontDoorConfig::default());
    let torn = UploadDoc::new("torn", "blif", ".model torn\n.inputs a\n.names a y\n1 ");
    match door.ingest_doc(&torn) {
        Err(IngestError::Parse { line, .. }) => assert!(line > 0, "positions are 1-based"),
        other => panic!("torn BLIF must fail to parse, got {other:?}"),
    }
    let alien = UploadDoc::new("alien", "edif", "(edif top)");
    assert!(matches!(
        door.ingest_doc(&alien),
        Err(IngestError::UnknownFormat { .. })
    ));
}

/// Golden report for the CI smoke scenario
/// (`ingest --requests 64 --seed 7 --json`). The run is a pure
/// function of the scenario, the fixture corpus, and the snapshot —
/// independent of worker count, build profile, and platform — so the
/// comparison is byte for byte. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test ingest_service` if a deliberate
/// engine or parser change shifts it.
#[test]
fn golden_report_for_seed_7() {
    let scenario = IngestScenario::new(64, 7);
    let (report, _) = Workflow::with_defaults()
        .ingest(&scenario, &seeded_snapshot(7), &fixtures::uploads())
        .expect("ingest run");
    common::assert_golden(&report.to_json(), "golden/ingest_report.json");
}
