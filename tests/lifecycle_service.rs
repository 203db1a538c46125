//! Model-lifecycle integration tests: the full detect → retrain →
//! canary → promote arc runs deterministically (byte-identical reports
//! across runs and worker counts), the golden seed-7 scenario is
//! pinned against a checked-in report, and the promoted model beats
//! the frozen baseline on every stage of the post-rollout traffic.

use eda_cloud::core::Workflow;
use eda_cloud::lifecycle::{LifecycleConfig, LifecycleController, LifecycleReport};

mod common;

/// `LifecycleConfig::new` spelled out field by field: drift a third of
/// the way in, automatic fan-out, every other knob at its default.
fn spelled_out(requests: usize, seed: u64, drift_at: u64) -> LifecycleConfig {
    LifecycleConfig {
        requests,
        rate_per_sec: 200.0,
        seed,
        workers: 0,
        drift_at,
        drift_factor: 2.2,
        bootstrap_epochs: 40,
        retrain_epochs: 60,
        learning_rate: 3e-3,
        min_retrain: 12,
        calibration: 24,
        canary_every: 4,
        canary_min: 8,
    }
}

#[test]
fn new_expands_to_every_field_of_the_bin_arc() {
    assert_eq!(LifecycleConfig::new(320, 7), spelled_out(320, 7, 106));
    assert_eq!(LifecycleConfig::new(160, 11), spelled_out(160, 11, 53));
}

/// A trimmed-down arc (smaller stream, fewer epochs) for the replay
/// tests: still detects, retrains, and resolves a canary — cheap
/// enough to run several times in a debug build.
fn small_arc_config(workers: usize) -> LifecycleConfig {
    LifecycleConfig {
        requests: 160,
        drift_at: 50,
        calibration: 12,
        min_retrain: 6,
        canary_min: 5,
        bootstrap_epochs: 20,
        retrain_epochs: 20,
        workers,
        ..LifecycleConfig::default()
    }
}

fn run_small(workers: usize) -> LifecycleReport {
    LifecycleController::new(small_arc_config(workers))
        .expect("valid config")
        .run()
        .0
}

#[test]
fn same_seed_reports_are_byte_identical() {
    let a = run_small(1);
    let b = run_small(1);
    assert_eq!(a.to_json(), b.to_json(), "same seed must replay exactly");
    assert!(a.counters.drift_detections > 0, "the small arc still detects");
    assert!(a.counters.retrains > 0, "the small arc still retrains");
}

#[test]
fn worker_count_cannot_change_the_report() {
    let serial = run_small(1);
    for workers in [2usize, 8] {
        let parallel = run_small(workers);
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "stage-indexed joins make the fan-out invisible ({workers} workers)"
        );
    }
}

/// Golden report for the CI lifecycle scenario
/// (`lifecycle --requests 320 --seed 7 --json`). The controller's
/// output is a pure function of its config — independent of worker
/// count, build profile, and platform — so the comparison is byte for
/// byte. Regenerate with `UPDATE_GOLDEN=1 cargo test --test
/// lifecycle_service` if a deliberate change shifts it.
#[test]
fn golden_report_for_seed_7() {
    let workflow = Workflow::with_defaults();
    let (report, _) = workflow.lifecycle(&LifecycleConfig::new(320, 7)).expect("lifecycle run");
    common::assert_golden(&report.to_json(), "golden/lifecycle_report.json");

    // The golden arc walks detect → retrain → canary → promote...
    let kinds: Vec<&str> = report.timeline.iter().map(|e| e.kind).collect();
    let detect = kinds.iter().position(|k| *k == "drift_detected").expect("detects");
    let retrain = kinds.iter().position(|k| *k == "retrained").expect("retrains");
    let promote = kinds.iter().position(|k| *k == "promoted").expect("promotes");
    assert!(detect < retrain && retrain < promote, "causal order: {kinds:?}");
    assert_eq!(report.final_primary_version, 2);

    // ...and the promoted model beats the frozen baseline on every
    // stage over the same post-rollout joins.
    for (k, stage) in report.stages.iter().enumerate() {
        assert!(
            stage.post_rollout_active.mean_micros() < stage.post_rollout_frozen.mean_micros(),
            "stage {k}: promoted model must beat the frozen baseline"
        );
    }
}
