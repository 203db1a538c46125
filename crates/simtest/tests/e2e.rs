//! End-to-end harness runs: clean seed-7 pass, fault-laden pass, and
//! worker-count byte-identity. The planted guardrail bug is caught and
//! shrunk in the workspace's `tests/simtest_service.rs`, the one test
//! crate that enables its feature.

use eda_cloud_simtest::{run_simtest, FaultEvent, FaultPlan, SimtestConfig};

#[test]
fn clean_seed_7_run_walks_the_full_arc_and_passes() {
    let config = SimtestConfig::default();
    let run = run_simtest(&config, &FaultPlan { seed: config.seed, events: Vec::new() }).expect("harness runs");
    let report = &run.report;
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert_eq!(report.fleet.jobs_submitted, 6);
    assert_eq!(report.fleet.jobs_completed, 6, "no faults, no losses");
    assert_eq!(report.serve.requests, 48);
    assert_eq!(report.serve.shed + report.serve.completed, 48);
    assert_eq!(report.lifecycle.requests, 160);
    assert_eq!(report.lifecycle.feedback_dropped, 0);
    // The compressed lifecycle config still walks the whole
    // drift → retrain → canary → decision arc.
    assert!(report.lifecycle.drift_detections > 0, "drift fires");
    assert!(report.lifecycle.retrains > 0, "shadow retrain completes");
    assert!(report.lifecycle.canaries_started > 0, "canary starts");
    assert!(
        report.lifecycle.promotions + report.lifecycle.rollbacks > 0,
        "the canary reaches a decision"
    );
    assert_eq!(report.fault_spans, 0, "no faults injected");
    // The serve stream interleaves external uploads; with no faults
    // every fixture ingests cleanly.
    assert!(report.serve.ingest_accepted > 0, "uploads flow through the serve phase");
    assert_eq!(report.serve.ingest_rejected, 0, "no faults, no quarantines");
}

#[test]
fn ingest_faults_quarantine_uploads_without_poisoning_caches() {
    let config = SimtestConfig::default();
    let clean =
        run_simtest(&config, &FaultPlan { seed: config.seed, events: Vec::new() }).expect("clean run");
    // Flood the whole window and corrupt a few ordinals: every ingest
    // request in the stream must be rejected, and the quarantine
    // checker must still pass (no cache poisoning, no GCN leakage).
    let plan = FaultPlan {
        seed: config.seed,
        events: vec![
            FaultEvent::IngestFlood { ord_lo: 0, ord_hi: 23 },
            FaultEvent::IngestCorruptUpload { ordinal: 24 },
            FaultEvent::IngestCorruptUpload { ordinal: 25 },
        ],
    };
    plan.validate().expect("plan is well-formed");
    let run = run_simtest(&config, &plan).expect("harness runs");
    let report = &run.report;
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert!(report.serve.ingest_rejected > 0, "the flood quarantines uploads");
    assert!(
        report.serve.ingest_rejected > clean.report.serve.ingest_rejected,
        "faults reject more than the clean run"
    );
    assert_eq!(
        report.serve.ingest_accepted + report.serve.ingest_rejected,
        clean.report.serve.ingest_accepted + clean.report.serve.ingest_rejected,
        "faults change dispositions, never the number of ingest requests"
    );
}

#[test]
fn injected_faults_change_outcomes_but_not_invariants() {
    let config = SimtestConfig::default();
    let plan = FaultPlan {
        seed: config.seed,
        events: vec![
            FaultEvent::SpotStorm { job_lo: 0, job_hi: 2, attempts: 2, fraction_ppm: 900_000 },
            FaultEvent::VmStall { job_id: 3, stage: 0, pct: 250 },
            FaultEvent::OverloadBurst { ord_lo: 10, ord_hi: 14 },
            FaultEvent::CacheWipe { ordinal: 20 },
            FaultEvent::FeedbackDrop { ordinal: 8 },
            FaultEvent::FeedbackDelay { ordinal: 30, extra_us: 2_000_000 },
            FaultEvent::CanaryLatencySpike { ord_lo: 0, ord_hi: 159, spike_us: 200_000 },
            FaultEvent::SnapshotCorruption { byte_index: 1234 },
        ],
    };
    plan.validate().expect("plan is well-formed");
    let run = run_simtest(&config, &plan).expect("harness runs");
    let report = &run.report;
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert!(report.serve.shed >= 5, "the overload burst sheds its window");
    assert_eq!(report.lifecycle.feedback_dropped, 1);
    assert!(report.fault_spans > 0, "faults leave trace spans");
    assert_eq!(report.corruption_injected, 1);
    assert_eq!(report.corruption_rejected, 1, "the checksum rejects the bit-flip");
    // Fault accounting shows up in the canonical JSON too.
    assert!(report.to_json().contains("\"corruption_rejected\": 1"));
}

#[test]
fn generated_plans_replay_byte_identically() {
    let config = SimtestConfig::default();
    let plan = FaultPlan::generate(11, 6);
    let json = plan.to_json();
    let reloaded = FaultPlan::from_json(&json).expect("canonical JSON round-trips");
    assert_eq!(plan, reloaded);
    let a = run_simtest(&config, &plan).expect("first run");
    let b = run_simtest(&config, &reloaded).expect("replayed run");
    assert_eq!(a.report.to_json(), b.report.to_json());
}

#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let plan = FaultPlan {
        seed: 7,
        events: vec![
            FaultEvent::SpotStorm { job_lo: 1, job_hi: 4, attempts: 1, fraction_ppm: 500_000 },
            FaultEvent::OverloadBurst { ord_lo: 5, ord_hi: 9 },
            FaultEvent::FeedbackDrop { ordinal: 40 },
        ],
    };
    let mut renderings = Vec::new();
    for workers in [1usize, 2, 8] {
        let config = SimtestConfig { workers, ..SimtestConfig::default() };
        let run = run_simtest(&config, &plan).expect("harness runs");
        assert!(run.report.passed(), "violations at {workers} workers: {:?}", run.report.violations);
        renderings.push(run.report.to_json());
    }
    assert_eq!(renderings[0], renderings[1], "1 vs 2 workers");
    assert_eq!(renderings[0], renderings[2], "1 vs 8 workers");
}
