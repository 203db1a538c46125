//! Fault-injection integration tests: the golden seed-7 simtest report
//! is pinned byte for byte, the report is independent of worker count
//! through the workflow path, and — the harness's reason to exist —
//! the deliberately planted guardrail bug is caught by the invariant
//! suite and shrunk to a minimal (≤ 3 event) replayable reproducer.
//!
//! The planted bug lives behind the `planted-guardrail-bug` feature of
//! `eda-cloud-simtest`/`eda-cloud-lifecycle`; this test crate enables
//! it via a dev-dependency, so production builds never compile the
//! faulty path.

use eda_cloud::core::Workflow;
use eda_cloud::simtest::{run_simtest, shrink_plan, FaultEvent, FaultPlan, SimtestConfig};

mod common;

/// The CI smoke scenario's plan: six faults drawn from seed 7.
fn seed_7_plan() -> FaultPlan {
    FaultPlan::generate(7, 6)
}

/// Golden report for the CI smoke scenario (`simtest --seed 7 --faults
/// 6 --json`). The harness is deterministic in simulated time, so the
/// report is a pure function of config and plan — independent of worker
/// count, build profile, and platform. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test simtest_service` if a deliberate
/// change shifts it.
#[test]
fn golden_report_for_seed_7() {
    let workflow = Workflow::with_defaults();
    let config = SimtestConfig { seed: 7, ..SimtestConfig::default() };
    let report = workflow.simtest(&config, &seed_7_plan()).expect("simtest run");
    assert!(report.passed(), "seed-7 violations: {:?}", report.violations);
    assert!(report.fault_spans > 0, "the generated plan injects observable faults");
    common::assert_golden(&report.to_json(), "golden/simtest_report.json");
}

/// The `simtest --plan FILE` path: the same plan read back from its JSON
/// form goes through `Workflow::simtest` like a generated one, so it
/// renders the golden report and records the `simtest.*` counters.
#[test]
fn a_replayed_plan_renders_the_golden_and_records_metrics() {
    let replayed = FaultPlan::from_json(&seed_7_plan().to_json()).expect("plan round-trips");
    let workflow = Workflow::with_defaults().with_metrics(eda_cloud::trace::Metrics::new());
    let config = SimtestConfig { seed: 7, ..SimtestConfig::default() };
    let report = workflow.simtest(&config, &replayed).expect("simtest run");
    common::assert_golden(&report.to_json(), "golden/simtest_report.json");
    assert_eq!(workflow.metrics().counter("simtest.fault_events"), 6);
    assert_eq!(workflow.metrics().counter("simtest.fault_spans"), report.fault_spans);
}

#[test]
fn instrumented_workflow_exports_the_fault_span_tree() {
    let tracer = eda_cloud::trace::Tracer::new();
    let workflow = Workflow::with_defaults().with_tracer(tracer.clone());
    let config = SimtestConfig { seed: 7, ..SimtestConfig::default() };
    let report = workflow.simtest(&config, &seed_7_plan()).expect("simtest run");
    let trace = tracer.drain();
    let fault_spans = trace
        .records()
        .iter()
        .filter(|r| r.path.contains("fault/") || r.attrs.iter().any(|(k, _)| k == "fault"))
        .count() as u64;
    assert_eq!(fault_spans, report.fault_spans, "the exported trace carries every fault span");
    for phase in ["fleet/", "serve/", "lifecycle/"] {
        assert!(
            trace.records().iter().any(|r| r.path.starts_with(phase)),
            "adopted phase root `{phase}` missing from the exported trace"
        );
    }
}

#[test]
fn workflow_reports_are_byte_identical_across_worker_counts() {
    let run = |workers| {
        let config = SimtestConfig { seed: 7, workers, ..SimtestConfig::default() };
        Workflow::with_defaults().simtest(&config, &seed_7_plan()).expect("simtest run")
    };
    let serial = run(1).to_json();
    for workers in [2usize, 8] {
        let parallel = run(workers);
        assert_eq!(serial, parallel.to_json(), "fan-out must be invisible ({workers} workers)");
    }
}

/// The canary-window latency spike that the planted bug subtracts
/// before the guardrail sees it, padded with two decoy events the
/// shrinker must discard.
fn buggy_plan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        events: vec![
            FaultEvent::CacheWipe { ordinal: 3 },
            FaultEvent::CanaryLatencySpike { ord_lo: 0, ord_hi: 159, spike_us: 10_000_000 },
            FaultEvent::FeedbackDelay { ordinal: 50, extra_us: 500_000 },
        ],
    }
}

#[test]
fn planted_guardrail_bug_is_caught_and_shrunk_to_a_minimal_reproducer() {
    let config = SimtestConfig { planted_guardrail_bug: true, ..SimtestConfig::default() };

    // The sound controller survives the same plan: a 10 s spike on
    // every canary join trips the latency guardrail and rolls back,
    // which replays consistently.
    let sound = run_simtest(&SimtestConfig::default(), &buggy_plan()).expect("harness runs");
    assert!(sound.report.passed(), "sound run violations: {:?}", sound.report.violations);
    assert!(sound.report.lifecycle.rollbacks > 0, "the guardrail rolls the canary back");

    // The planted bug subtracts the spike before recording, blinding
    // the guardrail into a promotion the feedback log cannot justify.
    let buggy = run_simtest(&config, &buggy_plan()).expect("harness runs");
    assert!(
        buggy.report.violations.iter().any(|v| v.checker == "guardrail_soundness"),
        "the invariant suite must catch the planted bug; got {:?}",
        buggy.report.violations
    );
    assert!(buggy.report.lifecycle.promotions > 0, "the blinded guardrail promotes");

    // ddmin strips the decoys: the spike alone reproduces the failure.
    let minimal = shrink_plan(&config, &buggy_plan()).expect("a failing plan shrinks");
    assert!(minimal.events.len() <= 3, "minimal reproducer too large: {:?}", minimal.events);
    assert!(
        minimal.events.iter().any(|e| matches!(e, FaultEvent::CanaryLatencySpike { .. })),
        "the spike is essential: {:?}",
        minimal.events
    );
    assert!(
        !minimal.events.iter().any(|e| matches!(e, FaultEvent::CacheWipe { .. })),
        "decoys are shrunk away: {:?}",
        minimal.events
    );

    // The reproducer replays the same violation from its canonical
    // JSON form — the artifact a CI failure would emit for check-in.
    let replayed = FaultPlan::from_json(&minimal.to_json()).expect("reproducer round-trips");
    let rerun = run_simtest(&config, &replayed).expect("harness runs");
    assert!(rerun.report.violations.iter().any(|v| v.checker == "guardrail_soundness"));
}
