//! Golden regression tests: pinned counter signatures and MCKP
//! selections for two fixed designs.
//!
//! Every quantity here is fully deterministic (simulated counters, a
//! seeded verifier, and an exact knapsack solve), so any drift is a
//! behavior change in the flow engines, the machine model, or the
//! optimizer — not noise. Each design's characterization renders to a
//! canonical text document compared byte for byte against
//! `tests/golden/characterization.txt`; if a change is intentional,
//! regenerate with `UPDATE_GOLDEN=1 cargo test --test golden` and
//! review the diff.

use eda_cloud::core::{
    CharacterizationConfig, CharacterizationReport, StageRuntimes, Workflow,
};
use eda_cloud::netlist::generators;
use eda_cloud::netlist::Aig;
use eda_cloud::perf::CounterSet;
use std::fmt::Write as _;

mod common;

fn characterize(design: &Aig) -> CharacterizationReport {
    Workflow::with_defaults()
        .characterize_design(design, &CharacterizationConfig::paper())
        .expect("characterization runs")
}

/// Render one design's 1-vCPU counter signatures plus the MCKP
/// selections at two deadlines into the canonical golden text: the
/// fastest total the catalog allows, which forces wide instances, and
/// 1.77x of it (the paper's loosest relative constraint), where the
/// solver drops to cheap narrow ones.
fn render_signature(report: &CharacterizationReport) -> String {
    let mut out = String::new();
    writeln!(out, "design {} cells {}", report.design, report.cells).unwrap();
    for stage in &report.stages {
        let run = &stage.runs[0];
        assert_eq!(run.vcpus, 1, "{} {}: signature pins the 1-vCPU run", report.design, stage.kind);
        let c: &CounterSet = &run.report.counters;
        writeln!(
            out,
            "stage {} instructions {} branches {} branch_misses {} cache_refs {} \
             l1_misses {} llc_misses {} flops {} avx_ops {}",
            stage.kind,
            c.instructions,
            c.branches,
            c.branch_misses,
            c.cache_refs,
            c.l1_misses,
            c.llc_misses,
            c.flops,
            c.avx_ops,
        )
        .unwrap();
    }
    let workflow = Workflow::with_defaults();
    let runtimes: Vec<StageRuntimes> = report
        .stages
        .iter()
        .map(|s| {
            let mut runtimes_secs = [0.0; 4];
            for (k, run) in s.runs.iter().enumerate() {
                runtimes_secs[k] = run.report.runtime_secs;
            }
            StageRuntimes { kind: s.kind, runtimes_secs }
        })
        .collect();
    let fastest = workflow.deployment_problem(&runtimes).expect("problem").min_total_runtime();
    for budget_secs in [fastest, (fastest as f64 * 1.77).round() as u64] {
        let plan = workflow
            .plan_deployment(&runtimes, budget_secs)
            .expect("solver runs")
            .expect("budget feasible");
        let picks: Vec<String> = plan.stages.iter().map(|s| s.vcpus.to_string()).collect();
        writeln!(
            out,
            "plan budget {} vcpus {} runtime {} cost {:.6}",
            budget_secs,
            picks.join(","),
            plan.total_runtime_secs,
            plan.total_cost_usd,
        )
        .unwrap();
    }
    out
}

/// The two pinned designs.
fn characterization_document() -> String {
    let dynamic_node = generators::openpiton_design("dynamic_node").expect("known design");
    let mut doc = render_signature(&characterize(&dynamic_node));
    doc.push('\n');
    doc.push_str(&render_signature(&characterize(&generators::multiplier(8))));
    doc
}

#[test]
fn counters_and_selections_are_pinned() {
    common::assert_golden(&characterization_document(), "golden/characterization.txt");
}

#[test]
fn characterization_document_is_deterministic() {
    assert_eq!(characterization_document(), characterization_document());
}

/// A golden failure names where the documents part: on a one-line JSON
/// report that differs in one nested value, the message gives the full
/// key path of that value and an excerpt of both sides.
#[test]
fn golden_drift_names_the_changed_key() {
    let golden = r#"{"seed":7,"latency":{"p50_ms":9.10,"p95_ms":9.10},"plans":13}"#;
    let actual = r#"{"seed":7,"latency":{"p50_ms":9.10,"p95_ms":9.25},"plans":13}"#;
    let message = common::first_difference(golden, actual);
    assert!(message.contains("under key latency.p95_ms\n"), "{message}");
    assert!(message.contains("line 1"), "{message}");
    assert!(message.contains("9.10") && message.contains("9.25"), "{message}");
    let (golden, actual) = ("{\n  \"a\": 1,\n  \"b\": 2\n}", "{\n  \"a\": 1,\n  \"b\": 3\n}");
    let multi_line = common::first_difference(golden, actual);
    assert!(multi_line.contains("line 3, byte 19, under key b\n"), "{multi_line}");
}

/// The key path follows nesting: object keys joined by `.`, array
/// elements by index, a closed container dropped from the path.
#[test]
fn golden_drift_names_the_full_key_path() {
    let path = |golden: &str, actual: &str| {
        let message = common::first_difference(golden, actual);
        let after = message.split_once("under key ").expect("a key clause").1;
        after.lines().next().expect("one line").to_owned()
    };
    // A nested object, entered after a closed sibling.
    let golden = r#"{"seed":7,"meta":{"v":1},"counters":{"served":4,"requests":12}}"#;
    let actual = r#"{"seed":7,"meta":{"v":1},"counters":{"served":4,"requests":13}}"#;
    assert_eq!(path(golden, actual), "counters.requests");
    // An array of objects, each holding an array.
    let golden = r#"{"stages":[{"runs":[{"secs":1}]},{"runs":[]},{"runs":[{"secs":2},{"secs":3}]}]}"#;
    let actual = r#"{"stages":[{"runs":[{"secs":1}]},{"runs":[]},{"runs":[{"secs":2.5},{"secs":3}]}]}"#;
    assert_eq!(path(golden, actual), "stages[2].runs[0].secs");
    // Commas, braces and escaped quotes inside strings are text.
    let golden = r#"{"say \"hi\", {x}":{"n":[1,2]},"tail":"a\"b,c","z":1}"#;
    let actual = r#"{"say \"hi\", {x}":{"n":[1,3]},"tail":"a\"b,c","z":1}"#;
    assert_eq!(path(golden, actual), r#"say \"hi\", {x}.n[1]"#);
    let actual = r#"{"say \"hi\", {x}":{"n":[1,2]},"tail":"a\"b,c","z":2}"#;
    assert_eq!(path(golden, actual), "z");
    // Text that is not JSON names no key.
    assert_eq!(path("stage a 1\nstage b 2", "stage a 1\nstage b 3"), "(none)");
}
