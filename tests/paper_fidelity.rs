//! Paper-fidelity pins. Problem 3: Table I and Figure 6 on the
//! paper's own sparc_core runtime matrix (EXPERIMENTS.md § Table I,
//! § Figure 6). Problem 1: Figure 2's orderings on the `fig2 --smoke`
//! design, and 2-b's cache-miss drop on the `fig2 --design l2_bank`
//! design. A solver, pricing or engine change that moves a published
//! number or ordering fails here, not in a report nobody diffs.
//!
//! Figure 3's "speed-up grows with design size" is left out on
//! purpose: it does not hold on the smoke-sized designs (routing at 8
//! vCPUs reads 2.94x / 2.37x / 3.45x for `dynamic_node` / `aes` /
//! `fpu`), and `fig3 --smoke` takes about 13 s in release.

use eda_cloud::core::{CharacterizationConfig, StageRuntimes, Workflow};
use eda_cloud::flow::{ExecContext, Placer, Recipe, StageKind, Synthesizer};
use eda_cloud::mckp::{Objective, Solver};
use eda_cloud::netlist::generators;

/// Table I's measured runtimes (seconds at 1, 2, 4, 8 vCPUs).
fn paper_runtimes() -> Vec<StageRuntimes> {
    [
        (StageKind::Synthesis, [6100.0, 4342.0, 3449.0, 3352.0]),
        (StageKind::Placement, [1206.0, 905.0, 644.0, 519.0]),
        (StageKind::Routing, [10461.0, 5514.0, 2894.0, 1692.0]),
        (StageKind::Sta, [183.0, 119.0, 90.0, 82.0]),
    ]
    .into_iter()
    .map(|(kind, runtimes_secs)| StageRuntimes { kind, runtimes_secs })
    .collect()
}

#[test]
fn table1_rows_match_the_recorded_reproduction() {
    let workflow = Workflow::with_defaults();
    let runtimes = paper_runtimes();
    // constraint → (vCPUs per stage, total runtime, cost in cents).
    let rows = [
        (10_000, Some(([2, 2, 4, 2], 8260, 35))),
        (6_000, Some(([4, 4, 8, 2], 5904, 47))),
        (5_645, Some(([8, 8, 8, 8], 5645, 68))),
        (5_000, None),
    ];
    let problem = workflow.deployment_problem(&runtimes).expect("problem");
    for (constraint, expected) in rows {
        let plan = workflow.plan_deployment(&runtimes, constraint).expect("solves");
        let got = plan.map(|p| {
            let vcpus: Vec<u32> = p.stages.iter().map(|s| s.vcpus).collect();
            (vcpus, p.total_runtime_secs, (p.total_cost_usd * 100.0).round() as u64)
        });
        let expected = expected.map(|(vcpus, secs, cents)| (vcpus.to_vec(), secs, cents));
        assert_eq!(got, expected, "constraint {constraint} s");

        // The paper's objective agrees on which deadlines are feasible.
        let paper = Solver::new().solve(&problem, constraint, Objective::MaxInverseCost);
        assert_eq!(paper.is_some(), expected.is_some(), "constraint {constraint} s");
    }
}

#[test]
fn fig6_savings_stay_in_the_papers_band() {
    let workflow = Workflow::with_defaults();
    let runtimes = paper_runtimes();
    let fastest = workflow
        .deployment_problem(&runtimes)
        .expect("problem")
        .min_total_runtime();
    assert_eq!(fastest, 5645);

    // fig6's sweep: the feasibility edge up to fully relaxed.
    let mut averages = Vec::new();
    for rel in [1.0, 1.1, 1.25, 1.5, 1.77, 2.0, 2.5, 3.0] {
        let deadline = (fastest as f64 * rel).round() as u64;
        let savings = workflow
            .plan_deployment(&runtimes, deadline)
            .expect("solves")
            .expect("feasible at or above the fastest total")
            .savings;
        if rel >= 1.5 {
            assert!(savings.saving_vs_over >= 0.0, "vs over at {rel}x");
            assert!(savings.saving_vs_under >= 0.0, "vs under at {rel}x");
        }
        averages.push(savings.average_saving());
    }
    // Paper: 35.29 %; recorded reproduction: 30.8 %.
    let average = averages.iter().sum::<f64>() / averages.len() as f64;
    assert!((0.25..=0.40).contains(&average), "average saving {average}");
}

#[test]
fn fig2_orderings_hold_on_the_smoke_design() {
    let design = generators::openpiton_design("dynamic_node").expect("known design");
    let report = Workflow::with_defaults()
        .characterize_design(&design, &CharacterizationConfig::paper())
        .expect("characterizes");
    let stage = |kind| report.stage(kind).expect("all four stages are swept");
    let counters = |kind, vcpus| stage(kind).at_vcpus(vcpus).expect("swept").report.counters;
    let others = |kind| StageKind::ALL.into_iter().filter(move |&k| k != kind);

    // (a) Routing is the branchiest stage at either end of the sweep.
    for vcpus in [1, 8] {
        let routing = counters(StageKind::Routing, vcpus).branch_miss_rate();
        for kind in others(StageKind::Routing) {
            assert!(routing > counters(kind, vcpus).branch_miss_rate(), "{kind} at {vcpus} vCPUs");
        }
    }

    // (c) Placement is the most AVX-heavy stage, STA the second;
    // synthesis and routing do no floating-point work at all.
    let avx = |kind| {
        let c = counters(kind, 1);
        c.avx_share() * c.fp_instruction_share()
    };
    assert!(avx(StageKind::Placement) > avx(StageKind::Sta));
    assert!(avx(StageKind::Sta) > 0.0);
    assert_eq!(avx(StageKind::Synthesis), 0.0);
    assert_eq!(avx(StageKind::Routing), 0.0);

    // (d) Routing scales best and synthesis worst, and no stage gets
    // slower with more vCPUs.
    let speedup = |kind| *stage(kind).speedups().last().expect("swept");
    for kind in others(StageKind::Routing) {
        assert!(speedup(StageKind::Routing) > speedup(kind), "{kind}");
    }
    for kind in others(StageKind::Synthesis) {
        assert!(speedup(StageKind::Synthesis) < speedup(kind), "{kind}");
    }
    for kind in StageKind::ALL {
        let runtimes: Vec<f64> = stage(kind).runs.iter().map(|r| r.report.runtime_secs).collect();
        assert!(runtimes.windows(2).all(|w| w[1] <= w[0]), "{kind}: {runtimes:?}");
    }
}

/// 2-b: the paper explains placement's falling cache-miss rate with
/// "more vCPUs buy more last-level cache". On `l2_bank` the placer's
/// working set outgrows the 1-vCPU LLC slice and fits the 8-vCPU one,
/// so its miss rate at 8 vCPUs is below half the 1-vCPU rate (`fig2
/// --design l2_bank` prints it in (b)'s placement row: 36.9 % → 0.9 %).
#[test]
fn fig2b_placement_misses_fall_with_the_llc_share() {
    let design = generators::openpiton_design("l2_bank").expect("known design");
    let ctxs = [1, 8].map(ExecContext::with_vcpus);
    let (netlist, _) = Synthesizer::new()
        .with_verification(false)
        .run(&design, &Recipe::balanced(), &ctxs[0])
        .expect("synthesis");
    let (_, reports) = Placer::new().run_sweep(&netlist, &ctxs).expect("placement");
    let [one, eight] = [0, 1].map(|k| reports[k].counters.perf_cache_miss_rate());
    assert!(eight < one / 2.0, "placement cache-miss rate {one} at 1 vCPU, {eight} at 8");
}
