//! Differential tests: one engine run for a whole sweep equals one run
//! per context.
//!
//! Every engine serves every context of a sweep from one run
//! (`run_sweep`); `run` is the one-context case. Sharing is exact only
//! if nothing a context's result depends on leaks between contexts —
//! the sweep probe's per-machine LLC and FP split, the router's
//! per-context makespans, the span fan-out — so `run_sweep(ctxs)[k]`
//! is held to `run(ctxs[k])` field for field, bits for floats, over
//! every generator family and context lists that are permuted,
//! repeated, and mixed across instance families. Synthesis is also
//! held to a reference that shares no probe code with the sweep: one
//! `run_traced` event recording, replayed per machine.

use eda_cloud_flow::{
    ExecContext, FlowError, Placement, Placer, Recipe, Router, RoutingResult, StaEngine,
    StageReport, Synthesizer,
};
use eda_cloud_netlist::{generators, Aig, Netlist};
use eda_cloud_perf::{MachineConfig, MachineModel};
use eda_cloud_trace::{Trace, Tracer};

/// Every field of a report, floats by bit pattern.
fn report_bits(r: &StageReport) -> impl PartialEq + std::fmt::Debug {
    let w = &r.work;
    (
        r.kind,
        r.counters,
        r.runtime_secs.to_bits(),
        r.parallel_fraction.to_bits(),
        [
            w.serial_cycles.to_bits(),
            w.parallel_cycles.to_bits(),
            w.mem_serial_cycles.to_bits(),
            w.mem_parallel_cycles.to_bits(),
            w.sync_cycles.to_bits(),
        ],
    )
}

/// Synthesis of `aig` as one sweep over `ctxs`, held to one run per
/// context and to one `run_traced` recording replayed per context.
fn assert_synthesis_sweep_equals_runs(
    aig: &Aig,
    recipe: &Recipe,
    ctxs: &[ExecContext],
    verify: bool,
    what: &str,
) -> Netlist {
    let synthesizer = Synthesizer::new().with_verification(verify);
    let (swept, singles, sweep_trace, single_trace) = both_ways(
        ctxs,
        "synthesis",
        |c| synthesizer.run_sweep(aig, recipe, c).expect("synthesis sweep"),
        |c| synthesizer.run(aig, recipe, c).expect("synthesis"),
    );
    let (netlist, reports) = swept;
    let (recorded, _, recording) = synthesizer
        .run_traced(aig, recipe, &ExecContext::with_vcpus(1))
        .expect("traced synthesis");
    assert_eq!(format!("{netlist:?}"), format!("{recorded:?}"), "{what}: recorded netlist");
    assert_eq!(reports.len(), ctxs.len(), "{what}");
    for (k, (single_netlist, single_report)) in singles.iter().enumerate() {
        assert_eq!(format!("{netlist:?}"), format!("{single_netlist:?}"), "{what}: netlist at context {k}");
        assert_eq!(report_bits(&reports[k]), report_bits(single_report), "{what}: synthesis report {k}");
        let replayed = Synthesizer::report_from_trace(&recording, &ctxs[k]);
        assert_eq!(report_bits(&reports[k]), report_bits(&replayed), "{what}: replayed report {k}");
    }
    assert_eq!(sweep_trace, single_trace, "{what}: synthesis spans");
    assert_eq!(sweep_trace.records().is_empty(), ctxs.is_empty(), "{what}: passes and mapping are traced");
    netlist
}

/// `family` at `size` synthesized under `recipe`, as a sweep over each
/// of the four context lists with verification on and off.
fn synthesized(family: &str, size: u32, recipe: &Recipe) -> Netlist {
    let aig = generators::build_family(family, size).expect("known family");
    (0..4)
        .flat_map(|variant| [(variant, true), (variant, false)])
        .map(|(variant, verify)| {
            let what = format!("{family}{size}.{} contexts {variant} verify {verify}", recipe.name());
            assert_synthesis_sweep_equals_runs(&aig, recipe, &context_list(variant), verify, &what)
        })
        .collect::<Vec<_>>()
        .pop()
        .expect("eight sweeps")
}

/// Context lists a sweep may be asked for; `variant` picks one.
fn context_list(variant: usize) -> Vec<ExecContext> {
    let gp = |v| ExecContext::with_vcpus(v);
    // Memory-optimized sizes: +50% bandwidth per vCPU.
    let mo = |v| {
        let base = MachineConfig::vcpus(v);
        ExecContext::new(MachineConfig { mem_bw_gbps: base.mem_bw_gbps * 1.5, ..base })
    };
    match variant % 4 {
        // The paper's sweep.
        0 => vec![gp(1), gp(2), gp(4), gp(8)],
        // Permuted, with repeats.
        1 => vec![gp(8), gp(1), gp(4), gp(1), gp(2), gp(8)],
        // Both instance families, interleaved.
        2 => vec![mo(4), gp(4), mo(1), gp(8), mo(2), mo(8)],
        // No AVX, a calibrated model.
        _ => {
            let scalar = ExecContext::new(MachineConfig { avx: false, ..MachineConfig::vcpus(4) });
            let scaled = gp(2).with_model(MachineModel::with_work_scale(2_420.0));
            vec![scalar, mo(8), scaled, gp(1)]
        }
    }
}

/// Give context `k` a root span of its own on `tracer`.
fn traced(ctxs: &[ExecContext], tracer: &Tracer, stage: &str) -> Vec<ExecContext> {
    ctxs.iter()
        .enumerate()
        .map(|(k, ctx)| ctx.clone().with_span(tracer.root_at(k as u64, &format!("{stage}/{k}"))))
        .collect()
}

/// Run `sweep` over traced copies of `ctxs` and `single` over each one
/// alone on a second tracer; hand back both outcomes and both traces.
fn both_ways<S, T>(
    ctxs: &[ExecContext],
    stage: &str,
    sweep: impl FnOnce(&[ExecContext]) -> S,
    single: impl Fn(&ExecContext) -> T,
) -> (S, Vec<T>, Trace, Trace) {
    let (sweep_tracer, single_tracer) = (Tracer::new(), Tracer::new());
    let swept = sweep(&traced(ctxs, &sweep_tracer, stage));
    let singles = traced(ctxs, &single_tracer, stage).iter().map(single).collect();
    (swept, singles, sweep_tracer.drain(), single_tracer.drain())
}

fn assert_flow_sweeps_equal_runs(netlist: &Netlist, ctxs: &[ExecContext], what: &str) -> Vec<RoutingResult> {
    let placer = Placer::new();
    let (swept, singles, sweep_trace, single_trace) = both_ways(
        ctxs,
        "placement",
        |c| placer.run_sweep(netlist, c).expect("placement sweep"),
        |c| placer.run(netlist, c).expect("placement"),
    );
    let (placement, reports) = swept;
    assert_eq!(reports.len(), ctxs.len(), "{what}");
    for (k, (single_placement, single_report)) in singles.iter().enumerate() {
        assert_eq!(&placement, single_placement, "{what}: placement at context {k}");
        assert_eq!(report_bits(&reports[k]), report_bits(single_report), "{what}: placement report {k}");
    }
    assert_eq!(sweep_trace, single_trace, "{what}: placement spans");

    let sta = StaEngine::new();
    let (swept, singles, sweep_trace, single_trace) = both_ways(
        ctxs,
        "sta",
        |c| sta.run_sweep(netlist, &placement, c).expect("sta sweep"),
        |c| sta.run(netlist, &placement, c).expect("sta"),
    );
    let (timing, reports) = swept;
    assert_eq!(reports.len(), ctxs.len(), "{what}");
    for (k, (single_timing, single_report)) in singles.iter().enumerate() {
        assert_eq!(&timing, single_timing, "{what}: timing at context {k}");
        assert_eq!(report_bits(&reports[k]), report_bits(single_report), "{what}: sta report {k}");
    }
    assert_eq!(sweep_trace, single_trace, "{what}: sta spans");

    let router = Router::new();
    let (swept, singles, sweep_trace, single_trace) = both_ways(
        ctxs,
        "routing",
        |c| router.run_sweep(netlist, &placement, c).expect("routing sweep"),
        |c| router.run(netlist, &placement, c).expect("routing"),
    );
    assert_eq!(swept.len(), ctxs.len(), "{what}");
    for (k, ((result, report), (single_result, single_report))) in swept.iter().zip(&singles).enumerate() {
        assert_eq!(result, single_result, "{what}: routing result {k}");
        assert_eq!(report_bits(report), report_bits(single_report), "{what}: routing report {k}");
    }
    assert_eq!(sweep_trace, single_trace, "{what}: routing spans");
    swept.into_iter().map(|(result, _)| result).collect()
}

/// All 18 families at sizes 4-8 under `recipe`, cycling through the
/// context lists from `first_variant`.
fn assert_sweeps_equal_runs_on_every_family(recipe: &Recipe, first_variant: usize) {
    let mut variant = first_variant;
    for family in generators::FAMILY_NAMES {
        for size in 4..=8 {
            let netlist = synthesized(family, size, recipe);
            let what = format!("{family}{size}.{} contexts {}", recipe.name(), variant % 4);
            assert_flow_sweeps_equal_runs(&netlist, &context_list(variant), &what);
            variant += 1;
        }
    }
}

// One test per recipe, so the two halves run on two test threads.
#[test]
fn sweeps_equal_per_context_runs_on_every_family_balanced() {
    assert_sweeps_equal_runs_on_every_family(&Recipe::balanced(), 0);
}

#[test]
fn sweeps_equal_per_context_runs_on_every_family_resyn2() {
    assert_sweeps_equal_runs_on_every_family(&Recipe::standard_suite().swap_remove(3), 2);
}

#[test]
fn router_negotiates_once_per_netlist() {
    // One layout per netlist: every context of the paper's sweep, and
    // of a permuted list with repeats, gets the same `RoutingResult`;
    // only the reports differ.
    for (family, size) in [("multiplier", 6), ("parity", 4)] {
        let netlist = synthesized(family, size, &Recipe::balanced());
        for variant in [0, 1] {
            let what = format!("{family}{size} contexts {variant}");
            let results = assert_flow_sweeps_equal_runs(&netlist, &context_list(variant), &what);
            assert!(results.windows(2).all(|w| w[0] == w[1]), "{what}: {results:?}");
            assert!(results[0].batches > 0, "{what}: {results:?}");
        }
    }
    // An empty sweep returns what does not depend on a context — the
    // netlist, the placement, the timing — and no reports.
    let aig = generators::build_family("parity", 4).expect("known family");
    let netlist = assert_synthesis_sweep_equals_runs(&aig, &Recipe::balanced(), &[], true, "parity4, no contexts");
    assert_flow_sweeps_equal_runs(&netlist, &[], "parity4, no contexts");
}

#[test]
fn a_design_no_context_can_run_fails_the_sweep_as_it_fails_each_run() {
    // `Unroutable` cannot be provoked from outside the crate (see the
    // router's own `failing_sweep_returns_the_first_contexts_error`):
    // the error every engine reports through its public entry points is
    // the empty design, and a sweep reports it like a single run does.
    let empty = Netlist::new("empty", "synth14");
    let placement = Placement {
        x: vec![],
        y: vec![],
        die_um: (1.0, 1.0),
        hpwl_um: 0.0,
        pi_pins: vec![],
        po_pins: vec![],
    };
    let ctxs = context_list(1);
    let logic_free = Aig::new("empty");
    let synthesizer = Synthesizer::new();
    assert_eq!(synthesizer.run_sweep(&logic_free, &Recipe::raw(), &ctxs).unwrap_err(), FlowError::EmptyDesign);
    assert_eq!(synthesizer.run(&logic_free, &Recipe::raw(), &ctxs[0]).unwrap_err(), FlowError::EmptyDesign);
    assert_eq!(Placer::new().run_sweep(&empty, &ctxs).unwrap_err(), FlowError::EmptyDesign);
    assert_eq!(StaEngine::new().run_sweep(&empty, &placement, &ctxs).unwrap_err(), FlowError::EmptyDesign);
    assert_eq!(Router::new().run_sweep(&empty, &placement, &ctxs).unwrap_err(), FlowError::EmptyDesign);
}
