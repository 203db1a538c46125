//! Determinism guarantees: every pipeline stage is bit-reproducible
//! given the same inputs — a requirement for reproducible experiments.

use eda_cloud::core::dataset::{DatasetBuilder, DatasetConfig};
use eda_cloud::core::{CharacterizationConfig, Workflow};
use eda_cloud::flow::{
    run_full_flow, ExecContext, Placer, Recipe, Router, StaEngine, StageKind, StageReport,
    Synthesizer,
};
use eda_cloud::gcn::{DatasetSplit, Trainer};
use eda_cloud::netlist::{generators, Netlist};
use eda_cloud::trace::{Metrics, Span, Tracer};

#[test]
fn full_flow_is_deterministic() {
    let design = generators::openpiton_design("dynamic_node").expect("known design");
    let ctx = ExecContext::with_vcpus(4);
    let a = run_full_flow(&design, &Recipe::balanced(), &ctx).expect("flow");
    let b = run_full_flow(&design, &Recipe::balanced(), &ctx).expect("flow");
    assert_eq!(a.netlist.cell_count(), b.netlist.cell_count());
    assert_eq!(a.placement.x, b.placement.x);
    assert_eq!(a.routing.wirelength, b.routing.wirelength);
    assert_eq!(a.timing.critical_path_ps, b.timing.critical_path_ps);
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.counters, rb.counters, "{} counters", ra.kind);
        assert_eq!(ra.runtime_secs, rb.runtime_secs, "{} runtime", ra.kind);
    }
}

#[test]
fn characterization_is_deterministic() {
    let workflow = Workflow::with_defaults();
    let design = generators::adder(10);
    let cfg = CharacterizationConfig::fast();
    let a = workflow.characterize_design(&design, &cfg).expect("runs");
    let b = workflow.characterize_design(&design, &cfg).expect("runs");
    assert_eq!(a, b);
}

#[test]
fn training_is_deterministic() {
    let workflow = Workflow::with_defaults();
    let mut cfg = DatasetConfig::smoke();
    cfg.families = vec!["adder".into(), "parity".into()];
    cfg.recipes = 2;
    let data = DatasetBuilder::new(&workflow).build(&cfg).expect("corpus");
    let mut trainer = Trainer::fast();
    trainer.epochs = 10;
    let split = DatasetSplit::by_design(&data.routing, 0.3, 1);
    let a = trainer.fit(&data.routing, &split);
    let b = trainer.fit(&data.routing, &split);
    assert_eq!(a.report.epoch_losses, b.report.epoch_losses);
    assert_eq!(a.report.test_errors, b.report.test_errors);
}

#[test]
fn characterization_is_identical_across_sweep_orders() {
    // Routing lays a netlist out once for every machine, so a vCPU
    // count's reports do not depend on which other counts are swept
    // with it, or in what order.
    let workflow = Workflow::with_defaults();
    let design = generators::openpiton_design("dynamic_node").expect("known design");
    let paper = CharacterizationConfig::paper();
    let full = workflow.characterize_design(&design, &paper).expect("paper sweep");
    for vcpu_sweep in [vec![8, 4, 2, 1], vec![4]] {
        let cfg = CharacterizationConfig { vcpu_sweep: vcpu_sweep.clone(), ..paper.clone() };
        let other = workflow.characterize_design(&design, &cfg).expect("sweep");
        for (stage, full_stage) in other.stages.iter().zip(&full.stages) {
            for run in &stage.runs {
                let want = full_stage.at_vcpus(run.vcpus);
                assert_eq!(Some(run), want, "{} at {} vCPUs, sweep {vcpu_sweep:?}", stage.kind, run.vcpus);
            }
        }
    }
}

#[test]
fn dataset_build_is_identical_across_worker_counts() {
    // Corpus entries are reduced in canonical (family, size, recipe)
    // order, so the corpus must not depend on the worker count either.
    let workflow = Workflow::with_defaults();
    let cfg = DatasetConfig::smoke();
    let serial = DatasetBuilder::new(&workflow)
        .build(&cfg.clone().with_workers(1))
        .expect("serial corpus");
    let parallel = DatasetBuilder::new(&workflow)
        .build(&cfg.with_workers(4))
        .expect("parallel corpus");
    assert_eq!(serial, parallel);
}

/// A sweep's runtimes, by bit pattern.
fn label_bits<'a>(reports: impl IntoIterator<Item = &'a StageReport>) -> Vec<u64> {
    reports.into_iter().map(|r| r.runtime_secs.to_bits()).collect()
}

/// Whether two netlists are the same circuit under different names.
fn same_structure(a: &Netlist, b: &Netlist) -> bool {
    (a.library(), a.cells(), a.nets(), a.primary_inputs(), a.primary_outputs())
        == (b.library(), b.cells(), b.nets(), b.primary_inputs(), b.primary_outputs())
}

/// Build `cfg` with `DatasetBuilder` at 1 and 4 workers and hold it to
/// every (family, size, recipe) entry swept on its own through the
/// engines' public `run_sweep`, under the spans the builder names:
/// names, labels by bits, the distinct-netlist count, and the drained
/// trace record for record. Returns the entries' netlists.
fn assert_build_equals_per_entry_loop(cfg: &DatasetConfig) -> Vec<Netlist> {
    const VCPUS: [u32; 4] = [1, 2, 4, 8];
    let tracer = Tracer::new();
    let workflow = Workflow::with_defaults().with_tracer(tracer.clone());
    let recipes: Vec<Recipe> = Recipe::standard_suite().into_iter().take(cfg.recipes).collect();
    let (mut labels, mut names, mut netlists) = (Vec::new(), Vec::new(), Vec::<Netlist>::new());
    let mut index = 0u64;
    for family in &cfg.families {
        for &size in &cfg.sizes {
            for recipe in &recipes {
                let entry = tracer.root_at(index, &format!("corpus/{index:04}"));
                index += 1;
                entry.attr("design", format_args!("{family}{size}"));
                entry.attr("recipe", recipe.name());
                let points: Vec<Span> = VCPUS.iter().map(|v| entry.child(&format!("vcpus/{v}"))).collect();
                let contexts = |stage: StageKind| -> Vec<ExecContext> {
                    VCPUS
                        .iter()
                        .zip(&points)
                        .map(|(&v, point)| workflow.exec_context(stage, v).with_span(point.child(&stage.to_string())))
                        .collect()
                };
                let aig = generators::build_family(family, size).expect("known family");
                let (netlist, syn) = Synthesizer::new()
                    .with_verification(cfg.verify)
                    .run_sweep(&aig, recipe, &contexts(StageKind::Synthesis))
                    .expect("synthesis");
                let (placement, place) =
                    Placer::new().run_sweep(&netlist, &contexts(StageKind::Placement)).expect("placement");
                let routed = Router::new()
                    .run_sweep(&netlist, &placement, &contexts(StageKind::Routing))
                    .expect("routing");
                let (_, sta) =
                    StaEngine::new().run_sweep(&netlist, &placement, &contexts(StageKind::Sta)).expect("sta");
                labels.push([
                    label_bits(&syn),
                    label_bits(&place),
                    label_bits(routed.iter().map(|(_, report)| report)),
                    label_bits(&sta),
                ]);
                names.push(format!("{family}{size}.{}", recipe.name()));
                netlists.push(netlist);
            }
        }
    }
    let reference_trace = tracer.drain();
    let distinct = (0..netlists.len())
        .filter(|&i| !netlists[..i].iter().any(|earlier| same_structure(earlier, &netlists[i])))
        .count();

    for workers in [1, 4] {
        let tracer = Tracer::new();
        let metrics = Metrics::new();
        let workflow = Workflow::with_defaults().with_tracer(tracer.clone()).with_metrics(metrics.clone());
        let built = DatasetBuilder::new(&workflow)
            .build(&cfg.clone().with_workers(workers))
            .expect("corpus");
        assert_eq!(metrics.counter("dataset.distinct_netlists"), distinct as u64, "workers={workers}");
        for (stage, kind) in StageKind::ALL.into_iter().enumerate() {
            let samples = built.for_stage(kind);
            assert_eq!(samples.len(), labels.len(), "{kind} samples, workers={workers}");
            for (i, sample) in samples.iter().enumerate() {
                assert_eq!(sample.name, names[i], "{kind} sample {i}, workers={workers}");
                assert_eq!(
                    sample.targets_secs.map(f64::to_bits).to_vec(),
                    labels[i][stage],
                    "{kind} labels of {}, workers={workers}",
                    names[i]
                );
            }
        }
        let trace = tracer.drain();
        assert_eq!(trace.len(), reference_trace.len(), "span count, workers={workers}");
        for (got, want) in trace.records().iter().zip(reference_trace.records()) {
            assert_eq!(got, want, "span, workers={workers}");
        }
    }
    netlists
}

#[test]
fn dataset_build_equals_a_per_entry_sweep_loop() {
    // The builder labels each distinct netlist once; the smoke corpus
    // has entries that repeat an earlier netlist under another recipe.
    let smoke = assert_build_equals_per_entry_loop(&DatasetConfig::smoke());
    let repeats = (1..smoke.len()).filter(|&i| smoke[..i].iter().any(|e| same_structure(e, &smoke[i]))).count();
    assert!(repeats > 0, "the smoke corpus repeats a netlist");

    // alu4 under raw and balanced: two different netlists with equal
    // cell, net and port counts, which a grouping that compared sizes
    // only would merge.
    let mut near_miss = DatasetConfig::smoke();
    near_miss.families = vec!["alu".to_owned()];
    near_miss.sizes = vec![4];
    near_miss.recipes = 2;
    let [raw, balanced] = &assert_build_equals_per_entry_loop(&near_miss)[..] else {
        panic!("two recipes, two netlists");
    };
    assert_eq!(
        (raw.cells().len(), raw.nets().len(), raw.primary_outputs()),
        (balanced.cells().len(), balanced.nets().len(), balanced.primary_outputs())
    );
    assert!(!same_structure(raw, balanced), "alu4 differs between raw and balanced");
}

#[test]
fn generators_are_stable_across_calls() {
    for name in generators::FAMILY_NAMES {
        let a = generators::build_family(name, 5).expect("family");
        let b = generators::build_family(name, 5).expect("family");
        assert_eq!(a.node_count(), b.node_count(), "{name}");
        assert_eq!(a.outputs(), b.outputs(), "{name}");
    }
}

/// Fast-model training and batched inference, pinned by bits: 20
/// `train_step`s cycling over three AIGs on `ModelConfig::fast()` (the
/// 32 → 16 GCN whose 16- and 32-wide dense products every e2e training
/// workload runs), then `predict_log_batch` over a two-chunk batch.
/// `multiplier(8)` is taller than 129 nodes, so the weight-gradient
/// product `matmul_tn_into` crosses two of its 64-row block edges.
/// `save_weights` prints round-trip `{:e}`, so its digest is the
/// weights' bits. A kernel change that keeps every product's terms and
/// their order leaves both constants alone.
#[test]
fn fast_model_training_is_pinned_by_bits() {
    use eda_cloud::gcn::{GraphBatch, GraphSample, ModelConfig, RuntimePredictor};
    use eda_cloud::netlist::DesignGraph;
    let sample = |aig: &eda_cloud::netlist::Aig, t1: f64| {
        GraphSample::new(&DesignGraph::from_aig(aig), [t1, t1 / 1.6, t1 / 2.4, t1 / 3.0])
    };
    let samples = [
        sample(&generators::adder(6), 610.0),
        sample(&generators::parity(10), 183.0),
        sample(&generators::multiplier(8), 920.0),
    ];
    assert!(samples[2].node_count() > 129, "{} nodes", samples[2].node_count());
    let mut model = RuntimePredictor::new(&ModelConfig::fast(), 11);
    let losses: Vec<u64> =
        (0..20).map(|step| model.train_step(&samples[step % 3], 3e-3).to_bits()).collect();
    let weights = eda_cloud::trace::fnv1a64(model.save_weights().as_bytes());
    assert_eq!(weights, 0xc63e_b4e0_db54_b2cc, "fitted-weights digest (losses {losses:x?})");

    let refs: Vec<&GraphSample> = samples.iter().collect();
    // Greedy chunking at this row target: `adder` and `parity` fill
    // the first chunk exactly, `multiplier` is the second.
    let first_two = samples[0].node_count() + samples[1].node_count();
    let batch = GraphBatch::pack_chunked(&refs, 1, first_two);
    let bits: Vec<[u64; 4]> =
        model.predict_log_batch(&batch).iter().map(|p| p.map(f64::to_bits)).collect();
    let want: [[u64; 4]; 3] = [
        [0x4006_285d_e9dc_1717, 0x4002_8259_3d75_c353, 0x4001_7c39_1628_c939, 0x3ffd_c8e4_336f_8ed3],
        [0x3ffd_9c76_9b62_4bb4, 0x3ff8_a7de_6de9_b5bc, 0x3ff8_2c92_2061_8f98, 0x3ff6_cd64_35d2_e418],
        [0x4021_fe59_fd4a_8362, 0x401a_f19a_86aa_00d4, 0x401b_4048_2379_3849, 0x401a_e877_4448_21f7],
    ];
    assert_eq!(bits, want, "predict_log_batch bits");
}
