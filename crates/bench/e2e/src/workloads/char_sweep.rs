//! `char_sweep` — the paper's Problem 1 at bench scale: label a small
//! corpus with per-vCPU stage runtimes. The `fig5` corpus build is
//! minutes; this is its scaled twin (8 families x size 6 x 2 recipes =
//! 16 netlists, 4 stages x {1,2,4,8} vCPU labels). `flow` engines,
//! `perf` simulators, and the `core::sweep` pool do all the work; gcn,
//! mckp, and serve do none.
//!
//! The corpus is a fixed grid — there is nothing random to seed — so
//! `--seed` does not reach this workload.

use super::{ms, ratio, Iteration, TraceSink, Workload, PARALLEL_WORKERS, WORKERS};
use eda_cloud_core::dataset::{DatasetBuilder, DatasetConfig, StageDatasets};
use eda_cloud_core::Workflow;
use eda_cloud_flow::{Placer, Recipe, Router, StaEngine, StageKind, Synthesizer};
use eda_cloud_gcn::GraphSample;
use eda_cloud_netlist::{generators, DesignGraph};
use std::fmt::Write as _;
use std::time::Instant;

/// Families of the bench corpus: arithmetic, control, and wiring-heavy
/// designs, so all four engines see varied structure. No single job is
/// more than a quarter of the serial build (crossbar and ctrl would
/// be: one of them alone outweighs the other seven), so the two-worker
/// wall time measures the pool, not one straggler.
pub const FAMILIES: [&str; 8] = [
    "adder",
    "alu",
    "sbox",
    "max",
    "hamming",
    "comparator",
    "multiplier",
    "arbiter",
];
/// Size parameter every family is built at: one serial build is ~1 s.
pub const SIZE: u32 = 6;
/// Synthesis recipes per design (head of `Recipe::standard_suite`).
pub const RECIPES: usize = 2;
/// The swept vCPU counts, as `DatasetBuilder` sweeps them.
const VCPUS: [u32; 4] = [1, 2, 4, 8];

/// The corpus grid `DatasetBuilder` expands.
#[must_use]
pub fn corpus_config(workers: usize) -> DatasetConfig {
    DatasetConfig {
        families: FAMILIES.iter().map(|f| (*f).to_owned()).collect(),
        sizes: vec![SIZE],
        recipes: RECIPES,
        verify: false,
        workers,
    }
}

/// Byte-stable rendering of a labelled corpus: every sample's name,
/// node count, and the exact bits of its four runtime labels.
#[must_use]
pub fn render_corpus(data: &StageDatasets) -> String {
    let mut s = String::new();
    for kind in StageKind::ALL {
        for sample in data.for_stage(kind) {
            let _ = write!(s, "{kind}:{}:{}", sample.name, sample.node_count());
            for t in sample.targets_secs {
                let _ = write!(s, ":{:016x}", t.to_bits());
            }
            s.push('\n');
        }
    }
    s
}

/// The `char_sweep` workload.
pub struct CharSweep {
    workflow: Workflow,
    /// Name and AIG-view node count every synthesis sample must come
    /// back with, in the builder's canonical (family, recipe) order.
    expected: Vec<(String, usize)>,
}

impl CharSweep {
    /// Nothing random to generate, but the builder silently skips a
    /// family it does not know, so set-up builds every design of the
    /// grid once and keeps what the labelled corpus must look like.
    ///
    /// # Errors
    ///
    /// Rejects a family the generators do not know.
    pub fn setup(_seed: u64) -> Result<Self, String> {
        let recipes: Vec<Recipe> = Recipe::standard_suite().into_iter().take(RECIPES).collect();
        let mut expected = Vec::with_capacity(FAMILIES.len() * RECIPES);
        for family in FAMILIES {
            let aig = generators::build_family(family, SIZE)
                .ok_or_else(|| format!("unknown design family `{family}`"))?;
            let nodes = GraphSample::new(&DesignGraph::from_aig(&aig), [1.0; 4]).node_count();
            for recipe in &recipes {
                expected.push((format!("{family}{SIZE}.{}", recipe.name()), nodes));
            }
        }
        Ok(Self {
            workflow: Workflow::with_defaults(),
            expected,
        })
    }

    fn build(&self, workers: usize) -> Result<(StageDatasets, std::time::Duration), String> {
        let config = corpus_config(workers);
        let builder = DatasetBuilder::new(&self.workflow);
        let start = Instant::now();
        let data = builder.build(&config);
        let wall = start.elapsed();
        Ok((data.map_err(|e| format!("corpus build: {e}"))?, wall))
    }
}

impl Workload for CharSweep {
    fn iterate(&self) -> Result<Iteration, String> {
        let (data, wall) = self.build(WORKERS)?;
        let attempted = (FAMILIES.len() * RECIPES) as u64;
        let labelled = data.synthesis.len() as u64;
        for kind in StageKind::ALL {
            if data.for_stage(kind).len() as u64 != labelled {
                return Err(format!("{kind} corpus does not align with synthesis"));
            }
        }
        let got = data.synthesis.iter().map(|s| (&s.name, s.node_count()));
        if !got.eq(self.expected.iter().map(|(name, nodes)| (name, *nodes))) {
            return Err("synthesis corpus is not the grid's designs in canonical order".into());
        }
        Ok(Iteration {
            wall,
            ops: labelled,
            attempted,
            failed: attempted.saturating_sub(labelled),
            quality: 100.0 * ratio(labelled as f64, attempted as f64),
            report: render_corpus(&data),
        })
    }

    fn trace(&self, sink: &mut TraceSink) -> Result<(), String> {
        let log = &sink.log;
        let build = |name: &'static str, workers: usize| {
            let id = log.reserve(name, None);
            log.fill(id, || self.build(workers))
        };
        let (serial, serial_wall) = build("core.sweep.build_w1", WORKERS)?;
        let (parallel, parallel_wall) = build("core.sweep.build_w2", PARALLEL_WORKERS)?;
        if render_corpus(&serial) != render_corpus(&parallel) {
            return Err("corpus differs between workers 1 and 2".into());
        }

        // Replay the build's work through each layer's own entry
        // points, serially, so the spans sum to what the serial build
        // spent inside the layers.
        let replay = log.reserve("replay", None);
        let recipes: Vec<Recipe> = Recipe::standard_suite().into_iter().take(RECIPES).collect();
        let mut cells = 0u64;
        log.fill(replay, || -> Result<(), String> {
            for family in FAMILIES {
                for recipe in &recipes {
                    // One corpus job per (family, recipe): the builder
                    // regenerates the AIG in every job.
                    let aig = log
                        .time("netlist.generate", Some(replay), || {
                            generators::build_family(family, SIZE)
                        })
                        .ok_or_else(|| format!("unknown design family `{family}`"))?;
                    log.time("netlist.to_graph", Some(replay), || {
                        GraphSample::new(&DesignGraph::from_aig(&aig), [1.0; 4])
                    });
                    // The builder synthesizes once per (design, recipe)
                    // and replays the probe trace at the other three
                    // machine sizes; mirror exactly that.
                    let ctx = self.workflow.exec_context(StageKind::Synthesis, VCPUS[0]);
                    let (netlist, _, trace) = log
                        .time("flow.synthesis", Some(replay), || {
                            Synthesizer::new().run_traced(&aig, recipe, &ctx)
                        })
                        .map_err(|e| format!("synthesis replay: {e}"))?;
                    log.time("flow.synthesis", Some(replay), || {
                        for vcpus in &VCPUS[1..] {
                            let ctx = self.workflow.exec_context(StageKind::Synthesis, *vcpus);
                            std::hint::black_box(Synthesizer::report_from_trace(&trace, &ctx));
                        }
                    });
                    cells += netlist.cell_count() as u64;
                    for vcpus in VCPUS {
                        let ctx = self.workflow.exec_context(StageKind::Placement, vcpus);
                        let (placement, _) = log
                            .time("flow.placement", Some(replay), || {
                                Placer::new().run(&netlist, &ctx)
                            })
                            .map_err(|e| format!("placement replay: {e}"))?;
                        let ctx = self.workflow.exec_context(StageKind::Routing, vcpus);
                        log.time("flow.routing", Some(replay), || {
                            Router::new().run(&netlist, &placement, &ctx)
                        })
                        .map_err(|e| format!("routing replay: {e}"))?;
                        let ctx = self.workflow.exec_context(StageKind::Sta, vcpus);
                        log.time("flow.sta", Some(replay), || {
                            StaEngine::new().run(&netlist, &placement, &ctx)
                        })
                        .map_err(|e| format!("sta replay: {e}"))?;
                    }
                    log.time("netlist.to_graph", Some(replay), || {
                        let graph = DesignGraph::from_netlist(&netlist);
                        for _ in 0..3 {
                            std::hint::black_box(GraphSample::new(&graph, [1.0; 4]));
                        }
                    });
                }
            }
            Ok(())
        })?;

        let spans = log.snapshot();
        let total = |name: &str| crate::spans::total_ms(&spans, name);
        let layers = &mut sink.layers;
        layers.set("netlist.generate_ms", total("netlist.generate"));
        layers.set("netlist.to_graph_ms", total("netlist.to_graph"));
        layers.set("flow.synthesis_ms", total("flow.synthesis"));
        layers.set("flow.placement_ms", total("flow.placement"));
        layers.set("flow.routing_ms", total("flow.routing"));
        layers.set("flow.sta_ms", total("flow.sta"));
        layers.set("flow.cells", cells as f64);
        let attributed = total("netlist.generate")
            + total("netlist.to_graph")
            + total("flow.synthesis")
            + total("flow.placement")
            + total("flow.routing")
            + total("flow.sta");
        layers.set("core.sweep.residual_ms", ms(serial_wall) - attributed);
        layers.set(
            "core.sweep.w2_over_w1",
            ratio(ms(parallel_wall), ms(serial_wall)),
        );
        layers.set(
            "trace.attributed_share",
            ratio(attributed, ms(serial_wall)).min(1.0),
        );
        Ok(())
    }
}
