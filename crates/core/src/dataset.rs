//! Benchmark-corpus generation (the paper's Section IV dataset).
//!
//! The paper synthesizes 18 designs under different logic-optimization
//! recipes into 330 unique netlists with 2,640 runtime labels (4 machine
//! configurations × 2 stages-of-interest × 330). This module rebuilds
//! that corpus from the synthetic design families: each (family, size,
//! recipe) triple yields one netlist, labeled with simulated runtimes at
//! 1/2/4/8 vCPUs for every stage. Recipes often converge on the same
//! netlist: the paper-scaled corpus's 324 triples synthesize to 154
//! structurally distinct netlists, and placement, routing and STA label
//! each distinct netlist once.

use crate::optimize::VCPU_SWEEP;
use crate::sweep::{self, resolve_workers};
use crate::{Workflow, WorkflowError};
use eda_cloud_flow::{Placer, Recipe, Router, StaEngine, StageKind, Synthesizer};
use eda_cloud_gcn::GraphSample;
use eda_cloud_netlist::{generators, DesignGraph, Netlist};
use eda_cloud_trace::Span;

/// What corpus to generate.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Design-family names (subset of
    /// [`generators::FAMILY_NAMES`]).
    pub families: Vec<String>,
    /// Size parameter(s) per family.
    pub sizes: Vec<u32>,
    /// Number of synthesis recipes (taken from the head of
    /// [`Recipe::standard_suite`]).
    pub recipes: usize,
    /// Run the synthesis equivalence spot-check while generating.
    pub verify: bool,
    /// Worker threads fanning corpus entries (for synthesis) and then
    /// distinct netlists (for the other stages) out; `0` (the default)
    /// means one per available core, capped at 8. Entries are reduced
    /// in canonical (family, size, recipe) order, so any worker count
    /// yields a bit-identical corpus.
    pub workers: usize,
}

impl DatasetConfig {
    /// The paper-scaled corpus: all 18 families at three sizes under
    /// six recipes = 324 netlists (the paper has 330).
    #[must_use]
    pub fn paper_scaled() -> Self {
        Self {
            families: generators::FAMILY_NAMES.iter().map(|s| (*s).to_owned()).collect(),
            sizes: vec![4, 8, 16],
            recipes: 6,
            verify: false,
            workers: 0,
        }
    }

    /// A small corpus for tests: 4 families × 1 size × 3 recipes.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            families: ["adder", "parity", "max", "gray2bin"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            sizes: vec![6],
            recipes: 3,
            verify: false,
            workers: 0,
        }
    }

    /// The same corpus pinned to a specific worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Expected number of netlists this config generates.
    #[must_use]
    pub fn netlist_count(&self) -> usize {
        self.families.len() * self.sizes.len() * self.recipe_suite().len()
    }

    /// The recipes a corpus is built under: the first `recipes` of the
    /// standard suite, at least one and at most all of them.
    fn recipe_suite(&self) -> Vec<Recipe> {
        Recipe::standard_suite().into_iter().take(self.recipes.max(1)).collect()
    }
}

/// Per-stage sample corpora. Synthesis samples embed the AIG (the stage
/// input); placement / routing / STA samples embed the star-model
/// netlist graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageDatasets {
    /// AIG-graph samples labeled with synthesis runtimes.
    pub synthesis: Vec<GraphSample>,
    /// Netlist-graph samples labeled with placement runtimes.
    pub placement: Vec<GraphSample>,
    /// Netlist-graph samples labeled with routing runtimes.
    pub routing: Vec<GraphSample>,
    /// Netlist-graph samples labeled with STA runtimes.
    pub sta: Vec<GraphSample>,
}

impl StageDatasets {
    /// The corpus for one stage.
    #[must_use]
    pub fn for_stage(&self, kind: StageKind) -> &[GraphSample] {
        match kind {
            StageKind::Synthesis => &self.synthesis,
            StageKind::Placement => &self.placement,
            StageKind::Routing => &self.routing,
            StageKind::Sta => &self.sta,
        }
    }
}

/// Corpus generator bound to a workflow (for machine contexts).
#[derive(Debug, Clone)]
pub struct DatasetBuilder<'a> {
    workflow: &'a Workflow,
}

impl<'a> DatasetBuilder<'a> {
    /// Builder over the given workflow.
    #[must_use]
    pub fn new(workflow: &'a Workflow) -> Self {
        Self { workflow }
    }

    /// Generate the corpus.
    ///
    /// Three steps; the first and the last fan out over
    /// `config.workers` threads:
    ///
    /// 1. **Synthesize** every corpus entry — one per (family, size,
    ///    recipe) triple — once for the whole 1/2/4/8-vCPU sweep
    ///    through [`Synthesizer::run_sweep`]. Synthesis depends on the
    ///    recipe, so every entry keeps its own synthesis label.
    /// 2. **Group** entries whose netlists are equal but for their
    ///    names (synthesis names a netlist `{design}.{recipe}`; no
    ///    placement, routing or STA engine reads that name).
    /// 3. **Label each group once**: one placement, routing and STA
    ///    `run_sweep` over every member's four contexts, concatenated.
    ///    An engine serves repeated contexts exactly as it serves each
    ///    alone, spans
    ///    included, so every member's labels and trace subtree are the
    ///    ones a run of its own records. Groups start largest netlist
    ///    first, so the longest job does not start last.
    ///
    /// Entries are reduced in canonical triple order regardless of
    /// completion order, so the corpus is bit-identical for any worker
    /// count. The build adds its group count to the workflow metrics as
    /// `dataset.distinct_netlists`.
    ///
    /// # Errors
    ///
    /// Propagates flow failures (with several failing entries, the
    /// error is the one a serial build would hit first); returns
    /// [`WorkflowError::EmptyDataset`] when the config yields nothing.
    pub fn build(&self, config: &DatasetConfig) -> Result<StageDatasets, WorkflowError> {
        let recipes = config.recipe_suite();
        let mut jobs: Vec<(String, u32, Recipe)> = Vec::new();
        for family in &config.families {
            for &size in &config.sizes {
                for recipe in &recipes {
                    jobs.push((family.clone(), size, recipe.clone()));
                }
            }
        }

        let workers = resolve_workers(config.workers);
        let metrics = self.workflow.metrics();
        type Synthesized = Result<Option<SynthesizedEntry>, WorkflowError>;
        let entries = sweep::map_metered(workers, jobs, metrics, |index, (family, size, recipe)| -> Synthesized {
            let Some(aig) = generators::build_family(&family, size) else {
                return Ok(None);
            };
            // Span identity comes from the canonical job index, so the
            // drained trace is byte-identical at any worker count.
            let entry_span = self
                .workflow
                .tracer()
                .root_at(index as u64, &format!("corpus/{index:04}"));
            entry_span.attr("design", format_args!("{family}{size}"));
            entry_span.attr("recipe", recipe.name());
            // Spans are created in the order a point-by-point loop
            // creates them — the points, then under each point
            // synthesis, placement, routing, sta — so span keys do not
            // depend on the engines running stage by stage.
            let points: Vec<Span> = VCPU_SWEEP
                .iter()
                .map(|vcpus| entry_span.child(&format!("vcpus/{vcpus}")))
                .collect();
            let contexts = self.workflow.stage_contexts(StageKind::Synthesis, &VCPU_SWEEP, &points);
            let (netlist, reports) = Synthesizer::new()
                .with_verification(config.verify)
                .run_sweep(&aig, &recipe, &contexts)?;
            let name = format!("{family}{size}.{}", recipe.name());
            let mut synthesis = GraphSample::new(
                &DesignGraph::from_aig(&aig),
                std::array::from_fn(|k| reports[k].runtime_secs),
            );
            synthesis.name = name.clone();
            Ok(Some(SynthesizedEntry { name, synthesis, netlist, points }))
        });

        let synthesized = |i: usize| match &entries[i] {
            Ok(Some(entry)) => entry,
            _ => unreachable!("groups hold synthesized entries only"),
        };
        // Group by structure, in order of first occurrence; `group_of[i]`
        // is entry `i`'s group.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of = vec![usize::MAX; entries.len()];
        for (i, entry) in entries.iter().enumerate() {
            let Ok(Some(entry)) = entry else { continue };
            let same = |g: &Vec<usize>| same_structure(&synthesized(g[0]).netlist, &entry.netlist);
            group_of[i] = groups.iter().position(same).unwrap_or_else(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[group_of[i]].push(i);
        }
        // Largest netlists first: one can take as long as all the small
        // ones together, and started last it would run alone. Results
        // land by group, so the order changes no label.
        groups.sort_by_key(|g| std::cmp::Reverse(synthesized(g[0]).netlist.cell_count()));
        for (g, members) in groups.iter().enumerate() {
            for &i in members {
                group_of[i] = g;
            }
        }
        metrics.add("dataset.distinct_netlists", groups.len() as u64);

        type Labels = Result<std::vec::IntoIter<[GraphSample; 3]>, WorkflowError>;
        let mut labels = sweep::map_metered(workers, groups, metrics, |_, members| -> Labels {
            let netlist = &synthesized(members[0]).netlist;
            let points: Vec<Span> =
                members.iter().flat_map(|&i| synthesized(i).points.iter().cloned()).collect();
            let vcpus = VCPU_SWEEP.repeat(members.len());
            let contexts = |stage| self.workflow.stage_contexts(stage, &vcpus, &points);
            let (placement, place) = Placer::new().run_sweep(netlist, &contexts(StageKind::Placement))?;
            let routed = Router::new().run_sweep(netlist, &placement, &contexts(StageKind::Routing))?;
            let (_, sta) = StaEngine::new().run_sweep(netlist, &placement, &contexts(StageKind::Sta))?;
            let graph = GraphSample::new(&DesignGraph::from_netlist(netlist), [1.0; 4]);
            let samples: Vec<[GraphSample; 3]> = members
                .iter()
                .enumerate()
                .map(|(m, &i)| {
                    // Member `m`'s reports are the `m`-th four of each sweep.
                    let at = |k: usize| 4 * m + k;
                    let times: [[f64; 4]; 3] = [
                        std::array::from_fn(|k| place[at(k)].runtime_secs),
                        std::array::from_fn(|k| routed[at(k)].1.runtime_secs),
                        std::array::from_fn(|k| sta[at(k)].runtime_secs),
                    ];
                    times.map(|t| GraphSample { name: synthesized(i).name.clone(), ..graph.with_targets(t) })
                })
                .collect();
            Ok(samples.into_iter())
        });

        let mut out = StageDatasets::default();
        for (i, entry) in entries.into_iter().enumerate() {
            let Some(entry) = entry? else { continue };
            // A group's members are in index order, and so are its labels.
            let [placement, routing, sta] = match &mut labels[group_of[i]] {
                Ok(samples) => samples.next().expect("one label set per member"),
                Err(e) => return Err(e.clone()),
            };
            out.synthesis.push(entry.synthesis);
            out.placement.push(placement);
            out.routing.push(routing);
            out.sta.push(sta);
        }
        if out.synthesis.is_empty() {
            return Err(WorkflowError::EmptyDataset { stage: "synthesis" });
        }
        Ok(out)
    }
}

/// One (family, size, recipe) triple after synthesis: its synthesis
/// sample, the netlist placement, routing and STA label, and the
/// per-vCPU spans they trace under.
struct SynthesizedEntry {
    name: String,
    synthesis: GraphSample,
    netlist: Netlist,
    points: Vec<Span>,
}

/// Whether two netlists are the same circuit: equal in everything but
/// the name. Slice comparison checks lengths first, so most unequal
/// pairs cost a few integer compares.
fn same_structure(a: &Netlist, b: &Netlist) -> bool {
    a.library() == b.library()
        && a.primary_inputs() == b.primary_inputs()
        && a.primary_outputs() == b.primary_outputs()
        && a.cells() == b.cells()
        && a.nets() == b.nets()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_trace::Tracer;

    /// The corpus as it was built before `run_sweep`: a serial loop
    /// over entries and, inside each, over the vCPU points, running
    /// every engine once per point under that point's span. What
    /// `DatasetBuilder::build` must reproduce — samples, labels and
    /// trace.
    fn reference_build(workflow: &Workflow, config: &DatasetConfig) -> StageDatasets {
        let recipes = config.recipe_suite();
        let synthesizer = Synthesizer::new().with_verification(config.verify);
        let mut out = StageDatasets::default();
        let mut index = 0u64;
        for family in &config.families {
            for &size in &config.sizes {
                for recipe in &recipes {
                    let entry_span = workflow.tracer().root_at(index, &format!("corpus/{index:04}"));
                    index += 1;
                    entry_span.attr("design", format_args!("{family}{size}"));
                    entry_span.attr("recipe", recipe.name());
                    let aig = generators::build_family(family, size).expect("known family");
                    let mut times = [[0.0f64; 4]; 4];
                    let mut netlist = None;
                    for (k, &vcpus) in VCPU_SWEEP.iter().enumerate() {
                        let point_span = entry_span.child(&format!("vcpus/{vcpus}"));
                        let ctx = |stage: StageKind| {
                            workflow.exec_context(stage, vcpus).with_span(point_span.child(&stage.to_string()))
                        };
                        let (nl, rep) =
                            synthesizer.run(&aig, recipe, &ctx(StageKind::Synthesis)).expect("synthesis");
                        times[0][k] = rep.runtime_secs;
                        let (placement, rep) =
                            Placer::new().run(&nl, &ctx(StageKind::Placement)).expect("placement");
                        times[1][k] = rep.runtime_secs;
                        let (_, rep) = Router::new()
                            .run(&nl, &placement, &ctx(StageKind::Routing))
                            .expect("routing");
                        times[2][k] = rep.runtime_secs;
                        let (_, rep) =
                            StaEngine::new().run(&nl, &placement, &ctx(StageKind::Sta)).expect("sta");
                        times[3][k] = rep.runtime_secs;
                        netlist = Some(nl);
                    }
                    let name = format!("{family}{size}.{}", recipe.name());
                    let named = |graph: &DesignGraph, times: [f64; 4]| {
                        let mut sample = GraphSample::new(graph, times);
                        sample.name = name.clone();
                        sample
                    };
                    let nl_graph = DesignGraph::from_netlist(&netlist.expect("four points ran"));
                    out.synthesis.push(named(&DesignGraph::from_aig(&aig), times[0]));
                    out.placement.push(named(&nl_graph, times[1]));
                    out.routing.push(named(&nl_graph, times[2]));
                    out.sta.push(named(&nl_graph, times[3]));
                }
            }
        }
        out
    }

    /// Every label of every sample, by bit pattern.
    fn label_bits(data: &StageDatasets) -> Vec<[u64; 4]> {
        StageKind::ALL
            .iter()
            .flat_map(|&kind| data.for_stage(kind))
            .map(|sample| sample.targets_secs.map(f64::to_bits))
            .collect()
    }

    #[test]
    fn build_equals_the_per_point_loop_at_any_worker_count() {
        let cfg = DatasetConfig::smoke();
        let reference_tracer = Tracer::new();
        let reference =
            reference_build(&Workflow::with_defaults().with_tracer(reference_tracer.clone()), &cfg);
        let reference_trace = reference_tracer.drain();
        for kind in StageKind::ALL {
            assert_eq!(reference.for_stage(kind).len(), cfg.netlist_count(), "{kind:?} samples");
        }
        assert!(reference_trace.len() > 4 * 4 * cfg.netlist_count(), "engine phases are traced");
        for workers in [1, 2, 4] {
            let tracer = Tracer::new();
            let wf = Workflow::with_defaults().with_tracer(tracer.clone());
            let built = DatasetBuilder::new(&wf)
                .build(&cfg.clone().with_workers(workers))
                .expect("builds");
            assert_eq!(built, reference, "corpus at {workers} workers");
            assert_eq!(label_bits(&built), label_bits(&reference), "labels at {workers} workers");
            let trace = tracer.drain();
            assert_eq!(trace.len(), reference_trace.len(), "span count at {workers} workers");
            for (got, want) in trace.records().iter().zip(reference_trace.records()) {
                assert_eq!(got, want, "span at {workers} workers");
            }
        }
    }

    #[test]
    fn smoke_corpus_builds() {
        let wf = Workflow::with_defaults();
        let cfg = DatasetConfig::smoke();
        let data = DatasetBuilder::new(&wf).build(&cfg).expect("builds");
        assert_eq!(data.synthesis.len(), cfg.netlist_count());
        assert_eq!(data.routing.len(), cfg.netlist_count());
        assert_eq!(data.placement.len() + data.sta.len(), 2 * cfg.netlist_count());
        // Synthesis runtimes improve with more vCPUs even on small
        // designs; routing/placement may plateau or regress on tiny
        // ones (the paper's Figure-3 effect), so only positivity is
        // asserted there.
        // (tiny corpus designs may not speed up at all — only require
        // that 8 vCPUs is no worse than ~1 vCPU).
        let s = &data.synthesis[0];
        assert!(s.targets_secs[0] * 1.10 > s.targets_secs[3]);
        assert!(data
            .routing
            .iter()
            .all(|s| s.targets_secs.iter().all(|&t| t > 0.0)));
        // Names carry family and recipe for the dataset split.
        assert!(data.synthesis[0].name.contains('.'));
    }

    #[test]
    fn empty_config_is_an_error() {
        let wf = Workflow::with_defaults();
        let cfg = DatasetConfig {
            families: vec!["unobtainium".to_owned()],
            sizes: vec![4],
            recipes: 2,
            verify: false,
            workers: 0,
        };
        assert!(matches!(
            DatasetBuilder::new(&wf).build(&cfg).unwrap_err(),
            WorkflowError::EmptyDataset { .. }
        ));
    }

    #[test]
    fn netlist_count_is_what_build_builds() {
        let wf = Workflow::with_defaults();
        let over = Recipe::standard_suite().len() + 1;
        for recipes in [0, 3, 9, over] {
            let cfg = DatasetConfig {
                families: vec!["adder".to_owned()],
                sizes: vec![4],
                recipes,
                verify: false,
                workers: 1,
            };
            let built = DatasetBuilder::new(&wf).build(&cfg).expect("builds");
            assert_eq!(built.synthesis.len(), cfg.netlist_count(), "recipes: {recipes}");
            assert_eq!(cfg.netlist_count(), recipes.clamp(1, over - 1));
        }
    }

    #[test]
    fn paper_scaled_counts() {
        let cfg = DatasetConfig::paper_scaled();
        assert_eq!(cfg.netlist_count(), 18 * 3 * 6);
        assert!(cfg.netlist_count() >= 300, "close to the paper's 330");
    }
}
