//! Benchmark-corpus generation (the paper's Section IV dataset).
//!
//! The paper synthesizes 18 designs under different logic-optimization
//! recipes into 330 unique netlists with 2,640 runtime labels (4 machine
//! configurations × 2 stages-of-interest × 330). This module rebuilds
//! that corpus from the synthetic design families: each (family, size,
//! recipe) triple yields one netlist, labeled with simulated runtimes at
//! 1/2/4/8 vCPUs for every stage.

use crate::optimize::VCPU_SWEEP;
use crate::sweep::{self, design_fingerprint, resolve_workers, FlowCache, FlowKey};
use crate::{Workflow, WorkflowError};
use eda_cloud_flow::{Placer, Recipe, Router, StaEngine, StageKind, Synthesizer};
use eda_cloud_gcn::GraphSample;
use eda_cloud_netlist::{generators, DesignGraph};

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
    /// Worker threads fanning corpus entries out; `0` (the default)
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
        self.families.len() * self.sizes.len() * self.recipes
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

    /// Total number of runtime labels across stages (4 per sample).
    #[must_use]
    pub fn label_count(&self) -> usize {
        4 * (self.synthesis.len() + self.placement.len() + self.routing.len() + self.sta.len())
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
    /// Corpus entries — one per (family, size, recipe) triple — fan out
    /// over `config.workers` threads; within each entry the synthesis
    /// result is computed once and replayed across the 1/2/4/8-vCPU
    /// sweep via a shared [`FlowCache`]. Entries are reduced in
    /// canonical triple order regardless of completion order, so the
    /// corpus is bit-identical for any worker count.
    ///
    /// # Errors
    ///
    /// Propagates flow failures (with several failing entries, the
    /// error is the one a serial build would hit first); returns
    /// [`WorkflowError::EmptyDataset`] when the config yields nothing.
    pub fn build(&self, config: &DatasetConfig) -> Result<StageDatasets, WorkflowError> {
        let recipes: Vec<Recipe> = Recipe::standard_suite()
            .into_iter()
            .take(config.recipes.max(1))
            .collect();
        let mut jobs: Vec<(String, u32, Recipe)> = Vec::new();
        for family in &config.families {
            for &size in &config.sizes {
                for recipe in &recipes {
                    jobs.push((family.clone(), size, recipe.clone()));
                }
            }
        }

        let cache = FlowCache::new();
        let workers = resolve_workers(config.workers);
        type EntryResult = Result<Option<CorpusEntry>, WorkflowError>;
        let entries = sweep::map_metered(workers, jobs, self.workflow.metrics(), |index, (family, size, recipe)| -> EntryResult {
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
            let aig_graph = DesignGraph::from_aig(&aig);
            let synthesizer = Synthesizer::new().with_verification(config.verify);
            let key = FlowKey {
                design: design_fingerprint(&aig),
                recipe: recipe.name().to_owned(),
                verify: config.verify,
            };
            let mut syn_times = [0.0f64; 4];
            let mut place_times = [0.0f64; 4];
            let mut route_times = [0.0f64; 4];
            let mut sta_times = [0.0f64; 4];
            let mut netlist = None;
            for (k, &vcpus) in VCPU_SWEEP.iter().enumerate() {
                let point_span = entry_span.child(&format!("vcpus/{vcpus}"));
                let ctx = self
                    .workflow
                    .exec_context(StageKind::Synthesis, vcpus)
                    .with_span(point_span.clone());
                let (nl, rep) = cache.synthesize(&synthesizer, &aig, &key, &recipe, &ctx)?;
                syn_times[k] = rep.runtime_secs;

                let ctx = self
                    .workflow
                    .exec_context(StageKind::Placement, vcpus)
                    .with_span(point_span.child("placement"));
                let (placement, rep) = Placer::new().run(&nl, &ctx)?;
                place_times[k] = rep.runtime_secs;

                let ctx = self
                    .workflow
                    .exec_context(StageKind::Routing, vcpus)
                    .with_span(point_span.child("routing"));
                let (_, rep) = Router::new().run(&nl, &placement, &ctx)?;
                route_times[k] = rep.runtime_secs;

                let ctx = self
                    .workflow
                    .exec_context(StageKind::Sta, vcpus)
                    .with_span(point_span.child("sta"));
                let (_, rep) = StaEngine::new().run(&nl, &placement, &ctx)?;
                sta_times[k] = rep.runtime_secs;

                netlist = Some(nl);
            }
            let netlist = netlist.expect("sweep ran at least once");
            let base_name = format!("{family}{size}.{}", recipe.name());

            let mut syn_sample = GraphSample::new(&aig_graph, syn_times);
            syn_sample.name = base_name.clone();

            let nl_graph = DesignGraph::from_netlist(&netlist);
            let [placement, routing, sta] =
                [place_times, route_times, sta_times].map(|times| {
                    let mut sample = GraphSample::new(&nl_graph, times);
                    sample.name = base_name.clone();
                    sample
                });
            Ok(Some(CorpusEntry { synthesis: syn_sample, placement, routing, sta }))
        });

        let mut out = StageDatasets::default();
        for entry in sweep::reduce_results(entries)?.into_iter().flatten() {
            out.synthesis.push(entry.synthesis);
            out.placement.push(entry.placement);
            out.routing.push(entry.routing);
            out.sta.push(entry.sta);
        }
        if out.synthesis.is_empty() {
            return Err(WorkflowError::EmptyDataset { stage: "synthesis" });
        }
        Ok(out)
    }
}

/// The four samples one (family, size, recipe) triple contributes.
struct CorpusEntry {
    synthesis: GraphSample,
    placement: GraphSample,
    routing: GraphSample,
    sta: GraphSample,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_corpus_builds() {
        let wf = Workflow::with_defaults();
        let cfg = DatasetConfig::smoke();
        let data = DatasetBuilder::new(&wf).build(&cfg).expect("builds");
        assert_eq!(data.synthesis.len(), cfg.netlist_count());
        assert_eq!(data.routing.len(), cfg.netlist_count());
        assert_eq!(data.label_count(), 4 * 4 * cfg.netlist_count());
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
    fn paper_scaled_counts() {
        let cfg = DatasetConfig::paper_scaled();
        assert_eq!(cfg.netlist_count(), 18 * 3 * 6);
        assert!(cfg.netlist_count() >= 300, "close to the paper's 330");
    }
}
