//! Joint recipe × VM planning: the recipe subsystem wired into the
//! workflow.
//!
//! A [`RecipeScenario`] names a set of design families; [`Workflow::recipe`]
//! runs the deterministic MCTS recipe search per design, trains the
//! LOSTIN-style hybrid (design ⊕ recipe) runtime predictor on the
//! candidate set with real synthesis labels, and then serves one
//! [`eda_cloud_serve::RequestKind::PlanRecipe`] request per design
//! through a [`Server`] whose recipe planner is the catalog-priced
//! [`WorkflowRecipePlanner`]: the hybrid predictor's per-recipe
//! synthesis forecasts and the GCN's non-synthesis stage runtimes feed
//! one exact MCKP whose synthesis stage has a (recipe × vCPU) choice
//! row, so the knapsack picks the recipe and the VM shape jointly.

use crate::optimize::{stage_choices, VCPU_SWEEP};
use crate::{Workflow, WorkflowError, WorkflowPlanner};
use eda_cloud_flow::{Pass, StageKind, Synthesizer};
use eda_cloud_gcn::{GraphSample, ModelConfig, Trainer};
use eda_cloud_mckp::{Problem, Solver, Stage};
use eda_cloud_netlist::{generators, Aig, DesignGraph};
use eda_cloud_recipe::{
    candidate_recipes, recipe_from_passes, recipe_key, DesignReport, HybridPredictor, HybridSample,
    JointPlan, RecipeError, RecipeReport, RecipeSearch, SearchConfig,
};
use eda_cloud_serve::{
    ModelSnapshot, RecipePlanSummary, RecipePlanner, RequestKind, RequestOutcome, ServeConfig,
    ServeDesign, ServeError, ServeRequest, Server,
};
use std::sync::Arc;

/// A recipe-search workload description: everything needed to
/// regenerate the same searches, predictor, and joint plans from a
/// seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RecipeScenario {
    /// Design families to search recipes for (generator names).
    pub designs: Vec<String>,
    /// Generator size parameter shared by all families.
    pub size: u32,
    /// Seed driving the per-design searches, the hybrid predictor's
    /// initialization, and the serve run.
    pub seed: u64,
    /// MCTS iterations per design.
    pub iters: u64,
    /// Total-flow deadline handed to each joint plan, seconds.
    pub deadline_secs: u64,
}

impl RecipeScenario {
    /// A three-family scenario at the default search budget.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            designs: vec!["adder".into(), "parity".into(), "comparator".into()],
            size: 6,
            seed,
            iters: 48,
            deadline_secs: 100_000,
        }
    }

    /// The search seed for the `index`-th design: one golden-ratio
    /// stride per design so searches are decorrelated but fully
    /// determined by `(seed, index)`.
    #[must_use]
    fn design_seed(&self, index: usize) -> u64 {
        self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The per-design search configuration.
    #[must_use]
    pub fn search_config(&self, index: usize) -> SearchConfig {
        SearchConfig {
            iters: self.iters,
            seed: self.design_seed(index),
        }
    }
}

/// The catalog-priced joint recipe × VM planner behind
/// [`eda_cloud_serve::RequestKind::PlanRecipe`]: rank every candidate
/// recipe with the hybrid predictor, expand the synthesis stage into a
/// (recipe × vCPU) choice row priced like
/// [`Workflow::deployment_problem`], keep the GCN's rows for the other
/// stages, and let the exact MCKP pick recipe and shape together.
#[derive(Debug, Clone)]
pub struct WorkflowRecipePlanner {
    workflow: Workflow,
    predictor: HybridPredictor,
    candidates: Vec<Vec<Pass>>,
}

impl WorkflowRecipePlanner {
    /// Planner over the standard candidate set.
    #[must_use]
    pub fn new(workflow: Workflow, predictor: HybridPredictor) -> Self {
        Self {
            workflow,
            predictor,
            candidates: candidate_recipes(),
        }
    }
}

/// Surface any planning-side failure as the serve tier's typed plan
/// error, mirroring [`WorkflowPlanner`].
fn plan_err(e: impl std::fmt::Display) -> ServeError {
    ServeError::Plan { message: e.to_string() }
}

impl RecipePlanner for WorkflowRecipePlanner {
    fn plan_recipe(
        &self,
        design: &ServeDesign,
        stage_secs: &[[f64; 4]; 4],
        deadline_secs: u64,
    ) -> Result<Option<RecipePlanSummary>, ServeError> {
        let catalog = self.workflow.catalog();
        let embedding = self.predictor.embed(&design.aig);

        // Synthesis stage: one choice per (candidate recipe, vCPU size),
        // runtimes from the hybrid predictor, costs from the catalog.
        let mut choices = Vec::with_capacity(self.candidates.len() * VCPU_SWEEP.len());
        let mut forecasts = Vec::with_capacity(self.candidates.len());
        for passes in &self.candidates {
            let secs = self.predictor.predict_secs(&embedding, passes).map_err(plan_err)?;
            let priced = stage_choices(catalog, StageKind::Synthesis, &secs).map_err(plan_err)?;
            let key = recipe_key(passes);
            for (mut choice, vcpus) in priced.into_iter().zip(VCPU_SWEEP) {
                choice.label = format!("{key}@{vcpus}");
                choices.push(choice);
            }
            forecasts.push(secs);
        }
        let mut stages = vec![Stage::new("synthesis", choices)];

        // The other stages keep the GCN's runtime rows.
        for (row, kind) in [StageKind::Placement, StageKind::Routing, StageKind::Sta]
            .into_iter()
            .enumerate()
        {
            let choices = stage_choices(catalog, kind, &stage_secs[row + 1]).map_err(plan_err)?;
            stages.push(Stage::new(kind.to_string(), choices));
        }

        let problem = Problem::new(stages).map_err(plan_err)?;
        let Some(selection) = Solver::new().solve_min_cost(&problem, deadline_secs) else {
            return Ok(None);
        };

        let joint = selection.picks[0];
        let candidate = joint / VCPU_SWEEP.len();
        let mut vcpus = [VCPU_SWEEP[joint % VCPU_SWEEP.len()]; 4];
        for (slot, &pick) in vcpus.iter_mut().skip(1).zip(&selection.picks[1..]) {
            *slot = VCPU_SWEEP[pick];
        }
        let predicted_synth_ms =
            forecasts[candidate].map(|s| (s.max(0.0) * 1_000.0).round() as u64);
        Ok(Some(RecipePlanSummary {
            recipe: recipe_key(&self.candidates[candidate]),
            vcpus,
            total_runtime_secs: selection.total_runtime_secs,
            total_cost_usd: selection.total_cost_usd,
            predicted_synth_ms,
        }))
    }
}

impl Workflow {
    /// Materialize the scenario's designs (AIG plus the two serving
    /// graph views).
    fn recipe_designs(
        &self,
        scenario: &RecipeScenario,
    ) -> Result<Vec<(String, Aig, Arc<ServeDesign>)>, WorkflowError> {
        scenario
            .designs
            .iter()
            .map(|family| {
                let aig = generators::build_family(family, scenario.size).ok_or_else(|| {
                    RecipeError::UnknownDesign { name: family.clone() }
                })?;
                let name = format!("{family}_{}", scenario.size);
                let graph = DesignGraph::from_aig(&aig);
                let view = || GraphSample::new(&graph, [1.0; 4]);
                let design = Arc::new(ServeDesign::new(name.clone(), view(), view()));
                Ok((name, aig, design))
            })
            .collect()
    }

    /// Label every (design, candidate recipe) pair with its
    /// synthesis runtimes at the swept vCPU counts and fit the hybrid
    /// predictor's dense head on them.
    fn fit_hybrid(
        &self,
        scenario: &RecipeScenario,
        designs: &[(String, Aig, Arc<ServeDesign>)],
    ) -> Result<HybridPredictor, WorkflowError> {
        let mut predictor = HybridPredictor::seeded(scenario.seed);
        let synthesizer = Synthesizer::new().with_verification(false);
        let ctxs = VCPU_SWEEP.map(|v| self.exec_context(StageKind::Synthesis, v));
        let mut samples = Vec::with_capacity(designs.len() * candidate_recipes().len());
        for (name, aig, design) in designs {
            let embedding = predictor.embed(&design.aig);
            for passes in candidate_recipes() {
                let recipe = recipe_from_passes(&passes).map_err(WorkflowError::Recipe)?;
                let (_, reports) = synthesizer.run_sweep(aig, &recipe, &ctxs)?;
                let log_targets =
                    std::array::from_fn(|k| reports[k].runtime_secs.max(1e-9).ln());
                samples.push(HybridSample {
                    design: name.clone(),
                    embedding: embedding.clone(),
                    passes,
                    log_targets,
                });
            }
        }
        let mse = predictor.fit(&samples, &Trainer::fast()).map_err(WorkflowError::Recipe)?;
        self.metrics().set_gauge("recipe.fit_mse", mse);
        Ok(predictor)
    }

    /// Run the joint recipe × VM pipeline: per-design MCTS recipe
    /// search, hybrid-predictor training on engine labels, and one
    /// [`RequestKind::PlanRecipe`] request per design served through
    /// the online tier with the [`WorkflowRecipePlanner`].
    ///
    /// Same scenario, same report — [`RecipeReport::to_json`] is
    /// byte-identical across runs. Search and
    /// planning counters fold into the workflow metrics under
    /// `recipe.*`; per-design spans are recorded as `recipe_search`
    /// roots when a tracer is attached.
    ///
    /// # Errors
    ///
    /// [`WorkflowError::Recipe`] for unknown design families or
    /// search/encoding failures, [`WorkflowError::Serve`] if the
    /// serving tier rejects the stream.
    ///
    /// # Examples
    ///
    /// ```
    /// use eda_cloud_core::{RecipeScenario, Workflow};
    ///
    /// let workflow = Workflow::with_defaults();
    /// let scenario = RecipeScenario {
    ///     designs: vec!["adder".into()],
    ///     iters: 4,
    ///     ..RecipeScenario::new(7)
    /// };
    /// let report = workflow.recipe(&scenario)?;
    /// assert_eq!(report.designs.len(), 1);
    /// assert!(report.designs[0].plan.is_some());
    /// # Ok::<(), eda_cloud_core::WorkflowError>(())
    /// ```
    pub fn recipe(&self, scenario: &RecipeScenario) -> Result<RecipeReport, WorkflowError> {
        let designs = self.recipe_designs(scenario)?;

        // Phase 1: deterministic per-design recipe search.
        let mut outcomes = Vec::with_capacity(designs.len());
        for (i, (name, aig, _)) in designs.iter().enumerate() {
            let search = RecipeSearch::new(scenario.search_config(i));
            let outcome = search.run(name, aig).map_err(WorkflowError::Recipe)?;
            let span = self.tracer().root_at(i as u64, "recipe_search");
            span.attr("design", name.as_str());
            span.attr("best_recipe", outcome.best_key.as_str());
            span.attr("best_score", outcome.best.score());
            span.attr("evaluations", outcome.evaluations);
            span.attr("cache_hits", outcome.cache_hits);
            outcomes.push(outcome);
        }

        // Phase 2: hybrid predictor on the candidates' engine labels.
        let predictor = self.fit_hybrid(scenario, &designs)?;

        // Phase 3: one PlanRecipe request per design through the
        // serving tier.
        let requests: Vec<ServeRequest> = designs
            .iter()
            .enumerate()
            .map(|(i, (_, _, design))| ServeRequest {
                ordinal: i as u64,
                arrival_us: i as u64 * 1_000,
                deadline_us: i as u64 * 1_000 + 60_000_000,
                kind: RequestKind::PlanRecipe { deadline_secs: scenario.deadline_secs },
                design: design.clone(),
                upload: None,
            })
            .collect();
        let server = Server::new(
            ModelSnapshot::seeded(&ModelConfig::fast(), scenario.seed),
            Box::new(WorkflowPlanner::new(self.clone())),
            ServeConfig::default(),
        )
        .with_recipe_planner(Box::new(WorkflowRecipePlanner::new(self.clone(), predictor)))
        .with_tracer(self.tracer().clone());
        let (serve_report, serve_outcomes) = server.run(scenario.seed, &requests)?;

        // Assemble: search sections plus the joint plans, by ordinal.
        let sections = outcomes
            .iter()
            .zip(&serve_outcomes)
            .map(|(outcome, served)| {
                let section = DesignReport::from_outcome(outcome);
                match served {
                    RequestOutcome::Completed { recipe: Some(summary), .. } => {
                        section.with_plan(JointPlan {
                            recipe: summary.recipe.clone(),
                            vcpus: summary.vcpus,
                            total_runtime_secs: summary.total_runtime_secs,
                            total_cost_usd: summary.total_cost_usd,
                            predicted_synth_ms: summary.predicted_synth_ms,
                        })
                    }
                    _ => section,
                }
            })
            .collect();
        let report = RecipeReport {
            seed: scenario.seed,
            iters: scenario.iters,
            designs: sections,
        };

        let m = self.metrics();
        m.add("recipe.designs", report.designs.len() as u64);
        m.add("recipe.improved", report.improved_designs() as u64);
        m.add(
            "recipe.evaluations",
            report.designs.iter().map(|d| d.evaluations).sum(),
        );
        m.add(
            "recipe.cache_hits",
            report.designs.iter().map(|d| d.cache_hits).sum(),
        );
        m.add(
            "recipe.plans",
            report.designs.iter().filter(|d| d.plan.is_some()).count() as u64,
        );
        m.add("recipe.plans_infeasible", serve_report.counters.plans_infeasible);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> RecipeScenario {
        RecipeScenario {
            designs: vec!["adder".into(), "parity".into()],
            size: 4,
            iters: 8,
            ..RecipeScenario::new(7)
        }
    }

    #[test]
    fn scenario_seeds_are_decorrelated_but_stable() {
        let s = RecipeScenario::new(7);
        assert_eq!(s.design_seed(0), 7);
        assert_ne!(s.design_seed(1), s.design_seed(2));
        assert_eq!(s.design_seed(1), RecipeScenario::new(7).design_seed(1));
        assert_eq!(s.search_config(1).seed, s.design_seed(1));
        assert_eq!(s.search_config(0).iters, s.iters);
    }

    #[test]
    fn planner_answers_jointly_and_reports_infeasible_deadlines() {
        let wf = Workflow::with_defaults();
        let predictor = HybridPredictor::seeded(7);
        let planner = WorkflowRecipePlanner::new(wf, predictor);
        let pool = eda_cloud_serve::design_pool();
        let stage_secs = [[10.0; 4], [40.0, 30.0, 20.0, 15.0], [80.0, 45.0, 25.0, 14.0], [5.0; 4]];
        let plan = planner
            .plan_recipe(&pool[0], &stage_secs, 1_000_000)
            .expect("plans")
            .expect("feasible");
        let keys: Vec<String> = candidate_recipes().iter().map(|p| recipe_key(p)).collect();
        assert!(keys.contains(&plan.recipe), "chosen recipe from the candidate set");
        assert!(plan.vcpus.iter().all(|v| VCPU_SWEEP.contains(v)));
        assert!(plan.total_runtime_secs <= 1_000_000);
        // An impossible deadline is NA, not an error.
        assert!(planner
            .plan_recipe(&pool[0], &stage_secs, 1)
            .expect("plans")
            .is_none());
        // Deterministic: same inputs, same plan.
        let again = planner
            .plan_recipe(&pool[0], &stage_secs, 1_000_000)
            .expect("plans")
            .expect("feasible");
        assert_eq!(plan, again);
    }

    #[test]
    fn unknown_design_family_is_a_recipe_error() {
        let wf = Workflow::with_defaults();
        let scenario = RecipeScenario {
            designs: vec!["mystery".into()],
            ..tiny_scenario()
        };
        let err = wf.recipe(&scenario).expect_err("unknown family");
        assert!(matches!(
            err,
            WorkflowError::Recipe(RecipeError::UnknownDesign { .. })
        ));
    }

    #[test]
    fn recipe_pipeline_is_deterministic() {
        let wf = Workflow::with_defaults();
        let scenario = tiny_scenario();
        let base = wf.recipe(&scenario).expect("runs");
        assert_eq!(base.designs.len(), 2);
        assert!(base.designs.iter().all(|d| d.plan.is_some()));
        assert!(base.designs.iter().all(|d| d.tree_visits == scenario.iters));
        let again = wf.recipe(&scenario).expect("runs");
        assert_eq!(again.to_json(), base.to_json(), "same scenario, same bytes");
    }

    #[test]
    fn recipe_counters_fold_into_workflow_metrics() {
        let wf = Workflow::with_defaults().with_metrics(eda_cloud_trace::Metrics::new());
        let scenario = tiny_scenario();
        let report = wf.recipe(&scenario).expect("runs");
        assert_eq!(wf.metrics().counter("recipe.designs"), 2);
        assert_eq!(
            wf.metrics().counter("recipe.plans"),
            report.designs.iter().filter(|d| d.plan.is_some()).count() as u64
        );
        assert_eq!(
            wf.metrics().counter("recipe.evaluations"),
            report.designs.iter().map(|d| d.evaluations).sum::<u64>()
        );
    }
}
