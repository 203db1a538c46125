//! The byte-stable recipe-search report.
//!
//! Built from [`SearchOutcome`]s plus (optionally) the joint recipe ×
//! VM plans the serving tier produced for the searched designs. All
//! report state is integers or fixed-precision floats rendered in a
//! fixed key order, so the JSON is byte-identical for a given seed at
//! any worker count.

use crate::search::{SearchOutcome, TrajectoryPoint};
use eda_cloud_trace::fmt_f64;
use std::fmt::Write as _;

/// The joint answer for one design: which recipe to synthesize with
/// and which VM shape to run each flow stage on.
#[derive(Debug, Clone, PartialEq)]
pub struct JointPlan {
    /// Canonical key of the chosen recipe.
    pub recipe: String,
    /// vCPUs per stage (synthesis, placement, routing, STA).
    pub vcpus: [u32; 4],
    /// Planned end-to-end runtime.
    pub total_runtime_secs: u64,
    /// Planned total cost.
    pub total_cost_usd: f64,
    /// The hybrid predictor's synthesis-runtime forecast (ms at
    /// 1/2/4/8 vCPUs) for the chosen recipe.
    pub predicted_synth_ms: [u64; 4],
}

/// Per-design section of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignReport {
    /// Design name.
    pub design: String,
    /// Best recipe found by the search.
    pub best_recipe: String,
    /// Its score (lower is better).
    pub best_score: u64,
    /// Its mapped cell count.
    pub best_cells: u64,
    /// Its mapped depth.
    pub best_depth: u64,
    /// Its synthesis runtime (ms at 1/2/4/8 vCPUs).
    pub best_runtime_ms: [u64; 4],
    /// The default production recipe it was judged against.
    pub baseline_recipe: String,
    /// The default recipe's score.
    pub baseline_score: u64,
    /// The default recipe's synthesis runtime (ms at 1/2/4/8 vCPUs).
    pub baseline_runtime_ms: [u64; 4],
    /// Synthesis evaluations actually run.
    pub evaluations: u64,
    /// Evaluations served from the cache.
    pub cache_hits: u64,
    /// Search-tree node count.
    pub tree_nodes: u64,
    /// Deepest tree node.
    pub tree_max_depth: u64,
    /// Root visit count (= iterations).
    pub tree_visits: u64,
    /// Total simulated evaluation time.
    pub total_eval_us: u64,
    /// Incumbent-improvement trajectory.
    pub trajectory: Vec<TrajectoryPoint>,
    /// The joint recipe × VM plan, when the serving tier produced one.
    pub plan: Option<JointPlan>,
}

impl DesignReport {
    /// Lift a search outcome into its report section (no plan yet).
    #[must_use]
    pub fn from_outcome(outcome: &SearchOutcome) -> Self {
        Self {
            design: outcome.design.clone(),
            best_recipe: outcome.best_key.clone(),
            best_score: outcome.best.score(),
            best_cells: outcome.best.cells,
            best_depth: outcome.best.depth,
            best_runtime_ms: outcome.best.runtime_ms,
            baseline_recipe: outcome.baseline_key.clone(),
            baseline_score: outcome.baseline.score(),
            baseline_runtime_ms: outcome.baseline.runtime_ms,
            evaluations: outcome.evaluations,
            cache_hits: outcome.cache_hits,
            tree_nodes: outcome.tree.node_count() as u64,
            tree_max_depth: u64::from(outcome.tree.max_depth()),
            tree_visits: outcome.tree.root_visits(),
            total_eval_us: outcome.total_eval_us,
            trajectory: outcome.trajectory.clone(),
            plan: None,
        }
    }

    /// Attach the joint plan.
    #[must_use]
    pub fn with_plan(mut self, plan: JointPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Whether the searched recipe beats the default on QoR score or
    /// on 4-vCPU runtime.
    #[must_use]
    fn beats_baseline(&self) -> bool {
        self.best_score < self.baseline_score
            || self.best_runtime_ms[2] < self.baseline_runtime_ms[2]
    }
}

/// The full recipe-search report.
#[derive(Debug, Clone, PartialEq)]
pub struct RecipeReport {
    /// Search seed.
    pub seed: u64,
    /// MCTS iterations per design.
    pub iters: u64,
    /// Per-design sections, in scenario order.
    pub designs: Vec<DesignReport>,
}

impl RecipeReport {
    /// How many designs' searched recipes beat the default recipe.
    #[must_use]
    pub fn improved_designs(&self) -> usize {
        self.designs.iter().filter(|d| d.beats_baseline()).count()
    }

    /// Canonical single-line JSON with a fixed key order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push('{');
        let _ = write!(s, "\"seed\":{},", self.seed);
        let _ = write!(s, "\"iters\":{},", self.iters);
        let _ = write!(s, "\"improved_designs\":{},", self.improved_designs());
        s.push_str("\"designs\":[");
        for (i, d) in self.designs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            let _ = write!(s, "\"design\":\"{}\",", d.design);
            let _ = write!(s, "\"best_recipe\":\"{}\",", d.best_recipe);
            let _ = write!(s, "\"best_score\":{},", d.best_score);
            let _ = write!(s, "\"best_cells\":{},", d.best_cells);
            let _ = write!(s, "\"best_depth\":{},", d.best_depth);
            let _ = write!(s, "\"best_runtime_ms\":{},", fmt_u64s(&d.best_runtime_ms));
            let _ = write!(s, "\"baseline_recipe\":\"{}\",", d.baseline_recipe);
            let _ = write!(s, "\"baseline_score\":{},", d.baseline_score);
            let _ = write!(
                s,
                "\"baseline_runtime_ms\":{},",
                fmt_u64s(&d.baseline_runtime_ms)
            );
            let _ = write!(s, "\"evaluations\":{},", d.evaluations);
            let _ = write!(s, "\"cache_hits\":{},", d.cache_hits);
            let _ = write!(s, "\"tree_nodes\":{},", d.tree_nodes);
            let _ = write!(s, "\"tree_max_depth\":{},", d.tree_max_depth);
            let _ = write!(s, "\"tree_visits\":{},", d.tree_visits);
            let _ = write!(s, "\"total_eval_us\":{},", d.total_eval_us);
            s.push_str("\"trajectory\":[");
            for (j, p) in d.trajectory.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"iter\":{},\"recipe\":\"{}\",\"score\":{}}}",
                    p.iter, p.key, p.score
                );
            }
            s.push_str("],");
            match &d.plan {
                Some(p) => {
                    let _ = write!(
                        s,
                        "\"plan\":{{\"recipe\":\"{}\",\"vcpus\":{},\"total_runtime_secs\":{},\
                         \"total_cost_usd\":{},\"predicted_synth_ms\":{}}}",
                        p.recipe,
                        fmt_u32s(&p.vcpus),
                        p.total_runtime_secs,
                        fmt_f64(p.total_cost_usd),
                        fmt_u64s(&p.predicted_synth_ms)
                    );
                }
                None => s.push_str("\"plan\":null"),
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

fn fmt_u64s(vs: &[u64]) -> String {
    let parts: Vec<String> = vs.iter().map(ToString::to_string).collect();
    format!("[{}]", parts.join(","))
}

fn fmt_u32s(vs: &[u32]) -> String {
    let parts: Vec<String> = vs.iter().map(ToString::to_string).collect();
    format!("[{}]", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RecipeReport {
        RecipeReport {
            seed: 7,
            iters: 64,
            designs: vec![DesignReport {
                design: "adder_6".into(),
                best_recipe: "rewrite".into(),
                best_score: 900,
                best_cells: 80,
                best_depth: 9,
                best_runtime_ms: [40, 30, 20, 18],
                baseline_recipe: "balance;rewrite;refactor(2)".into(),
                baseline_score: 1_000,
                baseline_runtime_ms: [50, 36, 25, 22],
                evaluations: 12,
                cache_hits: 52,
                tree_nodes: 31,
                tree_max_depth: 4,
                tree_visits: 64,
                total_eval_us: 14_600,
                trajectory: vec![TrajectoryPoint {
                    iter: 3,
                    key: "rewrite".into(),
                    score: 900,
                }],
                plan: Some(JointPlan {
                    recipe: "rewrite".into(),
                    vcpus: [4, 8, 2, 1],
                    total_runtime_secs: 120,
                    total_cost_usd: 0.125,
                    predicted_synth_ms: [41, 29, 21, 19],
                }),
            }],
        }
    }

    #[test]
    fn json_is_canonical_and_stable() {
        let r = sample_report();
        let json = r.to_json();
        assert_eq!(json, r.clone().to_json());
        assert!(json.starts_with("{\"seed\":7,\"iters\":64,\"improved_designs\":1,"));
        assert!(json.contains("\"plan\":{\"recipe\":\"rewrite\",\"vcpus\":[4,8,2,1]"));
        assert!(json.contains("\"total_cost_usd\":0.125000"));
        assert!(json.ends_with("}]}"));
    }

    #[test]
    fn missing_plan_serializes_as_null() {
        let mut r = sample_report();
        r.designs[0].plan = None;
        assert!(r.to_json().contains("\"plan\":null"));
        assert_eq!(r.improved_designs(), 1);
    }

    #[test]
    fn beats_baseline_on_score_or_runtime() {
        let mut d = sample_report().designs.remove(0);
        assert!(d.beats_baseline());
        d.best_score = d.baseline_score;
        d.best_runtime_ms = d.baseline_runtime_ms;
        assert!(!d.beats_baseline());
        d.best_runtime_ms[2] = d.baseline_runtime_ms[2] - 1;
        assert!(d.beats_baseline());
    }
}
