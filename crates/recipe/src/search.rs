//! Deterministic seeded MCTS over synthesis-pass sequences.
//!
//! # Determinism argument
//!
//! Every source of nondeterminism is closed off by construction:
//!
//! * **Selection and expansion are strictly sequential.** Iterations
//!   are grouped into fixed-size batches (`BATCH`, a property of the
//!   search, not of the machine); within a batch, leaves are
//!   selected one after another with the visit increment applied
//!   immediately (a virtual loss), so the K-th selection of a batch is
//!   a pure function of the tree state and never of thread timing.
//! * **UCB is integer-only.** Exploitation is reward-ppm over visits;
//!   exploration is a fixed-point `C·√(ln N / n)` built from an
//!   `ilog2`-based `ln` approximation and a Newton integer square
//!   root. No float accumulates across iterations, so there is no
//!   reassociation hazard anywhere in tree policy.
//! * **Ties break canonically** toward the lowest action index.
//! * **Rollout randomness is one ChaCha8 stream** advanced only during
//!   the sequential selection phase, in iteration order.
//! * **Evaluations are pure** functions of `(design, pass sequence)`.
//!   The distinct uncached sequences of a batch are evaluated one
//!   after another, in selection order, and the cache is filled in
//!   first-appearance order, so a pre-warmed cache short-circuits
//!   evaluations without perturbing a single visit count. There is no
//!   evaluation fan-out:
//!   a whole search is under 100 µs per evaluation on batches of at
//!   most `BATCH` candidates, and measured slower on 2 and 4 threads
//!   than on 1 (EXPERIMENTS.md § Synthesis joins `run_sweep`).

use crate::encode::{recipe_from_passes, recipe_key, ALPHABET};
use crate::{NoRecipeFaults, RecipeError, RecipeFaults};
use eda_cloud_flow::{ExecContext, Pass, Synthesizer};
use eda_cloud_netlist::Aig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Parts per million — the fixed-point unit of rewards and UCB.
pub const PPM: u64 = 1_000_000;

/// `ln(2)` in ppm; `ln(n) ≈ ilog2(n) · LN2_PPM`.
const LN2_PPM: u64 = 693_147;

/// Exploration constant in ppm (C ≈ 0.9).
const EXPLORE_C_PPM: u64 = 900_000;

/// Rewards are clamped to this many ppm (3x the baseline quality).
const REWARD_CAP_PPM: u64 = 3 * PPM;

/// Simulated cost of one synthesis evaluation (cache miss).
const EVAL_MISS_US: u64 = 1_000;

/// Simulated cost of an evaluation served from the cache.
const EVAL_HIT_US: u64 = 50;

/// Leaf selections grouped per evaluation batch. Part of the search
/// definition — the tree depends on it, so it must not be derived from
/// the machine.
const BATCH: u64 = 4;

/// Maximum recipe length the tree may reach (at most
/// [`crate::MAX_RECIPE_LEN`]).
const MAX_LEN: usize = 4;

/// Search-agent configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Total MCTS iterations (leaf selections).
    pub iters: u64,
    /// Rollout seed.
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            iters: 64,
            seed: 7,
        }
    }
}

/// The QoR/runtime outcome of synthesizing one pass sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOutcome {
    /// Mapped standard cells (the QoR area proxy).
    pub cells: u64,
    /// Mapped logic depth.
    pub depth: u64,
    /// Modeled synthesis runtime in milliseconds at 1/2/4/8 vCPUs.
    pub runtime_ms: [u64; 4],
}

impl EvalOutcome {
    /// The integer score the search minimizes: area-dominated QoR with
    /// depth and 4-vCPU runtime as fixed-weight tiebreakers.
    #[must_use]
    pub fn score(&self) -> u64 {
        self.cells * 10_000 + self.depth * 100 + self.runtime_ms[2]
    }
}

/// Keyed evaluation cache: canonical recipe key → outcome.
///
/// Sharing one cache across searches (or pre-warming it) never changes
/// a search result — only how many synthesis runs back it.
#[derive(Debug, Clone, Default)]
pub struct EvalCache {
    map: BTreeMap<String, EvalOutcome>,
}

impl EvalCache {
    /// Empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached outcome for a canonical recipe key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&EvalOutcome> {
        self.map.get(key)
    }

    /// Insert an outcome under its canonical key.
    pub fn insert(&mut self, key: String, outcome: EvalOutcome) {
        self.map.insert(key, outcome);
    }
}

/// Per-node statistics exported for reporting and invariant checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStat {
    /// Depth in the tree (= recipe prefix length).
    pub depth: u32,
    /// Times the node was on a selected path (including creation).
    pub visits: u64,
    /// Times the node itself was the selected leaf.
    pub own_selections: u64,
    /// Sum of the node's children's visits.
    pub child_visits: u64,
}

/// Search-tree statistics: one entry per node, in creation order
/// (index 0 is the root).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TreeStats {
    /// Per-node stats.
    pub nodes: Vec<NodeStat>,
    /// Iterations the search ran (= leaf selections performed).
    pub total_iterations: u64,
}

impl TreeStats {
    /// Number of nodes in the tree.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Deepest node.
    #[must_use]
    pub fn max_depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Root visit count (must equal `total_iterations`).
    #[must_use]
    pub fn root_visits(&self) -> u64 {
        self.nodes.first().map_or(0, |n| n.visits)
    }
}

/// One point of the QoR trajectory: the best score after `iter`
/// iterations (recorded whenever the incumbent improves).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrajectoryPoint {
    /// Iterations completed when the improvement landed.
    pub iter: u64,
    /// Canonical key of the new incumbent.
    pub key: String,
    /// Its score.
    pub score: u64,
}

/// Everything a finished search knows.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Design name.
    pub design: String,
    /// Canonical key of the best recipe found.
    pub best_key: String,
    /// Its pass sequence.
    pub best_passes: Vec<Pass>,
    /// Its evaluation.
    pub best: EvalOutcome,
    /// Canonical key of the default production recipe.
    pub baseline_key: String,
    /// The default recipe's evaluation.
    pub baseline: EvalOutcome,
    /// Iterations performed.
    pub iterations: u64,
    /// Synthesis evaluations actually run (cache misses).
    pub evaluations: u64,
    /// Evaluations served from the cache.
    pub cache_hits: u64,
    /// Total simulated evaluation time (including injected stalls).
    pub total_eval_us: u64,
    /// Tree statistics.
    pub tree: TreeStats,
    /// Incumbent-improvement trajectory.
    pub trajectory: Vec<TrajectoryPoint>,
}

/// `ln(n)` in ppm via `ilog2`.
fn ln_ppm(n: u64) -> u64 {
    if n < 2 {
        0
    } else {
        u64::from(n.ilog2()) * LN2_PPM
    }
}

/// Newton integer square root.
fn isqrt(x: u128) -> u64 {
    if x == 0 {
        return 0;
    }
    let mut guess = 1u128 << (x.ilog2() / 2 + 1);
    loop {
        let next = (guess + x / guess) / 2;
        if next >= guess {
            // Converged (allow u64 truncation: √u128 fits in u64).
            #[allow(clippy::cast_possible_truncation)]
            return guess as u64;
        }
        guess = next;
    }
}

/// Integer UCB in ppm: `reward/visits + C·√(ln(parent)/visits)`.
fn ucb_ppm(reward_ppm: u64, visits: u64, parent_visits: u64) -> u64 {
    let exploit = reward_ppm / visits;
    let explore_sq = u128::from(ln_ppm(parent_visits)) * u128::from(PPM) / u128::from(visits);
    let explore = EXPLORE_C_PPM * u128::from(isqrt(explore_sq)) as u64 / PPM;
    exploit.saturating_add(explore)
}

/// One MCTS tree node.
#[derive(Debug, Clone)]
struct Node {
    passes: Vec<Pass>,
    children: [Option<usize>; ALPHABET.len()],
    visits: u64,
    own_selections: u64,
    reward_ppm: u64,
}

impl Node {
    fn new(passes: Vec<Pass>) -> Self {
        Self {
            passes,
            children: [None; ALPHABET.len()],
            visits: 0,
            own_selections: 0,
            reward_ppm: 0,
        }
    }
}

/// One batched leaf selection: the path of node indices from the root
/// and the rollout-completed pass sequence to evaluate.
struct Selection {
    path: Vec<usize>,
    rollout: Vec<Pass>,
    key: String,
    iter: u64,
}

/// The deterministic recipe-search agent.
#[derive(Debug, Clone)]
pub struct RecipeSearch {
    config: SearchConfig,
    synthesizer: Synthesizer,
}

impl RecipeSearch {
    /// Agent with the given configuration. Candidate synthesis runs
    /// skip verification — the search compares structures, and every
    /// pass is function-preserving by construction.
    #[must_use]
    pub fn new(config: SearchConfig) -> Self {
        Self {
            config,
            synthesizer: Synthesizer::new().with_verification(false),
        }
    }

    /// Run the search with no faults and a fresh cache.
    ///
    /// # Errors
    ///
    /// Propagates synthesis failures as [`RecipeError::Flow`].
    pub fn run(&self, design: &str, aig: &Aig) -> Result<SearchOutcome, RecipeError> {
        self.run_with(design, aig, &NoRecipeFaults, &mut EvalCache::new())
    }

    /// Run the search against explicit fault hooks and a shared
    /// evaluation cache.
    ///
    /// # Errors
    ///
    /// Propagates synthesis failures as [`RecipeError::Flow`].
    pub fn run_with(
        &self,
        design: &str,
        aig: &Aig,
        faults: &dyn RecipeFaults,
        cache: &mut EvalCache,
    ) -> Result<SearchOutcome, RecipeError> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ 0x5EC1_FE00);
        let mut nodes = vec![Node::new(Vec::new())];
        let mut evaluations = 0u64;
        let mut cache_hits = 0u64;
        let mut total_eval_us = 0u64;
        let mut trajectory = Vec::new();

        // Judge everything against the default production recipe.
        let baseline_key = recipe_key(&crate::encode::DEFAULT_PASSES);
        let baseline = self.eval_one(
            aig,
            &crate::encode::DEFAULT_PASSES,
            cache,
            &mut evaluations,
            &mut cache_hits,
        )?;
        let baseline_score = baseline.score().max(1);

        let mut best_key = baseline_key.clone();
        let mut best_passes = crate::encode::DEFAULT_PASSES.to_vec();
        let mut best = baseline;

        let mut iter = 0u64;
        while iter < self.config.iters {
            let remaining = self.config.iters - iter;
            let batch_len = BATCH.min(remaining);

            // Sequential selection phase: virtual visits + rollouts.
            let mut selections = Vec::with_capacity(batch_len as usize);
            for _ in 0..batch_len {
                let path = select_path(&mut nodes);
                let leaf_passes = nodes[*path.last().expect("path never empty")].passes.clone();
                let rollout = complete_rollout(leaf_passes, &mut rng);
                let key = recipe_key(&rollout);
                selections.push(Selection {
                    path,
                    rollout,
                    key,
                    iter,
                });
                iter += 1;
            }

            // Evaluation and canonical-order backup + accounting: a
            // candidate's first appearance is the miss that fills the
            // cache, every repeat (in this batch or a later one) a hit.
            for sel in &selections {
                let (outcome, hit) = match cache.get(&sel.key) {
                    Some(&outcome) => {
                        cache_hits += 1;
                        (outcome, true)
                    }
                    None => {
                        let outcome = evaluate(&self.synthesizer, aig, &sel.rollout)?;
                        cache.insert(sel.key.clone(), outcome);
                        evaluations += 1;
                        (outcome, false)
                    }
                };
                let score = outcome.score().max(1);
                let reward = (baseline_score.saturating_mul(PPM) / score).min(REWARD_CAP_PPM);
                for &idx in &sel.path {
                    nodes[idx].reward_ppm = nodes[idx].reward_ppm.saturating_add(reward);
                }
                total_eval_us += if hit { EVAL_HIT_US } else { EVAL_MISS_US };
                total_eval_us = total_eval_us.saturating_add(faults.eval_extra_us(sel.iter));
                let better = score < best.score()
                    || (score == best.score() && sel.key.as_str() < best_key.as_str());
                if better {
                    best = outcome;
                    best_key = sel.key.clone();
                    best_passes = sel.rollout.clone();
                    trajectory.push(TrajectoryPoint {
                        iter: sel.iter + 1,
                        key: best_key.clone(),
                        score: best.score(),
                    });
                }
            }
        }

        let tree = TreeStats {
            nodes: nodes
                .iter()
                .map(|n| NodeStat {
                    depth: n.passes.len() as u32,
                    visits: n.visits,
                    own_selections: n.own_selections,
                    child_visits: n
                        .children
                        .iter()
                        .flatten()
                        .map(|&c| nodes[c].visits)
                        .sum(),
                })
                .collect(),
            total_iterations: self.config.iters,
        };

        Ok(SearchOutcome {
            design: design.to_owned(),
            best_key,
            best_passes,
            best,
            baseline_key,
            baseline,
            iterations: self.config.iters,
            evaluations,
            cache_hits,
            total_eval_us,
            tree,
            trajectory,
        })
    }

    /// Evaluate one pass sequence, using the cache.
    fn eval_one(
        &self,
        aig: &Aig,
        passes: &[Pass],
        cache: &mut EvalCache,
        evaluations: &mut u64,
        cache_hits: &mut u64,
    ) -> Result<EvalOutcome, RecipeError> {
        let key = recipe_key(passes);
        if let Some(&hit) = cache.get(&key) {
            *cache_hits += 1;
            return Ok(hit);
        }
        let outcome = evaluate(&self.synthesizer, aig, passes)?;
        cache.insert(key, outcome);
        *evaluations += 1;
        Ok(outcome)
    }
}

/// Select a leaf: descend by integer UCB, expand the lowest-index
/// unvisited action, applying the visit increment (virtual loss)
/// immediately. Returns the root-to-leaf path.
fn select_path(nodes: &mut Vec<Node>) -> Vec<usize> {
    let mut path = vec![0usize];
    let mut current = 0usize;
    loop {
        nodes[current].visits += 1;
        if nodes[current].passes.len() >= MAX_LEN {
            nodes[current].own_selections += 1;
            return path;
        }
        // Expand the first untried action.
        if let Some(slot) = nodes[current].children.iter().position(Option::is_none) {
            let mut passes = nodes[current].passes.clone();
            passes.push(ALPHABET[slot]);
            let child = nodes.len();
            nodes.push(Node::new(passes));
            nodes[current].children[slot] = Some(child);
            nodes[child].visits = 1;
            nodes[child].own_selections = 1;
            path.push(child);
            return path;
        }
        // Fully expanded: descend by UCB, ties to the lowest index.
        let parent_visits = nodes[current].visits;
        let mut best_slot = 0usize;
        let mut best_ucb = 0u64;
        for (slot, child) in nodes[current].children.iter().enumerate() {
            let child = child.expect("fully expanded");
            let u = ucb_ppm(nodes[child].reward_ppm, nodes[child].visits, parent_visits);
            if slot == 0 || u > best_ucb {
                best_ucb = u;
                best_slot = slot;
            }
        }
        current = nodes[current].children[best_slot].expect("fully expanded");
        path.push(current);
    }
}

/// Complete a leaf's prefix to a full rollout sequence with seeded
/// random suffix passes.
fn complete_rollout(mut passes: Vec<Pass>, rng: &mut ChaCha8Rng) -> Vec<Pass> {
    let remaining = MAX_LEN - passes.len().min(MAX_LEN);
    if remaining > 0 {
        let extra = rng.gen_range(0..=remaining);
        for _ in 0..extra {
            passes.push(ALPHABET[rng.gen_range(0..ALPHABET.len())]);
        }
    }
    passes
}

/// Synthesize one pass sequence once, costed at 1/2/4/8 vCPUs.
fn evaluate(syn: &Synthesizer, aig: &Aig, passes: &[Pass]) -> Result<EvalOutcome, RecipeError> {
    let recipe = recipe_from_passes(passes)?;
    let (netlist, reports) = syn.run_sweep(aig, &recipe, &[1, 2, 4, 8].map(ExecContext::with_vcpus))?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let runtime_ms =
        std::array::from_fn(|k| (reports[k].runtime_secs * 1_000.0).round().max(0.0) as u64);
    Ok(EvalOutcome {
        cells: netlist.cell_count() as u64,
        depth: netlist.depth() as u64,
        runtime_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_netlist::generators;

    fn aig() -> Aig {
        generators::build_family("adder", 4).expect("known family")
    }

    #[test]
    fn integer_sqrt_is_exact_on_squares() {
        for v in [0u64, 1, 2, 3, 9, 10, 144, 1_000_000, u32::MAX as u64] {
            let s = isqrt(u128::from(v) * u128::from(v));
            assert_eq!(s, v);
        }
        assert_eq!(isqrt(8), 2);
        assert_eq!(isqrt(99), 9);
    }

    #[test]
    fn ucb_prefers_unvisited_like_scores_and_breaks_ties_low() {
        // Higher reward with equal visits wins.
        assert!(ucb_ppm(2 * PPM, 2, 10) > ucb_ppm(PPM, 2, 10));
        // More visits shrink exploration.
        assert!(ucb_ppm(PPM, 1, 10) > ucb_ppm(PPM, 5, 10));
    }

    #[test]
    fn same_seed_same_outcome() {
        let search = RecipeSearch::new(SearchConfig {
            iters: 24,
            ..SearchConfig::default()
        });
        let a = search.run("adder_4", &aig()).expect("search");
        let b = search.run("adder_4", &aig()).expect("search");
        assert_eq!(a, b);
    }

    #[test]
    fn visit_counts_are_conserved() {
        let search = RecipeSearch::new(SearchConfig {
            iters: 40,
            ..SearchConfig::default()
        });
        let out = search.run("adder_4", &aig()).expect("search");
        assert_eq!(out.tree.root_visits(), out.iterations);
        for (i, n) in out.tree.nodes.iter().enumerate() {
            assert_eq!(
                n.visits,
                n.own_selections + n.child_visits,
                "node {i} leaks visits"
            );
        }
    }

    #[test]
    fn warm_cache_changes_only_the_hit_counters() {
        let search = RecipeSearch::new(SearchConfig {
            iters: 24,
            ..SearchConfig::default()
        });
        let cold = search.run("adder_4", &aig()).expect("cold");
        let mut warm_cache = EvalCache::new();
        let first = search
            .run_with("adder_4", &aig(), &NoRecipeFaults, &mut warm_cache)
            .expect("warm-up");
        assert_eq!(cold, first, "explicit cache is the same as the implicit one");
        let warm = search
            .run_with("adder_4", &aig(), &NoRecipeFaults, &mut warm_cache)
            .expect("warm");
        assert_eq!(cold.tree, warm.tree, "cache must be transparent to the tree");
        assert_eq!(cold.best_key, warm.best_key);
        assert_eq!(cold.best, warm.best);
        assert_eq!(cold.trajectory, warm.trajectory);
        assert_eq!(warm.evaluations, 0, "everything is cached the second time");
    }

    #[test]
    fn stall_faults_change_accounting_but_not_the_tree() {
        struct StallAll;
        impl RecipeFaults for StallAll {
            fn eval_extra_us(&self, _iter: u64) -> u64 {
                10_000
            }
        }
        let search = RecipeSearch::new(SearchConfig {
            iters: 24,
            ..SearchConfig::default()
        });
        let nominal = search.run("adder_4", &aig()).expect("nominal");
        let stalled = search
            .run_with("adder_4", &aig(), &StallAll, &mut EvalCache::new())
            .expect("stalled");
        assert_eq!(nominal.tree, stalled.tree);
        assert_eq!(nominal.best_key, stalled.best_key);
        assert!(stalled.total_eval_us > nominal.total_eval_us);
    }
}
