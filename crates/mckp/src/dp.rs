//! The pseudo-polynomial dynamic program, on a sparse Pareto frontier.

use crate::{Problem, Stage};

/// Which objective the DP optimizes under the runtime budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// The paper's Equation (2): maximize `Σ 1/pᵢⱼ`.
    MaxInverseCost,
    /// Direct cost minimization: minimize `Σ pᵢⱼ`.
    MinCost,
}

/// An optimal selection: one choice index per stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Choice index per stage (parallel to `Problem::stages`).
    pub picks: Vec<usize>,
    /// Total runtime of the selection in seconds.
    pub total_runtime_secs: u64,
    /// Total cost of the selection in USD.
    pub total_cost_usd: f64,
}

/// Exact MCKP solver (Dudzinski–Walukiewicz dynamic programming).
///
/// State: `z_l(C)` = best objective over the first `l` stages with total
/// runtime at most `C`; the recurrence tries every choice of stage `l`,
/// exactly as in the paper's Equation (3). Runtimes are integer seconds
/// and `z_l` is a step function of `C`, so only its steps are kept: a
/// Pareto frontier of (runtime `t`, score) states, `t` and score both
/// strictly increasing. Cost is `O(stages · choices · F)` plus a stable
/// sort of each level's `choices · F` candidates, `F <= min(Π choices,
/// C + 1)` states per frontier: 256 for four stages of four sizes,
/// whatever the deadline.
///
/// The answer is bit for bit that of the one-cell-per-second table
/// (kept as `dense_oracle` in `tests/solver_properties.rs`), because
/// the table's tie-breaks are: scores accumulate in stage order as
/// `prev + s`; within one `t` a candidate replaces the incumbent only
/// on a strict `>`, candidates visited by choice index, then by
/// predecessor `t`; the winner is the best score, then the smaller
/// `t`. Dropping a state that a smaller `t` matches or beats is safe
/// under them (float addition is monotone, so its descendants are
/// matched or beaten too). LP-dominated choices are *not* dropped: one
/// can sit in the integer optimum; Dudzinski and Walukiewicz use
/// LP-dominance for the bound only.
///
/// A budget only prunes, so one frontier answers every deadline. Let
/// `F_l` be level `l` built with no budget and `F_l(B)` the level built
/// under budget `B`; then `F_l(B)` is the `t <= B` prefix of `F_l`, by
/// induction on `l`. A candidate reaches `t <= B` only from a
/// predecessor with `t <= B`, so level `l + 1`'s candidates under `B`
/// are exactly its budget-free candidates with `t <= B`, generated in
/// the same (choice, predecessor) order and pointing at the same
/// predecessor indices (the predecessors are a prefix). The stable sort
/// keeps that order within one `t`, and the reduction decides each
/// state from the states before it, so it keeps the same prefix.
/// [`Solver::solve`] returns the last state of `F_n(B)`, which is the
/// last state of `F_n` with `t <= B`: what [`Frontier::cut`] returns
/// for `B`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Solver;

impl Solver {
    /// Create a solver.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Solve with the direct `min Σ p` objective.
    #[must_use]
    pub fn solve_min_cost(&self, problem: &Problem, budget_secs: u64) -> Option<Selection> {
        self.solve(problem, budget_secs, Objective::MinCost)
    }

    /// Solve under the given objective.
    #[must_use]
    pub fn solve(
        &self,
        problem: &Problem,
        budget_secs: u64,
        objective: Objective,
    ) -> Option<Selection> {
        // `Problem` is validated at construction, so the DP core's
        // preconditions hold by type.
        let frontiers = Self::frontiers(problem.stages(), budget_secs, objective);
        // Scores rise along a frontier: its last state is the best
        // score at the smallest `t` reaching it.
        let last = frontiers.last()?.len().checked_sub(1)?;
        Self::selection(&frontiers, last, Self::price(problem.stages()))
    }

    /// `(runtime_secs, cost_usd)` of choice `j` of stage `l`.
    fn price(stages: &[Stage]) -> impl Fn(usize, usize) -> (u64, f64) + '_ {
        |l, j| (stages[l].choices[j].runtime_secs, stages[l].choices[j].cost_usd)
    }

    /// The DP's frontiers, every state's `t` at most `cap`.
    fn frontiers(stages: &[Stage], cap: u64, objective: Objective) -> Vec<Vec<State>> {
        // score(choice): larger is better for the DP max.
        let score = |cost: f64| -> f64 {
            match objective {
                Objective::MaxInverseCost => {
                    if cost > 0.0 {
                        1.0 / cost
                    } else {
                        f64::INFINITY
                    }
                }
                Objective::MinCost => -cost,
            }
        };

        // frontiers[l] = the states worth keeping after `l` stages.
        let mut frontiers = vec![vec![State { t: 0, score: 0.0, parent: 0, choice: 0 }]];
        let mut cands: Vec<State> = Vec::new();
        for stage in stages {
            let prev = &frontiers[frontiers.len() - 1];
            cands.clear();
            for (j, choice) in stage.choices.iter().enumerate() {
                // Subtracting first: an absurd runtime cannot overflow `t`.
                let Some(room) = cap.checked_sub(choice.runtime_secs) else { continue };
                let s = score(choice.cost_usd);
                for (i, p) in prev.iter().enumerate().take_while(|(_, p)| p.t <= room) {
                    let (t, score) = (p.t + choice.runtime_secs, p.score + s);
                    cands.push(State { t, score, parent: i, choice: j });
                }
            }
            // Stable, so equal `t` stay in (choice, predecessor `t`)
            // order and the strict `>` keeps the first best of them.
            cands.sort_by_key(|c| c.t);
            let mut next: Vec<State> = Vec::new();
            for &c in &cands {
                match next.last_mut() {
                    Some(last) if c.score <= last.score => {}
                    Some(last) if last.t == c.t => *last = c,
                    _ => next.push(c),
                }
            }
            frontiers.push(next);
        }
        frontiers
    }

    /// The selection ending at state `at` of the last frontier, each
    /// pick's runtime and cost read from `price(stage, choice)`. Every
    /// state's `parent` indexes the frontier before its own, so the
    /// chain is complete by construction; `?` keeps the solver
    /// panic-free regardless.
    fn selection(
        frontiers: &[Vec<State>],
        mut at: usize,
        price: impl Fn(usize, usize) -> (u64, f64),
    ) -> Option<Selection> {
        let mut picks = vec![0usize; frontiers.len().saturating_sub(1)];
        for (pick, frontier) in picks.iter_mut().zip(&frontiers[1..]).rev() {
            let state = frontier.get(at)?;
            (*pick, at) = (state.choice, state.parent);
        }
        let total_runtime_secs: u64 = picks.iter().enumerate().map(|(l, &j)| price(l, j).0).sum();
        let total_cost_usd: f64 = picks.iter().enumerate().map(|(l, &j)| price(l, j).1).sum();
        Some(Selection { picks, total_runtime_secs, total_cost_usd })
    }
}

/// The budget-free frontier of one problem, kept as the DP left it:
/// per level, each state's total runtime plus a back-pointer to the
/// level before, and each choice's runtime and cost. [`Frontier::cut`]
/// answers a budget by binary search on the last level and rebuilds the
/// picks and totals of that one point only — bit for bit what
/// [`Solver::solve`] returns for the budget (see [`Solver`]'s docs).
#[derive(Debug, Clone)]
pub struct Frontier {
    /// `(runtime_secs, cost_usd)` per stage and choice.
    prices: Vec<Vec<(u64, f64)>>,
    levels: Vec<Vec<State>>,
}

impl Frontier {
    /// Run the DP over `problem` with no budget.
    #[must_use]
    pub fn new(problem: &Problem, objective: Objective) -> Self {
        let stages = problem.stages();
        Self {
            prices: stages
                .iter()
                .map(|s| s.choices.iter().map(|c| (c.runtime_secs, c.cost_usd)).collect())
                .collect(),
            levels: Solver::frontiers(stages, u64::MAX, objective),
        }
    }

    /// The last Pareto point with total runtime at most `budget_secs`:
    /// [`Solver::solve`]`(problem, budget_secs, objective)`.
    #[must_use]
    pub fn cut(&self, budget_secs: u64) -> Option<Selection> {
        let last = self.levels.last()?;
        let at = last.partition_point(|s| s.t <= budget_secs).checked_sub(1)?;
        Solver::selection(&self.levels, at, |l, j| self.prices[l][j])
    }
}

/// One point of a frontier: the best score at total runtime exactly
/// `t`, reached from state `parent` of the previous frontier by `choice`.
#[derive(Debug, Clone, Copy)]
struct State {
    t: u64,
    score: f64,
    parent: usize,
    choice: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{baselines, Choice, Stage};

    fn toy_problem() -> Problem {
        // Mirrors the structure of the paper's Table I: four stages,
        // four sizes each; bigger machines are faster but (mostly)
        // dearer.
        let stage = |name: &str, rows: &[(u64, f64)]| {
            Stage::new(
                name,
                rows.iter()
                    .enumerate()
                    .map(|(k, &(t, p))| Choice::new(format!("{}v", 1 << k), t, p))
                    .collect(),
            )
        };
        Problem::new(vec![
            stage(
                "synthesis",
                &[(6100, 0.16), (4342, 0.15), (3449, 0.19), (3352, 0.37)],
            ),
            stage(
                "placement",
                &[(1206, 0.04), (905, 0.04), (644, 0.05), (519, 0.08)],
            ),
            stage(
                "routing",
                &[(10461, 0.32), (5514, 0.25), (2894, 0.21), (1692, 0.25)],
            ),
            stage("sta", &[(183, 0.02), (119, 0.01), (90, 0.02), (82, 0.05)]),
        ])
        .expect("valid problem")
    }

    #[test]
    fn infeasible_budget_returns_none() {
        let p = toy_problem();
        // Fastest possible total = 3352 + 519 + 1692 + 82 = 5645.
        assert_eq!(p.min_total_runtime(), 5645);
        assert!(Solver::new().solve_min_cost(&p, 5644).is_none());
        assert!(Solver::new().solve(&p, 5000, Objective::MaxInverseCost).is_none());
    }

    #[test]
    fn exact_boundary_budget_selects_fastest_everywhere() {
        let p = toy_problem();
        let sel = Solver::new().solve_min_cost(&p, 5645).expect("feasible");
        assert_eq!(sel.total_runtime_secs, 5645);
        assert_eq!(sel.picks, [3, 3, 3, 3], "8v everywhere");
    }

    #[test]
    fn loose_budget_prefers_cheap_machines() {
        let p = toy_problem();
        let sel = Solver::new()
            .solve_min_cost(&p, 1_000_000)
            .expect("feasible");
        // With unlimited time, the min-cost solver picks each stage's
        // cheapest configuration.
        let cheapest: f64 = p
            .stages()
            .iter()
            .map(|s| s.choices.iter().map(|c| c.cost_usd).fold(f64::INFINITY, f64::min))
            .sum();
        assert!((sel.total_cost_usd - cheapest).abs() < 1e-9);
    }

    #[test]
    fn tightening_budget_never_reduces_cost() {
        let p = toy_problem();
        let solver = Solver::new();
        let mut last_cost = 0.0;
        for budget in [20_000u64, 10_000, 8_000, 6_000, 5_645] {
            let sel = solver.solve_min_cost(&p, budget).expect("feasible");
            assert!(sel.total_runtime_secs <= budget);
            assert!(
                sel.total_cost_usd >= last_cost - 1e-9,
                "cost must not drop when the deadline tightens"
            );
            last_cost = sel.total_cost_usd;
        }
    }

    #[test]
    fn min_cost_matches_exhaustive() {
        let p = toy_problem();
        let solver = Solver::new();
        for budget in [5_645u64, 6_000, 7_500, 10_000, 18_000] {
            let dp = solver.solve_min_cost(&p, budget).expect("feasible");
            let brute = baselines::exhaustive_min_cost(&p, budget).expect("feasible");
            assert!(
                (dp.total_cost_usd - brute.total_cost_usd).abs() < 1e-9,
                "budget {budget}: dp {} vs brute {}",
                dp.total_cost_usd,
                brute.total_cost_usd
            );
        }
    }

    #[test]
    fn frontier_cut_is_the_budgeted_solve() {
        let p = toy_problem();
        let frontier = Frontier::new(&p, Objective::MinCost);
        // The fastest point, and the cheapest.
        assert_eq!(frontier.cut(5_645).map(|s| s.total_runtime_secs), Some(5645));
        let cheapest = Solver::new().solve_min_cost(&p, u64::MAX).expect("feasible");
        assert_eq!(frontier.cut(u64::MAX), Some(cheapest));
        for budget in [0u64, 5_644, 5_645, 6_000, 7_500, 10_000, 18_000, u64::MAX] {
            let solved = Solver::new().solve_min_cost(&p, budget);
            assert_eq!(frontier.cut(budget), solved, "budget {budget}");
        }
    }

    #[test]
    fn paper_objective_is_feasible_whenever_min_cost_is() {
        let p = toy_problem();
        let solver = Solver::new();
        for budget in [5_645u64, 6_000, 10_000] {
            let a = solver.solve(&p, budget, Objective::MaxInverseCost);
            let b = solver.solve_min_cost(&p, budget);
            assert_eq!(a.is_some(), b.is_some(), "budget {budget}");
            let (a, b) = (a.unwrap(), b.unwrap());
            assert!(a.total_runtime_secs <= budget);
            // Min-cost is by definition no more expensive.
            assert!(b.total_cost_usd <= a.total_cost_usd + 1e-9);
        }
    }

    #[test]
    fn zero_cost_choice_handled() {
        let p = Problem::new(vec![Stage::new(
            "free",
            vec![Choice::new("gratis", 10, 0.0), Choice::new("paid", 5, 1.0)],
        )])
        .unwrap();
        let sel = Solver::new().solve(&p, 100, Objective::MaxInverseCost).expect("feasible");
        assert_eq!(p.stages()[0].choices[sel.picks[0]].label, "gratis");
    }

    #[test]
    fn single_stage_single_choice() {
        let p = Problem::new(vec![Stage::new("only", vec![Choice::new("x", 42, 0.5)])]).unwrap();
        let sel = Solver::new().solve_min_cost(&p, 42).expect("feasible");
        assert_eq!(sel.total_runtime_secs, 42);
        assert!(Solver::new().solve_min_cost(&p, 41).is_none());
    }

    #[test]
    fn single_choice_stages_solve() {
        // One choice per stage: the DP has nothing to trade off but
        // must still reconstruct a complete parent chain.
        let p = Problem::new(vec![
            Stage::new("syn", vec![Choice::new("only", 10, 0.10)]),
            Stage::new("route", vec![Choice::new("only", 7, 0.05)]),
        ])
        .expect("valid stages");
        let sel = Solver::new().solve_min_cost(&p, 17).expect("feasible");
        assert_eq!(sel.picks, vec![0, 0]);
        assert_eq!(sel.total_runtime_secs, 17);
        assert!(Solver::new().solve_min_cost(&p, 16).is_none());
    }

    #[test]
    fn absurd_runtimes_saturate_the_budget_clamp() {
        // Two near-u64::MAX runtimes used to overflow the max-useful
        // sum (a debug-build panic); the clamp now saturates and the
        // solve stays a clean "infeasible".
        let p = Problem::new(vec![
            Stage::new("a", vec![Choice::new("x", u64::MAX - 1, 0.1)]),
            Stage::new("b", vec![Choice::new("x", u64::MAX - 1, 0.1)]),
        ])
        .expect("valid stages");
        assert!(Solver::new().solve_min_cost(&p, 1_000).is_none());
    }

    #[test]
    fn budgets_beyond_u32_still_solve() {
        // The dense table read any budget it could not index with a
        // `usize` as "infeasible"; on a 32-bit target that is this one.
        let big = u64::from(u32::MAX);
        let p = Problem::new(vec![
            Stage::new("a", vec![Choice::new("slow", 2 * big, 0.1), Choice::new("fast", big, 0.4)]),
            Stage::new("b", vec![Choice::new("slow", 2 * big, 0.2), Choice::new("fast", big, 0.3)]),
        ])
        .expect("valid stages");
        let solve = |budget| Solver::new().solve_min_cost(&p, budget);
        let sel = solve(3 * big).expect("feasible");
        assert_eq!(sel.picks, vec![0, 1]);
        assert_eq!(sel.total_runtime_secs, 3 * big);
        assert_eq!(solve(u64::MAX).expect("feasible").picks, vec![0, 0]);
        assert!(solve(2 * big - 1).is_none());
    }
}
