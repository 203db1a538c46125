//! Provisioning baselines and the exhaustive verifier.
//!
//! Figure 6 compares the knapsack deployment against two naive
//! strategies an EDA team might use: *over-provisioning* (run every
//! stage on the largest machine) and *under-provisioning* (run every
//! stage on the smallest machine).

use crate::{Problem, Selection};

/// Select the last (largest / fastest-configured) choice of every stage
/// — the paper's "8 vCPUs in all jobs" baseline.
///
/// The caller is responsible for ordering each stage's choices from
/// smallest to largest machine, which is how
/// [`Problem`] instances are built throughout this workspace.
#[must_use]
pub fn over_provision(problem: &Problem) -> Selection {
    selection_from(
        problem,
        problem
            .stages()
            .iter()
            // saturating: a Problem never has empty stages, but this
            // keeps the baseline underflow-proof regardless.
            .map(|s| s.choices.len().saturating_sub(1))
            .collect(),
    )
}

/// Select the first (smallest) choice of every stage — the paper's
/// "1 vCPU in all jobs" baseline.
#[must_use]
pub fn under_provision(problem: &Problem) -> Selection {
    selection_from(problem, vec![0; problem.stages().len()])
}

/// Greedy heuristic: start from the cheapest configuration per stage,
/// then repeatedly upgrade the stage-choice swap with the best
/// time-saved-per-extra-dollar ratio until the deadline is met.
/// Not optimal — used as a comparison point in the ablation bench.
#[must_use]
pub fn greedy(problem: &Problem, budget_secs: u64) -> Option<Selection> {
    let stages = problem.stages();
    let mut picks: Vec<usize> = stages
        .iter()
        .map(|s| {
            s.choices
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.cost_usd.total_cmp(&b.1.cost_usd))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect();
    let total = |picks: &[usize]| -> u64 {
        picks
            .iter()
            .zip(stages)
            .map(|(&j, s)| s.choices[j].runtime_secs)
            .sum()
    };
    while total(&picks) > budget_secs {
        // Best upgrade across all stages.
        let mut best: Option<(usize, usize, f64)> = None; // (stage, choice, ratio)
        for (i, stage) in stages.iter().enumerate() {
            let cur = &stage.choices[picks[i]];
            for (j, cand) in stage.choices.iter().enumerate() {
                if cand.runtime_secs >= cur.runtime_secs {
                    continue;
                }
                let saved = (cur.runtime_secs - cand.runtime_secs) as f64;
                let extra = (cand.cost_usd - cur.cost_usd).max(1e-9);
                let ratio = saved / extra;
                if best.is_none_or(|(_, _, r)| ratio > r) {
                    best = Some((i, j, ratio));
                }
            }
        }
        let (i, j, _) = best?;
        picks[i] = j;
    }
    Some(selection_from(problem, picks))
}

/// Exhaustive enumeration of all selections; exact but exponential.
/// Used by tests to certify the DP's optimality on small instances.
#[must_use]
pub fn exhaustive_min_cost(problem: &Problem, budget_secs: u64) -> Option<Selection> {
    let stages = problem.stages();
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut picks = vec![0usize; stages.len()];
    loop {
        let runtime: u64 = picks
            .iter()
            .zip(stages)
            .map(|(&j, s)| s.choices[j].runtime_secs)
            .sum();
        if runtime <= budget_secs {
            let cost: f64 = picks
                .iter()
                .zip(stages)
                .map(|(&j, s)| s.choices[j].cost_usd)
                .sum();
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, picks.clone()));
            }
        }
        // Odometer increment.
        let mut l = 0;
        loop {
            if l == stages.len() {
                let (_, picks) = best?;
                return Some(selection_from(problem, picks));
            }
            picks[l] += 1;
            if picks[l] < stages[l].choices.len() {
                break;
            }
            picks[l] = 0;
            l += 1;
        }
    }
}

fn selection_from(problem: &Problem, picks: Vec<usize>) -> Selection {
    let stages = problem.stages();
    let total_runtime_secs = picks
        .iter()
        .zip(stages)
        .map(|(&j, s)| s.choices[j].runtime_secs)
        .sum();
    let total_cost_usd = picks
        .iter()
        .zip(stages)
        .map(|(&j, s)| s.choices[j].cost_usd)
        .sum();
    Selection { picks, total_runtime_secs, total_cost_usd }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Choice, Stage};

    fn problem() -> Problem {
        Problem::new(vec![
            Stage::new(
                "a",
                vec![
                    Choice::new("1v", 100, 0.10),
                    Choice::new("2v", 60, 0.12),
                    Choice::new("4v", 40, 0.20),
                ],
            ),
            Stage::new(
                "b",
                vec![
                    Choice::new("1v", 50, 0.05),
                    Choice::new("2v", 30, 0.06),
                    Choice::new("4v", 20, 0.10),
                ],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn over_provision_is_fastest() {
        let p = problem();
        let sel = over_provision(&p);
        assert_eq!(sel.total_runtime_secs, 60);
        assert_eq!(p.describe(&sel), Some(vec!["4v", "4v"]));
    }

    #[test]
    fn under_provision_is_smallest() {
        let p = problem();
        let sel = under_provision(&p);
        assert_eq!(sel.total_runtime_secs, 150);
        assert_eq!(p.describe(&sel), Some(vec!["1v", "1v"]));
    }

    #[test]
    fn greedy_meets_deadline_when_feasible() {
        let p = problem();
        let sel = greedy(&p, 100).expect("feasible");
        assert!(sel.total_runtime_secs <= 100);
        assert!(greedy(&p, 10).is_none(), "infeasible deadline");
    }

    #[test]
    fn greedy_never_beats_exhaustive() {
        let p = problem();
        for budget in [60u64, 80, 100, 150] {
            let g = greedy(&p, budget).expect("feasible");
            let e = exhaustive_min_cost(&p, budget).expect("feasible");
            assert!(e.total_cost_usd <= g.total_cost_usd + 1e-9, "budget {budget}");
        }
    }

    #[test]
    fn exhaustive_handles_infeasible() {
        let p = problem();
        assert!(exhaustive_min_cost(&p, 59).is_none());
    }
}
