//! Criterion benches for the MCKP solver: DP cost vs budget and stage
//! count, against the greedy and exhaustive baselines — plus the
//! objective ablation (paper's max Σ1/p vs direct min-cost), the
//! frontier's worst case, and the serving planner's split of Table I's
//! knapsack into a one-off budget-free frontier and a per-request cut.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eda_cloud_core::{StageRuntimes, Workflow};
use eda_cloud_mckp::{baselines, Choice, Frontier, Objective, Problem, Solver, Stage};
use std::hint::black_box;

fn synth_problem(stages: usize, choices: usize) -> Problem {
    let mut s = 0xDECAFu64;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        s >> 33
    };
    Problem::new(
        (0..stages)
            .map(|i| {
                Stage::new(
                    format!("s{i}"),
                    (0..choices)
                        .map(|j| {
                            Choice::new(
                                format!("c{j}"),
                                200 + next() % 5000,
                                0.01 + (next() % 100) as f64 / 50.0,
                            )
                        })
                        .collect(),
                )
            })
            .collect(),
    )
    .expect("valid")
}

fn bench_budget_scaling(c: &mut Criterion) {
    let problem = synth_problem(4, 4);
    let mut group = c.benchmark_group("dp_budget");
    for budget in [10_000u64, 40_000, 160_000] {
        group.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, &bud| {
            b.iter(|| black_box(Solver::new().solve_min_cost(black_box(&problem), bud)));
        });
    }
    group.finish();
}

fn bench_stage_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_stages");
    for stages in [4usize, 8, 16] {
        let problem = synth_problem(stages, 4);
        group.bench_with_input(BenchmarkId::from_parameter(stages), &stages, |b, _| {
            b.iter(|| black_box(Solver::new().solve_min_cost(black_box(&problem), 30_000)));
        });
    }
    group.finish();
}

/// The sparse solver's worst case: cost falls linearly with runtime, so
/// a slower schedule is always cheaper, no state dominates another and
/// the frontier is as wide as the budget. No caller builds such an
/// instance; the id keeps the bound visible.
fn bench_worst_case(c: &mut Criterion) {
    let stages = synth_problem(16, 4)
        .stages()
        .iter()
        .map(|s| {
            let choices = s.choices.iter().map(|c| {
                Choice::new(c.label.clone(), c.runtime_secs, (6_000 - c.runtime_secs) as f64 / 1e3)
            });
            Stage::new(s.name.clone(), choices.collect())
        })
        .collect();
    let problem = Problem::new(stages).expect("valid");
    let mut group = c.benchmark_group("dp_worst_case");
    for budget in [30_000u64, 80_000] {
        group.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, &bud| {
            b.iter(|| black_box(Solver::new().solve_min_cost(black_box(&problem), bud)));
        });
    }
    group.finish();
}

fn bench_vs_baselines(c: &mut Criterion) {
    let problem = synth_problem(4, 4);
    let budget = 12_000;
    let mut group = c.benchmark_group("solvers");
    group.bench_function("dp_min_cost", |b| {
        b.iter(|| black_box(Solver::new().solve_min_cost(&problem, budget)));
    });
    group.bench_function("dp_paper_objective", |b| {
        b.iter(|| black_box(Solver::new().solve(&problem, budget, Objective::MaxInverseCost)));
    });
    group.bench_function("greedy", |b| {
        b.iter(|| black_box(baselines::greedy(&problem, budget)));
    });
    group.bench_function("exhaustive", |b| {
        b.iter(|| black_box(baselines::exhaustive_min_cost(&problem, budget)));
    });
    group.finish();
}

/// Table I's catalog-priced knapsack three ways: one budgeted solve
/// (`solve_min_cost/table1`), the budget-free [`Frontier`] a planner
/// builds once per design (`frontier/table1`), and one deadline answered from it
/// (`frontier_select/table1`).
fn bench_table1_frontier(c: &mut Criterion) {
    let problem = Workflow::with_defaults()
        .deployment_problem(&StageRuntimes::table1())
        .expect("Table I prices on the catalog");
    let budget = problem.min_total_runtime() * 2;
    let frontier = Frontier::new(&problem, Objective::MinCost);
    c.bench_function("solve_min_cost/table1", |b| {
        b.iter(|| black_box(Solver::new().solve_min_cost(black_box(&problem), budget)));
    });
    c.bench_function("frontier/table1", |b| {
        b.iter(|| black_box(Frontier::new(black_box(&problem), Objective::MinCost)));
    });
    c.bench_function("frontier_select/table1", |b| {
        b.iter(|| black_box(frontier.cut(black_box(budget))));
    });
}

fn quick() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_budget_scaling, bench_stage_scaling, bench_worst_case, bench_vs_baselines,
        bench_table1_frontier
}
criterion_main!(benches);
