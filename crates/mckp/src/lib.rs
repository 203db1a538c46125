//! Multi-choice knapsack (MCKP) deployment optimizer.
//!
//! The paper's Problem 3: given each flow stage's predicted runtime and
//! cost on every candidate VM configuration, pick exactly one
//! configuration per stage so the total runtime meets a deadline and
//! the deployment is as cheap as possible. The paper maps this to the
//! multi-choice knapsack problem and solves it exactly with the
//! Dudzinski–Walukiewicz pseudo-polynomial dynamic program, exploiting
//! per-second billing to round runtimes to whole seconds. The program's
//! state is a sparse Pareto frontier of (runtime, score) pairs, not a
//! cell per second of deadline; [`Solver`] documents the tie-break
//! rules that keep its answers those of the dense table.
//!
//! [`Solver::solve`] takes one of two objectives:
//!
//! * [`Objective::MaxInverseCost`] — the paper's formulation,
//!   maximizing `Σ 1/pᵢⱼ` subject to `Σ tᵢⱼ ≤ C`.
//! * [`Objective::MinCost`] ([`Solver::solve_min_cost`]) — the direct
//!   formulation, minimizing `Σ pᵢⱼ` under the same constraint. The
//!   ablation bench compares the two (they agree on which deadlines are
//!   feasible but can pick different configurations; minimizing cost is
//!   never worse in USD).
//!
//! A caller that asks one instance under many deadlines (the serving
//! tier's planner) keeps a [`Frontier`] — the DP's budget-free Pareto
//! states, a total runtime and a back-pointer each — and
//! [`Frontier::cut`]s it per deadline, rebuilding the picks of the one
//! point it selects: bit for bit what [`Solver::solve`] returns.
//!
//! [`Problem::new`] validates raw stages, so callers assembling them on
//! the fly (the serving tier's planner) get malformed input back as a
//! typed [`MckpError`], never a panic inside the DP.
//!
//! Baselines for Figure 6 live in [`baselines`]: over-provisioning
//! (largest machine everywhere), under-provisioning (smallest machine
//! everywhere), a greedy ratio heuristic, and an exhaustive enumerator
//! used to verify optimality in tests.
//!
//! # Examples
//!
//! ```
//! use eda_cloud_mckp::{Choice, Problem, Solver, Stage};
//!
//! let problem = Problem::new(vec![Stage::new(
//!     "routing",
//!     vec![
//!         Choice::new("1 vCPU", 100, 0.10),
//!         Choice::new("8 vCPU", 20, 0.25),
//!     ],
//! )])?;
//! let pick = Solver::new().solve_min_cost(&problem, 50).expect("feasible");
//! assert_eq!(problem.stages()[0].choices[pick.picks[0]].label, "8 vCPU");
//! # Ok::<(), eda_cloud_mckp::MckpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod dp;
mod error;
mod problem;
mod savings;

pub use dp::{Frontier, Objective, Selection, Solver};
pub use error::MckpError;
pub use problem::{Choice, Problem, Stage};
pub use savings::{
    savings_of, spot_comparison, spot_savings_vs_baselines, CostSavings, SpotComparison,
};
