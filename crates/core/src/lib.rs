//! End-to-end workflow of the paper's Figure 1: characterize the four
//! EDA applications on candidate VM configurations, train a GCN to
//! predict runtimes for new designs, and optimize the deployment with a
//! multi-choice knapsack under a deadline constraint.
//!
//! The [`Workflow`] type ties the substrates together:
//!
//! 1. [`Workflow::characterize_design`] — run synthesis / placement /
//!    routing / STA at 1/2/4/8 vCPUs on each stage's recommended
//!    instance family, collecting counter signatures and simulated
//!    runtimes (Problems 1 of the paper, Figures 2-3).
//! 2. [`dataset::DatasetBuilder`] — generate the benchmark corpus
//!    (18 design families × synthesis recipes) and label each netlist
//!    with per-vCPU stage runtimes (the paper's 330-netlist dataset).
//! 3. [`predict::StagePredictors`] — one GCN per application trained on
//!    that corpus (Problem 2, Figures 4-5).
//! 4. [`Workflow::plan_deployment`] — map predicted runtimes and the
//!    AWS-like pricing catalog to an MCKP instance and solve it
//!    (Problem 3, Table I and Figure 6).
//! 5. [`Workflow::simulate_fleet`] — plan a seeded stream of flow jobs
//!    and serve it on the simulated cloud with warm pools, spot
//!    interruptions, and retries, reporting deadline-hit rate and cost
//!    (the fleet-scale extension of the paper's single-flow analysis).
//! 6. [`Workflow::serve`] — play an open-loop stream of predict/plan
//!    requests against a frozen model snapshot on the deterministic
//!    simulated-time serving tier, planning with the catalog-backed
//!    MCKP ([`WorkflowPlanner`]).
//! 7. [`Workflow::lifecycle`] — manage the serving snapshot under
//!    traffic: join ground-truth feedback, detect runtime drift,
//!    shadow-retrain a candidate, and canary it to promotion or
//!    rollback, all in deterministic simulated time.
//! 8. [`Workflow::simtest`] — stress the fleet, serve, and lifecycle
//!    loops under a fault plan (spot storms, overload bursts, feedback
//!    drops, snapshot corruption), seed-generated or a replayed
//!    reproducer, and check global invariants over the results, with
//!    delta-debugging down to a minimal reproducer on failure.
//! 9. [`Workflow::recipe`] — search synthesis recipes per design with
//!    the deterministic MCTS agent, train the hybrid (design ⊕ recipe)
//!    runtime predictor, and answer joint recipe × VM-plan requests
//!    through the serving tier ([`WorkflowRecipePlanner`]).
//! 10. [`Workflow::ingest`] — push external netlists (BLIF, structural
//!     Verilog, Bookshelf) through the validating front door and serve
//!     a request stream with an upload mix: accepted designs are
//!     canonicalized, fingerprinted, and OOD-scored; malformed uploads
//!     are quarantined with typed, position-annotated reasons.
//!
//! Steps 6–8 and 10 take their tier's own config (`WorkloadConfig`,
//! `ServeConfig`, `LifecycleConfig`, `SimtestConfig`); a `*Scenario`
//! here ([`FleetScenario`], [`RecipeScenario`]) exists only where it
//! owns workload-generator parameters no tier config has.
//!
//! # Examples
//!
//! ```
//! use eda_cloud_core::{CharacterizationConfig, Workflow};
//! use eda_cloud_netlist::generators;
//!
//! let workflow = Workflow::with_defaults();
//! let design = generators::adder(8);
//! let report = workflow.characterize_design(&design, &CharacterizationConfig::fast())?;
//! assert_eq!(report.stages.len(), 4);
//! assert!(report.stages[0].runs[0].report.runtime_secs > 0.0);
//! # Ok::<(), eda_cloud_core::WorkflowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod characterize;
pub mod dataset;
mod error;
mod fleet_service;
mod ingest_service;
mod lifecycle_service;
mod optimize;
pub mod predict;
mod recipe_service;
mod recommend;
pub mod report;
mod serve_service;
mod simtest_service;
pub mod sweep;
mod workflow;

pub use characterize::{
    CharacterizationConfig, CharacterizationReport, StageCharacterization, VcpuRun,
};
pub use error::WorkflowError;
pub use fleet_service::FleetScenario;
pub use ingest_service::IngestRunReport;
pub use optimize::{DeploymentPlan, StagePlan, StageRuntimes};
pub use recipe_service::{RecipeScenario, WorkflowRecipePlanner};
pub use recommend::{recommended_family, recommendation_notes};
pub use serve_service::WorkflowPlanner;
pub use sweep::resolve_workers;
pub use workflow::{stage_work_scale, Workflow};

/// The lifecycle tier's own config under the name the e2e benchmark
/// package still pins; [`Workflow::lifecycle`] takes it directly.
/// Deleted once that package stops naming it (ROADMAP's e2e re-base item).
pub type LifecycleScenario = eda_cloud_lifecycle::LifecycleConfig;
