//! `eda-cloud` — end-to-end workflow for cost-efficient deployment of EDA
//! workloads on the cloud.
//!
//! This is the umbrella crate of the workspace reproducing
//! *"Characterizing and Optimizing EDA Flows for the Cloud"* (DATE 2021).
//! It re-exports every subsystem under one roof so examples and
//! downstream users need a single dependency:
//!
//! * [`tech`] — synthetic standard-cell library.
//! * [`netlist`] — AIG / netlist substrate and benchmark generators.
//! * [`flow`] — synthesis, placement, routing, and STA engines.
//! * [`perf`] — performance-counter and machine-execution models.
//! * [`cloud`] — instance catalog and pricing.
//! * [`engine`] — deterministic discrete-event substrate: the
//!   `(time, seq)` event heap, checked simulated-time arithmetic,
//!   sharded multi-region simulation with a conservative lookahead
//!   barrier, and per-tenant weighted fair-share admission.
//! * [`gcn`] — the runtime-prediction Graph Convolutional Network.
//! * [`mckp`] — the multi-choice-knapsack deployment optimizer.
//! * [`fleet`] — deterministic discrete-event fleet simulator.
//! * [`serve`] — deterministic online prediction & planning service.
//! * [`ingest`] — validating front door for external netlists: BLIF,
//!   structural Verilog, and Bookshelf parsers, canonical
//!   fingerprinting, quota enforcement, and OOD gating.
//! * [`recipe`] — deterministic synthesis-recipe search (seeded MCTS)
//!   with a LOSTIN-style hybrid QoR/runtime predictor for joint
//!   recipe × VM planning.
//! * [`lifecycle`] — drift detection, shadow retraining, canary rollout.
//! * [`simtest`] — seeded fault injection, invariant checking, and
//!   fault-plan shrinking over the fleet/serve/lifecycle loops.
//! * [`trace`] — deterministic structured tracing and metrics.
//! * [`core`] — the Figure-1 pipeline tying everything together.
//!
//! # Quick start
//!
//! ```
//! use eda_cloud::core::{CharacterizationConfig, Workflow};
//!
//! let workflow = Workflow::with_defaults();
//! let design = eda_cloud::netlist::generators::openpiton_design("dynamic_node").unwrap();
//! let sweep = CharacterizationConfig { vcpu_sweep: vec![1, 2], verify: false };
//! let report = workflow.characterize_design(&design, &sweep)?;
//! assert_eq!(report.stages.len(), 4);
//! # Ok::<(), eda_cloud::core::WorkflowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use eda_cloud_cloud as cloud;
pub use eda_cloud_core as core;
pub use eda_cloud_engine as engine;
pub use eda_cloud_fleet as fleet;
pub use eda_cloud_flow as flow;
pub use eda_cloud_gcn as gcn;
pub use eda_cloud_ingest as ingest;
pub use eda_cloud_lifecycle as lifecycle;
pub use eda_cloud_mckp as mckp;
pub use eda_cloud_netlist as netlist;
pub use eda_cloud_perf as perf;
pub use eda_cloud_recipe as recipe;
pub use eda_cloud_serve as serve;
pub use eda_cloud_simtest as simtest;
pub use eda_cloud_tech as tech;
pub use eda_cloud_trace as trace;
