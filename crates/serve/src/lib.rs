//! Deterministic online prediction & planning service.
//!
//! The paper's workflow — characterize, predict runtimes with a GCN,
//! plan a deployment with MCKP — is batch-shaped; this crate turns it
//! into the serving tier a production design-space-exploration loop
//! queries per design. A [`Server`] plays an open-loop request stream
//! ([`ServeRequest`]: a design's graph views, a response deadline, and
//! optionally a flow budget to plan against) on a simulated
//! microsecond clock:
//!
//! * **Model snapshots** ([`ModelSnapshot`]) — the four per-stage GCN
//!   predictors as one unit, with a canonical byte-stable text format
//!   whose save → load round trip reproduces bit-identical predictions.
//! * **Micro-batching inference** — queued requests are coalesced into
//!   padded block-diagonal graph batches and pushed through each stage
//!   model's batched forward pass ([`eda_cloud_gcn::GraphBatch`]);
//!   batched predictions are bit-identical to one-at-a-time inference,
//!   so batching is purely a throughput win.
//! * **Admission control** ([`AdmissionQueue`]) — a bounded queue
//!   ordered earliest-deadline-first; arrivals beyond capacity are
//!   shed with the typed [`ServeError::Overloaded`].
//! * **Result cache** ([`LruCache`]) — design fingerprint → per-stage
//!   predictions, with hit/miss accounting in the report.
//! * **Planning** ([`Planner`]) — feasible [`RequestKind::Plan`]
//!   requests get an exact MCKP deployment ([`PlanSummary`]); the
//!   built-in [`CostTablePlanner`] prices a flat hourly-rate table,
//!   and `eda-cloud-core` adapts its catalog-backed planner to the
//!   same trait.
//!
//! Every run folds into a [`ServeReport`] (counters, latency
//! percentiles, queue/batch/latency histograms) whose JSON rendering
//! is byte-identical across runs **and across worker counts**: the
//! only parallelism is the per-stage fan-out of the batched forward,
//! joined by stage index. Per-request spans keyed by arrival ordinals
//! flow through `eda-cloud-trace` when a tracer is attached.
//!
//! # Examples
//!
//! ```
//! use eda_cloud_gcn::ModelConfig;
//! use eda_cloud_serve::{
//!     design_pool, synthetic_requests, CostTablePlanner, ModelSnapshot, ServeConfig, Server,
//!     WorkloadConfig,
//! };
//!
//! let pool = design_pool();
//! let requests = synthetic_requests(&pool, &WorkloadConfig::default());
//! let server = Server::new(
//!     ModelSnapshot::seeded(&ModelConfig::fast(), 7),
//!     Box::new(CostTablePlanner::aws_like()),
//!     ServeConfig::default(),
//! );
//! let (report, outcomes) = server.run(7, &requests)?;
//! assert_eq!(outcomes.len(), requests.len());
//! let (again, _) = server.run(7, &requests)?;
//! assert_eq!(report.to_json(), again.to_json());
//! # Ok::<(), eda_cloud_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

mod cache;
mod error;
mod faults;
mod ingestor;
mod planner;
mod queue;
mod recipe_planner;
mod report;
mod request;
mod server;
mod snapshot;

pub use cache::LruCache;
pub use error::ServeError;
pub use faults::{NoServeFaults, ServeFaults, SharedServeFaults};
pub use ingestor::{IngestDisposition, IngestOutcome, IngestSummary, Ingestor};
pub use planner::{CostTablePlanner, PlanSummary, Planner, TABLE1_SECS, VCPUS};
pub use queue::AdmissionQueue;
pub use recipe_planner::{RecipePlanSummary, RecipePlanner};
pub use report::{ServeCounters, ServeReport};
pub use request::{
    design_pool, synthetic_requests, synthetic_requests_with_uploads, RequestKind, ServeDesign,
    ServeRequest, UploadDoc, WorkloadConfig,
};
pub use server::{RequestOutcome, ServeConfig, Server, PER_HIT_US, PER_MISS_US};
pub use snapshot::{ModelSnapshot, QuantizedSnapshot, STAGE_NAMES};
