//! Deterministic fleet simulator: serve a stream of EDA flow jobs on
//! the simulated cloud.
//!
//! The paper characterizes single flows; this crate asks the fleet
//! question — what happens when a *stream* of flow jobs, each carrying
//! an MCKP deployment plan, hits the cloud substrate over hours. A
//! discrete-event engine ([`FleetSimulator`]) plays the stream against
//! `eda-cloud-cloud`'s provisioner: per-stage VM requests with real
//! boot intervals, a warm pool sized by an arrival-rate autoscaler
//! (fixed window, cap and idle reap), optional spot purchasing with seeded
//! interruption injection, exponential-backoff retries, and
//! stage-boundary checkpointing ([`SpotPolicy`]). Each run folds into a
//! [`FleetReport`] — deadline-hit rate, total and per-job cost, latency
//! percentiles, histograms — whose JSON rendering is byte-identical
//! across same-seed runs.
//!
//! Everything random flows through seeded ChaCha streams consumed in
//! event order ([`poisson_arrivals`] for the workload, the internal
//! fault injector for reclaims), so a `(jobs, config)` pair fully
//! determines the report.
//!
//! # Examples
//!
//! ```
//! use eda_cloud_cloud::Catalog;
//! use eda_cloud_fleet::{
//!     poisson_arrivals, FleetConfig, FleetJob, FleetSimulator, JobPlan, PlannedStage, SpotPolicy,
//! };
//!
//! let arrivals = poisson_arrivals(5, 60.0, 7);
//! let jobs: Vec<FleetJob> = arrivals
//!     .into_iter()
//!     .enumerate()
//!     .map(|(id, arrival_secs)| FleetJob {
//!         plan: JobPlan {
//!             id: id as u64,
//!             stages: vec![PlannedStage {
//!                 name: "synthesis".into(),
//!                 instance: "m5.xlarge".into(),
//!                 runtime_secs: 3_449,
//!             }],
//!             deadline_secs: 4_000,
//!         },
//!         arrival_secs,
//!     })
//!     .collect();
//!
//! let config = FleetConfig::on_demand(7).with_spot(SpotPolicy::typical());
//! let report = FleetSimulator::new(Catalog::aws_like()).run(&jobs, &config)?;
//! assert_eq!(report.counters.jobs_completed, 5);
//! let again = FleetSimulator::new(Catalog::aws_like()).run(&jobs, &config)?;
//! assert_eq!(report.to_json(), again.to_json());
//! # Ok::<(), eda_cloud_fleet::FleetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autoscale;
mod error;
mod faults;
mod job;
mod metrics;
mod sim;
mod spot;

pub use eda_cloud_engine::poisson_arrivals;
pub use error::FleetError;
pub use faults::{FleetFaults, NoFleetFaults, SharedFleetFaults};
pub use job::{FleetJob, JobPlan, PlannedStage};
pub use metrics::{FleetCounters, FleetReport};
pub use sim::{FleetConfig, FleetSimulator};
pub use spot::SpotPolicy;
