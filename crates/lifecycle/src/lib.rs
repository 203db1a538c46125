//! Deterministic continual-learning model lifecycle.
//!
//! The paper trains its GCN runtime predictor once, offline; the serve
//! tier froze that model behind a registry. This crate closes the
//! train → serve loop: a controller runs in simulated time alongside
//! serving and manages the model under traffic.
//!
//! * **Feedback collection** ([`FeedbackEvent`], [`ReplayBuffer`]) —
//!   each served prediction is joined with the ground-truth runtimes
//!   its job observes (a deterministic [`RuntimeOracle`] standing in
//!   for the flow engines, with injectable distribution drift), and
//!   the design's graph views are relabeled into bounded per-stage
//!   replay buffers.
//! * **Drift detection** ([`DesignBaseline`], [`DriftDetector`]) —
//!   per-design log-bias profiling plus a two-sided Page-Hinkley
//!   cumulative test over integer bias-deviation micros; no
//!   floating-point state, so detections are byte-stable.
//! * **Shadow retraining** ([`Retrainer`]) — a copy of the serving
//!   snapshot is fine-tuned on the replay buffers through the existing
//!   Adam path, fanned over stage threads and joined by stage index.
//! * **Canary rollout** ([`RolloutManager`]) — the candidate is
//!   published to the [`eda_cloud_serve::ModelRegistry`] as a canary
//!   serving a deterministic slice of ordinals; integer guardrails
//!   (error ratio, latency budget) promote it or roll it back.
//!
//! Everything folds into a [`LifecycleReport`] whose JSON rendering is
//! byte-identical across runs and worker counts.
//!
//! # Examples
//!
//! ```
//! use eda_cloud_lifecycle::{LifecycleConfig, LifecycleController};
//!
//! let config = LifecycleConfig {
//!     requests: 160,
//!     drift_at: 50,
//!     calibration: 12,
//!     min_retrain: 6,
//!     canary_min: 5,
//!     bootstrap_epochs: 10,
//!     retrain_epochs: 10,
//!     ..Default::default()
//! };
//! let controller = LifecycleController::new(config)?;
//! let (report, _) = controller.run()?;
//! assert!(report.counters.drift_detections > 0);
//! assert!(report.counters.promotions + report.counters.rollbacks > 0);
//! # Ok::<(), eda_cloud_lifecycle::LifecycleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

mod config;
mod controller;
mod drift;
mod error;
mod faults;
mod feedback;
mod oracle;
mod report;
mod retrain;
mod rollout;

pub use config::{LifecycleConfig, CANARY_LATENCY_BUDGET_US};
pub use controller::LifecycleController;
pub use drift::{DesignBaseline, DriftDetector, DriftSignal};
pub use error::LifecycleError;
pub use faults::{LifecycleFaults, NoLifecycleFaults, SharedLifecycleFaults};
pub use feedback::{ape_micros, log_bias_micros, Arm, FeedbackEvent, ReplayBuffer};
pub use oracle::RuntimeOracle;
pub use report::{LifecycleCounters, LifecycleReport, MeanApe, StageErrors, TimelineEvent};
pub use retrain::Retrainer;
pub use rollout::{RolloutDecision, RolloutManager};
