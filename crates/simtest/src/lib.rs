//! Seeded fault-injection and invariant-checking harness for the EDA
//! cloud stack.
//!
//! The paper's cloud argument leans on reliability mechanisms — spot
//! retry, admission shedding, feedback-driven retraining, canary
//! guardrails — that only earn trust under adversity. This crate
//! manufactures that adversity deterministically:
//!
//! 1. A [`FaultPlan`] (generated from a seed, or loaded from canonical
//!    JSON) schedules faults against canonical identities: spot storms
//!    by job range, VM stalls by `(job, stage)`, overload bursts and
//!    cache wipes by request ordinal, feedback drops/delays and canary
//!    latency spikes by ordinal, snapshot bit-flips by byte index.
//! 2. [`PlanFaults`] adapts the plan to the fault-hook traits the
//!    fleet, serve, and lifecycle crates expose, and [`run_simtest`]
//!    drives all three loops end to end under it.
//! 3. A checker suite ([`check`]) asserts global invariants that hold
//!    with or without faults: job/request/feedback conservation,
//!    version-coherent cache hits, monotonic simulated time, and
//!    guardrail soundness (decisions replay from the feedback log).
//! 4. On failure, [`shrink_plan`] delta-debugs the plan to a minimal
//!    reproducer that serializes to replayable JSON.
//!
//! Everything — plan generation, injection, the folded
//! [`SimtestReport`] — is byte-deterministic at any worker count, so
//! `diff` is the whole comparison story, same as the rest of the
//! workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod error;
mod harness;
mod hooks;
mod plan;
pub mod report;
mod shrink;

pub use check::Violation;
pub use error::SimtestError;
pub use harness::{run_simtest, run_simtest_traced, SimtestConfig, SimtestRun};
pub use hooks::PlanFaults;
pub use plan::{FaultEvent, FaultPlan, PPM};
pub use report::{EnginePhase, SimtestReport};
pub use shrink::{shrink_plan, shrink_plan_with};
