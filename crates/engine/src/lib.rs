//! Deterministic discrete-event simulation substrate for the EDA
//! cloud stack.
//!
//! Extracted from `crates/fleet` and generalized: the fleet simulator
//! proved that a `(time_us, seq)`-keyed event heap plus seeded RNG
//! streams makes an entire simulation a pure function of its inputs;
//! this crate makes that core reusable and scales it across regions.
//!
//! The pieces, bottom up:
//!
//! 1. [`time`] — checked simulated-time arithmetic. Every float→µs
//!    conversion and clock addition returns a typed [`EngineError`]
//!    instead of the silent casts/wraps that reorder event heaps; plus
//!    [`poisson_arrivals`], the seeded arrival process of every tier.
//! 2. [`EventHeap`] — the `(time_us, seq)` priority queue: ascending
//!    time, push-order ties, sequence counter owned by the heap. Pushes
//!    that keep time order append to a run lane; the rest go to a
//!    binary heap of `Copy` `(key, slot)` nodes — one `u128` key
//!    `(time_us << 64) | seq`, payloads in a slab; `pop` takes the
//!    smaller head — so sorted arrival streams cost O(1) each and the
//!    pop order is the one a single heap gives. A heap-lane pop leaves
//!    the root as a hole that the next heap-lane push fills with one
//!    sift-down.
//! 3. [`metrics`] — the running [`Samples`] behind report statistics.
//! 4. [`ShardedSim`] — N independent [`RegionShard`] event loops
//!    advancing under a conservative lookahead barrier, exchanging
//!    [`Envelope`]s merged in `(send_time_us, region_id, seq)` order.
//!    The merged timeline is byte-identical at any worker count and
//!    any shard count; [`EngineFaults`] hooks bend the message path
//!    (delay, partition, drop) without breaking that contract.
//! 5. [`FairShare`] — per-tenant quotas and equal-share admission
//!    (stride-1 scheduling over integer virtual time).
//! 6. [`RegionSim`] — the multi-region workload built from all of the
//!    above: tenant job streams, migration, staged rollout waves,
//!    replicated cache invalidations, and a byte-stable
//!    [`RegionReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

mod error;
mod fair;
mod faults;
mod heap;
mod message;
pub mod metrics;
mod region;
mod sharded;
pub mod time;

pub use error::EngineError;
pub use fair::{AdmitRejection, FairShare, TenantCounters};
pub use faults::{EngineFaults, NoEngineFaults};
pub use heap::EventHeap;
pub use message::{Envelope, Outbox};
pub use metrics::Samples;
pub use region::{
    synthetic_region_jobs, RegionCounters, RegionJob, RegionReport, RegionSim, RegionSimConfig,
    TenantUsage,
};
pub use sharded::{MessageStats, RegionShard, ShardedSim};
pub use time::poisson_arrivals;

/// `EventHeap`'s push/pop scripts and their `BTreeMap` model, shared with
/// the tier-1 differential.
#[cfg(test)]
#[path = "../../../tests/common/heap_script.rs"]
mod heap_script;
