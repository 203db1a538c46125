//! Simulated hardware performance counters and machine execution model.
//!
//! The paper instruments Linux `perf` hardware counters (branch misses,
//! cache misses, AVX floating-point operations) on a Xeon host throttled
//! with cgroups to emulate VM sizes. Portable Rust cannot read PMCs, so
//! this crate inverts the arrangement: the EDA engines *emit* their
//! memory accesses, branches, and floating-point operations into a
//! [`PerfProbe`], which feeds
//!
//! * a set-associative two-level cache simulator,
//! * a 2-bit saturating-counter [`branch predictor`](BranchPredictor), and
//! * plain event [`counters`](CounterSet),
//!
//! yielding the same derived metrics the paper plots. A calibrated
//! [`MachineModel`] then converts the counted work plus a stage's
//! serial/parallel split into a simulated runtime for a given
//! [`MachineConfig`] (vCPUs, clock, memory bandwidth, AVX support; the
//! vCPU count also sizes the LLC slice the probe simulates),
//! reproducing the paper's cgroups VM-size emulation deterministically.
//!
//! # Examples
//!
//! ```
//! use eda_cloud_perf::{MachineConfig, PerfProbe};
//!
//! let mut probe = PerfProbe::for_machine(&MachineConfig::vcpus(2));
//! probe.read(0x1000);
//! probe.read(0x1000); // second access hits L1
//! probe.branch(0xA, true);
//! let counters = probe.counters();
//! assert_eq!(counters.cache_refs, 2);
//! assert_eq!(counters.l1_misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod cache;
mod counters;
mod machine;
mod probe;

pub use branch::BranchPredictor;
use cache::CacheSim;
pub use counters::CounterSet;
pub use machine::{MachineConfig, MachineModel, StageWork};
pub use probe::{PerfProbe, ProbeEvent, ProbeTrace};
