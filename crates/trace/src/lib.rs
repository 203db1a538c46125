//! Deterministic structured tracing and metrics for the EDA-on-cloud
//! workspace.
//!
//! The paper's characterization methodology instruments flow stages
//! with performance counters and attributes runtime to algorithmic
//! phases; this crate gives the reproduction the same power over *its
//! own* execution — the flow engines, the sweep pool, and the fleet
//! simulator — without giving up the workspace's determinism
//! guarantees.
//!
//! Two deliberately separate facilities:
//!
//! * [`Tracer`] / [`Span`] — hierarchical spans keyed by a **logical
//!   clock**, not wall-clock time. A span's identity is its ordinal
//!   key: the root ordinal followed by one child ordinal per nesting
//!   level (stage → phase → iteration). Spans record counters and
//!   key/value attributes into per-span buffers; [`Tracer::drain`]
//!   merges all buffers in canonical `(key, path)` order, so the
//!   exported trace is **byte-identical across worker counts and
//!   repeated runs** — thread scheduling can reorder span *completion*
//!   but never span *identity*.
//! * [`Metrics`] — an operational registry (counters, gauges,
//!   fixed-bucket histograms) for quantities that are genuinely
//!   wall-clock- or scheduling-dependent, such as sweep queue-wait and
//!   worker occupancy. Metrics render byte-stable JSON (fixed key
//!   order, six-decimal floats) but are *not* expected to be identical
//!   across worker counts; that is exactly why they are not part of the
//!   trace.
//!
//! Both are zero-dependency (std only) and cheap when disabled: the
//! handles are a single `Option<Arc<..>>`, so every instrumentation
//! call on a disabled [`Tracer`]/[`Span`]/[`Metrics`] is one branch on
//! `None`.
//!
//! Because every crate that fans work out or renders a byte-stable
//! report already sits on top of this one, it also holds the
//! workspace's single copy of the primitives that determinism contract
//! rests on: [`par::map_indexed`] (the one indexed thread fan-out),
//! [`json`]'s fixed-precision float and string escaping, [`Histogram`],
//! and [`fnv1a64`].
//!
//! # Examples
//!
//! ```
//! use eda_cloud_trace::Tracer;
//!
//! let tracer = Tracer::new();
//! {
//!     let job = tracer.root_at(0, "job/0000");
//!     let stage = job.child("routing");
//!     stage.counter("ripup_rounds", 3);
//!     stage.attr("instance", "c5.xlarge");
//! }
//! let trace = tracer.drain();
//! assert_eq!(trace.records().len(), 2);
//! assert_eq!(trace.records()[1].path, "job/0000/routing");
//! assert!(trace.to_json().starts_with("{\"version\":1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod metrics;
pub mod par;
mod span;

pub use json::fmt_f64;
pub use metrics::{EdgeMismatch, Histogram, LatencyFold, Metrics};
pub use span::{Span, SpanRecord, Trace, Tracer};

/// FNV-1a 64-bit hash over raw bytes — the workspace's checksum and
/// report-digest primitive. Each byte step `h' = (h ^ b) * p`
/// multiplies by an odd prime, a bijection on `u64` per input byte, so
/// any single-byte substitution (in particular any single-bit flip)
/// changes the digest.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(super::fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
