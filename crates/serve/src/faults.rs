//! Trait-based fault hooks for the serving tier.
//!
//! The simtest harness (and any future chaos rig) injects faults
//! through this trait instead of patching the server: every hook is a
//! pure function of canonical request identity (the arrival ordinal),
//! never of wall-clock or thread schedule, so an injected fault plan
//! replays byte-identically at any worker count. The default
//! implementation of every hook is "no fault", and the server's
//! default hook object is [`NoServeFaults`], so production behavior is
//! unchanged unless a harness explicitly attaches hooks.

use std::sync::Arc;

/// Fault hooks consulted by [`crate::Server`] at deterministic
/// decision points in the serving loop.
pub trait ServeFaults: Send + Sync {
    /// Shed the arrival with this ordinal at admission even if the
    /// queue has room — an injected overload burst. The request is
    /// rejected exactly as a capacity shed (typed outcome, counted,
    /// traced), so conservation invariants still hold.
    fn force_shed(&self, ordinal: u64) -> bool {
        let _ = ordinal;
        false
    }

    /// Wipe the result cache immediately before admitting this
    /// ordinal — a cold-restart / cache-eviction-storm fault. Hit and
    /// miss counters survive the wipe.
    fn wipe_cache(&self, ordinal: u64) -> bool {
        let _ = ordinal;
        false
    }

    /// Tear this ordinal's upload in transit (the server substitutes
    /// [`crate::UploadDoc::corrupted`] before consulting the ingest
    /// cache) — a corrupted-transfer fault, consulted for every
    /// [`crate::RequestKind::Ingest`] request. The torn document has its
    /// own fingerprint, so it is cached and judged on its own content.
    fn corrupt_upload(&self, ordinal: u64) -> bool {
        let _ = ordinal;
        false
    }

    /// Reject this ordinal's upload outright *without caching the
    /// rejection* — an ingest-flood control decision. The request
    /// completes quarantined; a later clean upload of the same content
    /// still ingests normally.
    fn flood(&self, ordinal: u64) -> bool {
        let _ = ordinal;
        false
    }
}

/// The no-fault default: every hook answers "no".
#[derive(Debug, Clone, Copy, Default)]
pub struct NoServeFaults;

impl ServeFaults for NoServeFaults {}

/// A shared, immutable hook object (hooks take `&self` so one plan can
/// be consulted from any number of runs concurrently).
pub type SharedServeFaults = Arc<dyn ServeFaults>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hooks_are_inert() {
        let faults = NoServeFaults;
        assert!(!faults.force_shed(0));
        assert!(!faults.wipe_cache(0));
        let shared: SharedServeFaults = Arc::new(NoServeFaults);
        assert!(!shared.force_shed(123));
        assert!(!shared.corrupt_upload(0));
        assert!(!shared.flood(0));
    }
}
