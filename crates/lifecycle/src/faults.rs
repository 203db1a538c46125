//! Trait-based fault hooks for the lifecycle controller.
//!
//! The simtest harness injects lifecycle faults — delayed or dropped
//! ground-truth joins, canary-window latency spikes — through this
//! trait. Every hook is a pure function of canonical request identity
//! (the arrival ordinal) and the serving arm, never of wall-clock or
//! thread schedule, so an injected fault plan replays byte-identically
//! across runs and worker counts. The controller's default hook object
//! is the inert [`NoLifecycleFaults`].

use crate::Arm;
use std::sync::Arc;

/// Fault hooks consulted by [`crate::LifecycleController`] at
/// deterministic decision points.
pub trait LifecycleFaults: Send + Sync {
    /// Drop this request's ground-truth feedback join entirely (the
    /// flow job was lost; truth never comes back). Dropped joins are
    /// counted in `LifecycleCounters::feedback_dropped`, so
    /// conservation (`feedback_joins + feedback_dropped == requests`)
    /// still holds.
    fn drop_feedback(&self, ordinal: u64) -> bool {
        let _ = ordinal;
        false
    }

    /// Extra delay, µs, added to this request's feedback join on top of
    /// the fixed feedback delay — a straggling flow job.
    fn feedback_extra_delay_us(&self, ordinal: u64) -> u64 {
        let _ = ordinal;
        0
    }

    /// Latency spike, µs, added to this request's observed serving
    /// latency — degraded service during (for example) a canary window.
    /// The spike is observed by the latency statistics, the feedback
    /// join, and the rollout guardrail; it does not delay later
    /// requests (the spike models a slow response, not a busy server).
    fn latency_spike_us(&self, ordinal: u64, arm: Arm) -> u64 {
        let _ = (ordinal, arm);
        0
    }
}

/// The no-fault default: every hook answers "no fault".
#[derive(Debug, Clone, Copy, Default)]
pub struct NoLifecycleFaults;

impl LifecycleFaults for NoLifecycleFaults {}

/// A shared, immutable hook object (hooks take `&self` so one plan can
/// be consulted from any number of runs concurrently).
pub type SharedLifecycleFaults = Arc<dyn LifecycleFaults>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hooks_are_inert() {
        let faults = NoLifecycleFaults;
        assert!(!faults.drop_feedback(0));
        assert_eq!(faults.feedback_extra_delay_us(0), 0);
        assert_eq!(faults.latency_spike_us(0, Arm::Canary), 0);
    }
}
