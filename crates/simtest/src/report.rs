//! The byte-deterministic run report.
//!
//! [`SimtestReport`] folds the three driven loops' counters, digests of
//! their full canonical JSON reports, fault accounting, and every
//! invariant violation into one hand-rolled JSON document. Nothing in
//! it depends on worker count or wall-clock time, so `same (config,
//! plan) → same bytes` holds at any fan-out — which is itself one of
//! the harness's acceptance checks.

use crate::{FaultPlan, Violation};
use eda_cloud_fleet::FleetCounters;
use eda_cloud_lifecycle::LifecycleCounters;
use eda_cloud_serve::ServeCounters;
use eda_cloud_trace::json::escape;

/// Engine-phase counters: the multi-region simulation's job and
/// cross-shard message accounting, folded across regions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnginePhase {
    /// Jobs in the multi-region workload.
    pub submitted: u64,
    /// Jobs served to completion across regions.
    pub served: u64,
    /// Jobs rejected by tenant quotas or share bounds.
    pub quota_rejected: u64,
    /// Jobs shed on full queues.
    pub shed: u64,
    /// Jobs migrated between regions under overload.
    pub migrated: u64,
    /// Cross-shard messages sent.
    pub sent: u64,
    /// Cross-shard messages delivered.
    pub delivered: u64,
    /// Cross-shard messages dropped by the fault plan.
    pub dropped: u64,
    /// Messages the plan delayed past their natural delivery time.
    pub delayed: u64,
    /// Messages held behind a region partition until it healed.
    pub held: u64,
}

/// The folded outcome of one harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimtestReport {
    /// The workload seed.
    pub seed: u64,
    /// The fault plan that was injected.
    pub plan: FaultPlan,
    /// Fleet-loop counters.
    pub fleet: FleetCounters,
    /// Serve-loop counters.
    pub serve: ServeCounters,
    /// Lifecycle-loop counters.
    pub lifecycle: LifecycleCounters,
    /// Engine-phase (multi-region) counters.
    pub engine: EnginePhase,
    /// FNV-1a digest of the fleet report's canonical JSON.
    pub fleet_digest: u64,
    /// FNV-1a digest of the serve report's canonical JSON.
    pub serve_digest: u64,
    /// FNV-1a digest of the lifecycle report's canonical JSON.
    pub lifecycle_digest: u64,
    /// FNV-1a digest of the region report's canonical JSON.
    pub engine_digest: u64,
    /// Trace spans marked as injected faults, summed over the loops.
    pub fault_spans: u64,
    /// Snapshot corruptions the plan scheduled.
    pub corruption_injected: u64,
    /// Corruptions the snapshot checksum rejected (should equal
    /// `corruption_injected`; shortfalls also appear as violations).
    pub corruption_rejected: u64,
    /// Every invariant violation the checker suite found. Empty means
    /// the run passed.
    pub violations: Vec<Violation>,
}

impl SimtestReport {
    /// True when every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Canonical JSON: fixed key order, integer-only values, digests as
    /// zero-padded hex. Byte-identical across worker counts.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"plan\": {},\n", self.plan.to_json_line()));
        let f = &self.fleet;
        out.push_str(&format!(
            "  \"fleet\": {{\"digest\": \"{:016x}\", \"submitted\": {}, \"completed\": {}, \
             \"exhausted\": {}, \"deadline_hits\": {}, \"interruptions\": {}, \"retries\": {}, \
             \"spot_fallbacks\": {}}},\n",
            self.fleet_digest,
            f.jobs_submitted,
            f.jobs_completed,
            f.jobs_exhausted,
            f.deadline_hits,
            f.interruptions,
            f.retries,
            f.spot_fallbacks,
        ));
        let s = &self.serve;
        out.push_str(&format!(
            "  \"serve\": {{\"digest\": \"{:016x}\", \"requests\": {}, \"completed\": {}, \
             \"shed\": {}, \"deadline_hits\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"gcn_predictions\": {}, \"batches\": {}, \"ingest_accepted\": {}, \
             \"ingest_rejected\": {}, \"ood_flagged\": {}}},\n",
            self.serve_digest,
            s.requests,
            s.completed,
            s.shed,
            s.deadline_hits,
            s.cache_hits,
            s.cache_misses,
            s.gcn_predictions,
            s.batches,
            s.ingest_accepted,
            s.ingest_rejected,
            s.ood_flagged,
        ));
        let l = &self.lifecycle;
        out.push_str(&format!(
            "  \"lifecycle\": {{\"digest\": \"{:016x}\", \"requests\": {}, \
             \"feedback_joins\": {}, \"feedback_dropped\": {}, \"drift_detections\": {}, \
             \"retrains\": {}, \"canaries_started\": {}, \"promotions\": {}, \
             \"rollbacks\": {}}},\n",
            self.lifecycle_digest,
            l.requests,
            l.feedback_joins,
            l.feedback_dropped,
            l.drift_detections,
            l.retrains,
            l.canaries_started,
            l.promotions,
            l.rollbacks,
        ));
        let e = &self.engine;
        out.push_str(&format!(
            "  \"engine\": {{\"digest\": \"{:016x}\", \"submitted\": {}, \"served\": {}, \
             \"quota_rejected\": {}, \"shed\": {}, \"migrated\": {}, \"sent\": {}, \
             \"delivered\": {}, \"dropped\": {}, \"delayed\": {}, \"held\": {}}},\n",
            self.engine_digest,
            e.submitted,
            e.served,
            e.quota_rejected,
            e.shed,
            e.migrated,
            e.sent,
            e.delivered,
            e.dropped,
            e.delayed,
            e.held,
        ));
        out.push_str(&format!(
            "  \"faults\": {{\"events\": {}, \"fault_spans\": {}, \"corruption_injected\": {}, \
             \"corruption_rejected\": {}}},\n",
            self.plan.events.len(),
            self.fault_spans,
            self.corruption_injected,
            self.corruption_rejected,
        ));
        out.push_str(&format!("  \"passed\": {},\n", self.passed()));
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"checker\": \"{}\", \"detail\": \"{}\"}}",
                escape(v.checker),
                escape(&v.detail)
            ));
        }
        if self.violations.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str("\n  ]\n");
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_stable_and_reflects_violations() {
        let report = SimtestReport {
            seed: 7,
            plan: FaultPlan::empty(7),
            fleet: FleetCounters::default(),
            serve: ServeCounters::default(),
            lifecycle: LifecycleCounters::default(),
            engine: EnginePhase::default(),
            fleet_digest: 0xdead_beef,
            serve_digest: 1,
            lifecycle_digest: 2,
            engine_digest: 3,
            fault_spans: 0,
            corruption_injected: 0,
            corruption_rejected: 0,
            violations: Vec::new(),
        };
        assert!(report.passed());
        let json = report.to_json();
        assert_eq!(json, report.to_json(), "rendering is a pure function");
        assert!(json.contains("\"digest\": \"00000000deadbeef\""));
        assert!(json.contains("\"passed\": true"));
        assert!(json.contains("\"violations\": []"));
        let mut failing = report;
        failing.violations.push(Violation {
            checker: "fleet_conservation",
            detail: "a \"quoted\" detail".into(),
        });
        assert!(!failing.passed());
        let json = failing.to_json();
        assert!(json.contains("\"passed\": false"));
        assert!(json.contains(r#"\"quoted\""#));
    }
}
