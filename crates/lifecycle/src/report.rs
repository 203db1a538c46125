//! Byte-stable lifecycle report.
//!
//! Everything the controller measures folds into a [`LifecycleReport`]
//! rendered as hand-rolled JSON with a fixed key order. Error rates
//! are accumulated as integer APE micros and rendered with
//! `"{}.{:06}"`, latencies and times stay integer µs — no float
//! formatting ambiguity anywhere, so two runs (at any worker count)
//! producing equal state produce equal bytes.

use eda_cloud_trace::Histogram;

/// Running mean of integer APE micros for one error bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeanApe {
    sum_micros: u64,
    joins: u64,
}

impl MeanApe {
    /// Fold one join's APE (micros) into the mean.
    pub fn record(&mut self, ape_micros: u64) {
        self.sum_micros += ape_micros;
        self.joins += 1;
    }

    /// Floor-division mean in micros; 0 when no joins landed.
    #[must_use]
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros.checked_div(self.joins).unwrap_or(0)
    }

    /// Number of joins folded in.
    #[must_use]
    pub fn joins(&self) -> u64 {
        self.joins
    }
}

/// Prediction-error buckets for one flow stage, split by drift phase
/// and serving model. `post_rollout_frozen` and `post_rollout_active`
/// cover the *same* joins (those served by a retrained snapshot on the
/// shifted distribution), so comparing them answers "did the rollout
/// beat the frozen baseline on identical traffic".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageErrors {
    /// Serving error before the drift point (primary model).
    pub pre_drift: MeanApe,
    /// Frozen bootstrap model's error on every post-drift join.
    pub post_drift_frozen: MeanApe,
    /// Frozen model's error on joins served by a retrained snapshot.
    pub post_rollout_frozen: MeanApe,
    /// Retrained snapshot's error on those same joins.
    pub post_rollout_active: MeanApe,
}

/// Lifecycle control-plane counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleCounters {
    /// Requests served.
    pub requests: u64,
    /// Result-cache hits across all model versions.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// GCN batch forwards executed by serving (one per miss).
    pub gcn_predictions: u64,
    /// Ground-truth feedback joins processed.
    pub feedback_joins: u64,
    /// Joins whose request was served by the primary arm.
    pub primary_joins: u64,
    /// Joins whose request was served by the canary arm.
    pub canary_joins: u64,
    /// Per-stage drift detections fired.
    pub drift_detections: u64,
    /// Shadow retrains completed.
    pub retrains: u64,
    /// Candidates started on a canary slice.
    pub canaries_started: u64,
    /// Candidates promoted to primary.
    pub promotions: u64,
    /// Candidates rolled back by a guardrail.
    pub rollbacks: u64,
    /// Feedback joins lost to an injected drop fault (zero outside
    /// fault-injection harnesses); `feedback_joins + feedback_dropped`
    /// always equals `requests` once the stream drains.
    pub feedback_dropped: u64,
}

/// One control-plane event on the simulated clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Simulated time the event fired, µs.
    pub time_us: u64,
    /// Request ordinal of the feedback join that triggered it.
    pub ordinal: u64,
    /// Event kind: `drift_detected`, `retrained`, `canary_started`,
    /// `promoted`, or `rolled_back`.
    pub kind: &'static str,
    /// Stage name for per-stage events, `-` otherwise.
    pub stage: &'static str,
    /// Snapshot version involved (candidate or primary), 0 if n/a.
    pub version: u32,
}

/// The folded outcome of one lifecycle run.
#[derive(Debug, Clone)]
pub struct LifecycleReport {
    /// Workload / controller seed.
    pub seed: u64,
    /// Requests in the stream.
    pub requests: u64,
    /// Ordinal where ground-truth drift was injected.
    pub drift_at: u64,
    /// Multiplicative drift factor.
    pub drift_factor: f64,
    /// Control-plane counters.
    pub counters: LifecycleCounters,
    /// Primary version when the stream ended.
    pub final_primary_version: u32,
    /// Per-stage error buckets, in `STAGE_NAMES` order.
    pub stages: [StageErrors; 4],
    /// Control-plane events in firing order.
    pub timeline: Vec<TimelineEvent>,
    /// Mean serving latency, µs (floor division).
    pub mean_latency_us: u64,
    /// Nearest-rank p95 serving latency, µs.
    pub p95_latency_us: u64,
    /// Simulated time of the last processed event, µs.
    pub makespan_us: u64,
    /// Serving latency distribution, ms buckets.
    pub latency_hist: Histogram,
}

/// Render integer APE micros as a decimal fraction (1.000000 = 100%).
fn fmt_micros(micros: u64) -> String {
    format!("{}.{:06}", micros / 1_000_000, micros % 1_000_000)
}

impl LifecycleReport {
    /// Canonical JSON rendering: fixed key order, integer times,
    /// micros-rendered error rates. Byte-identical across runs and
    /// worker counts for identical controller state.
    #[must_use]
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"requests\": {},\n", self.requests));
        s.push_str(&format!("  \"drift_at\": {},\n", self.drift_at));
        s.push_str(&format!("  \"drift_factor\": {:.6},\n", self.drift_factor));
        s.push_str("  \"counters\": {\n");
        s.push_str(&format!("    \"requests\": {},\n", c.requests));
        s.push_str(&format!("    \"cache_hits\": {},\n", c.cache_hits));
        s.push_str(&format!("    \"cache_misses\": {},\n", c.cache_misses));
        s.push_str(&format!("    \"gcn_predictions\": {},\n", c.gcn_predictions));
        s.push_str(&format!("    \"feedback_joins\": {},\n", c.feedback_joins));
        s.push_str(&format!("    \"primary_joins\": {},\n", c.primary_joins));
        s.push_str(&format!("    \"canary_joins\": {},\n", c.canary_joins));
        s.push_str(&format!("    \"drift_detections\": {},\n", c.drift_detections));
        s.push_str(&format!("    \"retrains\": {},\n", c.retrains));
        s.push_str(&format!("    \"canaries_started\": {},\n", c.canaries_started));
        s.push_str(&format!("    \"promotions\": {},\n", c.promotions));
        s.push_str(&format!("    \"rollbacks\": {},\n", c.rollbacks));
        s.push_str(&format!("    \"feedback_dropped\": {}\n", c.feedback_dropped));
        s.push_str("  },\n");
        s.push_str(&format!("  \"final_primary_version\": {},\n", self.final_primary_version));
        s.push_str("  \"stages\": [\n");
        for (k, name) in eda_cloud_serve::STAGE_NAMES.iter().enumerate() {
            let e = &self.stages[k];
            s.push_str("    {\n");
            s.push_str(&format!("      \"stage\": \"{name}\",\n"));
            s.push_str(&format!(
                "      \"pre_drift_mape\": {},\n",
                fmt_micros(e.pre_drift.mean_micros())
            ));
            s.push_str(&format!("      \"pre_drift_joins\": {},\n", e.pre_drift.joins()));
            s.push_str(&format!(
                "      \"post_drift_frozen_mape\": {},\n",
                fmt_micros(e.post_drift_frozen.mean_micros())
            ));
            s.push_str(&format!(
                "      \"post_rollout_frozen_mape\": {},\n",
                fmt_micros(e.post_rollout_frozen.mean_micros())
            ));
            s.push_str(&format!(
                "      \"post_rollout_active_mape\": {},\n",
                fmt_micros(e.post_rollout_active.mean_micros())
            ));
            s.push_str(&format!(
                "      \"post_rollout_joins\": {}\n",
                e.post_rollout_active.joins()
            ));
            s.push_str(if k + 1 < 4 { "    },\n" } else { "    }\n" });
        }
        s.push_str("  ],\n");
        s.push_str("  \"timeline\": [\n");
        for (i, e) in self.timeline.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"time_us\": {}, \"ordinal\": {}, \"event\": \"{}\", \
                 \"stage\": \"{}\", \"version\": {}}}{}\n",
                e.time_us,
                e.ordinal,
                e.kind,
                e.stage,
                e.version,
                if i + 1 < self.timeline.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"mean_latency_us\": {},\n", self.mean_latency_us));
        s.push_str(&format!("  \"p95_latency_us\": {},\n", self.p95_latency_us));
        s.push_str(&format!("  \"makespan_us\": {},\n", self.makespan_us));
        s.push_str(&format!("  \"latency_hist\": {}\n", self.latency_hist.to_json()));
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_render_with_six_digits() {
        assert_eq!(fmt_micros(0), "0.000000");
        assert_eq!(fmt_micros(125_000), "0.125000");
        assert_eq!(fmt_micros(1_000_000), "1.000000");
        assert_eq!(fmt_micros(2_345_678), "2.345678");
    }

    #[test]
    fn mean_ape_floors_and_handles_empty() {
        let mut m = MeanApe::default();
        assert_eq!(m.mean_micros(), 0);
        m.record(10);
        m.record(11);
        assert_eq!(m.mean_micros(), 10, "floor division");
        assert_eq!(m.joins(), 2);
    }

    #[test]
    fn report_json_is_stable_and_parseable_shaped() {
        let report = LifecycleReport {
            seed: 7,
            requests: 10,
            drift_at: 3,
            drift_factor: 2.2,
            counters: LifecycleCounters { requests: 10, ..Default::default() },
            final_primary_version: 2,
            stages: [StageErrors::default(); 4],
            timeline: vec![TimelineEvent {
                time_us: 1_000,
                ordinal: 5,
                kind: "promoted",
                stage: "-",
                version: 2,
            }],
            mean_latency_us: 900,
            p95_latency_us: 1_800,
            makespan_us: 60_000,
            latency_hist: Histogram::new(vec![1.0, 10.0]),
        };
        let a = report.to_json();
        assert_eq!(a, report.to_json());
        assert!(a.contains("\"drift_factor\": 2.200000"));
        assert!(a.contains("\"event\": \"promoted\""));
        assert!(a.contains("\"stage\": \"synthesis\""));
        assert_eq!(a.matches("pre_drift_mape").count(), 4);
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }
}
