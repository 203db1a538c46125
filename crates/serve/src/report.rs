//! The per-run serving report and its byte-stable JSON rendering.

use eda_cloud_trace::{fmt_f64, Histogram};
use std::fmt::Write as _;

/// Monotone counters accumulated over one serving run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests that arrived.
    pub requests: u64,
    /// Requests answered (prediction returned, plan attempted if asked).
    pub completed: u64,
    /// Requests rejected at admission (`ServeError::Overloaded`).
    pub shed: u64,
    /// Completed requests whose response met their deadline.
    pub deadline_hits: u64,
    /// Result-cache lookups that hit.
    pub cache_hits: u64,
    /// Result-cache lookups that missed.
    pub cache_misses: u64,
    /// Unique designs pushed through the batched GCN forward pass.
    pub gcn_predictions: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Plan requests attempted.
    pub plans: u64,
    /// Plan requests whose budget no selection could meet.
    pub plans_infeasible: u64,
    /// Ingest requests whose upload was accepted (fresh or from the
    /// ingest cache).
    pub ingest_accepted: u64,
    /// Ingest requests whose upload was rejected and quarantined.
    pub ingest_rejected: u64,
    /// Accepted ingest requests served with an out-of-distribution
    /// flag from the OOD gate.
    pub ood_flagged: u64,
}

/// The per-run report: counters, latency statistics, and the
/// queue/batch/latency histograms. JSON rendering is byte-identical
/// across same-seed runs and across worker counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Seed the workload was generated from.
    pub seed: u64,
    /// Event counters.
    pub counters: ServeCounters,
    /// Fraction of completed requests that met their deadline (0 when
    /// nothing completed).
    pub deadline_hit_rate: f64,
    /// Mean completed-request latency (arrival to response), ms.
    pub mean_latency_ms: f64,
    /// Median completed-request latency, ms.
    pub p50_latency_ms: f64,
    /// 95th-percentile completed-request latency, ms.
    pub p95_latency_ms: f64,
    /// Mean micro-batch size, requests.
    pub mean_batch_size: f64,
    /// Deepest the admission queue ever got.
    pub max_queue_depth: u64,
    /// Simulated time of the last response, ms.
    pub makespan_ms: f64,
    /// Latency distribution of completed requests, ms buckets.
    pub latency_hist: Histogram,
    /// Micro-batch size distribution.
    pub batch_hist: Histogram,
    /// Queue depth sampled at each batch formation.
    pub depth_hist: Histogram,
}

impl ServeReport {
    /// Render as a single JSON object with fixed key order and fixed
    /// float formatting.
    #[must_use]
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        let mut s = String::with_capacity(1024);
        s.push('{');
        let _ = write!(s, "\"seed\":{},", self.seed);
        let _ = write!(
            s,
            "\"counters\":{{\"requests\":{},\"completed\":{},\"shed\":{},\"deadline_hits\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"gcn_predictions\":{},\"batches\":{},\
             \"plans\":{},\"plans_infeasible\":{},\"ingest_accepted\":{},\"ingest_rejected\":{},\
             \"ood_flagged\":{}}},",
            c.requests,
            c.completed,
            c.shed,
            c.deadline_hits,
            c.cache_hits,
            c.cache_misses,
            c.gcn_predictions,
            c.batches,
            c.plans,
            c.plans_infeasible,
            c.ingest_accepted,
            c.ingest_rejected,
            c.ood_flagged
        );
        let _ = write!(s, "\"deadline_hit_rate\":{},", fmt_f64(self.deadline_hit_rate));
        let _ = write!(s, "\"mean_latency_ms\":{},", fmt_f64(self.mean_latency_ms));
        let _ = write!(s, "\"p50_latency_ms\":{},", fmt_f64(self.p50_latency_ms));
        let _ = write!(s, "\"p95_latency_ms\":{},", fmt_f64(self.p95_latency_ms));
        let _ = write!(s, "\"mean_batch_size\":{},", fmt_f64(self.mean_batch_size));
        let _ = write!(s, "\"max_queue_depth\":{},", self.max_queue_depth);
        let _ = write!(s, "\"makespan_ms\":{},", fmt_f64(self.makespan_ms));
        let _ = write!(s, "\"latency_hist\":{},", self.latency_hist.to_json());
        let _ = write!(s, "\"batch_hist\":{},", self.batch_hist.to_json());
        let _ = write!(s, "\"depth_hist\":{}", self.depth_hist.to_json());
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_ordered() {
        let report = ServeReport {
            seed: 7,
            counters: ServeCounters { requests: 8, completed: 7, shed: 1, ..Default::default() },
            deadline_hit_rate: 0.857143,
            mean_latency_ms: 12.5,
            p50_latency_ms: 10.0,
            p95_latency_ms: 31.0,
            mean_batch_size: 3.5,
            max_queue_depth: 5,
            makespan_ms: 412.0,
            latency_hist: Histogram::new(vec![10.0, 100.0]),
            batch_hist: Histogram::new(vec![1.0, 8.0]),
            depth_hist: Histogram::new(vec![4.0]),
        };
        let a = report.to_json();
        assert_eq!(a, report.clone().to_json());
        assert!(a.starts_with("{\"seed\":7,\"counters\":{\"requests\":8,"), "{a}");
        assert!(a.contains("\"shed\":1,"), "{a}");
        assert!(
            a.contains("\"ingest_accepted\":0,\"ingest_rejected\":0,\"ood_flagged\":0}"),
            "{a}"
        );
        assert!(a.contains("\"mean_latency_ms\":12.500000"), "{a}");
        assert!(a.ends_with("\"depth_hist\":{\"edges\":[4.000000],\"counts\":[0,0]}}"), "{a}");
    }
}
