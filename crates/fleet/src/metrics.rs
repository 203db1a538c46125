//! Fleet metrics: counters and the [`FleetReport`] with its
//! deterministic JSON rendering.
//!
//! The report writes its own JSON: keys in fixed order, floats printed
//! with six decimal places, no whitespace variation — two reports are
//! equal iff their JSON strings are byte-identical, which is what the
//! determinism tests and the CI same-seed diff assert.

use eda_cloud_trace::{fmt_f64, Histogram};
use std::fmt::Write as _;

pub(crate) use eda_cloud_engine::Samples;

/// Monotone event counters accumulated over one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCounters {
    /// Jobs that arrived.
    pub jobs_submitted: u64,
    /// Jobs that ran every stage to completion.
    pub jobs_completed: u64,
    /// Completed jobs whose latency met their deadline.
    pub deadline_hits: u64,
    /// VMs launched (all kinds).
    pub vms_launched: u64,
    /// Stage placements that booted a fresh on-demand VM.
    pub cold_starts: u64,
    /// Stage placements served instantly from the warm pool.
    pub warm_reuses: u64,
    /// Warm VMs reaped after sitting idle past the configured bound.
    pub idle_reaped: u64,
    /// Spot VMs reclaimed by the market mid-stage.
    pub interruptions: u64,
    /// Stage attempts re-run after an interruption.
    pub retries: u64,
    /// Stages that exhausted their spot attempts and fell back to
    /// on-demand capacity.
    pub spot_fallbacks: u64,
    /// Jobs abandoned after a stage burned every allowed attempt
    /// (`FleetConfig::max_stage_attempts`) — the typed exhaustion
    /// outcome, so an interrupt-on-every-attempt job terminates instead
    /// of retrying forever.
    pub jobs_exhausted: u64,
}

/// The per-run report: counters, cost, latency statistics, and
/// histograms. Produced by `FleetSimulator::run`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Seed the run was driven by.
    pub seed: u64,
    /// Event counters.
    pub counters: FleetCounters,
    /// Fraction of completed jobs that met their deadline (0 when no
    /// job completed).
    pub deadline_hit_rate: f64,
    /// Everything the fleet was billed, USD: every VM from launch to
    /// termination (boots, warm idle, and reclaimed partial runs
    /// included), spot VMs at the discounted rate.
    pub total_cost_usd: f64,
    /// Mean per-job attributed cost, USD (busy time only).
    pub mean_job_cost_usd: f64,
    /// Mean completed-job latency (arrival to last stage done), seconds.
    pub mean_latency_secs: f64,
    /// Median completed-job latency, seconds.
    pub p50_latency_secs: f64,
    /// 95th-percentile completed-job latency, seconds.
    pub p95_latency_secs: f64,
    /// Time of the last job completion, seconds.
    pub makespan_secs: f64,
    /// Latency distribution of completed jobs.
    pub latency_hist: Histogram,
    /// Attributed-cost distribution of completed jobs.
    pub cost_hist: Histogram,
}

impl FleetReport {
    /// Render the report as a single JSON object with a fixed key order
    /// and fixed float formatting — byte-identical across same-seed
    /// runs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        let mut s = String::with_capacity(1024);
        s.push('{');
        let _ = write!(s, "\"seed\":{},", self.seed);
        let _ = write!(
            s,
            "\"counters\":{{\"jobs_submitted\":{},\"jobs_completed\":{},\"deadline_hits\":{},\
             \"vms_launched\":{},\"cold_starts\":{},\"warm_reuses\":{},\"idle_reaped\":{},\
             \"interruptions\":{},\"retries\":{},\"spot_fallbacks\":{},\"jobs_exhausted\":{}}},",
            c.jobs_submitted,
            c.jobs_completed,
            c.deadline_hits,
            c.vms_launched,
            c.cold_starts,
            c.warm_reuses,
            c.idle_reaped,
            c.interruptions,
            c.retries,
            c.spot_fallbacks,
            c.jobs_exhausted
        );
        let _ = write!(s, "\"deadline_hit_rate\":{},", fmt_f64(self.deadline_hit_rate));
        let _ = write!(s, "\"total_cost_usd\":{},", fmt_f64(self.total_cost_usd));
        let _ = write!(s, "\"mean_job_cost_usd\":{},", fmt_f64(self.mean_job_cost_usd));
        let _ = write!(s, "\"mean_latency_secs\":{},", fmt_f64(self.mean_latency_secs));
        let _ = write!(s, "\"p50_latency_secs\":{},", fmt_f64(self.p50_latency_secs));
        let _ = write!(s, "\"p95_latency_secs\":{},", fmt_f64(self.p95_latency_secs));
        let _ = write!(s, "\"makespan_secs\":{},", fmt_f64(self.makespan_secs));
        let _ = write!(s, "\"latency_hist\":{},", self.latency_hist.to_json());
        let _ = write!(s, "\"cost_hist\":{}", self.cost_hist.to_json());
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_stable_and_ordered() {
        let report = FleetReport {
            seed: 7,
            counters: FleetCounters { jobs_submitted: 2, jobs_completed: 2, ..Default::default() },
            deadline_hit_rate: 1.0,
            total_cost_usd: 1.25,
            mean_job_cost_usd: 0.625,
            mean_latency_secs: 100.0,
            p50_latency_secs: 90.0,
            p95_latency_secs: 110.0,
            makespan_secs: 500.0,
            latency_hist: Histogram::new(vec![60.0]),
            cost_hist: Histogram::new(vec![1.0]),
        };
        let a = report.to_json();
        assert_eq!(a, report.clone().to_json());
        assert!(a.starts_with("{\"seed\":7,\"counters\":{\"jobs_submitted\":2,"));
        assert!(a.contains("\"total_cost_usd\":1.250000"));
        assert!(a.ends_with("\"cost_hist\":{\"edges\":[1.000000],\"counts\":[0,0]}}"));
    }
}
