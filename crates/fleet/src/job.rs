//! Job plans and the seeded arrival process.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One stage of a job's MCKP plan: which instance to buy and how long
/// the stage runs on it (the knapsack's whole-second runtime).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedStage {
    /// Stage name (e.g. `"routing"`).
    pub name: String,
    /// Catalog instance name to provision (e.g. `"r5.xlarge"`).
    pub instance: String,
    /// Stage runtime on that instance, whole seconds.
    pub runtime_secs: u64,
}

/// A flow job's deployment plan: per-stage VM selections in flow order
/// plus the deadline the plan was optimized against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPlan {
    /// Caller-assigned job id (stable across runs for a fixed seed).
    pub id: u64,
    /// Per-stage selections in flow order.
    pub stages: Vec<PlannedStage>,
    /// Total-latency deadline in seconds from arrival.
    pub deadline_secs: u64,
}

impl JobPlan {
    /// Sum of planned stage runtimes (excludes boots and retries).
    #[must_use]
    pub fn planned_runtime_secs(&self) -> u64 {
        self.stages.iter().map(|s| s.runtime_secs).sum()
    }
}

/// A job plus its arrival time in the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetJob {
    /// The deployment plan to execute.
    pub plan: JobPlan,
    /// Arrival time in seconds from the start of the simulation.
    pub arrival_secs: f64,
}

/// Seeded Poisson arrival process: `count` arrival times (seconds,
/// non-decreasing) with exponential inter-arrival gaps at
/// `rate_per_hour`. Deterministic per `(count, rate, seed)`; a
/// non-positive rate degenerates to all jobs arriving at `t = 0`.
#[must_use]
pub fn poisson_arrivals(count: usize, rate_per_hour: f64, seed: u64) -> Vec<f64> {
    if rate_per_hour <= 0.0 {
        return vec![0.0; count];
    }
    let mean_gap = 3600.0 / rate_per_hour;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            // Inverse-transform sample of Exp(1/mean): u in [0, 1) keeps
            // the log argument in (0, 1].
            t += -mean_gap * (1.0 - u).ln();
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_sorted_positive_and_deterministic() {
        let a = poisson_arrivals(200, 120.0, 7);
        let b = poisson_arrivals(200, 120.0, 7);
        assert_eq!(a, b);
        assert!(a[0] > 0.0);
        assert!(a.windows(2).all(|w| w[1] >= w[0]));
        assert_ne!(a, poisson_arrivals(200, 120.0, 8), "seed matters");
    }

    #[test]
    fn mean_gap_tracks_rate() {
        let a = poisson_arrivals(4000, 60.0, 3);
        let mean = a.last().unwrap() / 4000.0;
        // 60 jobs/hour -> 60 s mean gap, within sampling noise.
        assert!((mean - 60.0).abs() < 5.0, "mean gap {mean}");
    }

    #[test]
    fn zero_rate_degenerates_to_burst() {
        assert_eq!(poisson_arrivals(3, 0.0, 1), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn planned_runtime_sums_stages() {
        let plan = JobPlan {
            id: 0,
            stages: vec![
                PlannedStage { name: "syn".into(), instance: "m5.large".into(), runtime_secs: 10 },
                PlannedStage { name: "sta".into(), instance: "c5.large".into(), runtime_secs: 5 },
            ],
            deadline_secs: 100,
        };
        assert_eq!(plan.planned_runtime_secs(), 15);
    }
}
