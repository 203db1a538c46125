//! Job plans.

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

#[cfg(test)]
mod tests {
    use super::*;

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
