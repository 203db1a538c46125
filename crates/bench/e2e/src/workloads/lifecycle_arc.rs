//! `lifecycle_arc` — the model-lifecycle controller on the real product
//! path: serve, join feedback, detect the injected drift, shadow
//! retrain through the gcn fine-tune path, canary, promote. It is the
//! guard for ROADMAP item 1 (porting the hand-written loops onto
//! `engine`): that port must not move this number.

use super::{ms, ratio, Iteration, TraceSink, Workload, PARALLEL_WORKERS, WORKERS};
use crate::gen;
use eda_cloud_core::{LifecycleScenario, Workflow};
use eda_cloud_gcn::ModelConfig;
use eda_cloud_lifecycle::{LifecycleReport, Retrainer, RuntimeOracle};
use eda_cloud_serve::{design_pool, ModelSnapshot};
use std::time::{Duration, Instant};

/// Requests in the arc: the `lifecycle` bin's default.
const REQUESTS: usize = 320;

/// The `lifecycle_arc` workload.
pub struct LifecycleArc {
    workflow: Workflow,
    scenario: LifecycleScenario,
}

impl LifecycleArc {
    /// Nothing to generate here: the controller draws its own request
    /// stream from the seed in the scenario.
    #[must_use]
    pub fn setup(seed: u64) -> Self {
        Self {
            workflow: Workflow::with_defaults(),
            scenario: LifecycleScenario::new(REQUESTS, seed),
        }
    }

    fn run(&self, workers: usize) -> Result<(LifecycleReport, Duration), String> {
        let scenario = LifecycleScenario {
            workers,
            ..self.scenario.clone()
        };
        let start = Instant::now();
        let result = self.workflow.lifecycle(&scenario);
        let wall = start.elapsed();
        let (report, feedback) = result.map_err(|e| format!("Workflow::lifecycle: {e}"))?;
        let c = &report.counters;
        if c.requests != REQUESTS as u64 {
            return Err(format!("{} of {REQUESTS} requests served", c.requests));
        }
        if c.feedback_joins != feedback.len() as u64 {
            return Err(format!(
                "conservation: {} feedback joins but {} logged events",
                c.feedback_joins,
                feedback.len()
            ));
        }
        if c.retrains == 0 {
            return Err(format!(
                "no retrain happened for seed {}: the arc never reached the gcn fine-tune path",
                self.scenario.seed
            ));
        }
        Ok((report, wall))
    }
}

impl Workload for LifecycleArc {
    fn iterate(&self) -> Result<Iteration, String> {
        let (report, wall) = self.run(WORKERS)?;
        Ok(Iteration {
            wall,
            ops: report.counters.requests,
            attempted: REQUESTS as u64,
            failed: REQUESTS as u64 - report.counters.requests,
            quality: 100.0 * ratio(report.counters.feedback_joins as f64, REQUESTS as f64),
            report: report.to_json(),
        })
    }

    fn trace(&self, sink: &mut TraceSink) -> Result<(), String> {
        let log = &sink.log;
        let (parallel, _) = self.run(PARALLEL_WORKERS)?;
        let (report, wall) = log.time("lifecycle.run", None, || self.run(WORKERS))?;
        if parallel.to_json() != report.to_json() {
            return Err("lifecycle report differs between workers 1 and 2".into());
        }

        // Replay the fine-tunes the arc ran: the bootstrap over the
        // oracle-labelled pool, then one shadow retrain per `retrained`
        // event over a full-coverage buffer (the controller waits for
        // full coverage before it retrains).
        let config = self.scenario.config();
        let pool = design_pool();
        let oracle = RuntimeOracle::new(config.drift_at, config.drift_factor);
        let seeded = ModelSnapshot::seeded(&ModelConfig::fast(), config.seed);
        let tune = |epochs: usize, base: &ModelSnapshot, ordinal: u64| {
            let buffers = gen::oracle_buffers(&pool, &oracle, ordinal);
            let retrainer = Retrainer {
                epochs,
                learning_rate: config.learning_rate,
                seed: config.seed,
            };
            log.time("gcn.fine_tune", None, || {
                retrainer.retrain(base, &buffers, WORKERS).0
            })
        };
        let mut model = tune(config.bootstrap_epochs, &seeded, 0);
        for _ in 0..report.counters.retrains {
            model = tune(config.retrain_epochs, &model, config.drift_at);
        }
        std::hint::black_box(model);

        let tuned_ms = crate::spans::total_ms(&log.snapshot(), "gcn.fine_tune");
        let layers = &mut sink.layers;
        layers.set("lifecycle.retrains", report.counters.retrains as f64);
        layers.set("lifecycle.promotions", report.counters.promotions as f64);
        layers.set("lifecycle.fine_tune_ms", tuned_ms);
        layers.set("lifecycle.non_train_ms", (ms(wall) - tuned_ms).max(0.0));
        layers.set("trace.attributed_share", ratio(tuned_ms, ms(wall)).min(1.0));
        Ok(())
    }
}
