//! `train_fit` — the paper's Problem 2: fit one GCN per stage on the
//! `char_sweep` corpus (built once, in set-up). This is the `gcn`
//! layer used as a *writer* — `train_step`, backprop, Adam — where
//! `serve_miss` uses it as a reader.
//!
//! Like `char_sweep` the inputs are a fixed grid, so `--seed` does not
//! reach this workload; the trainer keeps `Trainer::fast()`'s own seed.
//! It runs half of `Trainer::fast()`'s 60 epochs: the kernels and the
//! per-sample cost are the same, and an iteration of ~0.6 s gives a run
//! twice the samples for its median than one of ~1.2 s would.

use super::char_sweep::corpus_config;
use super::{ratio, Iteration, TraceSink, Workload, WORKERS};
use eda_cloud_core::dataset::{DatasetBuilder, StageDatasets};
use eda_cloud_core::predict::StagePredictors;
use eda_cloud_core::Workflow;
use eda_cloud_flow::StageKind;
use eda_cloud_gcn::{DatasetSplit, RuntimePredictor, Trainer};
use std::fmt::Write as _;
use std::time::Instant;

/// Held-out share of the designs, as `StagePredictors::train` splits.
const TEST_FRACTION: f64 = 0.2;
/// Epochs per fit.
const EPOCHS: usize = 30;

/// The `train_fit` workload.
pub struct TrainFit {
    corpus: StageDatasets,
    trainer: Trainer,
}

/// Byte-stable rendering of the four fitted models: every epoch loss
/// and held-out error, bit-exact, plus the serialized weights.
fn render_predictors(p: &StagePredictors) -> String {
    let mut s = String::new();
    for kind in StageKind::ALL {
        let outcome = p.stage(kind);
        let _ = write!(s, "{kind}:");
        for v in outcome
            .report
            .epoch_losses
            .iter()
            .chain(&outcome.report.test_errors)
        {
            let _ = write!(s, "{:016x},", v.to_bits());
        }
        s.push('\n');
        s.push_str(&outcome.model.save_weights());
    }
    s
}

impl TrainFit {
    /// Build the corpus `StagePredictors::train` fits on.
    ///
    /// # Errors
    ///
    /// Reports a failed corpus build.
    pub fn setup(_seed: u64) -> Result<Self, String> {
        let workflow = Workflow::with_defaults();
        let corpus = DatasetBuilder::new(&workflow)
            .build(&corpus_config(WORKERS))
            .map_err(|e| format!("corpus build: {e}"))?;
        Ok(Self {
            corpus,
            trainer: Trainer {
                epochs: EPOCHS,
                ..Trainer::fast()
            },
        })
    }

    /// Training samples one fit visits: the train split of every stage
    /// times the epoch count.
    fn samples_visited(&self) -> u64 {
        StageKind::ALL
            .iter()
            .map(|&kind| {
                let samples = self.corpus.for_stage(kind);
                let split = DatasetSplit::by_design(samples, TEST_FRACTION, self.trainer.seed);
                (split.train.len() * self.trainer.epochs) as u64
            })
            .sum()
    }
}

impl Workload for TrainFit {
    fn iterate(&self) -> Result<Iteration, String> {
        let start = Instant::now();
        let predictors = StagePredictors::train(&self.corpus, &self.trainer);
        let wall = start.elapsed();
        let predictors = predictors.map_err(|e| format!("training: {e}"))?;
        // The paper's accuracy figure: 100 % minus the mean absolute
        // percentage error on the held-out designs.
        let accuracy_pct = 100.0 * (1.0 - predictors.mean_error());
        if !(accuracy_pct > 0.0 && accuracy_pct.is_finite()) {
            return Err(format!(
                "held-out accuracy {accuracy_pct} % is not positive: nothing to bound a regression against"
            ));
        }
        let visited = self.samples_visited();
        Ok(Iteration {
            wall,
            ops: visited,
            attempted: visited,
            failed: 0,
            quality: accuracy_pct,
            report: render_predictors(&predictors),
        })
    }

    fn trace(&self, sink: &mut TraceSink) -> Result<(), String> {
        let log = &sink.log;
        let run = log.reserve("core.train", None);
        let start = Instant::now();
        let predictors = log
            .fill(run, || StagePredictors::train(&self.corpus, &self.trainer))
            .map_err(|e| format!("training: {e}"))?;
        let run_ms = super::ms(start.elapsed());

        // Replay: the same four fits through the gcn crate's own entry
        // point, then one epoch of bare `train_step`s per stage for the
        // per-sample cost.
        const FIT_SPANS: [&str; 4] = [
            "gcn.fit.synthesis",
            "gcn.fit.placement",
            "gcn.fit.routing",
            "gcn.fit.sta",
        ];
        let replay = log.reserve("replay", None);
        log.fill(replay, || -> Result<(), String> {
            for (kind, span) in StageKind::ALL.into_iter().zip(FIT_SPANS) {
                let samples = self.corpus.for_stage(kind);
                let split = DatasetSplit::by_design(samples, TEST_FRACTION, self.trainer.seed);
                log.time(span, Some(replay), || self.trainer.try_fit(samples, &split))
                    .map_err(|e| format!("{kind} fit replay: {e}"))?;
                let mut model = RuntimePredictor::new(&self.trainer.config, self.trainer.seed);
                for &i in &split.train {
                    log.time("gcn.train_step", Some(replay), || {
                        model.train_step(&samples[i], self.trainer.lr)
                    });
                }
            }
            Ok(())
        })?;

        let spans = log.snapshot();
        let steps = crate::spans::samples_us(&spans, "gcn.train_step");
        let layers = &mut sink.layers;
        layers.set(
            "gcn.train_step_ms_p50",
            crate::stats::percentile(&steps, 0.5) / 1e3,
        );
        let mut fitted = 0.0;
        for (span, metric) in FIT_SPANS.into_iter().zip([
            "gcn.fit_ms.synthesis",
            "gcn.fit_ms.placement",
            "gcn.fit_ms.routing",
            "gcn.fit_ms.sta",
        ]) {
            let ms = crate::spans::total_ms(&spans, span);
            fitted += ms;
            layers.set(metric, ms);
        }
        layers.set("quality.mean_ape_pct", predictors.mean_error() * 100.0);
        layers.set("trace.attributed_share", ratio(fitted, run_ms).min(1.0));
        Ok(())
    }
}
