//! Training loop, dataset splitting, and accuracy metrics.

use crate::batch::BatchChunk;
use crate::{GcnError, GraphBatch, GraphSample, ModelConfig, RowQuotient, RuntimePredictor};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// Train/test indices over a sample corpus.
///
/// The paper splits 80/20 "where netlists of the test set belong to
/// unseen designs in the training set" — so the split is by *design
/// family*, not by netlist: every recipe variant of a test design is
/// held out together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSplit {
    /// Indices of training samples.
    pub train: Vec<usize>,
    /// Indices of held-out samples (unseen designs).
    pub test: Vec<usize>,
}

impl DatasetSplit {
    /// Group samples by base design (the part of the name before the
    /// first `.`), hold out ~`test_fraction` of the designs.
    ///
    /// Degenerate inputs degrade instead of panicking: an empty corpus
    /// yields an empty split, a fraction of `0.0` holds nothing out,
    /// `1.0` holds everything out, and a corpus with a single design
    /// family keeps that design in training (for fractions below 1)
    /// rather than emptying the training set.
    ///
    /// # Panics
    ///
    /// Panics if `test_fraction` is not within `[0, 1]`.
    #[must_use]
    pub fn by_design(samples: &[GraphSample], test_fraction: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&test_fraction),
            "test fraction must be in [0, 1]"
        );
        let base = |name: &str| name.split('.').next().unwrap_or(name).to_owned();
        let designs: BTreeSet<String> = samples.iter().map(|s| base(&s.name)).collect();
        let mut designs: Vec<String> = designs.into_iter().collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        designs.shuffle(&mut rng);
        let n_test = if designs.len() <= 1 || test_fraction == 0.0 {
            // Empty corpus, a single design family (which must stay in
            // training), or nothing held out.
            if test_fraction >= 1.0 {
                designs.len()
            } else {
                0
            }
        } else if test_fraction >= 1.0 {
            designs.len()
        } else {
            // Hold out at least one design but never the whole corpus.
            ((designs.len() as f64 * test_fraction).round() as usize).clamp(1, designs.len() - 1)
        };
        let test_designs: BTreeSet<&String> = designs.iter().take(n_test).collect();
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            if test_designs.contains(&base(&s.name)) {
                test.push(i);
            } else {
                train.push(i);
            }
        }
        Self { train, test }
    }
}

/// Per-run training metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch (log-space MSE).
    pub epoch_losses: Vec<f64>,
    /// Absolute percentage error of every test prediction (one entry
    /// per sample per vCPU configuration).
    pub test_errors: Vec<f64>,
    /// Mean absolute percentage error on the test set.
    pub mean_error: f64,
}

impl TrainReport {
    /// Prediction accuracy as the paper reports it: `1 - mean error`
    /// (87% accuracy = 13% average error).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        1.0 - self.mean_error
    }

    /// Histogram of test errors with `bins` equal-width buckets over
    /// `[0, max_error]`; returns (bucket upper bounds, counts) —
    /// the data behind the paper's Figure 5.
    #[must_use]
    pub fn error_histogram(&self, bins: usize) -> (Vec<f64>, Vec<usize>) {
        let bins = bins.max(1);
        let max = self
            .test_errors
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let mut counts = vec![0usize; bins];
        for &e in &self.test_errors {
            let b = ((e / max) * bins as f64).min(bins as f64 - 1.0) as usize;
            counts[b] += 1;
        }
        let bounds = (1..=bins).map(|b| max * b as f64 / bins as f64).collect();
        (bounds, counts)
    }
}

/// The trained model plus its report.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The fitted predictor.
    pub model: RuntimePredictor,
    /// Metrics collected during training and evaluation.
    pub report: TrainReport,
}

/// Training-loop configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Trainer {
    /// Epochs over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Weight-initialization and shuffling seed.
    pub seed: u64,
    /// Model architecture.
    pub config: ModelConfig,
}

impl Trainer {
    /// The paper's recipe: 200 epochs, Adam with `lr = 1e-4`, MSE loss,
    /// 2 GCN layers (256/128) + FC 128.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            epochs: 200,
            lr: 1e-4,
            seed: 0x6C1,
            config: ModelConfig::paper(),
        }
    }

    /// A fast recipe for tests and smoke benches: smaller model, larger
    /// learning rate, fewer epochs.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            epochs: 60,
            lr: 3e-3,
            seed: 0x6C1,
            config: ModelConfig::fast(),
        }
    }

    /// Fit on the training split and evaluate on the held-out designs.
    ///
    /// # Panics
    ///
    /// Panics if the split references out-of-range samples, the
    /// training set is empty, the architecture is degenerate, or the
    /// loss diverges ([`Trainer::try_fit`] is the fallible form).
    #[must_use]
    pub fn fit(&self, samples: &[GraphSample], split: &DatasetSplit) -> TrainOutcome {
        assert!(!split.train.is_empty(), "training set is empty");
        self.try_fit(samples, split)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Trainer::fit`] with the old panics surfaced as typed errors.
    ///
    /// # Errors
    ///
    /// - [`GcnError::EmptyTrainingSet`] when the split selects no
    ///   training samples.
    /// - [`GcnError::SampleOutOfRange`] when either split half indexes
    ///   past the corpus (checked up front, before any epoch runs).
    /// - [`GcnError::ZeroDimLayer`] for a degenerate architecture.
    /// - [`GcnError::NonFiniteLoss`] when an epoch's mean loss leaves
    ///   the finite range — training has diverged and further epochs
    ///   would only corrupt the weights.
    pub fn try_fit(
        &self,
        samples: &[GraphSample],
        split: &DatasetSplit,
    ) -> Result<TrainOutcome, GcnError> {
        if split.train.is_empty() {
            return Err(GcnError::EmptyTrainingSet);
        }
        for &i in split.train.iter().chain(&split.test) {
            if i >= samples.len() {
                return Err(GcnError::SampleOutOfRange {
                    index: i,
                    len: samples.len(),
                });
            }
        }
        let mut model = RuntimePredictor::try_new(&self.config, self.seed)?;
        let train: Vec<&GraphSample> = split.train.iter().map(|&i| &samples[i]).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xE70C);
        let epoch_losses =
            run_epochs(&mut model, &train, self.epochs, self.lr, &mut rng, f64::is_finite);
        if let Some(epoch) = epoch_losses.iter().position(|l| !l.is_finite()) {
            return Err(GcnError::NonFiniteLoss { epoch });
        }
        let mut test_errors = Vec::new();
        for &i in &split.test {
            let pred = model.predict_secs(&samples[i]);
            for (p, t) in pred.iter().zip(&samples[i].targets_secs) {
                test_errors.push((p - t).abs() / t);
            }
        }
        let mean_error = if test_errors.is_empty() {
            0.0
        } else {
            test_errors.iter().sum::<f64>() / test_errors.len() as f64
        };
        Ok(TrainOutcome {
            model,
            report: TrainReport {
                epoch_losses,
                test_errors,
                mean_error,
            },
        })
    }
}

impl Default for Trainer {
    fn default() -> Self {
        Self::paper()
    }
}

impl RuntimePredictor {
    /// Incrementally fine-tune this model on a replay buffer of
    /// relabeled samples: `epochs` seeded-shuffle passes of
    /// [`RuntimePredictor::train_step`] over `samples`, continuing the
    /// model's existing Adam state (a warm start, not a restart).
    /// Returns the mean pre-step loss of each epoch. Each sample's row
    /// classes are built once per call and every step runs over them,
    /// which leaves the weights the per-node steps would, bit for bit.
    ///
    /// Deterministic: the visit order is drawn from one ChaCha8 stream
    /// seeded by `seed`, and every step is serial — the same
    /// `(weights, samples, epochs, lr, seed)` always produces
    /// bit-identical weights, no matter which thread runs the call.
    /// An empty buffer or zero epochs leaves the model untouched.
    pub fn fine_tune(
        &mut self,
        samples: &[&GraphSample],
        epochs: usize,
        lr: f64,
        seed: u64,
    ) -> Vec<f64> {
        if samples.is_empty() {
            return Vec::new();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF17E_7D4E);
        run_epochs(self, samples, epochs, lr, &mut rng, |_| true)
    }
}

/// Up to `epochs` passes of the training step over `samples`, each in
/// the visit order `rng` reshuffles before it, ending early after the
/// first pass whose mean pre-step loss `go_on` rejects; returns each
/// pass's mean. Each sample's row classes are built once, here, and
/// every step runs over them ([`RuntimePredictor::train_step_on`]):
/// the weights are those of [`RuntimePredictor::train_step`] per node,
/// bit for bit.
fn run_epochs(
    model: &mut RuntimePredictor,
    samples: &[&GraphSample],
    epochs: usize,
    lr: f64,
    rng: &mut ChaCha8Rng,
    go_on: impl Fn(f64) -> bool,
) -> Vec<f64> {
    let chunks: Vec<BatchChunk> = samples
        .iter()
        .map(|&s| GraphBatch::join(&[&RowQuotient::from(s)], 1).chunks.remove(0))
        .collect();
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut epoch_losses = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        order.shuffle(rng);
        let mut total = 0.0;
        for &i in &order {
            total += model.train_step_on(samples[i], Some(&chunks[i]), lr);
        }
        let mean = total / order.len() as f64;
        epoch_losses.push(mean);
        if !go_on(mean) {
            break;
        }
    }
    epoch_losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_netlist::{generators, DesignGraph};

    /// A small corpus: several families, a few "recipe variants" each,
    /// with runtimes that grow with design size (the signal the GCN
    /// must learn).
    fn corpus() -> Vec<GraphSample> {
        let mut samples = Vec::new();
        for (fi, family) in ["adder", "parity", "comparator", "max", "gray2bin"]
            .iter()
            .enumerate()
        {
            for size in [4u32, 8, 12] {
                let aig = generators::build_family(family, size).expect("family");
                let g = DesignGraph::from_aig(&aig);
                let base = 10.0 + aig.and_count() as f64 * 0.5 + fi as f64;
                let mut g2 = g.clone();
                // Mimic recipe variants by reusing the same graph under
                // a variant name (structure identical is fine for the
                // split test; the training test uses the real pipeline).
                for (vi, variant) in ["raw", "balanced"].iter().enumerate() {
                    let t1 = base * (1.0 + vi as f64 * 0.07);
                    let sample = GraphSample::new(&g2, [t1, t1 / 1.6, t1 / 2.4, t1 / 3.0]);
                    let mut named = sample;
                    named.name = format!("{family}{size}.{variant}");
                    samples.push(named);
                    g2 = g.clone();
                }
            }
        }
        samples
    }

    #[test]
    fn split_keeps_designs_unseen() {
        let samples = corpus();
        let split = DatasetSplit::by_design(&samples, 0.2, 7);
        assert!(!split.train.is_empty());
        assert!(!split.test.is_empty());
        let base = |i: usize| samples[i].name.split('.').next().unwrap().to_owned();
        let train_designs: BTreeSet<String> = split.train.iter().map(|&i| base(i)).collect();
        let test_designs: BTreeSet<String> = split.test.iter().map(|&i| base(i)).collect();
        assert!(
            train_designs.is_disjoint(&test_designs),
            "no design may appear in both splits"
        );
    }

    #[test]
    fn training_converges_and_generalizes_somewhat() {
        let samples = corpus();
        let split = DatasetSplit::by_design(&samples, 0.2, 3);
        let outcome = Trainer::fast().fit(&samples, &split);
        let losses = &outcome.report.epoch_losses;
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss should at least halve: {} -> {}",
            losses[0],
            losses.last().unwrap()
        );
        // Generalization on a toy corpus is loose; just require sanity.
        assert!(outcome.report.mean_error < 1.0);
        assert!(outcome.report.accuracy() > 0.0);
    }

    #[test]
    fn histogram_counts_all_errors() {
        let report = TrainReport {
            epoch_losses: vec![],
            test_errors: vec![0.01, 0.05, 0.10, 0.20, 0.40],
            mean_error: 0.152,
        };
        let (bounds, counts) = report.error_histogram(4);
        assert_eq!(bounds.len(), 4);
        assert_eq!(counts.iter().sum::<usize>(), 5);
        assert!((report.accuracy() - 0.848).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "test fraction")]
    fn bad_fraction_panics() {
        let samples = corpus();
        let _ = DatasetSplit::by_design(&samples, 1.5, 0);
    }

    #[test]
    #[should_panic(expected = "test fraction")]
    fn negative_fraction_panics() {
        let samples = corpus();
        let _ = DatasetSplit::by_design(&samples, -0.1, 0);
    }

    #[test]
    fn empty_corpus_yields_empty_split() {
        let split = DatasetSplit::by_design(&[], 0.2, 0);
        assert!(split.train.is_empty());
        assert!(split.test.is_empty());
    }

    #[test]
    fn single_design_family_trains_on_it() {
        // All samples share one base design — holding it out would
        // empty the training set and panic Trainer::fit.
        let samples: Vec<GraphSample> = corpus()
            .into_iter()
            .take(4)
            .enumerate()
            .map(|(i, mut s)| {
                s.name = format!("adder4.v{i}");
                s
            })
            .collect();
        let split = DatasetSplit::by_design(&samples, 0.2, 11);
        assert_eq!(split.train.len(), samples.len());
        assert!(split.test.is_empty());
        // And fitting on that split must not panic.
        let mut trainer = Trainer::fast();
        trainer.epochs = 1;
        let outcome = trainer.fit(&samples, &split);
        assert_eq!(outcome.report.test_errors.len(), 0);
        assert_eq!(outcome.report.mean_error, 0.0);
    }

    /// Regression: an empty training split used to be reachable only
    /// as an assert panic inside `fit`.
    #[test]
    fn try_fit_reports_empty_training_set() {
        let samples = corpus();
        let split = DatasetSplit {
            train: vec![],
            test: vec![0],
        };
        let e = Trainer::fast().try_fit(&samples, &split).unwrap_err();
        assert_eq!(e, GcnError::EmptyTrainingSet);
    }

    /// Regression: a split indexing past the corpus used to panic on
    /// `samples[i]` mid-epoch; now it is rejected up front.
    #[test]
    fn try_fit_reports_out_of_range_split() {
        let samples = corpus();
        let n = samples.len();
        let mut trainer = Trainer::fast();
        trainer.epochs = 1;
        for split in [
            DatasetSplit {
                train: vec![0, n],
                test: vec![],
            },
            DatasetSplit {
                train: vec![0],
                test: vec![n + 3],
            },
        ] {
            let e = trainer.try_fit(&samples, &split).unwrap_err();
            assert_eq!(
                e,
                GcnError::SampleOutOfRange {
                    index: split
                        .train
                        .iter()
                        .chain(&split.test)
                        .copied()
                        .find(|&i| i >= n)
                        .unwrap(),
                    len: n
                }
            );
        }
    }

    /// Regression: a degenerate architecture used to panic inside
    /// `RuntimePredictor::new` when reached through the trainer.
    #[test]
    fn try_fit_reports_zero_dim_layer() {
        let samples = corpus();
        let split = DatasetSplit::by_design(&samples, 0.2, 3);
        let mut trainer = Trainer::fast();
        trainer.config.gcn_dims = vec![];
        let e = trainer.try_fit(&samples, &split).unwrap_err();
        assert_eq!(e, GcnError::ZeroDimLayer);
    }

    /// A corrupt label (NaN log target) makes the first epoch's mean
    /// loss non-finite; the run stops with a typed error instead of
    /// grinding every remaining epoch on poisoned weights.
    #[test]
    fn try_fit_reports_non_finite_loss() {
        let mut samples = corpus();
        samples[0].log_targets[0] = f64::NAN;
        let split = DatasetSplit {
            train: (0..samples.len()).collect(),
            test: vec![],
        };
        let trainer = Trainer::fast();
        match trainer.try_fit(&samples, &split) {
            Err(GcnError::NonFiniteLoss { epoch: 0 }) => {}
            other => panic!("expected NonFiniteLoss at epoch 0, got {other:?}"),
        }
    }

    /// `try_fit` and `fit` agree bit-for-bit on a healthy run.
    #[test]
    fn try_fit_matches_fit() {
        let samples = corpus();
        let split = DatasetSplit::by_design(&samples, 0.2, 3);
        let mut trainer = Trainer::fast();
        trainer.epochs = 2;
        let a = trainer.fit(&samples, &split);
        let b = trainer.try_fit(&samples, &split).expect("healthy run");
        assert_eq!(a.report, b.report);
        assert_eq!(
            a.model.predict_log(&samples[0]),
            b.model.predict_log(&samples[0])
        );
    }

    #[test]
    fn fraction_zero_holds_nothing_out() {
        let samples = corpus();
        let split = DatasetSplit::by_design(&samples, 0.0, 5);
        assert_eq!(split.train.len(), samples.len());
        assert!(split.test.is_empty());
    }

    #[test]
    fn fraction_one_holds_everything_out() {
        let samples = corpus();
        let split = DatasetSplit::by_design(&samples, 1.0, 5);
        assert!(split.train.is_empty());
        assert_eq!(split.test.len(), samples.len());
    }

    use std::collections::BTreeSet;

    /// `try_fit` as it ran before row classes: one per-node
    /// `train_step` per visit, the split's indices reshuffled in place.
    fn per_node_fit(
        trainer: &Trainer,
        samples: &[GraphSample],
        split: &DatasetSplit,
    ) -> Result<TrainOutcome, GcnError> {
        let mut model = RuntimePredictor::try_new(&trainer.config, trainer.seed)?;
        let mut order: Vec<usize> = split.train.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(trainer.seed ^ 0xE70C);
        let mut epoch_losses = Vec::with_capacity(trainer.epochs);
        for epoch in 0..trainer.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for &i in &order {
                total += model.train_step(&samples[i], trainer.lr);
            }
            let mean = total / order.len() as f64;
            if !mean.is_finite() {
                return Err(GcnError::NonFiniteLoss { epoch });
            }
            epoch_losses.push(mean);
        }
        let mut test_errors = Vec::new();
        for &i in &split.test {
            let pred = model.predict_secs(&samples[i]);
            for (p, t) in pred.iter().zip(&samples[i].targets_secs) {
                test_errors.push((p - t).abs() / t);
            }
        }
        let mean_error = if test_errors.is_empty() {
            0.0
        } else {
            test_errors.iter().sum::<f64>() / test_errors.len() as f64
        };
        let report = TrainReport { epoch_losses, test_errors, mean_error };
        Ok(TrainOutcome { model, report })
    }

    /// `fine_tune` as it ran before row classes.
    fn per_node_fine_tune(
        model: &mut RuntimePredictor,
        samples: &[&GraphSample],
        epochs: usize,
        lr: f64,
        seed: u64,
    ) -> Vec<f64> {
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF17E_7D4E);
        let mut epoch_losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for &i in &order {
                total += model.train_step(samples[i], lr);
            }
            epoch_losses.push(total / order.len() as f64);
        }
        epoch_losses
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A fit's outcome as bits: epoch losses, test errors, mean error
    /// and weights, or the error that stopped it.
    fn outcome_bits(fit: Result<TrainOutcome, GcnError>) -> Result<OutcomeBits, GcnError> {
        fit.map(|o| {
            let r = &o.report;
            let errors = bits(&r.test_errors);
            (bits(&r.epoch_losses), errors, r.mean_error.to_bits(), o.model.save_weights())
        })
    }

    type OutcomeBits = (Vec<u64>, Vec<u64>, u64, String);

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// `try_fit` and `fine_tune`, which build each sample's row
        /// classes once and step over them, end where the per-node loops
        /// above end, bit for bit — epoch losses, test errors and
        /// weights, or the same error — on corpora of planted-symmetry
        /// graphs (a `NaN` feature stops `try_fit` at epoch 0 and runs
        /// `fine_tune` on `NaN` weights), for the fast, paper and
        /// one-layer 16-wide architectures.
        #[test]
        fn class_row_fits_equal_the_per_node_loops(
            seed in 0u64..u64::MAX,
            config in proptest::sample::select(
                vec![ModelConfig::fast(), ModelConfig::paper(), ModelConfig::shallow(16)],
            ),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let samples: Vec<GraphSample> = (0..5)
                .map(|i| {
                    let mut s = crate::oracle::planted_sample(&mut rng);
                    s.name = format!("design{}.v{i}", i % 3);
                    s
                })
                .collect();
            let trainer = Trainer { epochs: 3, lr: 1e-2, seed: seed % 1_000, config };
            let split = DatasetSplit::by_design(&samples, 0.34, seed);
            proptest::prop_assert_eq!(
                outcome_bits(trainer.try_fit(&samples, &split)),
                outcome_bits(per_node_fit(&trainer, &samples, &split))
            );
            let refs: Vec<&GraphSample> = samples.iter().collect();
            let mut tuned = RuntimePredictor::new(&trainer.config, seed % 997);
            let mut per_node = tuned.clone();
            let got = tuned.fine_tune(&refs, 3, 3e-3, seed);
            let want = per_node_fine_tune(&mut per_node, &refs, 3, 3e-3, seed);
            proptest::prop_assert_eq!(bits(&got), bits(&want));
            proptest::prop_assert_eq!(tuned.save_weights(), per_node.save_weights());
        }
    }
}
