//! The LOSTIN-style hybrid (design, recipe) → runtime predictor.
//!
//! A frozen, seeded two-layer GCN embeds the design graph (mean-pooled
//! node activations); the embedding is concatenated with the
//! deterministic positional recipe encoding ([`crate::encode`]) and
//! pushed through a small trainable dense head that regresses the
//! log-runtime of the synthesis stage at 1/2/4/8 vCPUs. Training
//! reuses the existing [`Trainer`] hyperparameters (epochs, Adam
//! learning rate, seed) and mirrors its seeded-shuffle semantics, so a
//! fit is bit-identical across runs and worker counts.

use crate::encode::{encode_recipe, ENCODING_DIM};
use crate::RecipeError;
use eda_cloud_flow::Pass;
use eda_cloud_gcn::{
    saturating_exp, Adam, DenseGrads, DenseLayer, GcnBuffers, GcnLayer, GraphSample,
    LayerScratch, Matrix, Trainer,
};
use eda_cloud_netlist::FEATURE_DIM;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Width of the pooled design embedding.
pub const EMBED_DIM: usize = 12;

/// Hidden width of the trainable dense head.
pub const HIDDEN_DIM: usize = 16;

/// One training sample: a design embedding, a recipe, and the
/// ground-truth log-runtimes of the synthesis stage.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridSample {
    /// Design name (bookkeeping only).
    pub design: String,
    /// Pooled design embedding ([`HybridPredictor::embed`]).
    pub embedding: Vec<f64>,
    /// The recipe's pass sequence.
    pub passes: Vec<Pass>,
    /// `ln(runtime_secs)` at 1/2/4/8 vCPUs.
    pub log_targets: [f64; 4],
}

/// The hybrid predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridPredictor {
    gcn1: GcnLayer,
    gcn2: GcnLayer,
    head1: DenseLayer,
    head2: DenseLayer,
}

impl HybridPredictor {
    /// Xavier-initialize all layers from one ChaCha8 stream. The two
    /// GCN layers are frozen after this — they act as a fixed, seeded
    /// graph projection shared by every recipe — so two predictors
    /// seeded alike embed designs bit-identically forever.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4C05_71A1);
        Self {
            gcn1: GcnLayer::new(FEATURE_DIM, EMBED_DIM, &mut rng),
            gcn2: GcnLayer::new(EMBED_DIM, EMBED_DIM, &mut rng),
            head1: DenseLayer::new(EMBED_DIM + ENCODING_DIM, HIDDEN_DIM, &mut rng),
            head2: DenseLayer::new(HIDDEN_DIM, 4, &mut rng),
        }
    }

    /// Mean-pooled design embedding from the frozen GCN stack.
    #[must_use]
    pub fn embed(&self, sample: &GraphSample) -> Vec<f64> {
        let (mut h1, mut h2) = (GcnBuffers::default(), GcnBuffers::default());
        let work = &mut LayerScratch::default();
        let a = &sample.a_norm;
        self.gcn1
            .forward_into(a, &sample.features, &mut h1, work)
            .and_then(|()| self.gcn2.forward_into(a, &h1.output, &mut h2, work))
            .unwrap_or_else(|e| panic!("{e}"));
        let n = h2.output.rows().max(1) as f64;
        let sums = h2.output.sum_rows();
        (0..EMBED_DIM).map(|c| sums.get(0, c) / n).collect()
    }

    /// Predicted `ln(runtime_secs)` at 1/2/4/8 vCPUs for a (design
    /// embedding, recipe) pair.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures ([`RecipeError::UnknownPass`],
    /// [`RecipeError::RecipeTooLong`]).
    pub fn predict_log(&self, embedding: &[f64], passes: &[Pass]) -> Result<[f64; 4], RecipeError> {
        let x = self.input_row(embedding, passes)?;
        let (mut h, mut y) = (Matrix::default(), Matrix::default());
        self.head1.forward_into(&x, &mut h);
        h.relu_in_place();
        self.head2.forward_into(&h, &mut y);
        Ok([y.get(0, 0), y.get(0, 1), y.get(0, 2), y.get(0, 3)])
    }

    /// Predicted runtimes in seconds (overflow-saturated exp of
    /// [`HybridPredictor::predict_log`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`HybridPredictor::predict_log`].
    pub fn predict_secs(&self, embedding: &[f64], passes: &[Pass]) -> Result<[f64; 4], RecipeError> {
        Ok(self.predict_log(embedding, passes)?.map(saturating_exp))
    }

    /// Fit the dense head on `samples` using the trainer's epochs,
    /// Adam learning rate, and seed (the GCN stack stays frozen).
    /// Returns the final epoch's mean squared error.
    ///
    /// Deterministic: sample order is shuffled with the trainer's
    /// seeded ChaCha8 stream (the same `seed ^ 0xE70C` derivation the
    /// GCN trainer uses) and updates are applied one sample at a time
    /// in that order.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures from malformed samples.
    pub fn fit(&mut self, samples: &[HybridSample], trainer: &Trainer) -> Result<f64, RecipeError> {
        if samples.is_empty() {
            return Ok(0.0);
        }
        let rows: Vec<Matrix> = samples
            .iter()
            .map(|s| self.input_row(&s.embedding, &s.passes))
            .collect::<Result<_, _>>()?;
        let mut rng = ChaCha8Rng::seed_from_u64(trainer.seed ^ 0xE70C);
        let mut adam_w1 = Adam::new(self.head1.w.rows(), self.head1.w.cols());
        let mut adam_b1 = Adam::new(1, HIDDEN_DIM);
        let mut adam_w2 = Adam::new(self.head2.w.rows(), self.head2.w.cols());
        let mut adam_b2 = Adam::new(1, 4);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut last_mse = 0.0;
        let (mut g1, mut g2, mut work) =
            (DenseGrads::default(), DenseGrads::default(), LayerScratch::default());
        let (mut h, mut y, mut dh) = (Matrix::default(), Matrix::default(), Matrix::default());
        let mut grad_y = Matrix::zeros(1, 4);
        for _ in 0..trainer.epochs {
            order.shuffle(&mut rng);
            let mut epoch_se = 0.0;
            for &i in &order {
                let x = &rows[i];
                self.head1.forward_into(x, &mut h);
                h.relu_in_place();
                self.head2.forward_into(&h, &mut y);
                for c in 0..4 {
                    let err = y.get(0, c) - samples[i].log_targets[c];
                    epoch_se += err * err;
                    grad_y.set(0, c, 2.0 * err / 4.0);
                }
                self.head2.backward_into(&h, &grad_y, &mut work, &mut g2, Some(&mut dh));
                dh.relu_mask(&h);
                // `head1` is fed by data: nobody reads its input gradient.
                self.head1.backward_into(x, &dh, &mut work, &mut g1, None);
                adam_w2.step(&mut self.head2.w, &g2.dw, trainer.lr);
                adam_b2.step(&mut self.head2.bias, &g2.dbias, trainer.lr);
                adam_w1.step(&mut self.head1.w, &g1.dw, trainer.lr);
                adam_b1.step(&mut self.head1.bias, &g1.dbias, trainer.lr);
            }
            last_mse = epoch_se / (samples.len() * 4) as f64;
        }
        Ok(last_mse)
    }

    /// Concatenate embedding and recipe encoding into a 1-row input.
    fn input_row(&self, embedding: &[f64], passes: &[Pass]) -> Result<Matrix, RecipeError> {
        let encoding = encode_recipe(passes)?;
        let mut data = Vec::with_capacity(EMBED_DIM + ENCODING_DIM);
        data.extend_from_slice(embedding);
        data.resize(EMBED_DIM, 0.0);
        data.extend_from_slice(&encoding);
        Ok(Matrix::from_vec(1, EMBED_DIM + ENCODING_DIM, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::DEFAULT_PASSES;
    use eda_cloud_netlist::{generators, DesignGraph};

    fn sample() -> GraphSample {
        let aig = generators::build_family("adder", 4).expect("family");
        GraphSample::new(&DesignGraph::from_aig(&aig), [1.0; 4])
    }

    #[test]
    fn seeding_is_deterministic() {
        let a = HybridPredictor::seeded(7);
        let b = HybridPredictor::seeded(7);
        assert_eq!(a, b);
        assert_ne!(a, HybridPredictor::seeded(8));
        let s = sample();
        assert_eq!(a.embed(&s), b.embed(&s));
    }

    #[test]
    fn fit_learns_a_constant_target() {
        let mut p = HybridPredictor::seeded(7);
        let s = sample();
        let emb = p.embed(&s);
        let samples = vec![HybridSample {
            design: "adder_4".into(),
            embedding: emb.clone(),
            passes: DEFAULT_PASSES.to_vec(),
            log_targets: [1.0, 0.5, 0.2, 0.1],
        }];
        let trainer = Trainer {
            epochs: 400,
            lr: 1e-2,
            ..Trainer::fast()
        };
        let mse = p.fit(&samples, &trainer).expect("fit");
        assert!(mse < 1e-3, "single sample should be memorized, mse={mse}");
        let pred = p.predict_log(&emb, &DEFAULT_PASSES).expect("predict");
        assert!((pred[0] - 1.0).abs() < 0.1);
    }

    #[test]
    fn fit_is_deterministic() {
        let s = sample();
        let trainer = Trainer {
            epochs: 20,
            ..Trainer::fast()
        };
        let run = || {
            let mut p = HybridPredictor::seeded(7);
            let emb = p.embed(&s);
            let samples: Vec<HybridSample> = crate::encode::candidate_recipes()
                .into_iter()
                .enumerate()
                .map(|(i, passes)| HybridSample {
                    design: format!("d{i}"),
                    embedding: emb.clone(),
                    passes,
                    log_targets: [i as f64 * 0.1, 0.0, -0.1, -0.2],
                })
                .collect();
            p.fit(&samples, &trainer).expect("fit");
            p
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_recipes_predict_differently() {
        let p = HybridPredictor::seeded(7);
        let s = sample();
        let emb = p.embed(&s);
        let a = p.predict_secs(&emb, &DEFAULT_PASSES).expect("predict");
        let b = p.predict_secs(&emb, &[Pass::Sweep]).expect("predict");
        assert_ne!(a, b, "the recipe encoding must reach the output");
        assert!(a.iter().all(|&v| v > 0.0));
    }
}
