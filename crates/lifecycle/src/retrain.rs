//! Shadow retraining off the serving hot path.
//!
//! The retrainer fine-tunes a copy of the current snapshot on the
//! replay buffers — the serving snapshot is never touched; the result
//! is a *candidate* the rollout manager publishes as a canary. The
//! four stage models are independent, so they fan out over up to four
//! scoped threads and are joined back by stage index: the candidate is
//! byte-identical at every worker count.

use crate::ReplayBuffer;
use eda_cloud_gcn::GraphSample;
use eda_cloud_serve::ModelSnapshot;
use eda_cloud_trace::par;

/// Fine-tuning hyperparameters for one retrain cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrainer {
    /// Fine-tune epochs over each stage's buffer (0 = candidate is an
    /// unchanged copy of the base snapshot).
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Shuffle seed; each stage derives its own stream from it.
    pub seed: u64,
}

impl Retrainer {
    /// Fine-tune `base` on the four per-stage replay buffers, fanning
    /// the stages over up to `workers` threads (capped at 4). Returns
    /// the candidate snapshot and the per-stage sample counts it was
    /// tuned on. Results are joined by stage index and each stage
    /// trains from its buffer's canonical sample order, so the
    /// candidate is byte-identical across worker counts *and* across
    /// the arrival orders that produced the same replay window.
    #[must_use]
    pub fn retrain(
        &self,
        base: &ModelSnapshot,
        buffers: &[ReplayBuffer; 4],
        workers: usize,
    ) -> (ModelSnapshot, [usize; 4]) {
        let tune_stage = |k: usize| {
            let mut model = base.stage(k).clone();
            let samples: Vec<&GraphSample> = buffers[k].samples_canonical();
            model.fine_tune(
                &samples,
                self.epochs,
                self.learning_rate,
                self.seed ^ ((k as u64) << 8),
            );
            (model, samples.len())
        };
        let tuned = par::map_indexed(workers, (0..4).collect(), |_, k| tune_stage(k));
        let Ok([(s, sn), (p, pn), (r, rn), (t, tn)]) = <[_; 4]>::try_from(tuned) else {
            unreachable!("four stages in, four stages out");
        };
        (ModelSnapshot::new(s, p, r, t), [sn, pn, rn, tn])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_gcn::ModelConfig;
    use eda_cloud_serve::design_pool;

    fn buffers(capacity: usize) -> [ReplayBuffer; 4] {
        let pool = design_pool();
        let mut buffers =
            [ReplayBuffer::new(capacity), ReplayBuffer::new(capacity), ReplayBuffer::new(capacity), ReplayBuffer::new(capacity)];
        for (i, design) in pool.iter().take(6).enumerate() {
            let target = (i + 1) as f64 * 100.0;
            buffers[0].push(design.aig.with_targets([target; 4]));
            for b in buffers.iter_mut().skip(1) {
                b.push(design.netlist.with_targets([target * 0.5; 4]));
            }
        }
        buffers
    }

    #[test]
    fn candidate_is_worker_invariant_and_base_untouched() {
        let base = ModelSnapshot::seeded(&ModelConfig::fast(), 7);
        let base_text = base.to_text();
        let retrainer = Retrainer { epochs: 3, learning_rate: 3e-3, seed: 7 };
        let buffers = buffers(8);
        let (one, counts1) = retrainer.retrain(&base, &buffers, 1);
        assert_eq!(counts1, [6; 4]);
        assert_eq!(base.to_text(), base_text, "shadow retrain must not touch the base");
        assert_ne!(one.to_text(), base_text, "candidate must have moved");
        for workers in [2usize, 4, 8] {
            let (candidate, counts) = retrainer.retrain(&base, &buffers, workers);
            assert_eq!(candidate.to_text(), one.to_text(), "workers {workers}");
            assert_eq!(counts, counts1);
        }
    }

    #[test]
    fn zero_epochs_returns_an_identical_candidate() {
        let base = ModelSnapshot::seeded(&ModelConfig::fast(), 7);
        let retrainer = Retrainer { epochs: 0, learning_rate: 3e-3, seed: 7 };
        let (candidate, _) = retrainer.retrain(&base, &buffers(8), 2);
        assert_eq!(candidate.to_text(), base.to_text());
    }
}
