//! Branch-predictor simulator.

/// A classic bimodal predictor: a table of 2-bit saturating counters
/// indexed by a hash of the branch "program counter" (any stable site
/// identifier works — the EDA kernels pass small per-site constants).
///
/// # Examples
///
/// ```
/// use eda_cloud_perf::BranchPredictor;
///
/// let mut bp = BranchPredictor::new(1024);
/// // A always-taken loop branch trains quickly.
/// let mut wrong = 0;
/// for _ in 0..100 {
///     if !bp.predict_and_update(0x10, true) {
///         wrong += 1;
///     }
/// }
/// assert!(wrong <= 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictor {
    /// 2-bit counters: 0,1 predict not-taken; 2,3 predict taken.
    table: Vec<u8>,
}

impl BranchPredictor {
    /// Create a predictor with `entries` counters (rounded up to a power
    /// of two, minimum 16). Counters start weakly not-taken.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        let n = entries.next_power_of_two().max(16);
        Self { table: vec![1u8; n] }
    }

    fn index(&self, pc: u64) -> usize {
        // Fibonacci hashing spreads consecutive site ids.
        let h = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 40) as usize & (self.table.len() - 1)
    }

    /// Predict the branch at `pc`, then update with the real `taken`
    /// outcome. Returns `true` if the prediction was correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let i = self.index(pc);
        let counter = &mut self.table[i];
        let predicted_taken = *counter >= 2;
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        predicted_taken == taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn biased_branches_predict_well() {
        let mut bp = BranchPredictor::new(256);
        // 90% taken
        let misses = (0..1000u64).filter(|i| !bp.predict_and_update(7, i % 10 != 0)).count();
        assert!(misses < 250, "misses={misses}");
    }

    #[test]
    fn random_branches_predict_poorly() {
        let mut bp = BranchPredictor::new(256);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let misses = (0..4000).filter(|_| !bp.predict_and_update(3, rng.gen_bool(0.5))).count();
        assert!(misses > 1400, "misses={misses}");
    }

    #[test]
    fn alternating_pattern_defeats_bimodal() {
        let mut bp = BranchPredictor::new(64);
        // A strict alternation oscillates the counter: high miss rate.
        let misses = (0..1000u64).filter(|i| !bp.predict_and_update(5, i % 2 == 0)).count();
        assert!(misses > 400, "misses={misses}");
    }

    #[test]
    fn distinct_sites_do_not_interfere_much() {
        let mut bp = BranchPredictor::new(4096);
        let mut misses = 0;
        for _ in 0..1000 {
            misses += u32::from(!bp.predict_and_update(100, true));
            misses += u32::from(!bp.predict_and_update(200, false));
        }
        assert!(misses < 100, "misses={misses}");
    }

    #[test]
    fn table_size_is_power_of_two() {
        let bp = BranchPredictor::new(100);
        assert_eq!(bp.table.len(), 128);
        let bp = BranchPredictor::new(0);
        assert_eq!(bp.table.len(), 16);
    }
}
