//! Running samples for report statistics. (Histograms and the
//! fixed-precision float rendering are `eda-cloud-trace`'s.)

/// Running scalar samples; turned into mean/percentile statistics for
/// reports.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Record one observation.
    pub fn record(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Arithmetic mean; 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`); 0 when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        // Values equal under `total_cmp` have equal bits, so selecting
        // the rank yields the fully sorted sample's value.
        let mut values = self.values.clone();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        *values.select_nth_unstable_by(rank - 1, f64::total_cmp).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sort-based nearest-rank percentile `Samples::percentile`
    /// replaced: the oracle for its selection.
    fn sorted_percentile(values: &[f64], q: f64) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Up to 63 values: mostly a few repeated magnitudes (ties), with
    /// `NaN` of either sign, `±0.0` and `±inf` mixed in.
    fn samples() -> impl Strategy<Value = Vec<f64>> {
        proptest::strategy::from_fn(|rng| {
            let len = rng.below(64);
            (0..len)
                .map(|_| match rng.below(8) {
                    0 => [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY]
                        [rng.below(6) as usize],
                    1..=3 => (rng.below(5) as f64 - 2.0) * 0.5,
                    _ => (rng.unit_f64() - 0.5) * 1e4,
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn selected_percentile_equals_the_sorted_one_bit_for_bit(
            values in samples(),
            q in 0.0f64..=1.0,
        ) {
            let mut s = Samples::default();
            for &v in &values {
                s.record(v);
            }
            for q in [q, 0.0, 0.5, 0.95, 1.0] {
                prop_assert_eq!(
                    s.percentile(q).to_bits(),
                    sorted_percentile(&values, q).to_bits(),
                    "q {} over {:?}", q, values
                );
            }
        }
    }

    #[test]
    fn samples_statistics() {
        let mut s = Samples::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.95), 0.0);
        assert!(s.values.is_empty());
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.record(v);
        }
        assert_eq!(s.values.len(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.percentile(0.5), 2.0);
        assert_eq!(s.percentile(0.95), 4.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }
}
