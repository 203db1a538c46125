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
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_statistics() {
        let mut s = Samples::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.95), 0.0);
        assert!(s.is_empty());
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.record(v);
        }
        assert_eq!(s.len(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.percentile(0.5), 2.0);
        assert_eq!(s.percentile(0.95), 4.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }
}
