//! Raw event counters and derived metrics.

use std::fmt;

/// A snapshot of simulated hardware event counters.
///
/// Mirrors the `perf stat` events the paper collects: instructions,
/// branches and mispredictions, cache references and misses (split per
/// level here), plus scalar and AVX floating-point operations.
///
/// # Examples
///
/// ```
/// use eda_cloud_perf::CounterSet;
///
/// let mut c = CounterSet::default();
/// c.branches = 100;
/// c.branch_misses = 7;
/// assert!((c.branch_miss_rate() - 0.07).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSet {
    /// Retired instructions (modeled; incremented by kernels).
    pub instructions: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Branches the simulated predictor got wrong.
    pub branch_misses: u64,
    /// Memory references that reached the cache hierarchy.
    pub cache_refs: u64,
    /// References that missed L1.
    pub l1_misses: u64,
    /// References that also missed the last-level cache.
    pub llc_misses: u64,
    /// Scalar floating-point operations.
    pub flops: u64,
    /// Floating-point operations executed on AVX vector hardware.
    pub avx_ops: u64,
}

impl CounterSet {
    /// Fraction of branches mispredicted (0 when no branches ran).
    #[must_use]
    pub fn branch_miss_rate(&self) -> f64 {
        ratio(self.branch_misses, self.branches)
    }

    /// Fraction of cache references that missed L1.
    #[must_use]
    pub fn cache_miss_rate(&self) -> f64 {
        ratio(self.l1_misses, self.cache_refs)
    }

    /// The metric `perf stat` prints as "cache misses": LLC misses over
    /// LLC references (references that already missed L1). This is the
    /// quantity plotted in the paper's Figure 2-b.
    #[must_use]
    pub fn perf_cache_miss_rate(&self) -> f64 {
        ratio(self.llc_misses, self.l1_misses)
    }

    /// Share of all floating-point work executed on AVX hardware.
    #[must_use]
    pub fn avx_share(&self) -> f64 {
        ratio(self.avx_ops, self.avx_ops + self.flops)
    }

    /// Share of instructions that are floating-point (scalar + AVX).
    #[must_use]
    pub fn fp_instruction_share(&self) -> f64 {
        ratio(self.avx_ops + self.flops, self.instructions)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instr={} br={} ({:.1}% miss) cache={} ({:.1}% miss) fp={} avx={}",
            self.instructions,
            self.branches,
            100.0 * self.branch_miss_rate(),
            self.cache_refs,
            100.0 * self.cache_miss_rate(),
            self.flops,
            self.avx_ops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_with_zero_denominator_are_zero() {
        let c = CounterSet::default();
        assert_eq!(c.branch_miss_rate(), 0.0);
        assert_eq!(c.cache_miss_rate(), 0.0);
        assert_eq!(c.avx_share(), 0.0);
        assert_eq!(c.fp_instruction_share(), 0.0);
    }

    #[test]
    fn avx_share_counts_both_kinds() {
        let c = CounterSet {
            flops: 25,
            avx_ops: 75,
            ..CounterSet::default()
        };
        assert!((c.avx_share() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_contains_percentages() {
        let c = CounterSet {
            branches: 100,
            branch_misses: 12,
            ..CounterSet::default()
        };
        assert!(c.to_string().contains("12.0% miss"));
    }
}
