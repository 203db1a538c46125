//! Operational metrics: counters, gauges, and fixed-bucket histograms.
//!
//! Metrics capture quantities that legitimately depend on wall-clock
//! and scheduling — sweep queue-wait, worker occupancy — and are
//! therefore kept out of the deterministic trace. The JSON rendering
//! itself is byte-stable (BTree key order, six-decimal floats), so a
//! metrics dump diffs cleanly; only the *values* may vary between runs.

use crate::json::{escape, fmt_f64};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Default histogram bucket edges (log-spaced), used when a histogram
/// is observed before being registered with explicit edges.
const DEFAULT_EDGES: [f64; 8] = [0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0];

/// A histogram over fixed, ascending bucket edges. A value lands in the
/// first bucket whose upper edge is `>=` the value; values beyond the
/// last edge — and NaN, which compares greater than nothing — land in
/// the overflow bucket, so `counts` has `edges.len() + 1` entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
}

impl Histogram {
    /// A histogram over the given edges. Non-finite edges are dropped
    /// and the rest sorted and deduplicated; an empty edge list falls
    /// back to the default log-spaced buckets (this constructor never
    /// panics — bad edges cannot take down an instrumented run).
    #[must_use]
    pub fn new(edges: Vec<f64>) -> Self {
        let mut edges: Vec<f64> = edges.into_iter().filter(|e| e.is_finite()).collect();
        edges.sort_by(f64::total_cmp);
        edges.dedup();
        if edges.is_empty() {
            edges = DEFAULT_EDGES.to_vec();
        }
        let counts = vec![0; edges.len() + 1];
        Self { edges, counts }
    }

    /// Record one observation.
    pub fn record(&mut self, value: f64) {
        let bucket = self
            .edges
            .iter()
            .position(|&e| value <= e)
            .unwrap_or(self.edges.len());
        self.counts[bucket] += 1;
    }

    /// Fold another histogram's counts into this one.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeMismatch`] (and leaves `self` untouched) if the two
    /// histograms have different edges — merging incompatible
    /// bucketings silently would corrupt every report built from it.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), EdgeMismatch> {
        if self.edges != other.edges {
            return Err(EdgeMismatch);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        Ok(())
    }

    /// Render as `{"edges":[...],"counts":[...]}` with the workspace's
    /// fixed float formatting ([`fmt_f64`]) — byte-stable, so other
    /// crates can embed histograms in their own deterministic JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let edges: Vec<String> = self.edges.iter().map(|e| fmt_f64(*e)).collect();
        let counts: Vec<String> = self.counts.iter().map(u64::to_string).collect();
        format!(
            "{{\"edges\":[{}],\"counts\":[{}]}}",
            edges.join(","),
            counts.join(",")
        )
    }
}

/// [`Histogram::merge`] was given a histogram over different edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeMismatch;

impl std::fmt::Display for EdgeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("merged histograms must share bucket edges")
    }
}

impl std::error::Error for EdgeMismatch {}

/// Request latencies folded for a report: every microsecond value is
/// kept, so the mean and the nearest-rank percentiles are exact, and
/// bucketed in milliseconds into the histogram the serve and lifecycle
/// reports embed.
#[derive(Debug, Clone)]
pub struct LatencyFold {
    us: Vec<u64>,
    hist_ms: Histogram,
}

impl LatencyFold {
    /// An empty fold with room for `n` latencies.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            us: Vec::with_capacity(n),
            hist_ms: Histogram::new(vec![
                1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
            ]),
        }
    }

    /// Record one latency, µs.
    pub fn record(&mut self, latency_us: u64) {
        self.us.push(latency_us);
        self.hist_ms.record(latency_us as f64 / 1_000.0);
    }

    /// Arithmetic mean, µs; 0 when empty. Truncated to an integer it
    /// equals `sum / n` in integer arithmetic for any sum below 2^53.
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.us.is_empty() {
            0.0
        } else {
            self.us.iter().sum::<u64>() as f64 / self.us.len() as f64
        }
    }

    /// Nearest-rank percentile, µs: the value at 1-based rank
    /// `ceil(pct · n / 100)` of the sorted latencies; 0 when empty.
    pub fn percentile_us(&mut self, pct: u64) -> u64 {
        if self.us.is_empty() {
            return 0;
        }
        self.us.sort_unstable();
        let n = self.us.len() as u64;
        let rank = (pct * n).div_ceil(100).clamp(1, n);
        self.us[rank as usize - 1]
    }

    /// The millisecond-bucketed histogram of everything recorded.
    #[must_use]
    pub fn into_histogram(self) -> Histogram {
        self.hist_ms
    }
}

#[derive(Default)]
struct MetricsInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A shared metrics registry. Cheap to clone (one `Arc`); a disabled
/// registry makes every recording call a single branch.
#[derive(Clone)]
pub struct Metrics {
    inner: Option<Arc<Mutex<MetricsInner>>>,
}

impl Metrics {
    /// An enabled, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self { inner: Some(Arc::new(Mutex::new(MetricsInner::default()))) }
    }

    /// A registry that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether recording calls do anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to a named counter.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut m = inner.lock().expect("metrics registry");
            *m.counters.entry(name.to_owned()).or_insert(0) += delta;
        }
    }

    /// Set a named gauge (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("metrics registry").gauges.insert(name.to_owned(), value);
        }
    }

    /// Record one observation into a named histogram, creating it with
    /// the default log-spaced edges on first use.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .expect("metrics registry")
                .histograms
                .entry(name.to_owned())
                .or_insert_with(|| Histogram::new(Vec::new()))
                .record(value);
        }
    }

    /// Current value of a counter (0 when absent or disabled).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner.lock().expect("metrics registry").counters.get(name).copied().unwrap_or(0)
        })
    }

    /// Byte-stable JSON dump: counters, gauges, then histograms, each
    /// sorted by name.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let Some(inner) = &self.inner else {
            return "{\"counters\":{},\"gauges\":{},\"histograms\":{}}".to_owned();
        };
        let m = inner.lock().expect("metrics registry");
        for (i, (k, v)) in m.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(k), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in m.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(k), fmt_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in m.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(k), h.to_json());
        }
        out.push_str("}}");
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::disabled()
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics").field("enabled", &self.is_enabled()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing_includes_edges_and_overflow() {
        let mut h = Histogram::new(vec![1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 1.5, 10.0, 99.9, 100.0, 100.1, f64::NAN] {
            h.record(v);
        }
        // <=1: {0.5, 1.0}; <=10: {1.5, 10.0}; <=100: {99.9, 100.0};
        // overflow: {100.1, NaN}.
        let counts = "\"counts\":[2,2,2,2]}";
        assert!(h.to_json().ends_with(counts), "{}", h.to_json());
    }

    #[test]
    fn histogram_sanitizes_edges_instead_of_panicking() {
        let h = Histogram::new(vec![10.0, f64::NAN, 1.0, 10.0]);
        assert_eq!(h, Histogram::new(vec![1.0, 10.0]));
        let d = Histogram::new(Vec::new());
        assert_eq!(d, Histogram::new(DEFAULT_EDGES.to_vec()));
    }

    #[test]
    fn histogram_merge_sums_counts_and_rejects_mismatched_edges() {
        let mut a = Histogram::new(vec![10.0]);
        let mut b = Histogram::new(vec![10.0]);
        a.record(5.0);
        b.record(5.0);
        b.record(50.0);
        assert_eq!(a.merge(&b), Ok(()));
        let merged = "{\"edges\":[10.000000],\"counts\":[2,1]}";
        assert_eq!(a.to_json(), merged);
        assert_eq!(a.merge(&Histogram::new(vec![20.0])), Err(EdgeMismatch));
        assert_eq!(a.to_json(), merged);
    }

    #[test]
    fn latency_fold_is_nearest_rank_with_an_exact_mean() {
        let mut fold = LatencyFold::with_capacity(0);
        assert_eq!((fold.mean_us(), fold.percentile_us(95)), (0.0, 0));
        // Recorded out of order; 20 values so 95 % lands on a whole rank.
        for v in (1..=20u64).rev() {
            fold.record(v * 1_000);
        }
        assert_eq!(fold.percentile_us(50), 10_000);
        assert_eq!(fold.percentile_us(95), 19_000, "rank ceil(0.95 * 20) = 19");
        assert_eq!(fold.percentile_us(0), 1_000, "rank clamps to 1");
        assert_eq!(fold.percentile_us(100), 20_000);
        assert_eq!(fold.mean_us(), 10_500.0);
        fold.record(3);
        assert_eq!(fold.mean_us() as u64, 210_003 / 21, "truncation is integer division");
        // 3 us and 1 ms land in the <= 1 ms bucket; 21 values in all.
        let counts = "\"counts\":[2,1,3,5,10,0,0,0,0,0,0]}";
        assert!(fold.into_histogram().to_json().ends_with(counts));
    }

    #[test]
    fn registry_round_trips_byte_stable_json() {
        let m = Metrics::new();
        m.add("jobs", 2);
        m.add("jobs", 3);
        m.set_gauge("occupancy", 0.75);
        assert_eq!(m.counter("jobs"), 5);
        assert_eq!(
            m.to_json(),
            "{\"counters\":{\"jobs\":5},\"gauges\":{\"occupancy\":0.750000},\"histograms\":{}}"
        );
    }

    #[test]
    fn disabled_registry_is_inert() {
        let m = Metrics::disabled();
        m.add("jobs", 1);
        m.observe("wait", 1.0);
        m.set_gauge("g", 1.0);
        assert_eq!(m.counter("jobs"), 0);
        assert_eq!(m.to_json(), "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
    }

    #[test]
    fn first_observation_creates_a_default_edged_histogram() {
        let m = Metrics::new();
        m.observe("adhoc", 5.0);
        assert!(m.to_json().contains("\"adhoc\""));
    }
}
