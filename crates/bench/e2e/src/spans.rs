//! Host-time spans recorded from outside the crates under test.
//!
//! The traced round wraps each call into a layer in a span: name,
//! start, end, the span that caused it, and one id shared by every
//! span of the iteration. Spans stay in memory and are written out
//! once, when the round ends. A layer's *self* time is its span's
//! duration minus the part its children cover — that is how the
//! benchmark reports what a loop spent outside the layers it called.
//!
//! This is deliberately not `eda-cloud-trace`: that crate's spans are
//! keyed by a logical clock and carry no durations (by design — they
//! must be byte-identical across runs); these are wall-clock and
//! explicitly nondeterministic.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a span inside its [`SpanLog`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `flow.routing` or `serve.plan`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only, thread-safe span log with a fixed epoch. Cloning
/// shares the log, so a decorator mounted inside a server records into
/// the same log the harness reads afterwards.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the log")
    }

    /// Allocate a span named `name` under `parent` without timing
    /// anything yet, so objects that must exist *before* the timed call
    /// (a decorator boxed into a server) can already name it as their
    /// parent. Ids are handed out in reservation order.
    #[must_use]
    pub fn reserve(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
        });
        spans.len() - 1
    }

    /// Run `f` and stamp its start and end onto the reserved span `id`.
    pub fn fill<T>(&self, id: SpanId, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        spans[id].start_ns = start_ns;
        spans[id].end_ns = end_ns;
        out
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.reserve(name, parent);
        self.fill(id, f)
    }

    /// A copy of every span recorded so far, in id order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Total duration, in milliseconds, of every span called `name`.
#[must_use]
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    // `+ 0.0`: an empty float sum is -0.0, which would print as `-0`.
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum::<f64>()
        + 0.0
}

/// Durations, in microseconds and ascending, of every span called
/// `name` — the per-call samples behind the p50/p99 layer metrics.
#[must_use]
pub fn samples_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut out: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Self time of span `id` in milliseconds: its duration minus the time
/// its direct children cover (children never overlap each other here:
/// every in-situ child runs on the caller's thread).
#[must_use]
pub fn self_ms(spans: &[Span], id: SpanId) -> f64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id].duration_ns().saturating_sub(children) as f64 / 1e6
}

/// Render the spans of one traced iteration as a JSON document:
/// `{"workload":..,"iteration":..,"spans":[{"id","name","start_ns",
/// "end_ns","parent"},..]}`; `workload/iteration` is the id every span
/// of the round shares.
#[must_use]
pub fn to_json(workload: &str, iteration: u64, spans: &[Span]) -> String {
    let mut s = String::with_capacity(64 + spans.len() * 80);
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"iteration\":{iteration},\"spans\":["
    );
    for (id, span) in spans.iter().enumerate() {
        if id > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
            span.name, span.start_ns, span.end_ns
        );
        match span.parent {
            Some(p) => {
                let _ = write!(s, "{p}}}");
            }
            None => s.push_str("null}"),
        }
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn reserved_spans_nest_and_keep_reservation_order() {
        let log = SpanLog::new();
        let outer_id = log.reserve("outer", None);
        let inner_id = log.reserve("inner", Some(outer_id));
        log.fill(outer_id, || log.fill(inner_id, || ()));
        let spans = log.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!((outer_id, inner_id), (0, 1));
        assert_eq!(spans[inner_id].parent, Some(outer_id));
        assert!(spans[outer_id].start_ns <= spans[inner_id].start_ns);
        assert!(spans[inner_id].end_ns <= spans[outer_id].end_ns);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("run", 0, 10_000_000, None),
            span("plan", 1_000_000, 3_000_000, Some(0)),
            span("solve", 1_500_000, 2_500_000, Some(1)),
            span("plan", 5_000_000, 6_000_000, Some(0)),
        ];
        assert!((self_ms(&spans, 0) - 7.0).abs() < 1e-9);
        assert!((self_ms(&spans, 1) - 1.0).abs() < 1e-9);
        assert!((total_ms(&spans, "plan") - 3.0).abs() < 1e-9);
        assert_eq!(samples_us(&spans, "plan"), vec![1_000.0, 2_000.0]);
    }

    #[test]
    fn json_carries_the_shared_id_and_parents() {
        let spans = vec![span("run", 5, 9, None), span("plan", 6, 7, Some(0))];
        assert_eq!(
            to_json("serve_plan", 3, &spans),
            "{\"workload\":\"serve_plan\",\"iteration\":3,\"spans\":[\
             {\"id\":0,\"name\":\"run\",\"start_ns\":5,\"end_ns\":9,\"parent\":null},\
             {\"id\":1,\"name\":\"plan\",\"start_ns\":6,\"end_ns\":7,\"parent\":0}]}"
        );
    }
}
