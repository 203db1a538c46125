//! Hierarchical spans on a logical clock, with canonical merge.
//!
//! A span's identity is its **ordinal key**: the root ordinal followed
//! by one child ordinal per nesting level. Instrumented code assigns
//! root ordinals from canonical data (a sweep's job index, a fleet
//! job's id), and child ordinals are allocated in creation order under
//! the parent — which is serial per parent, because a span describes
//! one logical unit of work executing on one thread at a time. The key
//! is therefore a pure function of the work, never of scheduling, and
//! sorting the completed span records by `(key, path)` yields the same
//! byte sequence at any worker count.

use crate::json::escape;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One completed span, as merged into a [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Logical-clock key: root ordinal, then one child ordinal per
    /// nesting level. `key.len()` is the span's depth + 1.
    pub key: Vec<u64>,
    /// Slash-joined label path, e.g. `"job/0003/routing/iter/2"`.
    pub path: String,
    /// Key/value attributes in insertion order.
    pub attrs: Vec<(String, String)>,
    /// Named counters (accumulated over the span's lifetime), sorted by
    /// name.
    pub counters: BTreeMap<String, u64>,
}

struct TracerCore {
    records: Mutex<Vec<SpanRecord>>,
    /// Next root ordinal for [`Tracer::root`]; advanced past any
    /// explicit [`Tracer::root_at`] ordinal so the two allocation modes
    /// never collide.
    roots: AtomicU64,
}

/// Handle to a trace in progress. Cheap to clone (one `Arc`); a
/// disabled tracer makes every span operation a single branch.
#[derive(Clone)]
pub struct Tracer {
    core: Option<Arc<TracerCore>>,
}

impl Tracer {
    /// An enabled tracer with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            core: Some(Arc::new(TracerCore {
                records: Mutex::new(Vec::new()),
                roots: AtomicU64::new(0),
            })),
        }
    }

    /// A tracer that records nothing; all spans derived from it are
    /// no-ops.
    #[must_use]
    pub fn disabled() -> Self {
        Self { core: None }
    }

    /// Whether spans created from this tracer record anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Open a root span with the next sequential ordinal. Deterministic
    /// when roots are opened from a single thread (e.g. the fleet
    /// simulator's event loop).
    #[must_use]
    pub fn root(&self, label: &str) -> Span {
        let Some(core) = &self.core else { return Span { core: None } };
        let ordinal = core.roots.fetch_add(1, Ordering::Relaxed);
        Span::open(core.clone(), vec![ordinal], label.to_owned())
    }

    /// Open a root span at an explicit ordinal — the canonical choice
    /// for parallel fan-outs, where the job index (not the scheduling
    /// order) must determine span identity. Sequential ordinals handed
    /// out by [`Tracer::root`] afterwards continue past the maximum
    /// explicit ordinal seen, so the two modes never collide.
    #[must_use]
    pub fn root_at(&self, ordinal: u64, label: &str) -> Span {
        let Some(core) = &self.core else { return Span { core: None } };
        core.roots.fetch_max(ordinal.saturating_add(1), Ordering::Relaxed);
        Span::open(core.clone(), vec![ordinal], label.to_owned())
    }

    /// Adopt every record of an already-drained trace under a new
    /// root: `ordinal` is prepended to each record's key and `prefix`
    /// to each path. Lets a harness that runs phases on private
    /// tracers fold their spans into a caller's tracer without key
    /// collisions between phases; the adopted records keep their
    /// relative canonical order, and a later [`Tracer::drain`] re-sorts
    /// globally. No-op on a disabled tracer.
    pub fn adopt(&self, ordinal: u64, prefix: &str, trace: Trace) {
        let Some(core) = &self.core else { return };
        let mut buf = core.records.lock().expect("trace buffer");
        for mut r in trace.records {
            r.key.insert(0, ordinal);
            r.path = format!("{prefix}/{}", r.path);
            buf.push(r);
        }
    }

    /// Take every completed span recorded so far and merge it in
    /// canonical `(key, path)` order. Call after the instrumented work
    /// has finished (open spans record on drop).
    #[must_use]
    pub fn drain(&self) -> Trace {
        let mut records = match &self.core {
            Some(core) => std::mem::take(&mut *core.records.lock().expect("trace buffer")),
            None => Vec::new(),
        };
        records.sort_by(|a, b| a.key.cmp(&b.key).then_with(|| a.path.cmp(&b.path)));
        Trace { records }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.is_enabled()).finish()
    }
}

struct SpanCore {
    tracer: Arc<TracerCore>,
    key: Vec<u64>,
    path: String,
    children: AtomicU64,
    data: Mutex<SpanData>,
}

#[derive(Default)]
struct SpanData {
    attrs: Vec<(String, String)>,
    counters: BTreeMap<String, u64>,
}

impl Drop for SpanCore {
    fn drop(&mut self) {
        let data = std::mem::take(self.data.get_mut().expect("span data"));
        let record = SpanRecord {
            key: std::mem::take(&mut self.key),
            path: std::mem::take(&mut self.path),
            attrs: data.attrs,
            counters: data.counters,
        };
        self.tracer.records.lock().expect("trace buffer").push(record);
    }
}

/// A span in progress. Clones share the same record; the record is
/// pushed to the tracer when the last clone drops.
#[derive(Clone)]
pub struct Span {
    core: Option<Arc<SpanCore>>,
}

impl Span {
    /// A span that records nothing (the default for execution contexts
    /// without tracing).
    #[must_use]
    pub fn disabled() -> Self {
        Self { core: None }
    }

    /// Whether this span records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    fn open(tracer: Arc<TracerCore>, key: Vec<u64>, path: String) -> Self {
        Self {
            core: Some(Arc::new(SpanCore {
                tracer,
                key,
                path,
                children: AtomicU64::new(0),
                data: Mutex::new(SpanData::default()),
            })),
        }
    }

    /// Open a child span. The child's ordinal is the number of children
    /// opened under this span so far — deterministic, because one span
    /// describes one serial unit of work.
    #[must_use]
    pub fn child(&self, label: &str) -> Span {
        let Some(core) = &self.core else { return Span { core: None } };
        let ordinal = core.children.fetch_add(1, Ordering::Relaxed);
        let mut key = core.key.clone();
        key.push(ordinal);
        Span::open(core.tracer.clone(), key, format!("{}/{label}", core.path))
    }

    /// Add `delta` to a named counter on this span.
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(core) = &self.core {
            let mut data = core.data.lock().expect("span data");
            // The key is allocated once, when the counter first appears.
            match data.counters.get_mut(name) {
                Some(count) => *count += delta,
                None => {
                    data.counters.insert(name.to_owned(), delta);
                }
            }
        }
    }

    /// Record a key/value attribute on this span (insertion order is
    /// preserved in the export).
    pub fn attr(&self, name: &str, value: impl fmt::Display) {
        if let Some(core) = &self.core {
            let mut data = core.data.lock().expect("span data");
            data.attrs.push((name.to_owned(), value.to_string()));
        }
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.core {
            Some(core) => f.debug_struct("Span").field("path", &core.path).finish(),
            None => f.debug_struct("Span").field("path", &"<disabled>").finish(),
        }
    }
}

/// A drained trace: completed span records in canonical order, plus the
/// exporters.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    records: Vec<SpanRecord>,
}

impl Trace {
    /// The span records in canonical `(key, path)` order.
    #[must_use]
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Compact byte-stable JSON: one object per span in canonical
    /// order, keys in fixed order, counters sorted by name.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"version\":1,\"spans\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let key: Vec<String> = r.key.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                "{{\"key\":[{}],\"path\":\"{}\"",
                key.join(","),
                escape(&r.path)
            );
            if !r.attrs.is_empty() {
                out.push_str(",\"attrs\":{");
                for (j, (k, v)) in r.attrs.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
                }
                out.push('}');
            }
            if !r.counters.is_empty() {
                out.push_str(",\"counters\":{");
                for (j, (k, v)) in r.counters.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":{}", escape(k), v);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto, speedscope) export.
    ///
    /// The trace has no wall-clock data by design, so timestamps are
    /// synthetic: spans are laid out in canonical preorder, each span
    /// occupying one time unit plus the units of its subtree. The
    /// *shape* — which phases exist, how deep, how many iterations — is
    /// exactly the flamegraph one would read from a timed profile; the
    /// widths count spans, not seconds. Each root ordinal gets its own
    /// thread lane.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        // Preorder == canonical order (keys sort by prefix), so a
        // span's subtree is the contiguous run of records whose key
        // extends its own.
        const UNIT_US: usize = 1000;
        let n = self.records.len();
        let mut subtree = vec![1usize; n];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..n {
            while let Some(&top) = stack.last() {
                let tk = &self.records[top].key;
                let ck = &self.records[i].key;
                if ck.len() > tk.len() && ck[..tk.len()] == tk[..] {
                    break;
                }
                stack.pop();
            }
            for &ancestor in &stack {
                subtree[ancestor] += 1;
            }
            stack.push(i);
        }

        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = r.path.rsplit('/').next().unwrap_or(&r.path);
            let tid = r.key.first().copied().unwrap_or(0);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{tid},\"args\":{{\"path\":\"{}\"",
                escape(name),
                i * UNIT_US,
                subtree[i] * UNIT_US,
                escape(&r.path)
            );
            for (k, v) in &r.attrs {
                let _ = write!(out, ",\"{}\":\"{}\"", escape(k), escape(v));
            }
            for (k, v) in &r.counters {
                let _ = write!(out, ",\"{}\":{}", escape(k), v);
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adopt_namespaces_keys_and_paths() {
        let phase = Tracer::new();
        {
            let root = phase.root_at(3, "job/0003");
            root.attr("fault", "vm_stall");
        }
        let parent = Tracer::new();
        {
            let own = parent.root_at(9, "own");
            drop(own);
        }
        parent.adopt(1, "fleet", phase.drain());
        let trace = parent.drain();
        let keyed: Vec<(&[u64], &str)> =
            trace.records().iter().map(|r| (r.key.as_slice(), r.path.as_str())).collect();
        assert_eq!(keyed, vec![(&[1, 3][..], "fleet/job/0003"), (&[9][..], "own")]);
        assert_eq!(trace.records()[0].attrs, vec![("fault".into(), "vm_stall".into())]);
        // Adopting into a disabled tracer records nothing and does not
        // panic.
        Tracer::disabled().adopt(0, "x", Tracer::new().drain());
    }

    #[test]
    fn span_nesting_builds_paths_and_keys() {
        let tracer = Tracer::new();
        {
            let root = tracer.root_at(2, "job/0002");
            let stage = root.child("placement");
            let it0 = stage.child("iter/0");
            let it1 = stage.child("iter/1");
            it0.counter("moves", 5);
            it1.counter("moves", 7);
            it1.counter("moves", 1);
            root.attr("deadline", 100);
        }
        let trace = tracer.drain();
        let paths: Vec<&str> = trace.records().iter().map(|r| r.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "job/0002",
                "job/0002/placement",
                "job/0002/placement/iter/0",
                "job/0002/placement/iter/1"
            ]
        );
        assert_eq!(trace.records()[0].key, vec![2]);
        assert_eq!(trace.records()[3].key, vec![2, 0, 1]);
        assert_eq!(trace.records()[3].counters["moves"], 8);
        assert_eq!(trace.records()[0].attrs, vec![("deadline".to_owned(), "100".to_owned())]);
    }

    #[test]
    fn canonical_merge_is_scheduling_independent() {
        // Open roots from racing threads in arbitrary order; the drained
        // trace must come out identical to a serial build.
        let build = |threads: bool| -> String {
            let tracer = Tracer::new();
            if threads {
                std::thread::scope(|s| {
                    for i in (0..16u64).rev() {
                        let tracer = &tracer;
                        s.spawn(move || {
                            let root = tracer.root_at(i, &format!("job/{i:04}"));
                            let child = root.child("work");
                            child.counter("items", i);
                        });
                    }
                });
            } else {
                for i in 0..16u64 {
                    let root = tracer.root_at(i, &format!("job/{i:04}"));
                    let child = root.child("work");
                    child.counter("items", i);
                }
            }
            tracer.drain().to_json()
        };
        let serial = build(false);
        for _ in 0..4 {
            assert_eq!(build(true), serial);
        }
    }

    #[test]
    fn sequential_roots_continue_past_explicit_ordinals() {
        let tracer = Tracer::new();
        {
            let _a = tracer.root_at(5, "explicit");
            let _b = tracer.root("sequential");
        }
        let trace = tracer.drain();
        assert_eq!(trace.records()[0].key, vec![5]);
        assert_eq!(trace.records()[1].key, vec![6]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let root = tracer.root("ignored");
        let child = root.child("ignored");
        child.counter("x", 1);
        child.attr("k", "v");
        assert!(!child.is_enabled());
        assert!(tracer.drain().records().is_empty());
        assert!(Span::disabled().child("x").core.is_none());
    }

    #[test]
    fn drain_takes_ownership() {
        let tracer = Tracer::new();
        drop(tracer.root("one"));
        assert_eq!(tracer.drain().records().len(), 1);
        assert!(tracer.drain().records().is_empty(), "second drain starts empty");
    }

    #[test]
    fn json_exports_are_stable_and_escaped() {
        let tracer = Tracer::new();
        {
            let root = tracer.root_at(0, "job");
            root.attr("note", "say \"hi\"\n");
            root.counter("n", 2);
            let _child = root.child("phase");
        }
        let trace = tracer.drain();
        let json = trace.to_json();
        assert_eq!(
            json,
            "{\"version\":1,\"spans\":[{\"key\":[0],\"path\":\"job\",\"attrs\":{\"note\":\"say \\\"hi\\\"\\n\"},\"counters\":{\"n\":2}},{\"key\":[0,0],\"path\":\"job/phase\"}]}"
        );
        let chrome = trace.to_chrome_json();
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"dur\":2000"), "root spans its child: {chrome}");
        assert!(chrome.contains("\"name\":\"phase\""));
    }

    #[test]
    fn chrome_subtree_durations_nest() {
        let tracer = Tracer::new();
        {
            let a = tracer.root_at(0, "a");
            let b = a.child("b");
            let _c = b.child("c");
            let _d = a.child("d");
            let _e = tracer.root_at(1, "e");
        }
        let trace = tracer.drain();
        let chrome = trace.to_chrome_json();
        // a covers b, c, d (4 units); b covers c (2 units); e is 1 unit.
        assert!(chrome.contains("\"name\":\"a\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":0,\"dur\":4000"));
        assert!(chrome.contains("\"name\":\"b\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":1000,\"dur\":2000"));
        assert!(chrome.contains("\"name\":\"e\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":4000,\"dur\":1000"));
    }
}
