//! Timing decorators for the two ports `Server` calls out through.
//!
//! `Server::run` is one 300-line loop; the only seams an outside
//! observer gets are the traits it is handed. [`TimedPlanner`] and
//! [`TimedIngestor`] wrap the production implementations, forward every
//! call unchanged, and record one span per call — so plan and ingest
//! time are measured *in situ*, inside a real serving run, and the
//! inputs of every call are kept for replaying the layers underneath.
//! They are mounted in the traced round only; end-to-end numbers come
//! from runs on the bare production types.

use crate::spans::{SpanId, SpanLog};
use eda_cloud_serve::{IngestOutcome, Ingestor, PlanSummary, Planner, ServeError, UploadDoc};
use std::sync::{Arc, Mutex};

/// Span name of one in-situ `Planner::plan` call.
pub const PLAN_SPAN: &str = "serve.plan";
/// Span name of one in-situ `Ingestor::ingest` call.
pub const INGEST_SPAN: &str = "serve.ingest";

/// The inputs of one `Planner::plan` call, kept for replay.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCall {
    /// Per-stage predicted runtimes handed to the planner.
    pub stage_secs: [[f64; 4]; 4],
    /// Flow-runtime budget handed to the planner, seconds.
    pub budget_secs: u64,
}

/// A [`Planner`] that times every call of the planner it wraps.
pub struct TimedPlanner<P> {
    inner: P,
    log: SpanLog,
    parent: SpanId,
    calls: Arc<Mutex<Vec<PlanCall>>>,
}

impl<P: Planner> TimedPlanner<P> {
    /// Wrap `inner`; spans land in `log` under `parent` (the span of
    /// the `Server::run` call the planner is mounted in).
    pub fn new(inner: P, log: SpanLog, parent: SpanId) -> Self {
        Self {
            inner,
            log,
            parent,
            calls: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A handle onto the recorded call inputs that outlives the server
    /// the planner is boxed into.
    pub fn calls(&self) -> Arc<Mutex<Vec<PlanCall>>> {
        Arc::clone(&self.calls)
    }
}

impl<P: Planner> Planner for TimedPlanner<P> {
    fn plan(
        &self,
        stage_secs: &[[f64; 4]; 4],
        budget_secs: u64,
    ) -> Result<Option<PlanSummary>, ServeError> {
        let out = self.log.time(PLAN_SPAN, Some(self.parent), || {
            self.inner.plan(stage_secs, budget_secs)
        });
        self.calls
            .lock()
            .expect("plan-call log poisoned")
            .push(PlanCall {
                stage_secs: *stage_secs,
                budget_secs,
            });
        out
    }
}

/// An [`Ingestor`] that times every call of the ingestor it wraps.
pub struct TimedIngestor<I> {
    inner: I,
    log: SpanLog,
    parent: SpanId,
    fresh: Arc<Mutex<Vec<u64>>>,
}

impl<I: Ingestor> TimedIngestor<I> {
    /// Wrap `inner`; spans land in `log` under `parent`.
    pub fn new(inner: I, log: SpanLog, parent: SpanId) -> Self {
        Self {
            inner,
            log,
            parent,
            fresh: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A handle onto the content fingerprints of the documents
    /// ingested fresh (misses of the server's ingest cache), in call
    /// order — fingerprints, not copies, so recording stays cheap.
    pub fn fresh(&self) -> Arc<Mutex<Vec<u64>>> {
        Arc::clone(&self.fresh)
    }
}

impl<I: Ingestor> Ingestor for TimedIngestor<I> {
    fn ingest(&self, doc: &UploadDoc) -> IngestOutcome {
        let out = self
            .log
            .time(INGEST_SPAN, Some(self.parent), || self.inner.ingest(doc));
        self.fresh
            .lock()
            .expect("ingest-call log poisoned")
            .push(doc.fingerprint);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans;
    use eda_cloud_serve::CostTablePlanner;

    struct RejectAll;
    impl Ingestor for RejectAll {
        fn ingest(&self, _doc: &UploadDoc) -> IngestOutcome {
            IngestOutcome::Rejected {
                reason: "no".into(),
            }
        }
    }

    #[test]
    fn timed_planner_forwards_results_and_records_calls() {
        let log = SpanLog::new();
        let secs = [[100.0, 60.0, 40.0, 30.0]; 4];
        let bare = CostTablePlanner::aws_like();
        let root = log.reserve("run", None);
        let timed = TimedPlanner::new(bare.clone(), log.clone(), root);
        let calls = timed.calls();
        log.fill(root, || {
            for budget in [1_000, 10] {
                assert_eq!(
                    timed.plan(&secs, budget).expect("valid"),
                    bare.plan(&secs, budget).expect("valid")
                );
            }
        });
        let calls = calls.lock().expect("log");
        assert_eq!(calls.len(), 2);
        assert_eq!(
            calls[1],
            PlanCall {
                stage_secs: secs,
                budget_secs: 10
            }
        );
        let recorded = log.snapshot();
        assert_eq!(spans::samples_us(&recorded, PLAN_SPAN).len(), 2);
        assert!(recorded
            .iter()
            .filter(|s| s.name == PLAN_SPAN)
            .all(|s| s.parent == Some(root)));
    }

    #[test]
    fn timed_ingestor_forwards_outcomes_and_keeps_fingerprints() {
        let log = SpanLog::new();
        let root = log.reserve("run", None);
        let timed = TimedIngestor::new(RejectAll, log.clone(), root);
        let fresh = timed.fresh();
        let doc = UploadDoc::new("x", "blif", "junk");
        assert!(!log.fill(root, || timed.ingest(&doc)).is_accepted());
        assert_eq!(fresh.lock().expect("log").as_slice(), &[doc.fingerprint]);
        assert_eq!(spans::samples_us(&log.snapshot(), INGEST_SPAN).len(), 1);
    }
}
