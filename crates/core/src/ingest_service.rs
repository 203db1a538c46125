//! External design ingestion: run user-supplied netlists through the
//! front door and serve a mixed predict/plan/ingest stream.
//!
//! This wires `eda-cloud-ingest` into the workflow: an
//! [`IngestScenario`] describes an open-loop request stream with an
//! upload mix-in rate, [`Workflow::ingest`] first pushes the caller's
//! upload corpus — the checked-in fixtures or a directory of designs —
//! through [`FrontDoor::ingest_doc`] (so every format — BLIF, structural
//! Verilog, Bookshelf — is exercised end to end and its
//! [`IngestReport`] lands in the run report), then plays the scenario's
//! stream through a [`Server`] with the front door mounted as its
//! [`eda_cloud_serve::Ingestor`]. Uploads that parse, validate, and
//! clear quotas are canonicalized, fingerprinted, OOD-scored, and
//! served; rejected uploads are quarantined with a typed reason.

use crate::{Workflow, WorkflowError, WorkflowPlanner};
use eda_cloud_ingest::{FrontDoor, FrontDoorConfig, IngestError, IngestReport};
use eda_cloud_serve::{
    design_pool, synthetic_requests_with_uploads, ModelSnapshot, RequestOutcome, ServeConfig,
    ServeReport, Server, UploadDoc, WorkloadConfig,
};
use std::fmt::Write as _;
use std::sync::Arc;

/// An ingestion workload description: everything needed to regenerate
/// the same upload-bearing request stream and report from a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestScenario {
    /// Number of requests in the stream.
    pub requests: usize,
    /// Mean arrival rate, requests per second (Poisson process).
    pub rate_per_sec: f64,
    /// Seed driving arrivals, design choice, deadlines, kinds, and
    /// upload draws.
    pub seed: u64,
    /// Stage-model fan-out threads (0 = available parallelism, capped
    /// at 4). Any value produces the identical report.
    pub workers: usize,
    /// Every `ingest_every`-th non-plan draw (in expectation) becomes
    /// an upload of one of the corpus documents. 0 disables uploads.
    pub ingest_every: u64,
}

impl IngestScenario {
    /// A `requests`-request scenario at the default 200 req/s with an
    /// expected 1-in-3 upload mix and automatic stage fan-out.
    #[must_use]
    pub fn new(requests: usize, seed: u64) -> Self {
        Self { requests, rate_per_sec: 200.0, seed, workers: 0, ingest_every: 3 }
    }

    /// The serve-crate workload parameters this scenario expands to.
    #[must_use]
    pub fn workload_config(&self) -> WorkloadConfig {
        WorkloadConfig {
            requests: self.requests,
            rate_per_sec: self.rate_per_sec,
            seed: self.seed,
            ingest_every: self.ingest_every,
            ..WorkloadConfig::default()
        }
    }
}

/// The byte-stable result of one ingestion run: the per-upload front
/// door reports followed by the serve-tier report for the mixed
/// stream. Identical scenarios and corpora produce identical
/// [`IngestRunReport::to_json`] bytes at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRunReport {
    /// The scenario seed.
    pub seed: u64,
    /// One report per upload the front door accepted, in corpus order.
    pub fixtures: Vec<IngestReport>,
    /// `(name, reason)` of each upload the front door turned away before
    /// the stream started (none for the checked-in fixtures). They stay
    /// in the stream's draw, where they come back quarantined; the
    /// rendered report carries them in the serve counters only.
    pub rejected: Vec<(String, IngestError)>,
    /// The serving report for the upload-bearing stream.
    pub serve: ServeReport,
}

impl IngestRunReport {
    /// Render as a single JSON object with a fixed key order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\"seed\":{},\"fixtures\":[", self.seed);
        for (i, report) in self.fixtures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&report.to_json());
        }
        let _ = write!(s, "],\"serve\":{}}}", self.serve.to_json());
        s
    }
}

impl Workflow {
    /// Ingest `uploads` (the checked-in `fixtures::uploads()` or a
    /// caller's own corpus) and serve the scenario's mixed stream over
    /// them against `snapshot` with the front door mounted as the
    /// server's ingestor: the end-to-end upload → validate →
    /// canonicalize → OOD-score → serve pipeline.
    ///
    /// Same scenario, corpus and snapshot, same report — byte-identical
    /// [`IngestRunReport::to_json`] output across runs and worker
    /// counts. Ingestion counters are folded into the workflow's
    /// metrics under `ingest.*`.
    ///
    /// # Errors
    ///
    /// Surfaces planner failures as [`WorkflowError::Serve`]. An upload
    /// the front door rejects is not an error: it is listed in
    /// [`IngestRunReport::rejected`] and quarantined when the stream
    /// draws it.
    ///
    /// # Examples
    ///
    /// ```
    /// use eda_cloud_core::{IngestScenario, Workflow};
    /// use eda_cloud_gcn::ModelConfig;
    /// use eda_cloud_ingest::fixtures;
    /// use eda_cloud_serve::ModelSnapshot;
    ///
    /// let workflow = Workflow::with_defaults();
    /// let snapshot = ModelSnapshot::seeded(&ModelConfig::fast(), 7);
    /// let (report, outcomes) =
    ///     workflow.ingest(&IngestScenario::new(8, 7), &snapshot, &fixtures::uploads())?;
    /// assert_eq!(outcomes.len(), 8);
    /// assert_eq!(report.fixtures.len(), 5);
    /// assert!(report.rejected.is_empty());
    /// # Ok::<(), eda_cloud_core::WorkflowError>(())
    /// ```
    pub fn ingest(
        &self,
        scenario: &IngestScenario,
        snapshot: &ModelSnapshot,
        uploads: &[Arc<UploadDoc>],
    ) -> Result<(IngestRunReport, Vec<RequestOutcome>), WorkflowError> {
        let front_door = FrontDoor::with_pool_profile(FrontDoorConfig::default());
        let mut fixtures = Vec::with_capacity(uploads.len());
        let mut rejected = Vec::new();
        for doc in uploads {
            match front_door.ingest_doc(doc) {
                Ok((report, _design)) => fixtures.push(report),
                Err(reason) => rejected.push((doc.name.clone(), reason)),
            }
        }
        let requests =
            synthetic_requests_with_uploads(&design_pool(), uploads, &scenario.workload_config());
        let config = ServeConfig { workers: scenario.workers, ..ServeConfig::default() };
        let server =
            Server::new(snapshot.clone(), Box::new(WorkflowPlanner::new(self.clone())), config)
                .with_ingestor(Box::new(front_door))
                .with_tracer(self.tracer().clone());
        let (serve, outcomes) = server.run(scenario.seed, &requests)?;
        let m = self.metrics();
        m.add("ingest.fixtures", fixtures.len() as u64);
        m.add("ingest.accepted", serve.counters.ingest_accepted);
        m.add("ingest.rejected", serve.counters.ingest_rejected);
        m.add("ingest.ood_flagged", serve.counters.ood_flagged);
        let report = IngestRunReport { seed: scenario.seed, fixtures, rejected, serve };
        Ok((report, outcomes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_gcn::ModelConfig;
    use eda_cloud_ingest::fixtures;
    use eda_cloud_serve::RequestKind;

    fn seeded_snapshot(seed: u64) -> ModelSnapshot {
        ModelSnapshot::seeded(&ModelConfig::fast(), seed)
    }

    #[test]
    fn ingest_is_deterministic_and_worker_invariant() {
        let wf = Workflow::with_defaults();
        let snapshot = seeded_snapshot(7);
        let mut scenario = IngestScenario::new(24, 7);
        scenario.workers = 1;
        let (base, base_outcomes) =
            wf.ingest(&scenario, &snapshot, &fixtures::uploads()).expect("ingests");
        assert_eq!(base.serve.counters.requests, 24);
        assert_eq!(base.fixtures.len(), 5);
        for workers in [2usize, 8] {
            scenario.workers = workers;
            let (report, outcomes) =
                wf.ingest(&scenario, &snapshot, &fixtures::uploads()).expect("ingests");
            assert_eq!(report.to_json(), base.to_json(), "workers {workers}");
            assert_eq!(outcomes, base_outcomes, "workers {workers}");
        }
    }

    #[test]
    fn uploads_flow_through_the_server() {
        let wf = Workflow::with_defaults();
        let mut scenario = IngestScenario::new(48, 11);
        scenario.ingest_every = 2;
        let uploads = fixtures::uploads();
        let requests =
            synthetic_requests_with_uploads(&design_pool(), &uploads, &scenario.workload_config());
        assert_eq!(requests.len(), 48);
        let ingests = requests.iter().filter(|r| r.kind == RequestKind::Ingest).count();
        assert!(ingests > 0, "a 1-in-2 mix over 48 requests draws uploads");
        let (report, outcomes) =
            wf.ingest(&scenario, &seeded_snapshot(11), &uploads).expect("ingests");
        let c = &report.serve.counters;
        assert_eq!(
            c.ingest_accepted + c.ingest_rejected,
            ingests as u64,
            "every upload is resolved one way or the other"
        );
        assert!(c.ingest_accepted > 0, "fixture uploads are well-formed");
        assert_eq!(c.ingest_rejected, 0, "fixtures never quarantine");
        assert_eq!(outcomes.len(), 48);
    }

    #[test]
    fn a_rejected_upload_is_listed_not_an_error() {
        let mut uploads = fixtures::uploads();
        let torn = UploadDoc::new("torn", "blif", ".model torn\n.inputs a\n.names a y\n1 ");
        uploads.insert(1, Arc::new(torn));
        let (report, outcomes) = Workflow::with_defaults()
            .ingest(&IngestScenario::new(16, 3), &seeded_snapshot(3), &uploads)
            .expect("a bad upload does not fail the run");
        assert_eq!(outcomes.len(), 16);
        assert_eq!(report.fixtures.len(), 5, "the five fixtures are still reported, in order");
        let [(name, reason)] = &report.rejected[..] else { panic!("{:?}", report.rejected) };
        assert_eq!(name, "torn");
        assert!(matches!(reason, IngestError::Parse { line: 4, .. }), "{reason}");
    }

    #[test]
    fn run_report_json_is_stable_and_well_shaped() {
        let wf = Workflow::with_defaults();
        let scenario = IngestScenario::new(12, 3);
        let snapshot = seeded_snapshot(3);
        let (report, _) = wf.ingest(&scenario, &snapshot, &fixtures::uploads()).expect("ingests");
        let json = report.to_json();
        assert!(json.starts_with("{\"seed\":3,\"fixtures\":[{\"name\":\"c17\""), "{json}");
        assert!(json.contains("\"serve\":{\"seed\":3,"), "{json}");
        assert!(json.ends_with('}'), "{json}");
        let (again, _) = wf.ingest(&scenario, &snapshot, &fixtures::uploads()).expect("ingests");
        assert_eq!(again.to_json(), json, "byte-stable across runs");
    }

    #[test]
    fn fixture_reports_cover_every_format() {
        let wf = Workflow::with_defaults();
        let (report, _) = wf
            .ingest(&IngestScenario::new(4, 9), &seeded_snapshot(9), &fixtures::uploads())
            .expect("ingests");
        let formats: Vec<&str> = report.fixtures.iter().map(|r| r.format.as_str()).collect();
        assert!(formats.contains(&"blif"));
        assert!(formats.contains(&"verilog"));
        assert!(formats.contains(&"bookshelf"));
        for r in &report.fixtures {
            assert!(r.nodes > 0, "{}", r.name);
            assert!(r.fingerprint != 0, "{}", r.name);
        }
    }

    #[test]
    fn ingest_counters_fold_into_workflow_metrics() {
        let wf = Workflow::with_defaults().with_metrics(eda_cloud_trace::Metrics::new());
        let mut scenario = IngestScenario::new(20, 5);
        scenario.ingest_every = 2;
        let (report, _) =
            wf.ingest(&scenario, &seeded_snapshot(5), &fixtures::uploads()).expect("ingests");
        assert_eq!(wf.metrics().counter("ingest.fixtures"), 5);
        assert_eq!(
            wf.metrics().counter("ingest.accepted"),
            report.serve.counters.ingest_accepted
        );
        assert_eq!(
            wf.metrics().counter("ingest.ood_flagged"),
            report.serve.counters.ood_flagged
        );
    }

    #[test]
    fn scenario_expands_to_the_serve_workload_config() {
        let scenario = IngestScenario::new(16, 21);
        let config = scenario.workload_config();
        assert_eq!(config.requests, 16);
        assert_eq!(config.seed, 21);
        assert_eq!(config.ingest_every, 3, "default mix is 1-in-3");
        assert_eq!(config.plan_every, WorkloadConfig::default().plan_every);
        let quiet = IngestScenario { ingest_every: 0, ..scenario };
        assert_eq!(quiet.workload_config().ingest_every, 0);
    }
}
