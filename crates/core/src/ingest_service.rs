//! External design ingestion: run user-supplied netlists through the
//! front door and serve a mixed predict/plan/ingest stream.
//!
//! This wires `eda-cloud-ingest` into the workflow: [`Workflow::ingest`]
//! first pushes the caller's upload corpus — the checked-in fixtures or
//! a directory of designs — through [`FrontDoor::ingest_doc`] (so every
//! format — BLIF, structural Verilog, Bookshelf — is exercised end to
//! end and its [`IngestReport`] lands in the run report), then plays
//! the [`WorkloadConfig`]'s stream, with `ingest_every` mixing uploads
//! in, through a [`Server`] with the front door mounted as its
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

/// The byte-stable result of one ingestion run: the per-upload front
/// door reports followed by the serve-tier report for the mixed
/// stream. Identical workloads and corpora produce identical
/// [`IngestRunReport::to_json`] bytes at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRunReport {
    /// The workload seed.
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
    /// caller's own corpus) and serve the workload's mixed stream over
    /// them against `snapshot` with the front door mounted as the
    /// server's ingestor, under the caller's serving knobs: the
    /// end-to-end upload → validate → canonicalize → OOD-score → serve
    /// pipeline.
    ///
    /// Same workload, corpus and snapshot, same report — byte-identical
    /// [`IngestRunReport::to_json`] output across runs and
    /// `config.workers`. Ingestion counters are folded into the
    /// workflow's metrics under `ingest.*`.
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
    /// use eda_cloud_core::Workflow;
    /// use eda_cloud_gcn::ModelConfig;
    /// use eda_cloud_ingest::fixtures;
    /// use eda_cloud_serve::{ModelSnapshot, ServeConfig, WorkloadConfig};
    ///
    /// let workflow = Workflow::with_defaults();
    /// let snapshot = ModelSnapshot::seeded(&ModelConfig::fast(), 7);
    /// let workload =
    ///     WorkloadConfig { requests: 8, seed: 7, ingest_every: 3, ..WorkloadConfig::default() };
    /// let (report, outcomes) =
    ///     workflow.ingest(&workload, &snapshot, ServeConfig::default(), &fixtures::uploads())?;
    /// assert_eq!(outcomes.len(), 8);
    /// assert_eq!(report.fixtures.len(), 5);
    /// assert!(report.rejected.is_empty());
    /// # Ok::<(), eda_cloud_core::WorkflowError>(())
    /// ```
    pub fn ingest(
        &self,
        workload: &WorkloadConfig,
        snapshot: &ModelSnapshot,
        config: ServeConfig,
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
        let requests = synthetic_requests_with_uploads(&design_pool(), uploads, workload);
        let server =
            Server::new(snapshot.clone(), Box::new(WorkflowPlanner::new(self.clone())), config)
                .with_ingestor(Box::new(front_door))
                .with_tracer(self.tracer().clone());
        let (serve, outcomes) = server.run(workload.seed, &requests)?;
        let m = self.metrics();
        m.add("ingest.fixtures", fixtures.len() as u64);
        m.add("ingest.accepted", serve.counters.ingest_accepted);
        m.add("ingest.rejected", serve.counters.ingest_rejected);
        m.add("ingest.ood_flagged", serve.counters.ood_flagged);
        let report = IngestRunReport { seed: workload.seed, fixtures, rejected, serve };
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

    /// The `ingest` bin's stream shape: a 1-in-3 upload mix.
    fn workload(requests: usize, seed: u64) -> WorkloadConfig {
        WorkloadConfig { requests, seed, ingest_every: 3, ..WorkloadConfig::default() }
    }

    fn ingest(
        workload: &WorkloadConfig,
        snapshot: &ModelSnapshot,
        uploads: &[Arc<UploadDoc>],
    ) -> (IngestRunReport, Vec<RequestOutcome>) {
        Workflow::with_defaults()
            .ingest(workload, snapshot, ServeConfig::default(), uploads)
            .expect("ingests")
    }

    #[test]
    fn ingest_is_deterministic_and_worker_invariant() {
        let wf = Workflow::with_defaults();
        let snapshot = seeded_snapshot(7);
        let workload = workload(24, 7);
        let with_workers = |workers| ServeConfig { workers, ..ServeConfig::default() };
        let (base, base_outcomes) = wf
            .ingest(&workload, &snapshot, with_workers(1), &fixtures::uploads())
            .expect("ingests");
        assert_eq!(base.serve.counters.requests, 24);
        assert_eq!(base.fixtures.len(), 5);
        for workers in [2usize, 8] {
            let (report, outcomes) = wf
                .ingest(&workload, &snapshot, with_workers(workers), &fixtures::uploads())
                .expect("ingests");
            assert_eq!(report.to_json(), base.to_json(), "workers {workers}");
            assert_eq!(outcomes, base_outcomes, "workers {workers}");
        }
    }

    #[test]
    fn uploads_flow_through_the_server() {
        let workload = WorkloadConfig { ingest_every: 2, ..workload(48, 11) };
        let uploads = fixtures::uploads();
        let requests = synthetic_requests_with_uploads(&design_pool(), &uploads, &workload);
        assert_eq!(requests.len(), 48);
        let ingests = requests.iter().filter(|r| r.kind == RequestKind::Ingest).count();
        assert!(ingests > 0, "a 1-in-2 mix over 48 requests draws uploads");
        let (report, outcomes) = ingest(&workload, &seeded_snapshot(11), &uploads);
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
        let (report, outcomes) = ingest(&workload(16, 3), &seeded_snapshot(3), &uploads);
        assert_eq!(outcomes.len(), 16);
        assert_eq!(report.fixtures.len(), 5, "the five fixtures are still reported, in order");
        let [(name, reason)] = &report.rejected[..] else { panic!("{:?}", report.rejected) };
        assert_eq!(name, "torn");
        assert!(matches!(reason, IngestError::Parse { line: 4, .. }), "{reason}");
    }

    #[test]
    fn run_report_json_is_stable_and_well_shaped() {
        let workload = workload(12, 3);
        let snapshot = seeded_snapshot(3);
        let (report, _) = ingest(&workload, &snapshot, &fixtures::uploads());
        let json = report.to_json();
        assert!(json.starts_with("{\"seed\":3,\"fixtures\":[{\"name\":\"c17\""), "{json}");
        assert!(json.contains("\"serve\":{\"seed\":3,"), "{json}");
        assert!(json.ends_with('}'), "{json}");
        let (again, _) = ingest(&workload, &snapshot, &fixtures::uploads());
        assert_eq!(again.to_json(), json, "byte-stable across runs");
    }

    #[test]
    fn fixture_reports_cover_every_format() {
        let (report, _) = ingest(&workload(4, 9), &seeded_snapshot(9), &fixtures::uploads());
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
        let workload = WorkloadConfig { ingest_every: 2, ..workload(20, 5) };
        let (report, _) = wf
            .ingest(&workload, &seeded_snapshot(5), ServeConfig::default(), &fixtures::uploads())
            .expect("ingests");
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
}
