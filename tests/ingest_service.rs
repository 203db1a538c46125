//! Ingestion integration tests: the front door's fixture corpus flows
//! through `Workflow::ingest` deterministically (byte-identical runs,
//! worker-count invariance), malformed uploads come back as typed
//! positioned errors, and the CI smoke scenario
//! (`ingest --requests 64 --seed 7 --json`) is pinned against a
//! checked-in golden report.
//!
//! Two properties matter more than any single parser feature, so they
//! run here in tier-1: a design written out as BLIF and as structural
//! Verilog ingests to the *same* canonical fingerprint whatever names it
//! carries, and arbitrarily mutated fixture bytes produce a typed
//! outcome, never a panic.

use eda_cloud::core::Workflow;
use eda_cloud::gcn::ModelConfig;
use eda_cloud::ingest::{fixtures, FrontDoor, FrontDoorConfig, IngestError};
use eda_cloud::netlist::formats::{write_blif, write_verilog};
use eda_cloud::serve::{
    IngestOutcome, Ingestor, ModelSnapshot, ServeConfig, UploadDoc, WorkloadConfig,
};
use eda_cloud::tech::Library;
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::OnceLock;
use upload_gen::{gate_soup, mutate};

mod common;
#[path = "common/upload_gen.rs"]
mod upload_gen;

/// The pool profile is expensive to build; share one door across cases.
fn door() -> &'static FrontDoor {
    static DOOR: OnceLock<FrontDoor> = OnceLock::new();
    DOOR.get_or_init(|| FrontDoor::with_pool_profile(FrontDoorConfig::default()))
}

fn seeded_snapshot(seed: u64) -> ModelSnapshot {
    ModelSnapshot::seeded(&ModelConfig::fast(), seed)
}

/// The `ingest` bin's stream shape: a 1-in-3 upload mix.
fn workload(requests: usize, seed: u64) -> WorkloadConfig {
    WorkloadConfig { requests, seed, ingest_every: 3, ..WorkloadConfig::default() }
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let workload = workload(32, 42);
    let snapshot = seeded_snapshot(42);
    let workflow = Workflow::with_defaults();
    let run = || {
        workflow
            .ingest(&workload, &snapshot, ServeConfig::default(), &fixtures::uploads())
            .expect("ingest run")
    };
    let ((a, a_out), (b, b_out)) = (run(), run());
    assert_eq!(a.to_json(), b.to_json(), "same seed must replay exactly");
    assert_eq!(a_out, b_out);
}

#[test]
fn worker_count_cannot_change_the_report() {
    let snapshot = seeded_snapshot(9);
    let workload = workload(24, 9);
    let workflow = Workflow::with_defaults();
    let run = |workers| {
        let config = ServeConfig { workers, ..ServeConfig::default() };
        workflow.ingest(&workload, &snapshot, config, &fixtures::uploads()).expect("ingest run")
    };
    let (serial, serial_out) = run(1);
    for workers in [2usize, 8] {
        let (parallel, parallel_out) = run(workers);
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "fingerprints and reports are worker-invariant ({workers} workers)"
        );
        assert_eq!(serial_out, parallel_out);
    }
}

#[test]
fn malformed_uploads_come_back_as_typed_positioned_errors() {
    let door = FrontDoor::with_pool_profile(FrontDoorConfig::default());
    let torn = UploadDoc::new("torn", "blif", ".model torn\n.inputs a\n.names a y\n1 ");
    match door.ingest_doc(&torn) {
        Err(IngestError::Parse { line, .. }) => assert!(line > 0, "positions are 1-based"),
        other => panic!("torn BLIF must fail to parse, got {other:?}"),
    }
    let alien = UploadDoc::new("alien", "edif", "(edif top)");
    assert!(matches!(
        door.ingest_doc(&alien),
        Err(IngestError::UnknownFormat { .. })
    ));
}

/// Twenty thousand ports are well inside the byte quota, and both parsers
/// used to resolve each one with a linear scan *before* the node quota
/// could refuse the design: seconds of server time per upload. The typed
/// outcomes are the old ones; only the time to reach them changed.
#[test]
fn a_wide_interface_is_refused_in_linear_time() {
    const PORTS: usize = 20_000;
    let list = |prefix: &str, sep: &str| {
        let mut names = String::new();
        for i in 0..PORTS {
            let _ = write!(names, "{}{prefix}{i}", if i == 0 { "" } else { sep });
        }
        names
    };
    let mut blif = format!(".model wide\n.inputs {}\n.outputs {}\n", list("a", " "), list("o", " "));
    for i in 0..PORTS {
        let _ = write!(blif, ".names a{i} o{i}\n1 1\n");
    }
    blif.push_str(".end\n");
    let quotas = FrontDoorConfig::default().quotas;
    assert!((blif.len() as u64) < quotas.max_bytes, "{} bytes", blif.len());
    match door().ingest_doc(&UploadDoc::new("wide", "blif", blif)) {
        Err(IngestError::Quota { what: "nodes", got: 60_000, limit }) => {
            assert_eq!(limit, quotas.max_nodes);
        }
        other => panic!("expected the node quota, got {other:?}"),
    }
    let verilog = format!(
        "module wide ({}, {});\n  input {};\n  output {};\nendmodule\n",
        list("a", ", "),
        list("o", ", "),
        list("a", ", "),
        list("o", ", "),
    );
    assert!((verilog.len() as u64) < quotas.max_bytes, "{} bytes", verilog.len());
    match door().ingest_doc(&UploadDoc::new("wide", "verilog", verilog)) {
        Err(IngestError::Validation { message }) => {
            assert_eq!(message, "net `o0` has no driver");
        }
        other => panic!("expected the undriven-net lint, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// write → parse → canonicalize fingerprints agree across BLIF and
    /// Verilog serializations of the same structure, and renaming the
    /// upload does not change its identity.
    #[test]
    fn round_trip_fingerprints_are_format_and_name_independent(seed in 0u64..500) {
        let lib = Library::synthetic_14nm();
        let nl = gate_soup(seed);
        nl.check().expect("soup is structurally valid");
        let as_blif = UploadDoc::new("via_blif", "blif", write_blif(&nl, &lib));
        let as_verilog = UploadDoc::new("via_verilog", "verilog", write_verilog(&nl, &lib));
        let (rb, db) = door().ingest_doc(&as_blif).expect("blif ingests");
        let (rv, dv) = door().ingest_doc(&as_verilog).expect("verilog ingests");
        prop_assert_eq!(db.fingerprint, dv.fingerprint, "seed {}", seed);
        prop_assert_eq!(rb.nodes, rv.nodes);
        prop_assert_eq!(rb.edges, rv.edges);
        prop_assert_eq!(rb.depth, rv.depth);
        prop_assert_eq!(rb.ood_distance_micros, rv.ood_distance_micros);
        // Same text under a different client name: same fingerprint.
        let renamed = UploadDoc::new("renamed", "blif", as_blif.text.clone());
        let (_, dr) = door().ingest_doc(&renamed).expect("renamed ingests");
        prop_assert_eq!(dr.fingerprint, db.fingerprint);
    }

    /// Ingestion of mutated fixture bytes returns a typed outcome and
    /// never panics; accepted mutants must still be deterministic.
    #[test]
    fn parsers_never_panic_on_mutated_fixtures(
        which in 0usize..5,
        choice in 0u8..5,
        pos in 0usize..4096,
        byte in 0u8..255,
    ) {
        let base = fixtures::uploads();
        let doc = &base[which];
        let mutant = UploadDoc::new(
            doc.name.clone(),
            doc.format.clone(),
            mutate(&doc.text, choice, pos, byte),
        );
        let first = door().ingest(&mutant);
        let second = door().ingest(&mutant);
        prop_assert_eq!(&first, &second, "outcomes are pure");
        if let IngestOutcome::Rejected { reason } = first {
            prop_assert!(!reason.is_empty());
        }
    }
}

/// Golden report for the CI smoke scenario
/// (`ingest --requests 64 --seed 7 --json`). The run is a pure
/// function of the workload, the fixture corpus, and the snapshot —
/// independent of worker count, build profile, and platform — so the
/// comparison is byte for byte. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test ingest_service` if a deliberate
/// engine or parser change shifts it.
#[test]
fn golden_report_for_seed_7() {
    let (report, _) = Workflow::with_defaults()
        .ingest(&workload(64, 7), &seeded_snapshot(7), ServeConfig::default(), &fixtures::uploads())
        .expect("ingest run");
    common::assert_golden(&report.to_json(), "golden/ingest_report.json");
}

/// Every accepted upload's report, fingerprint and served adjacency, at
/// the size the front door sees in service: `gate_soup` seeds 0..64
/// written as BLIF and as Verilog, plus the fixtures. One FNV-1a digest
/// over all of them pins the canonical order the graph is built in —
/// node numbering, edge order and features — not just the counts the
/// golden report carries.
#[test]
fn ingest_reports_are_bit_identical_at_scale() {
    let lib = Library::synthetic_14nm();
    let mut docs = fixtures::uploads();
    for seed in 0..64 {
        let nl = gate_soup(seed);
        let texts = [("blif", write_blif(&nl, &lib)), ("verilog", write_verilog(&nl, &lib))];
        for (format, text) in texts {
            docs.push(UploadDoc::new(format!("soup{seed}"), format, text).into());
        }
    }
    let mut bytes = Vec::new();
    for doc in &docs {
        let (report, design) = door()
            .ingest_doc(doc)
            .unwrap_or_else(|e| panic!("{} ({}) rejected: {e}", doc.name, doc.format));
        bytes.extend_from_slice(report.to_json().as_bytes());
        bytes.extend_from_slice(&design.fingerprint.to_le_bytes());
        for (row, col, w) in design.netlist.a_norm.entries() {
            bytes.extend_from_slice(&row.to_le_bytes());
            bytes.extend_from_slice(&col.to_le_bytes());
            bytes.extend_from_slice(&w.to_bits().to_le_bytes());
        }
    }
    assert_eq!(docs.len(), 5 + 128);
    assert_eq!(eda_cloud::trace::fnv1a64(&bytes), 0xda2b_457f_497d_1613, "ingest output moved");
}
