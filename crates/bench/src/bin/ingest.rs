//! Pushes external netlists through the validating ingestion front
//! door and serves an upload-bearing request stream: BLIF, structural
//! Verilog, and Bookshelf parsers, combinational-loop and arity
//! validation, deterministic canonical fingerprinting, quota
//! enforcement, OOD gating against the training-corpus profile, and
//! quarantine of malformed uploads.
//!
//! ```text
//! cargo run -p eda-cloud-bench --bin ingest --release -- --requests 64 --seed 7
//! cargo run -p eda-cloud-bench --bin ingest --release -- --requests 64 --seed 7 --json
//! cargo run -p eda-cloud-bench --bin ingest --release -- --dir my_designs --requests 128
//! cargo run -p eda-cloud-bench --bin ingest --release -- --requests 64 --workers 4 --every 2
//! ```
//!
//! Without `--dir` the run ingests the checked-in fixture corpus.
//! With `--dir` every `*.blif`, `*.v`, and Bookshelf triple
//! (`*.nodes`/`*.nets`/`*.pl`, grouped by file stem) in the directory
//! is ingested instead. The run is deterministic: the same
//! `--requests/--seed/--rate/--every` and upload set produce a
//! byte-identical `--json` line at any `--workers` count (a bare run
//! uses one worker, the faster configuration here).

use eda_cloud_bench::{or_exit, Args, Observability};
use eda_cloud_core::report::{pct, render_table};
use eda_cloud_core::{IngestScenario, Workflow};
use eda_cloud_gcn::ModelConfig;
use eda_cloud_ingest::fixtures;
use eda_cloud_serve::{ModelSnapshot, UploadDoc};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Load every ingestible file under `dir`: `*.blif` and `*.v` become
/// single uploads; `*.nodes`/`*.nets`/`*.pl` triples are grouped by
/// stem and stitched into one Bookshelf upload. Deterministic order
/// (sorted by name), unknown extensions skipped with a note.
fn load_dir(dir: &Path) -> Vec<Arc<UploadDoc>> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", p.display()))
    };
    let mut docs: BTreeMap<String, (String, String)> = BTreeMap::new();
    let mut shelves: BTreeMap<String, [Option<String>; 3]> = BTreeMap::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read --dir {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    paths.sort();
    for path in paths {
        let (Some(stem), Some(ext)) = (
            path.file_stem().and_then(|s| s.to_str()),
            path.extension().and_then(|s| s.to_str()),
        ) else {
            continue;
        };
        match ext {
            "blif" => {
                docs.insert(stem.to_owned(), ("blif".to_owned(), read(&path)));
            }
            "v" | "verilog" => {
                docs.insert(stem.to_owned(), ("verilog".to_owned(), read(&path)));
            }
            "nodes" => shelves.entry(stem.to_owned()).or_default()[0] = Some(read(&path)),
            "nets" => shelves.entry(stem.to_owned()).or_default()[1] = Some(read(&path)),
            "pl" => shelves.entry(stem.to_owned()).or_default()[2] = Some(read(&path)),
            _ => eprintln!("skipping {} (unknown extension)", path.display()),
        }
    }
    for (stem, [nodes, nets, pl]) in shelves {
        match (nodes, nets) {
            (Some(nodes), Some(nets)) => {
                let text = fixtures::stitch_bookshelf(&nodes, &nets, pl.as_deref());
                docs.insert(stem, ("bookshelf".to_owned(), text));
            }
            _ => eprintln!("skipping bookshelf group `{stem}` (need both .nodes and .nets)"),
        }
    }
    docs.into_iter()
        .map(|(name, (format, text))| Arc::new(UploadDoc::new(name, format, text)))
        .collect()
}

fn main() {
    let args = Args::from_env();
    let mut scenario = IngestScenario::new(args.numeric("requests", 64), args.numeric("seed", 7));
    scenario.rate_per_sec = args.numeric("rate", 200.0);
    scenario.ingest_every = args.numeric("every", 3);
    scenario.workers = args.workers(1);
    let uploads = args
        .value("dir")
        .map_or_else(fixtures::uploads, |d| load_dir(Path::new(d)));
    assert!(!uploads.is_empty(), "no ingestible files found");

    let obs = Observability::from_args(&args);
    let json = args.flag("json");
    args.reject_unknown();
    let workflow = obs.instrument(Workflow::with_defaults());
    let snapshot = ModelSnapshot::seeded(&ModelConfig::fast(), scenario.seed);
    let (run, _outcomes) = or_exit(workflow.ingest(&scenario, &snapshot, &uploads));
    obs.export();
    for (name, reason) in &run.rejected {
        eprintln!("{name}: rejected: {reason}");
    }

    if json {
        println!("{}", run.to_json());
        return;
    }

    println!(
        "Ingest — {} uploads, {} requests at {}/s, seed {}, 1-in-{} upload mix",
        uploads.len(),
        scenario.requests,
        scenario.rate_per_sec,
        scenario.seed,
        scenario.ingest_every,
    );
    let rows: Vec<Vec<String>> = run
        .fixtures
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.format.clone(),
                format!("{}", r.nodes),
                format!("{}", r.edges),
                format!("{}", r.depth),
                format!("{:016x}", r.fingerprint),
                if r.ood { format!("OOD ({})", r.ood_distance_micros) } else { "in".into() },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["design", "format", "nodes", "edges", "depth", "fingerprint", "distribution"],
            &rows,
        )
    );
    let c = run.serve.counters;
    let rows = vec![
        vec!["requests completed".into(), format!("{} / {}", c.completed, c.requests)],
        vec!["uploads accepted / rejected".into(),
            format!("{} / {}", c.ingest_accepted, c.ingest_rejected)],
        vec!["uploads OOD-flagged".into(), format!("{}", c.ood_flagged)],
        vec!["deadline-hit rate".into(), pct(run.serve.deadline_hit_rate)],
        vec!["cache hits / misses".into(), format!("{} / {}", c.cache_hits, c.cache_misses)],
        vec!["GCN forwards".into(), format!("{}", c.gcn_predictions)],
        vec!["plans solved / infeasible".into(), format!("{} / {}", c.plans, c.plans_infeasible)],
    ];
    println!("{}", render_table(&["metric", "value"], &rows));
}
