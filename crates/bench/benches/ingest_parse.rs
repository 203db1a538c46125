//! Criterion bench for the ingestion front door: raw parser throughput
//! per format (BLIF truth-table lowering, structural Verilog, stitched
//! Bookshelf) and the full pipeline — parse, validate, canonicalize,
//! featurize, OOD-score — on the largest checked-in fixture, then the
//! same at corpus scale: the fixtures are toys (c17 is six gates), so
//! `ingest_corpus` parses and ingests one synthesized `multiplier8`
//! written as BLIF and as Verilog, and prints bytes per second. A
//! developer bench: no baseline file, no CI gate.

use criterion::{criterion_group, criterion_main, Criterion};
use eda_cloud_ingest::blif::parse_blif;
use eda_cloud_ingest::bookshelf::parse_bookshelf;
use eda_cloud_ingest::verilog::parse_verilog;
use eda_cloud_flow::{ExecContext, Recipe, Synthesizer};
use eda_cloud_ingest::{fixtures, FrontDoor, FrontDoorConfig};
use eda_cloud_netlist::formats::{write_blif, write_verilog};
use eda_cloud_netlist::{generators, Netlist};
use eda_cloud_serve::UploadDoc;
use eda_cloud_tech::Library;
use std::hint::black_box;
use std::time::Instant;

fn bench_parsers(c: &mut Criterion) {
    let lib = Library::synthetic_14nm();
    let shelf = fixtures::stitch_bookshelf(
        fixtures::TINY_NODES,
        fixtures::TINY_NETS,
        Some(fixtures::TINY_PL),
    );
    let mut group = c.benchmark_group("ingest_parse");
    group.bench_function("blif_c17", |b| {
        b.iter(|| black_box(parse_blif(black_box(fixtures::C17_BLIF), &lib).expect("parses")));
    });
    group.bench_function("blif_counter", |b| {
        b.iter(|| black_box(parse_blif(black_box(fixtures::COUNTER_BLIF), &lib).expect("parses")));
    });
    group.bench_function("verilog_full_adder", |b| {
        b.iter(|| {
            black_box(parse_verilog(black_box(fixtures::FULL_ADDER_V), &lib).expect("parses"))
        });
    });
    group.bench_function("bookshelf_tiny", |b| {
        b.iter(|| black_box(parse_bookshelf("tiny", black_box(&shelf)).expect("parses")));
    });
    group.finish();
}

fn bench_front_door(c: &mut Criterion) {
    let door = FrontDoor::with_pool_profile(FrontDoorConfig::default());
    let doc = UploadDoc::new("c17", "blif", fixtures::C17_BLIF);
    let mut group = c.benchmark_group("ingest_pipeline");
    group.sample_size(10);
    group.bench_function("front_door_c17", |b| {
        b.iter(|| black_box(door.ingest_doc(black_box(&doc)).expect("ingests")));
    });
    group.finish();
}

/// `multiplier8` under the balanced recipe, rebuilt so that what the
/// writers emit is what the parsers accept: every primary output named
/// after its net, and nets left without a sink promoted to outputs (as
/// e2e's `gen::roundtrippable` does; the writers' PO-alias defect is
/// part of ROADMAP's robustness item).
fn roundtrippable_multiplier() -> Netlist {
    let aig = generators::build_family("multiplier", 8).expect("known family");
    let (nl, _) = Synthesizer::new()
        .with_verification(false)
        .run(&aig, &Recipe::balanced(), &ExecContext::with_vcpus(1))
        .expect("synthesizes");
    let mut out = Netlist::new(nl.name(), nl.library());
    let mut map = vec![u32::MAX; nl.net_count()];
    for &pi in nl.primary_inputs() {
        map[pi as usize] = out.add_input(nl.nets()[pi as usize].name.clone());
    }
    for (i, net) in nl.nets().iter().enumerate() {
        if map[i] == u32::MAX {
            map[i] = out.add_net(net.name.clone());
        }
    }
    for cell in nl.cells() {
        let inputs = cell.inputs.iter().map(|&n| map[n as usize]).collect();
        out.add_cell(cell.name.clone(), cell.cell_name.clone(), cell.kind, inputs, map[cell.output as usize]);
    }
    for (i, net) in nl.nets().iter().enumerate() {
        if net.sinks.is_empty() || nl.primary_outputs().iter().any(|&(_, n)| n as usize == i) {
            out.add_output(net.name.clone(), map[i]);
        }
    }
    out
}

/// Best of 20 runs of `f` over `bytes` of upload, as MB/s.
fn print_mb_per_s(id: &str, bytes: usize, mut f: impl FnMut()) {
    let best = (0..20)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    println!("{id:<40} {bytes} bytes, {:.1} MB/s", bytes as f64 / best / 1e6);
}

fn bench_corpus_scale(c: &mut Criterion) {
    let lib = Library::synthetic_14nm();
    let door = FrontDoor::with_pool_profile(FrontDoorConfig::default());
    let netlist = roundtrippable_multiplier();
    let blif = UploadDoc::new("multiplier8", "blif", write_blif(&netlist, &lib));
    let verilog = UploadDoc::new("multiplier8", "verilog", write_verilog(&netlist, &lib));
    let mut group = c.benchmark_group("ingest_corpus");
    group.sample_size(10);
    let parse_blif_doc = || drop(black_box(parse_blif(black_box(&blif.text), &lib).expect("parses")));
    group.bench_function("parse_blif_multiplier8", |b| b.iter(parse_blif_doc));
    print_mb_per_s("parse_blif_multiplier8", blif.text.len(), parse_blif_doc);
    let parse_verilog_doc =
        || drop(black_box(parse_verilog(black_box(&verilog.text), &lib).expect("parses")));
    group.bench_function("parse_verilog_multiplier8", |b| b.iter(parse_verilog_doc));
    print_mb_per_s("parse_verilog_multiplier8", verilog.text.len(), parse_verilog_doc);
    for doc in [&blif, &verilog] {
        let id = format!("front_door_{}_multiplier8", doc.format);
        let ingest = || drop(black_box(door.ingest_doc(black_box(doc)).expect("ingests")));
        group.bench_function(id.as_str(), |b| b.iter(ingest));
        print_mb_per_s(&id, doc.text.len(), ingest);
    }
    group.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_parsers, bench_front_door, bench_corpus_scale
}
criterion_main!(benches);
