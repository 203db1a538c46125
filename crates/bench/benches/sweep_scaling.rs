//! Criterion benches for the parallel sweep engine: dataset-corpus
//! generation at 1 vs 4 workers, plus what one sweep probe saves
//! synthesis in isolation.
//!
//! Before timing anything, the corpus comparison asserts that the
//! parallel output is bit-identical to the serial output — the determinism
//! contract the sweep engine's canonical reduction guarantees. The
//! worker speedup scales with the host's core count (on a single-core
//! runner the 1- and 4-worker times coincide); the sweep-probe speedup
//! is architectural and shows up everywhere.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eda_cloud_core::dataset::{DatasetBuilder, DatasetConfig};
use eda_cloud_core::Workflow;
use eda_cloud_flow::{ExecContext, Recipe, Synthesizer};
use eda_cloud_netlist::generators;
use std::hint::black_box;

fn bench_dataset_workers(c: &mut Criterion) {
    let workflow = Workflow::with_defaults();
    let builder = DatasetBuilder::new(&workflow);
    let serial = builder
        .build(&DatasetConfig::smoke().with_workers(1))
        .expect("serial corpus");
    let parallel = builder
        .build(&DatasetConfig::smoke().with_workers(4))
        .expect("parallel corpus");
    assert_eq!(serial, parallel, "parallel corpus must be bit-identical to serial");

    let mut group = c.benchmark_group("dataset_workers");
    group.sample_size(10);
    for workers in [1usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            let config = DatasetConfig::smoke().with_workers(w);
            b.iter(|| black_box(builder.build(black_box(&config)).unwrap()));
        });
    }
    group.finish();
}

fn bench_synthesis_sweep(c: &mut Criterion) {
    // One run on a sweep probe vs four fresh synthesis runs — the
    // per-sweep-point saving independent of worker count.
    let design = generators::openpiton_design("dynamic_node").unwrap();
    let recipe = Recipe::balanced();
    let synthesizer = Synthesizer::new().with_verification(false);
    let contexts: Vec<ExecContext> =
        [1u32, 2, 4, 8].iter().map(|&v| ExecContext::with_vcpus(v)).collect();

    let mut group = c.benchmark_group("synthesis_sweep");
    group.sample_size(10);
    group.bench_function("uncached", |b| {
        b.iter(|| {
            for ctx in &contexts {
                black_box(synthesizer.run(black_box(&design), &recipe, ctx).unwrap());
            }
        });
    });
    group.bench_function("cached", |b| {
        b.iter(|| black_box(synthesizer.run_sweep(black_box(&design), &recipe, &contexts).unwrap()));
    });
    group.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_dataset_workers, bench_synthesis_sweep
}
criterion_main!(benches);
