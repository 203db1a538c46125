//! Criterion benches for the design substrate: generator throughput,
//! scalar simulation and graph conversion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eda_cloud_netlist::{generators, DesignGraph};
use std::hint::black_box;

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    for w in [8u32, 16, 32] {
        group.bench_with_input(BenchmarkId::new("multiplier", w), &w, |b, &w| {
            b.iter(|| black_box(generators::multiplier(w)));
        });
    }
    group.bench_function("sparc_core_composite", |b| {
        b.iter(|| black_box(generators::openpiton_design("sparc_core").unwrap()));
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let aig = generators::multiplier(16);
    let inputs = vec![true; aig.input_count()];
    let mut group = c.benchmark_group("simulation");
    group.bench_function("scalar", |b| {
        b.iter(|| black_box(aig.simulate(black_box(&inputs)).unwrap()));
    });
    group.finish();
}

fn bench_graph_conversion(c: &mut Criterion) {
    let aig = generators::openpiton_design("aes").unwrap();
    c.bench_function("design_graph_from_aig", |b| {
        b.iter(|| black_box(DesignGraph::from_aig(black_box(&aig))));
    });
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
    targets = bench_generators,
    bench_simulation,
    bench_graph_conversion
}
criterion_main!(benches);
