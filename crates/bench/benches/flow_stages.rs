//! Criterion benches for the four EDA engines on a mid-size design,
//! plus the cost of constructing the probe every engine run starts
//! with.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eda_cloud_flow::{ExecContext, Placer, Recipe, Router, StaEngine, Synthesizer};
use eda_cloud_netlist::generators;
use eda_cloud_perf::{MachineConfig, PerfProbe};
use std::hint::black_box;

fn bench_stages(c: &mut Criterion) {
    let design = generators::openpiton_design("dynamic_node").unwrap();
    let ctx = ExecContext::with_vcpus(2);
    let synthesizer = Synthesizer::new().with_verification(false);
    let (netlist, _) = synthesizer.run(&design, &Recipe::balanced(), &ctx).unwrap();
    let (placement, _) = Placer::new().run(&netlist, &ctx).unwrap();

    let mut group = c.benchmark_group("stages");
    group.sample_size(10);
    group.bench_function("synthesis", |b| {
        b.iter(|| {
            black_box(
                synthesizer
                    .run(black_box(&design), &Recipe::balanced(), &ctx)
                    .unwrap(),
            )
        });
    });
    group.bench_function("placement", |b| {
        b.iter(|| black_box(Placer::new().run(black_box(&netlist), &ctx).unwrap()));
    });
    group.bench_function("routing", |b| {
        b.iter(|| {
            black_box(
                Router::new()
                    .run(black_box(&netlist), &placement, &ctx)
                    .unwrap(),
            )
        });
    });
    group.bench_function("sta", |b| {
        b.iter(|| {
            black_box(
                StaEngine::new()
                    .run(black_box(&netlist), &placement, &ctx)
                    .unwrap(),
            )
        });
    });
    group.finish();
}

fn bench_probe_construction(c: &mut Criterion) {
    // Create, one access, drop — warm, i.e. on the arrays the previous
    // probe of this thread left on the cache simulator's free list.
    // Every engine run pays this once.
    let mut group = c.benchmark_group("probe");
    for vcpus in [1u32, 8] {
        let machine = MachineConfig::vcpus(vcpus);
        group.bench_with_input(BenchmarkId::new("one_machine", vcpus), &machine, |b, m| {
            b.iter(|| {
                let mut probe = PerfProbe::for_machine(m);
                probe.read(black_box(0x1000));
                black_box(probe.counters())
            });
        });
    }
    let sweep = [1u32, 2, 4, 8].map(MachineConfig::vcpus);
    group.bench_function("sweep_of_four", |b| {
        b.iter(|| {
            let mut probe = PerfProbe::for_machines(&sweep);
            probe.read(black_box(0x1000));
            black_box(probe.counters_for(3))
        });
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
    targets = bench_stages, bench_probe_construction
}
criterion_main!(benches);
