//! Criterion bench for the router's batched parallel rounds: one placed
//! design, four region buckets, routed at the width the router derives
//! from the host (`min(non-empty buckets, cores)`). Results are
//! bit-identical at every width; only wall clock moves.

use criterion::{criterion_group, criterion_main, Criterion};
use eda_cloud_flow::{ExecContext, Placement, Placer, Recipe, Router, Synthesizer};
use eda_cloud_netlist::{generators, Netlist};
use std::hint::black_box;

fn placed_design() -> (Netlist, Placement) {
    let aig = generators::multiplier(14);
    let ctx = ExecContext::with_vcpus(4);
    let (nl, _) = Synthesizer::new()
        .with_verification(false)
        .run(&aig, &Recipe::balanced(), &ctx)
        .expect("synthesis");
    let (pl, _) = Placer::new().run(&nl, &ctx).expect("placement");
    (nl, pl)
}

fn bench_router(c: &mut Criterion) {
    let (nl, pl) = placed_design();
    let router = Router::new();
    let mut group = c.benchmark_group("router_batching");
    group.sample_size(10);
    let ctx = ExecContext::with_vcpus(4);
    group.bench_function("vcpus4", |bench| {
        bench.iter(|| black_box(router.run(&nl, &pl, &ctx).expect("routes")));
    });
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
    targets = bench_router
}
criterion_main!(benches);
