//! Criterion bench for one routing negotiation: `multiplier14`, placed,
//! routed for one 4-vCPU context (`run`) and for the paper's 1/2/4/8
//! sweep (`run_sweep`). The layout does not depend on the machine, so
//! the sweep negotiates once, and one LLC recency stack serves all four
//! machines' slices: the sweep should cost about one run.

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
    group.bench_function("run/vcpus4", |bench| {
        bench.iter(|| black_box(router.run(&nl, &pl, &ctx).expect("routes")));
    });
    let sweep: Vec<ExecContext> = [1, 2, 4, 8].map(ExecContext::with_vcpus).into();
    group.bench_function("run_sweep/vcpus1248", |bench| {
        bench.iter(|| black_box(router.run_sweep(&nl, &pl, &sweep).expect("routes")));
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
