//! Criterion benches for the deterministic simulation substrate: the
//! raw event heap (time-ordered pushes on its run lane; a standing
//! queue on its heap lane, where each pop leaves a hole at the root that
//! the rescheduling push fills with one sift-down), and the sharded
//! multi-region simulation at
//! 1 vs 4 workers and 1 vs 3 shards, plus one run at the end-to-end
//! `region_sim` size (400 000 jobs, 1 worker, 3 shards).
//!
//! Before timing anything, the multi-region comparison asserts that
//! every fan-out produces the byte-identical report — the determinism
//! contract the conservative lookahead barrier guarantees. Run with
//! `BENCH_JSON=BENCH_engine.json cargo bench -p eda-cloud-bench
//! --bench engine_substrate` to emit the document the `benchgate`
//! binary diffs against a baseline recorded on the same host (CI gates
//! this layer through the end-to-end `region_sim` workload instead).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eda_cloud_engine::{EventHeap, RegionSim, RegionSimConfig};
use std::hint::black_box;

fn bench_event_heap(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_heap");
    group.sample_size(10);
    group.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let mut heap: EventHeap<u64> = EventHeap::new();
            for i in 0..10_000u64 {
                // A colliding timestamp every 8 events exercises the
                // seq tie-break path.
                heap.push(i / 8 * 1_000, i);
            }
            let mut sum = 0u64;
            while let Some((t, v)) = heap.pop() {
                sum = sum.wrapping_add(t ^ v);
            }
            black_box(sum)
        });
    });
    // The pushes above arrive in time order, so they all ride the run
    // lane. A simulation's in-flight events do not: a standing queue of
    // 1 024 pops its earliest event and reschedules it at a pseudo-random
    // later time (e2e's `engine.heap_push_pop_ns` shape), which mostly
    // exercises the heap lane's pop-then-push through its hole.
    group.bench_function("standing_queue_10k", |b| {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 44
        };
        let mut heap: EventHeap<u64> = EventHeap::new();
        for i in 0..1_024 {
            heap.push(next(), i);
        }
        b.iter(|| {
            for i in 0..10_000u64 {
                let (now, _) = heap.pop().expect("standing queue never drains");
                heap.push(now + next(), i);
            }
            black_box(heap.len())
        });
    });
    group.finish();
}

fn bench_region_sim(c: &mut Criterion) {
    let config = RegionSimConfig { jobs: 400, ..RegionSimConfig::default() };
    let baseline = RegionSim::run(&config, 1, 1).expect("runs").to_json();
    for (workers, shards) in [(4, 1), (1, 3), (4, 3)] {
        let json = RegionSim::run(&config, workers, shards).expect("runs").to_json();
        assert_eq!(baseline, json, "fan-out must not change the report bytes");
    }
    // The end-to-end `region_sim` size: at 400 jobs neither the run
    // queues nor the 38 561 barrier windows show.
    let large = RegionSimConfig { jobs: 400_000, ..RegionSimConfig::default() };

    let mut group = c.benchmark_group("region_sim");
    group.sample_size(10);
    for (label, config, workers, shards) in
        [("w1_s1", &config, 1usize, 1usize), ("w4_s3", &config, 4, 3), ("w1_s3_400k", &large, 1, 3)]
    {
        group.bench_with_input(BenchmarkId::from_parameter(label), &(workers, shards), |b, &(w, s)| {
            b.iter(|| black_box(RegionSim::run(black_box(config), w, s).unwrap()));
        });
    }
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
    targets = bench_event_heap, bench_region_sim
}
criterion_main!(benches);
