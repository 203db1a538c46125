//! Criterion bench for the deterministic MCTS recipe search: one
//! seeded 24-iteration search over one design's pass sequences. A
//! developer bench with no baseline — the gated number will be the
//! `recipe_search` e2e workload (ROADMAP's e2e re-base item).

use criterion::{criterion_group, criterion_main, Criterion};
use eda_cloud_netlist::generators;
use eda_cloud_recipe::{RecipeSearch, SearchConfig};
use std::hint::black_box;

fn bench_search(c: &mut Criterion) {
    let aig = generators::build_family("comparator", 6).expect("known family");
    let mut group = c.benchmark_group("recipe_search");
    group.sample_size(10);
    let search = RecipeSearch::new(SearchConfig { iters: 24, seed: 7 });
    group.bench_function("iters_24", |bench| {
        bench.iter(|| black_box(search.run("comparator_6", &aig).expect("searches")));
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
    targets = bench_search
}
criterion_main!(benches);
