//! A warm `train_step` or `predict_log` allocates nothing, a warm
//! `predict_log_batch` only the `Vec` it returns, and a warm
//! `fine_tune` only its samples' row-class chunks.
//!
//! The speed of the training path rests on one property: after the
//! per-thread scratch has seen the largest graph, a step makes no heap
//! allocation at all; the forward pass every prediction runs keeps its
//! activations, pooled rows and dense outputs in the same scratch. This file pins
//! the properties themselves with a counting global allocator. Counts
//! are kept per thread, so whatever the test harness allocates on its
//! own threads cannot leak into the reading.

use eda_cloud_gcn::{GraphBatch, GraphSample, ModelConfig, RuntimePredictor};
use eda_cloud_netlist::{generators, DesignGraph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(allocations, largest request in bytes)` made by this thread.
    /// Const-initialized and `Copy`: touching it from inside the
    /// allocator neither allocates nor registers a destructor.
    static SEEN: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = SEEN.try_with(|seen| {
        let (count, largest) = seen.get();
        seen.set((count + 1, largest.max(size)));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while `f` runs, and the largest one.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    let (before, _) = SEEN.with(Cell::get);
    SEEN.with(|seen| seen.set((before, 0)));
    let out = f();
    let (after, largest) = SEEN.with(Cell::get);
    (out, after - before, largest)
}

/// Three graphs of clearly different size, smallest first, so the
/// warm-up lap has to grow every buffer twice.
fn samples() -> Vec<GraphSample> {
    [generators::parity(10), generators::adder(8), generators::multiplier(6)]
        .iter()
        .map(|aig| GraphSample::new(&DesignGraph::from_aig(aig), [100.0, 60.0, 40.0, 30.0]))
        .collect()
}

#[test]
fn warm_train_steps_allocate_nothing() {
    let samples = samples();
    let nodes: Vec<usize> = samples.iter().map(GraphSample::node_count).collect();
    assert!(nodes[0] < nodes[1] && nodes[1] < nodes[2], "sizes must differ: {nodes:?}");
    // The deepest architecture first: the scratch keeps the widest and
    // deepest shape it has seen, whichever model asked for it.
    let three_layers = ModelConfig {
        gcn_dims: vec![12, 7, 5],
        fc_dim: 6,
    };
    for config in [three_layers, ModelConfig::fast(), ModelConfig::shallow(8)] {
        let mut model = RuntimePredictor::new(&config, 7);
        let (_, cold, _) = allocations_in(|| {
            for s in &samples {
                model.train_step(s, 1e-3);
            }
        });
        let (losses, warm, _) = allocations_in(|| {
            let mut losses = [0.0; 3];
            for _ in 0..4 {
                for (loss, s) in losses.iter_mut().zip(&samples) {
                    *loss = model.train_step(s, 1e-3);
                }
            }
            losses
        });
        assert!(losses.iter().all(|l| l.is_finite()));
        assert_eq!(warm, 0, "{config:?}: 12 warm steps allocated ({cold} in the warm-up lap)");
    }
}

/// `fine_tune` builds each sample's row-class chunk once per call and
/// steps over it. Once the thread's scratch has seen the largest graph,
/// a call's allocations are those chunks — at most
/// `CHUNK_ALLOCATIONS` per sample — plus a few vectors of the call's
/// own, and six epochs allocate exactly what one does: a warm
/// class-row step allocates nothing.
#[test]
fn fine_tune_allocates_only_its_chunks() {
    const CHUNK_ALLOCATIONS: u64 = 48;
    let samples = samples();
    let refs: Vec<&GraphSample> = samples.iter().collect();
    let three_layers = ModelConfig {
        gcn_dims: vec![12, 7, 5],
        fc_dim: 6,
    };
    for config in [three_layers, ModelConfig::fast(), ModelConfig::shallow(8)] {
        let mut model = RuntimePredictor::new(&config, 7);
        model.fine_tune(&refs, 1, 1e-3, 1);
        let (one, once, _) = allocations_in(|| model.fine_tune(&refs, 1, 1e-3, 2));
        let (six, six_times, _) = allocations_in(|| model.fine_tune(&refs, 6, 1e-3, 3));
        assert!(one.iter().chain(&six).all(|l| l.is_finite()));
        assert_eq!(six_times, once, "{config:?}: the warm steps allocated");
        let bound = CHUNK_ALLOCATIONS * refs.len() as u64 + 4;
        assert!(once <= bound, "{config:?}: {once} allocations for {} samples", refs.len());
    }
}

#[test]
fn cloning_a_trained_model_copies_no_scratch() {
    let samples = samples();
    let mut model = RuntimePredictor::new(&ModelConfig::fast(), 7);
    for s in &samples {
        model.train_step(s, 1e-3);
    }
    // The largest tensor a clone legitimately copies is the 32x16
    // weight matrix (and its two Adam moments); the smallest
    // activation buffer of the largest graph is already bigger.
    let weights = 32 * 16 * std::mem::size_of::<f64>();
    let activation = samples[2].node_count() * 16 * std::mem::size_of::<f64>();
    assert!(activation > weights, "pick a larger graph: {activation} <= {weights}");
    let (clone, count, largest) = allocations_in(|| model.clone());
    assert!(count > 0, "a clone copies the weights");
    assert!(largest <= weights, "clone allocated {largest} bytes at once");
    assert_eq!(clone.save_weights(), model.save_weights());
}

/// `[small], [small, mid], [all three]` — the last is the largest.
fn batches(samples: &[GraphSample]) -> Vec<GraphBatch> {
    (1..=samples.len())
        .map(|n| GraphBatch::pack_padded(&samples[..n].iter().collect::<Vec<_>>(), 1))
        .collect()
}

#[test]
fn warm_batched_predictions_allocate_only_what_they_return() {
    let samples = samples();
    let batches = batches(&samples);
    let model = RuntimePredictor::new(&ModelConfig::paper(), 7);
    // What the bound below has to exclude: one activation buffer of the
    // largest graph at the widest layer.
    const BIG: usize = 64 * 1024;
    let activation = samples[2].node_count() * 256 * std::mem::size_of::<f64>();
    assert!(activation >= BIG, "pick a larger graph: {activation} < {BIG}");
    // One lap over the largest batch grows the scratch buffers…
    let (_, cold, cold_largest) =
        allocations_in(|| model.predict_log_batch(&batches[2]));
    assert!(cold_largest >= BIG, "the cold call allocates the activations");
    // …after which a call makes exactly one allocation: the returned
    // `Vec`. The pooled rows and the FC and head outputs live in the
    // scratch too.
    for _ in 0..3 {
        for batch in &batches {
            let (out, warm, largest) = allocations_in(|| model.predict_log_batch(batch));
            assert_eq!(out.len(), batch.len());
            assert_eq!(warm, 1, "warm call allocated {warm} times ({cold} cold)");
            assert!(largest < BIG, "warm call allocated {largest} bytes at once");
        }
    }
}

/// A one-at-a-time prediction runs the batched pass over the sample's
/// own borrowed adjacency and features: once the scratch is warm it
/// allocates nothing, since its return value is a `[f64; 4]`.
#[test]
fn warm_per_sample_predictions_allocate_nothing() {
    let samples = samples();
    let model = RuntimePredictor::new(&ModelConfig::paper(), 7);
    let (_, cold, _) = allocations_in(|| model.predict_log(&samples[2]));
    assert!(cold > 0, "the cold call grows the scratch");
    for _ in 0..3 {
        for s in &samples {
            let (out, warm, _) = allocations_in(|| model.predict_log(s));
            assert!(out.iter().all(|v| v.is_finite()));
            assert_eq!(warm, 0, "warm call allocated {warm} times ({cold} cold)");
        }
    }
}

/// The forward scratch belongs to the thread, so models of different
/// widths and depths share it. Alternating them on one thread must
/// predict exactly what each predicts on a thread nobody used before.
#[test]
fn alternating_models_on_one_thread_predict_what_fresh_threads_predict() {
    let samples = samples();
    let three_layers = ModelConfig {
        gcn_dims: vec![12, 7, 5],
        fc_dim: 6,
    };
    let models: Vec<RuntimePredictor> = [ModelConfig::paper(), ModelConfig::fast(), three_layers]
        .iter()
        .map(|config| RuntimePredictor::new(config, 11))
        .collect();
    let bits = |rows: Vec<[f64; 4]>| -> Vec<[u64; 4]> {
        rows.into_iter().map(|r| r.map(f64::to_bits)).collect()
    };
    // Largest batch first, so every later call reads a buffer that is
    // larger than it needs and dirty with another model's activations.
    let batches = batches(&samples);
    let mut shared = Vec::new();
    for batch in batches.iter().rev() {
        for model in &models {
            shared.push(bits(model.predict_log_batch(batch)));
        }
    }
    let mut fresh = Vec::new();
    for batch in batches.iter().rev() {
        for model in &models {
            let on_new_thread = std::thread::scope(|scope| {
                scope.spawn(|| model.predict_log_batch(batch)).join().expect("prediction thread")
            });
            fresh.push(bits(on_new_thread));
        }
    }
    assert_eq!(shared, fresh);
}
