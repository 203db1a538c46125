//! Serving-tier integration tests: same-seed runs are byte-identical
//! (including across inference worker counts), model snapshots
//! round-trip through their text format without disturbing a single
//! byte of the report, overload sheds requests instead of stalling the
//! stream, and the CI smoke scenario (`serve --requests 64 --seed 7`)
//! is pinned against a checked-in golden report.
//!
//! The property tests at the end harden `ModelSnapshot::from_text`:
//! snapshots cross a trust boundary — they are loaded from text a
//! registry or operator hands us — so the parser must turn every
//! malformed, truncated, or poisoned document into a typed
//! [`ServeError`], never a panic, and a document that does parse must
//! reproduce the canonical bytes it came from.
//!
//! Then come the differentials of the two inference fast paths at paper
//! dimensions: chunked vs monolithic batches against per-sample
//! predictions (bit-equal), and int8 against float (a stated bound).
//!
//! Last, the EDF admission queue's properties: deadline order with an
//! ordinal tie-break, first-come shedding at capacity, and urgency under
//! interleaved admits and pops.

use eda_cloud::core::{Workflow, WorkflowPlanner};
use eda_cloud::gcn::{GraphBatch, GraphSample, ModelConfig, QuantizedPredictor, RuntimePredictor};
use eda_cloud::netlist::{generators, DesignGraph};
use eda_cloud::serve::{
    design_pool, synthetic_requests, AdmissionQueue, ModelSnapshot, RequestKind, RequestOutcome,
    ServeConfig, ServeDesign, ServeError, ServeReport, ServeRequest, Server, WorkloadConfig,
};
use proptest::prelude::*;
use proptest::sample::select;
use std::sync::Arc;

mod common;

fn seeded_snapshot(seed: u64) -> ModelSnapshot {
    ModelSnapshot::seeded(&ModelConfig::fast(), seed)
}

fn workload(requests: usize, seed: u64) -> WorkloadConfig {
    WorkloadConfig { requests, seed, ..WorkloadConfig::default() }
}

fn run_with(
    workload: &WorkloadConfig,
    snapshot: &ModelSnapshot,
    config: ServeConfig,
) -> (ServeReport, Vec<RequestOutcome>) {
    Workflow::with_defaults()
        .serve(workload, snapshot, config)
        .expect("serving run")
}

fn run(workload: &WorkloadConfig, snapshot: &ModelSnapshot) -> (ServeReport, Vec<RequestOutcome>) {
    run_with(workload, snapshot, ServeConfig::default())
}

#[test]
fn same_seed_reports_are_byte_identical() {
    let workload = workload(32, 42);
    let snapshot = seeded_snapshot(42);
    let (a, a_out) = run(&workload, &snapshot);
    let (b, b_out) = run(&workload, &snapshot);
    assert_eq!(a.to_json(), b.to_json(), "same seed must replay exactly");
    assert_eq!(a_out, b_out);
}

#[test]
fn inference_worker_count_cannot_change_the_report() {
    let snapshot = seeded_snapshot(9);
    let workload = workload(24, 9);
    let with_workers = |workers| ServeConfig { workers, ..ServeConfig::default() };
    let (serial, serial_out) = run_with(&workload, &snapshot, with_workers(1));
    for workers in [2usize, 8] {
        let (parallel, parallel_out) = run_with(&workload, &snapshot, with_workers(workers));
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "stage-indexed join makes the fan-out invisible ({workers} workers)"
        );
        assert_eq!(serial_out, parallel_out);
    }
}

#[test]
fn snapshot_text_round_trip_preserves_the_report() {
    let workload = workload(24, 5);
    let snapshot = seeded_snapshot(5);
    let reloaded = ModelSnapshot::from_text(&snapshot.to_text()).expect("canonical text parses");
    let (original, _) = run(&workload, &snapshot);
    let (roundtrip, _) = run(&workload, &reloaded);
    assert_eq!(
        original.to_json(),
        roundtrip.to_json(),
        "snapshot serialization must not perturb any prediction"
    );
}

#[test]
fn overload_sheds_requests_instead_of_stalling() {
    let workload = WorkloadConfig { rate_per_sec: 5_000.0, ..workload(128, 7) };
    let workflow = Workflow::with_defaults();
    let requests = synthetic_requests(&design_pool(), &workload);
    let config = ServeConfig {
        max_batch: 4,
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let server = Server::new(
        seeded_snapshot(7),
        Box::new(WorkflowPlanner::new(workflow.clone())),
        config,
    );
    let (report, outcomes) = server.run(workload.seed, &requests).expect("overloaded run");
    assert!(report.counters.shed > 0, "burst must shed load");
    assert_eq!(
        report.counters.shed + report.counters.completed,
        report.counters.requests,
        "every request is either served or shed, never lost"
    );
    assert!(outcomes
        .iter()
        .any(|o| matches!(o, RequestOutcome::Shed { .. })));
}

#[test]
fn a_reused_server_reports_what_a_fresh_one_does() {
    // The workflow's planner keeps each design's deployment frontier for
    // its lifetime: a server's second run must read byte for byte like a
    // fresh server's first on the same stream.
    let server = || {
        Server::new(
            seeded_snapshot(13),
            Box::new(WorkflowPlanner::new(Workflow::with_defaults())),
            ServeConfig::default(),
        )
    };
    let (warm_up, stream) = (workload(48, 13), workload(48, 14));
    let reused = server();
    reused
        .run(warm_up.seed, &synthetic_requests(&design_pool(), &warm_up))
        .expect("first run");
    let requests = synthetic_requests(&design_pool(), &stream);
    let (again, again_out) = reused.run(stream.seed, &requests).expect("second run");
    let (fresh, fresh_out) = server().run(stream.seed, &requests).expect("fresh run");
    assert!(fresh.counters.plans > 0, "the stream must plan");
    assert_eq!(again.to_json(), fresh.to_json());
    assert_eq!(again_out, fresh_out);
}

/// Golden report for the CI smoke scenario
/// (`serve --requests 64 --seed 7 --json`). The serving tier's output
/// is a pure function of the workload and the snapshot — independent
/// of worker count, build profile, and platform — so the comparison is
/// byte for byte. Regenerate with `UPDATE_GOLDEN=1 cargo test --test
/// serve_service` if a deliberate engine change shifts it.
#[test]
fn golden_report_for_seed_7() {
    let (report, _) = run(&workload(64, 7), &seeded_snapshot(7));
    common::assert_golden(&report.to_json(), "golden/serve_report.json");
}

fn canonical() -> String {
    ModelSnapshot::seeded(&ModelConfig::fast(), 7).to_text()
}

prop_compose! {
    /// A random slice boundary of the canonical document (in chars so
    /// we never split a UTF-8 sequence; the format is ASCII anyway).
    fn truncation()(fraction in 0.0f64..1.0) -> usize {
        let len = canonical().len();
        ((fraction * len as f64) as usize).min(len.saturating_sub(1))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncated_documents_are_typed_errors(cut in truncation()) {
        let text = canonical();
        let result = ModelSnapshot::from_text(&text[..cut]);
        prop_assert!(
            matches!(result, Err(ServeError::Snapshot { .. })),
            "truncation at {cut} must be a typed snapshot error"
        );
    }

    #[test]
    fn poisoned_values_are_typed_errors(
        line_pick in 0usize..64,
        poison in select(vec!["NaN", "nan", "inf", "-inf", "infinity", "1e999", "-1e999"]),
    ) {
        // Replace one weight value on a tensor line with a value that
        // parses as f64 but is non-finite (or overflows to infinity).
        let text = canonical();
        let tensor_lines: Vec<usize> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains(".w ") || l.contains(".b "))
            .map(|(i, _)| i)
            .collect();
        let target = tensor_lines[line_pick % tensor_lines.len()];
        let poisoned: String = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i != target {
                    return format!("{l}\n");
                }
                let mut parts: Vec<String> = l.split(' ').map(str::to_owned).collect();
                let last = parts.len() - 1;
                parts[last] = poison.to_owned();
                format!("{}\n", parts.join(" "))
            })
            .collect();
        let result = ModelSnapshot::from_text(&poisoned);
        prop_assert!(
            matches!(result, Err(ServeError::Snapshot { .. })),
            "poison `{poison}` on line {target} must be a typed error"
        );
    }

    #[test]
    fn corrupted_lines_never_panic(
        line_pick in 0usize..512,
        garbage in select(vec![
            "", " ", "stage synthesis", "end sta", "gcn0.w", "gcn0.w 2 2",
            "gcn0.w -1 -1 0.0", "gcn_dims", "fc_dim x", "lorem ipsum",
            "gcn0.w 18446744073709551615 2 1.0",
        ]),
    ) {
        // Overwrite an arbitrary line with structural garbage; the
        // parser may accept documents where the line was redundant, but
        // must never panic, and any accepted document must re-serialize.
        let text = canonical();
        let total = text.lines().count();
        let target = line_pick % total;
        let corrupted: String = text
            .lines()
            .enumerate()
            .map(|(i, l)| format!("{}\n", if i == target { garbage } else { l }))
            .collect();
        if let Ok(snapshot) = ModelSnapshot::from_text(&corrupted) {
            let _ = snapshot.to_text();
        }
    }

    #[test]
    fn single_bit_flips_are_typed_errors(position in 0.0f64..1.0, bit in 0u32..7) {
        // The checksum footer makes every single-byte corruption
        // detectable: FNV-1a's per-byte step is bijective, so two
        // documents differing in one byte can never share a digest.
        // Flips land on bits 0-6 to keep the document valid UTF-8
        // (the canonical format is pure ASCII).
        let text = canonical();
        let index = ((position * text.len() as f64) as usize).min(text.len() - 1);
        let mut bytes = text.into_bytes();
        bytes[index] ^= 1 << bit;
        let corrupted = String::from_utf8(bytes).expect("ASCII stays UTF-8 below bit 7");
        let result = ModelSnapshot::from_text(&corrupted);
        prop_assert!(
            result.is_err(),
            "flipping bit {bit} of byte {index} must be rejected, got Ok"
        );
    }

    #[test]
    fn truncation_after_any_newline_is_a_typed_error(position in 0.0f64..1.0) {
        // Cutting at a line boundary produces a structurally plausible
        // prefix — exactly what a partial download looks like. The
        // parser must still reject it (missing sections or missing
        // checksum), never panic or accept.
        let text = canonical();
        let newlines: Vec<usize> =
            text.bytes().enumerate().filter(|&(_, b)| b == b'\n').map(|(i, _)| i).collect();
        let pick = ((position * newlines.len() as f64) as usize).min(newlines.len() - 1);
        let cut = newlines[pick] + 1;
        if cut == text.len() {
            return; // The full document parses; nothing was truncated.
        }
        let result = ModelSnapshot::from_text(&text[..cut]);
        prop_assert!(
            matches!(result, Err(ServeError::Snapshot { .. })),
            "truncation after newline {pick} must be a typed snapshot error"
        );
    }

    #[test]
    fn random_bytes_never_panic(seed_a in 0u64..u64::MAX, lines in 1usize..20) {
        // Arbitrary printable garbage, sometimes under a valid header.
        let mut state = seed_a | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for with_header in [false, true] {
            let mut doc = String::new();
            if with_header {
                doc.push_str("eda-serve-snapshot v1\n");
            }
            for _ in 0..lines {
                let n = (next() % 24) as usize;
                for _ in 0..n {
                    doc.push(char::from(b' ' + (next() % 95) as u8));
                }
                doc.push('\n');
            }
            let _ = ModelSnapshot::from_text(&doc);
        }
    }
}

#[test]
fn parse_roundtrip_reproduces_canonical_bytes() {
    let text = canonical();
    let parsed = ModelSnapshot::from_text(&text).expect("canonical text parses");
    assert_eq!(parsed.to_text(), text);
}

// ---- Differentials for the two inference fast paths, at paper dims ----

/// Every generator family at sizes 4 and 8: 36 graphs, 9 to a few
/// hundred nodes.
fn generator_corpus() -> Vec<GraphSample> {
    let mut corpus = Vec::new();
    for family in generators::FAMILY_NAMES {
        for size in [4u32, 8] {
            let aig = generators::build_family(family, size).expect("known family");
            corpus.push(GraphSample::new(&DesignGraph::from_aig(&aig), [40.0, 25.0, 16.0, 12.0]));
        }
    }
    corpus
}

/// Batching is invisible: one sample per chunk, the serving default's
/// neighbourhood (64, 192) and one monolithic chunk all predict, bit for
/// bit, what `predict_log` predicts one design at a time. `predict_log`
/// runs the same body over a one-sample chunk, so this compares the
/// chunk targets with each other; the independent reference for both
/// is the naive forward pass in `crates/gcn/src/oracle.rs`.
#[test]
fn chunked_and_monolithic_batches_match_per_sample_predictions() {
    let corpus = generator_corpus();
    let refs: Vec<&GraphSample> = corpus.iter().collect();
    let model = RuntimePredictor::new(&ModelConfig::paper(), 7);
    let bits = |rows: &[[f64; 4]]| -> Vec<[u64; 4]> {
        rows.iter().map(|r| r.map(f64::to_bits)).collect()
    };
    let per_sample: Vec<[f64; 4]> = corpus.iter().map(|s| model.predict_log(s)).collect();
    for target in [1usize, 64, 192, usize::MAX] {
        let batch = GraphBatch::pack_chunked(&refs, 1, target);
        assert_eq!(batch.len(), corpus.len());
        assert_eq!(
            bits(&model.predict_log_batch(&batch)),
            bits(&per_sample),
            "chunk target {target}"
        );
    }
}

/// Largest relative difference between an int8 and a float prediction
/// (seconds), over every design and stage of the generator corpus, and
/// the mean over the same set. Measured when they were set (seeds 3 /
/// 7 / 11, after 0 / 2 / 4 epochs): worst 0.115–0.243, mean
/// 0.016–0.024.
const INT8_WORST_REL: f64 = 0.35;
const INT8_MEAN_REL: f64 = 0.04;

/// Int8 serving tracks float on the paper architecture within the two
/// bounds above — for freshly seeded weights and after a short fit,
/// where activations have moved away from the Xavier range.
#[test]
fn int8_predictions_stay_within_the_stated_bound_of_float() {
    let corpus = generator_corpus();
    let refs: Vec<&GraphSample> = corpus.iter().collect();
    for seed in [7u64, 11] {
        let mut model = RuntimePredictor::new(&ModelConfig::paper(), seed);
        for fitted in [false, true] {
            if fitted {
                model.fine_tune(&refs, 4, 1e-3, seed);
            }
            let int8 = QuantizedPredictor::quantize(&model);
            let (mut worst, mut sum) = (0.0f64, 0.0f64);
            for sample in &corpus {
                let (f, q) = (model.predict_secs(sample), int8.predict_secs(sample));
                for (f, q) in f.iter().zip(&q) {
                    let rel = (q - f).abs() / f;
                    worst = worst.max(rel);
                    sum += rel;
                }
            }
            let mean = sum / (4 * corpus.len()) as f64;
            assert!(worst <= INT8_WORST_REL, "seed {seed} fitted {fitted}: worst {worst}");
            assert!(mean <= INT8_MEAN_REL, "seed {seed} fitted {fitted}: mean {mean}");
        }
    }
}

// ---- The EDF admission queue: deadline order, ordinal ties, shedding ----

fn queued(ordinal: u64, deadline_us: u64) -> ServeRequest {
    let g = DesignGraph::from_aig(&generators::adder(3));
    let view = || GraphSample::new(&g, [1.0; 4]);
    ServeRequest {
        ordinal,
        arrival_us: 0,
        deadline_us,
        kind: RequestKind::Predict,
        design: Arc::new(ServeDesign::new("d", view(), view())),
        upload: None,
    }
}

prop_compose! {
    /// A batch of distinct-ordinal requests with clustered deadlines
    /// (many ties, the interesting regime for the tie-break).
    fn queue_workload()(count in 1usize..40, spread in 1u64..8, seed in 0u64..u64::MAX)
        -> Vec<(u64, u64)>
    {
        let mut rng = proptest::test_runner::TestRng::for_test(&seed.to_string());
        (0..count as u64).map(|ordinal| (ordinal, rng.below(spread) * 100)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queue_pops_are_sorted_by_deadline_then_ordinal(batch in queue_workload()) {
        let mut queue = AdmissionQueue::new(64);
        for &(ordinal, deadline_us) in &batch {
            queue.try_admit(queued(ordinal, deadline_us)).expect("capacity 64 fits the batch");
        }
        let mut popped = Vec::new();
        while let Some(r) = queue.pop() {
            popped.push((r.deadline_us, r.ordinal));
        }
        prop_assert_eq!(popped.len(), batch.len(), "every admitted request pops exactly once");
        let mut expected: Vec<(u64, u64)> = batch.iter().map(|&(o, d)| (d, o)).collect();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected, "EDF order with ordinal tie-break");
    }

    #[test]
    fn queue_capacity_sheds_exactly_the_overflow(capacity in 1usize..16, extra in 0usize..16) {
        let mut queue = AdmissionQueue::new(capacity);
        let total = capacity + extra;
        let mut shed = Vec::new();
        for ordinal in 0..total as u64 {
            // Later requests carry earlier deadlines: urgency must NOT
            // let them displace already-admitted work.
            let deadline_us = 10_000 - ordinal * 10;
            match queue.try_admit(queued(ordinal, deadline_us)) {
                Ok(()) => {}
                Err(ServeError::Overloaded { ordinal: o, queue_depth, capacity: c }) => {
                    prop_assert_eq!(o, ordinal, "the arriving request is the one shed");
                    prop_assert_eq!(queue_depth, capacity);
                    prop_assert_eq!(c, capacity);
                    shed.push(ordinal);
                }
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
        prop_assert_eq!(shed.len(), extra, "exactly the overflow is shed");
        prop_assert_eq!(queue.len(), capacity, "the queue sits at capacity");
        prop_assert_eq!(
            shed,
            ((capacity as u64)..(total as u64)).collect::<Vec<_>>(),
            "admission is strictly first-come once full"
        );
        // Draining still yields EDF order over the survivors.
        let mut last = None;
        let mut drained = 0usize;
        while let Some(r) = queue.pop() {
            if let Some(prev) = last {
                prop_assert!((r.deadline_us, r.ordinal) > prev);
            }
            last = Some((r.deadline_us, r.ordinal));
            drained += 1;
        }
        prop_assert_eq!(drained, capacity, "shed requests never reappear");
    }

    #[test]
    fn queue_interleaved_admits_and_pops_preserve_urgency(seed_ops in 2u64..2000) {
        // Alternate admissions with pops; every pop must return the
        // minimum (deadline, ordinal) key present at that instant.
        let mut queue = AdmissionQueue::new(8);
        let mut model = std::collections::BTreeSet::new();
        let mut x = seed_ops;
        for ordinal in 0..24u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let deadline_us = (x >> 33) % 500;
            match queue.try_admit(queued(ordinal, deadline_us)) {
                Ok(()) => {
                    model.insert((deadline_us, ordinal));
                }
                Err(_) => prop_assert_eq!(model.len(), 8, "sheds only at capacity"),
            }
            if x % 3 == 0 {
                let popped = queue.pop().map(|r| (r.deadline_us, r.ordinal));
                prop_assert_eq!(popped, model.pop_first(), "pop returns the most urgent entry");
            }
        }
        prop_assert_eq!(queue.len(), model.len());
    }
}
