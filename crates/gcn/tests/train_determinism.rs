//! Determinism guarantees for the training path.
//!
//! The lifecycle controller retrains models while serving traffic, so
//! the training path must be bit-reproducible: the same seed and the
//! same replay buffer must yield byte-identical weights no matter how
//! many worker threads the surrounding fan-out uses. These tests pin
//! that contract at three levels: a single Adam step against golden
//! values, `fine_tune` run twice from the same state, and `fine_tune`
//! fanned out across 1/2/8 scoped threads joined by stage index.

use eda_cloud_gcn::{Adam, GraphSample, Matrix, ModelConfig, RuntimePredictor};
use eda_cloud_netlist::{generators, DesignGraph};

fn buffer() -> Vec<GraphSample> {
    let specs: [(&str, [f64; 4]); 6] = [
        ("adder6", [610.0, 434.0, 345.0, 335.0]),
        ("adder8", [1206.0, 905.0, 644.0, 519.0]),
        ("parity8", [104.0, 55.0, 28.0, 16.0]),
        ("parity10", [183.0, 119.0, 90.0, 82.0]),
        ("decoder6", [420.0, 260.0, 170.0, 120.0]),
        ("comparator6", [318.0, 201.0, 140.0, 101.0]),
    ];
    specs
        .iter()
        .map(|(name, targets)| {
            let aig = match *name {
                "adder6" => generators::adder(6),
                "adder8" => generators::adder(8),
                "parity8" => generators::parity(8),
                "parity10" => generators::parity(10),
                "decoder6" => generators::decoder(6),
                _ => generators::comparator(6),
            };
            GraphSample::new(&DesignGraph::from_aig(&aig), *targets)
        })
        .collect()
}

#[test]
fn adam_step_matches_golden_values() {
    // One hand-checked Adam update: param 1.0, grad 0.5, lr 0.1.
    // After bias correction the first step moves by almost exactly
    // -lr * sign(grad): m̂ = 0.5, v̂ = 0.25, so
    // Δ = -0.1 * 0.5 / (0.5 + 1e-8) ≈ -0.099999998.
    let mut adam = Adam::new(1, 1);
    let mut param = Matrix::from_vec(1, 1, vec![1.0]);
    let grad = Matrix::from_vec(1, 1, vec![0.5]);
    adam.step(&mut param, &grad, 0.1);
    let expected = 1.0 - 0.1 * 0.5 / (0.25f64.sqrt() + 1e-8);
    assert!(
        (param.get(0, 0) - expected).abs() < 1e-15,
        "got {}, want {expected}",
        param.get(0, 0)
    );

    // Second step with the same gradient: the moment EMAs start from
    // zero, so m = 0.9*0.05 + 0.1*0.5 and v = 0.999*0.00025 + 0.001*0.25,
    // with bias corrections at t = 2. Both hats collapse back to 0.5 and
    // 0.25, so the step moves by ≈ -lr again.
    adam.step(&mut param, &grad, 0.1);
    let m = 0.9 * (0.1 * 0.5) + 0.1 * 0.5;
    let v = 0.999 * (0.001 * 0.25) + 0.001 * 0.25;
    let m_hat = m / (1.0 - 0.9f64.powi(2));
    let v_hat = v / (1.0 - 0.999f64.powi(2));
    let expected2 = expected - 0.1 * m_hat / (v_hat.sqrt() + 1e-8);
    assert!(
        (param.get(0, 0) - expected2).abs() < 1e-15,
        "got {}, want {expected2}",
        param.get(0, 0)
    );
}

#[test]
fn fine_tune_is_bit_reproducible() {
    let samples = buffer();
    let refs: Vec<&GraphSample> = samples.iter().collect();
    let run = || {
        let mut model = RuntimePredictor::new(&ModelConfig::fast(), 41);
        let losses = model.fine_tune(&refs, 6, 3e-3, 7);
        (model.save_weights(), losses)
    };
    let (w1, l1) = run();
    let (w2, l2) = run();
    assert_eq!(
        w1, w2,
        "same seed + same buffer must give identical weights"
    );
    assert_eq!(l1, l2);

    // A different seed must visit the samples in a different order and
    // therefore land on different weights — otherwise the seed is dead.
    let mut other = RuntimePredictor::new(&ModelConfig::fast(), 41);
    other.fine_tune(&refs, 6, 3e-3, 8);
    assert_ne!(w1, other.save_weights());
}

#[test]
fn fine_tune_fanout_is_worker_invariant() {
    // The retrainer fine-tunes the four stage models in a scoped-thread
    // fan-out joined by stage index. Whatever the worker count, the
    // weights that land in slot k must be byte-identical.
    let samples = buffer();
    let fan_out = |workers: usize| -> Vec<String> {
        let mut out: Vec<Option<String>> = vec![None; 4];
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..workers.min(4) {
                let samples = &samples;
                handles.push((
                    t,
                    scope.spawn(move || {
                        let mut slot: Vec<(usize, String)> = Vec::new();
                        for k in (t..4).step_by(workers.min(4)) {
                            let refs: Vec<&GraphSample> = samples.iter().collect();
                            let mut model =
                                RuntimePredictor::new(&ModelConfig::fast(), 41 + k as u64);
                            model.fine_tune(&refs, 4, 3e-3, 7 ^ (k as u64) << 8);
                            slot.push((k, model.save_weights()));
                        }
                        slot
                    }),
                ));
            }
            for (_, handle) in handles {
                for (k, weights) in handle.join().expect("worker panicked") {
                    out[k] = Some(weights);
                }
            }
        });
        out.into_iter()
            .map(|w| w.expect("all stages filled"))
            .collect()
    };
    let w1 = fan_out(1);
    let w2 = fan_out(2);
    let w8 = fan_out(8);
    assert_eq!(w1, w2, "1 vs 2 workers diverged");
    assert_eq!(w1, w8, "1 vs 8 workers diverged");
}
