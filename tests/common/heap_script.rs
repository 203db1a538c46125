//! Random push/pop scripts for `EventHeap`, replayed against a
//! `BTreeMap<(t, push index), payload>` model. Included twice by path: by
//! `tests/engine_service.rs` (tier-1, on `EventHeap::new`) and by the unit
//! tests of `crates/engine`, which also replay them on heaps built with
//! the crate-private `EventHeap::with_capacity`.

use super::EventHeap;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;

/// One step of a heap script.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    Push(u64),
    Pop,
    /// Pop until empty; later pushes refill the heap.
    Drain,
}

prop_compose! {
    /// A script mixing ascending runs, out-of-order pushes, equal-time
    /// bursts that straddle both lanes, interleaved pops, and drains.
    pub fn heap_script()(seed in 0u64..u64::MAX, len in 1usize..400) -> Vec<Step> {
        let mut rng = TestRng::for_test(&seed.to_string());
        // The latest time pushed so far: the run lane's tail is at most this.
        let mut clock = 0u64;
        let mut steps = Vec::with_capacity(len + 8);
        while steps.len() < len {
            match rng.below(5) {
                0 => {
                    for _ in 0..=rng.below(12) {
                        clock += rng.below(4);
                        steps.push(Step::Push(clock));
                    }
                }
                1 => {
                    for _ in 0..=rng.below(6) {
                        steps.push(Step::Push(rng.below(clock + 1)));
                    }
                }
                2 => {
                    // Two at `t` join the run, a later push moves its
                    // tail past `t`, two more at `t` go to the heap.
                    let t = clock;
                    clock += 1 + rng.below(3);
                    steps.extend([t, t, clock, t, t].map(Step::Push));
                }
                3 => steps.extend((0..=rng.below(6)).map(|_| Step::Pop)),
                _ => {
                    steps.push(Step::Drain);
                    clock = rng.below(clock + 1); // refill from earlier times too
                }
            }
        }
        steps
    }
}

/// Replay `script` on `heap` (empty on entry) and on the model, checking
/// every pop, the peeked time, the length and emptiness after each step.
pub fn replay_against_model(mut heap: EventHeap<u64>, script: &[Step]) {
    let mut model = BTreeMap::new();
    let mut pushed = 0u64;
    let pop_both = |heap: &mut EventHeap<u64>, model: &mut BTreeMap<(u64, u64), u64>| {
        let want = model.pop_first().map(|((t, _), payload)| (t, payload));
        assert_eq!(heap.pop(), want);
    };
    for &step in script {
        match step {
            Step::Push(t) => {
                heap.push(t, pushed);
                model.insert((t, pushed), pushed);
                pushed += 1;
            }
            Step::Pop => pop_both(&mut heap, &mut model),
            Step::Drain => {
                while !model.is_empty() {
                    pop_both(&mut heap, &mut model);
                }
                pop_both(&mut heap, &mut model);
            }
        }
        assert_eq!(heap.peek_time(), model.keys().next().map(|&(t, _)| t));
        assert_eq!(heap.len(), model.len());
        assert_eq!(heap.is_empty(), model.is_empty());
    }
}
