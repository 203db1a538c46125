//! Random push/pop scripts for `EventHeap`, replayed against a
//! `BTreeMap<(t, push index), payload>` model. Included twice by path: by
//! `tests/engine_service.rs` (tier-1, on `EventHeap::new`) and by the unit
//! tests of `crates/engine`, which also replay them on heaps built with
//! the crate-private `EventHeap::with_capacity`.

use super::EventHeap;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// One step of a heap script.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    Push(u64),
    Pop,
    /// Pop until empty; later pushes refill the heap.
    Drain,
    /// A pop followed at once by a push at `t`: a simulation handler
    /// rescheduling, which lands in the hole the heap-lane pop left.
    PopPush(u64),
}

prop_compose! {
    /// A script mixing ascending runs, out-of-order pushes, equal-time
    /// bursts that straddle both lanes, interleaved pops, drains, and
    /// pop-then-push steps whose push lands below, at or above the
    /// remaining minimum and on either lane.
    pub fn heap_script()(seed in 0u64..u64::MAX, len in 1usize..400) -> Vec<Step> {
        let mut rng = TestRng::for_test(&seed.to_string());
        // The latest time pushed so far: the run lane's tail is at most this.
        let mut clock = 0u64;
        // The pending times, to draw pushes around the remaining minimum.
        let mut pending = BinaryHeap::new();
        let mut steps = Vec::with_capacity(len + 24);
        while steps.len() < len {
            let before = steps.len();
            match rng.below(6) {
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
                4 => {
                    for _ in 0..=rng.below(12) {
                        let popped = pending.pop().map_or(0, |Reverse(t)| t);
                        let min = pending.peek().map_or(popped, |&Reverse(t)| t);
                        let t = match rng.below(4) {
                            0 => rng.below(min + 1),            // at or below the minimum
                            1 => min + rng.below(clock - min + 1), // up to the run's tail
                            2 => min + 1 + rng.below(8),        // just above the minimum
                            _ => clock + rng.below(4),          // the run lane, mostly
                        };
                        clock = clock.max(t);
                        pending.push(Reverse(t));
                        steps.push(Step::PopPush(t));
                    }
                }
                _ => {
                    steps.push(Step::Drain);
                    pending.clear();
                    clock = rng.below(clock + 1); // refill from earlier times too
                }
            }
            for step in &steps[before..] {
                match *step {
                    Step::Push(t) => pending.push(Reverse(t)),
                    Step::Pop => drop(pending.pop()),
                    Step::Drain | Step::PopPush(_) => {}
                }
            }
        }
        steps
    }
}

/// Replay `script` on `heap` (empty on entry) and on the model, checking
/// every pop, the peeked time, the length and emptiness after each step
/// and between a `PopPush`'s pop and its push, while the hole is pending.
pub fn replay_against_model(mut heap: EventHeap<u64>, script: &[Step]) {
    let mut model = BTreeMap::new();
    let mut pushed = 0u64;
    let pop_both = |heap: &mut EventHeap<u64>, model: &mut BTreeMap<(u64, u64), u64>| {
        let want = model.pop_first().map(|((t, _), payload)| (t, payload));
        assert_eq!(heap.pop(), want);
    };
    let check = |heap: &EventHeap<u64>, model: &BTreeMap<(u64, u64), u64>| {
        assert_eq!(heap.peek_time(), model.keys().next().map(|&(t, _)| t));
        assert_eq!(heap.len(), model.len());
        assert_eq!(heap.is_empty(), model.is_empty());
    };
    let mut push_both = |heap: &mut EventHeap<u64>, model: &mut BTreeMap<_, _>, t| {
        heap.push(t, pushed);
        model.insert((t, pushed), pushed);
        pushed += 1;
    };
    for &step in script {
        match step {
            Step::Push(t) => push_both(&mut heap, &mut model, t),
            Step::Pop => pop_both(&mut heap, &mut model),
            Step::Drain => {
                while !model.is_empty() {
                    pop_both(&mut heap, &mut model);
                }
                pop_both(&mut heap, &mut model);
            }
            Step::PopPush(t) => {
                pop_both(&mut heap, &mut model);
                check(&heap, &model);
                push_both(&mut heap, &mut model, t);
            }
        }
        check(&heap, &model);
    }
}
