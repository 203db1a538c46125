//! The `(time_us, seq)` event heap — the deterministic core extracted
//! from the fleet simulator.
//!
//! Events pop in ascending time order; equal times pop in push order,
//! because every push stamps a monotone sequence number. That single
//! rule is what makes a whole simulation a pure function of its
//! inputs: no hash-map iteration order, no thread interleaving, no
//! wall clock ever decides which of two simultaneous events runs
//! first.
//!
//! Behind that rule sit two lanes. Every simulator pushes its whole
//! arrival stream, already sorted by time, before the first pop; those
//! pushes append to a FIFO run lane in O(1), and only the few in-flight
//! events that land before the run's tail go through the binary heap.
//! Both lanes hold the same `(t, seq)` order and `seq` is unique, so
//! popping the smaller of the two heads yields exactly the pop sequence
//! one heap would.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// One scheduled event: fire time, tie-breaking sequence, payload.
struct Entry<E> {
    t: u64,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The total pop order: time, then push order.
    fn key(&self) -> (u64, u64) {
        (self.t, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop earliest (t, seq).
        other.key().cmp(&self.key())
    }
}

/// A deterministic event queue keyed by `(time_us, seq)`.
///
/// The sequence counter lives inside the heap — callers cannot forget
/// to stamp it, reuse it across heaps, or tick it out of order, which
/// is exactly the class of bug the extraction retires.
pub struct EventHeap<E> {
    /// Pushes at or after the lane's last time, in push order — hence
    /// sorted by `(t, seq)`.
    run: VecDeque<Entry<E>>,
    /// Every other push.
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventHeap<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventHeap<E> {
    /// An empty heap with the sequence counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty heap whose run lane holds `run` pushes before it
    /// regrows — size it to a simulator's arrival stream.
    #[must_use]
    pub(crate) fn with_capacity(run: usize) -> Self {
        Self { run: VecDeque::with_capacity(run), heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedule `event` at `t` microseconds. Events pushed at the same
    /// time pop in push order.
    pub fn push(&mut self, t: u64, event: E) {
        let entry = Entry { t, seq: self.seq, event };
        self.seq += 1;
        // `seq` only grows, so `t >= last.t` keeps the run sorted.
        if self.run.back().is_none_or(|last| t >= last.t) {
            self.run.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// Remove and return the earliest `(time, event)` pair.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let from_run = match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) => r.key() < h.key(),
            (r, _) => r.is_some(),
        };
        let entry = if from_run { self.run.pop_front() } else { self.heap.pop() };
        entry.map(|e| (e.t, e.event))
    }

    /// Fire time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<u64> {
        let (r, h) = (self.run.front().map(|e| e.t), self.heap.peek().map(|e| e.t));
        r.into_iter().chain(h).min()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// True when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap_script::{heap_script, replay_against_model};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tier-1 differential of `tests/engine_service.rs`, on heaps
        /// whose run lane is pre-sized below, at or above the script's
        /// pushes.
        #[test]
        fn event_heap_matches_an_ordered_map_model(script in heap_script(), run in 0usize..512) {
            replay_against_model(EventHeap::with_capacity(run), &script);
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut heap = EventHeap::new();
        heap.push(30, "c");
        heap.push(10, "a");
        heap.push(20, "b");
        assert_eq!(heap.peek_time(), Some(10));
        assert_eq!(heap.pop(), Some((10, "a")));
        assert_eq!(heap.pop(), Some((20, "b")));
        assert_eq!(heap.pop(), Some((30, "c")));
        assert_eq!(heap.pop(), None);
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut heap = EventHeap::new();
        for label in ["first", "second", "third", "fourth"] {
            heap.push(100, label);
        }
        let order: Vec<_> = std::iter::from_fn(|| heap.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["first", "second", "third", "fourth"]);
    }

    #[test]
    fn an_equal_time_straddling_both_lanes_pops_in_push_order() {
        // 10 and 20 append to the run lane; the second 10 lands behind
        // the run's tail and goes to the heap lane. The tie between the
        // two lanes' heads is broken by `seq`, not by lane.
        let mut heap = EventHeap::new();
        heap.push(10, "first");
        heap.push(20, "second");
        heap.push(10, "third");
        assert_eq!((heap.run.len(), heap.heap.len()), (2, 1));
        assert_eq!(heap.peek_time(), Some(10));
        assert_eq!(heap.pop(), Some((10, "first")));
        assert_eq!(heap.pop(), Some((10, "third")));
        assert_eq!(heap.pop(), Some((20, "second")));
        assert_eq!(heap.pop(), None);
    }

    #[test]
    fn sequence_counter_survives_drains() {
        let mut heap = EventHeap::new();
        heap.push(1, ());
        heap.push(2, ());
        assert_eq!(heap.seq, 2);
        let _ = heap.pop();
        let _ = heap.pop();
        assert!(heap.is_empty());
        // New pushes keep counting up: a drained heap must not recycle
        // sequence numbers, or a later same-time push could jump ahead.
        heap.push(5, ());
        assert_eq!(heap.seq, 3);
        assert_eq!(heap.len(), 1);
    }
}
