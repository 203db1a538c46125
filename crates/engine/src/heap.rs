//! The `(time_us, seq)` event heap — the deterministic core extracted
//! from the fleet simulator.
//!
//! Events pop in ascending time order; equal times pop in push order,
//! because every push stamps a monotone sequence number. That single
//! rule is what makes a whole simulation a pure function of its
//! inputs: no hash-map iteration order, no thread interleaving, no
//! wall clock ever decides which of two simultaneous events runs
//! first.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event: fire time, tie-breaking sequence, payload.
struct Entry<E> {
    t: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
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
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

/// A deterministic event queue keyed by `(time_us, seq)`.
///
/// The sequence counter lives inside the heap — callers cannot forget
/// to stamp it, reuse it across heaps, or tick it out of order, which
/// is exactly the class of bug the extraction retires.
pub struct EventHeap<E> {
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
        Self { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedule `event` at `t` microseconds. Events pushed at the same
    /// time pop in push order.
    pub fn push(&mut self, t: u64, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { t, seq, event });
    }

    /// Remove and return the earliest `(time, event)` pair.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|e| (e.t, e.event))
    }

    /// Fire time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.t)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
