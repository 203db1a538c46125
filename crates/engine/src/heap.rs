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
//! pushes append to a FIFO run lane in O(1). The in-flight events that
//! land before the run's tail go to a binary min-heap of `(key, slot)`
//! nodes, 32 bytes and `Copy`: one `u128` key `(t << 64) | seq`, the
//! same total order as `(t, seq)`, and the slab slot where the payload
//! waits (freed slots are reused). `seq` is unique, so popping the
//! smaller of the two heads yields exactly the pop sequence one heap
//! would.
//!
//! A simulation handler usually pushes right after its event popped.
//! So a pop from the heap lane takes the root's payload and leaves the
//! root as a *hole*: the next heap-lane push writes into it and sifts
//! down once, instead of a pop's sift-down and a push's sift-up. A pop
//! that meets a pending hole first fills it the usual way — the last
//! node moves into the root and sifts down. `peek_time`, `len` and
//! `is_empty` count the hole; while one is pending the heap lane's
//! minimum is the smaller of the root's two children. Both sifts hold
//! the moving node aside and copy each node they pass once per level.

use std::collections::VecDeque;

/// The total pop order in one compare: time in the high half, push
/// order in the low half.
fn key(t: u64, seq: u64) -> u128 {
    u128::from(t) << 64 | u128::from(seq)
}

/// The fire time a key was built from.
fn time(key: u128) -> u64 {
    (key >> 64) as u64
}

/// A heap-lane node: the event's key and the slab slot of its payload.
#[derive(Clone, Copy)]
struct Node {
    key: u128,
    slot: usize,
}

/// A deterministic event queue keyed by `(time_us, seq)`.
///
/// The sequence counter lives inside the heap — callers cannot forget
/// to stamp it, reuse it across heaps, or tick it out of order, which
/// is exactly the class of bug the extraction retires.
pub struct EventHeap<E> {
    /// `(t, seq, event)` for each push at or after the lane's last time,
    /// in push order — hence sorted by `(t, seq)`.
    run: VecDeque<(u64, u64, E)>,
    /// Every other push: a binary min-heap on `Node::key`. While `hole`
    /// is set, `nodes[0]` is stale — its payload has popped.
    nodes: Vec<Node>,
    hole: bool,
    /// Heap-lane payloads by `Node::slot`; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slots of `slab`, reused LIFO.
    free: Vec<usize>,
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
        Self {
            run: VecDeque::with_capacity(run),
            nodes: Vec::new(),
            hole: false,
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedule `event` at `t` microseconds. Events pushed at the same
    /// time pop in push order.
    pub fn push(&mut self, t: u64, event: E) {
        let seq = self.seq;
        self.seq += 1;
        // `seq` only grows, so `t >= last` keeps the run sorted.
        if self.run.back().is_none_or(|&(last, _, _)| t >= last) {
            self.run.push_back((t, seq, event));
            return;
        }
        self.push_heap(key(t, seq), event);
    }

    /// The heap-lane half of `push`. Kept out of line, with `pop_heap`,
    /// so a run-lane push or pop stays a few inlined instructions: a
    /// time-ordered stream of 10 000 pushes and pops took ~1.5x longer
    /// with both halves inlined into it (2-vCPU x86-64 host).
    #[inline(never)]
    fn push_heap(&mut self, key: u128, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        let node = Node { key, slot };
        if self.hole {
            self.hole = false;
            self.nodes[0] = node;
            self.sift_down(0);
        } else {
            self.nodes.push(node);
            self.sift_up(self.nodes.len() - 1);
        }
    }

    /// Remove and return the earliest `(time, event)` pair.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let from_run = match (self.run.front(), self.heap_min()) {
            (Some(&(t, seq, _)), Some(h)) => key(t, seq) < h,
            (r, _) => r.is_some(),
        };
        if from_run {
            return self.run.pop_front().map(|(t, _, event)| (t, event));
        }
        self.pop_heap()
    }

    /// The heap-lane half of `pop`: fill a pending hole, then take the
    /// root's payload and leave the root as the new hole.
    #[inline(never)]
    fn pop_heap(&mut self) -> Option<(u64, E)> {
        self.fill_hole();
        let root = *self.nodes.first()?;
        let event = self.slab[root.slot].take().expect("a heap node owns its slot");
        self.free.push(root.slot);
        self.hole = true;
        Some((time(root.key), event))
    }

    /// Fire time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<u64> {
        let r = self.run.front().map(|&(t, seq, _)| key(t, seq));
        r.into_iter().chain(self.heap_min()).min().map(time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.run.len() + self.nodes.len() - usize::from(self.hole)
    }

    /// True when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The heap lane's smallest key: the root's, or with a hole pending
    /// the smaller of its children's.
    fn heap_min(&self) -> Option<u128> {
        if self.hole {
            self.nodes.get(1..3.min(self.nodes.len()))?.iter().map(|n| n.key).min()
        } else {
            self.nodes.first().map(|n| n.key)
        }
    }

    /// Close a pending hole the usual way: the last node moves into the
    /// root and sifts down.
    fn fill_hole(&mut self) {
        if !std::mem::take(&mut self.hole) {
            return;
        }
        let last = self.nodes.pop().expect("a hole is a node");
        if !self.nodes.is_empty() {
            self.nodes[0] = last;
            self.sift_down(0);
        }
    }

    /// Move the node at `pos` down past every smaller child. The smaller
    /// of two children is picked by arithmetic, not a branch: which one
    /// wins is a coin toss the predictor cannot learn.
    fn sift_down(&mut self, mut pos: usize) {
        let nodes = &mut self.nodes[..];
        let node = nodes[pos];
        let end = nodes.len();
        let mut child = 2 * pos + 1;
        while child + 1 < end {
            child += usize::from(nodes[child + 1].key < nodes[child].key);
            if node.key < nodes[child].key {
                nodes[pos] = node;
                return;
            }
            nodes[pos] = nodes[child];
            pos = child;
            child = 2 * pos + 1;
        }
        // A last child without a sibling.
        if child + 1 == end && nodes[child].key < node.key {
            nodes[pos] = nodes[child];
            pos = child;
        }
        nodes[pos] = node;
    }

    /// Move the node at `pos` up past every larger parent.
    fn sift_up(&mut self, mut pos: usize) {
        let node = self.nodes[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.nodes[parent].key < node.key {
                break;
            }
            self.nodes[pos] = self.nodes[parent];
            pos = parent;
        }
        self.nodes[pos] = node;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap_script::{heap_script, replay_against_model};
    use proptest::prelude::*;
    use std::rc::Rc;

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
        assert_eq!((heap.run.len(), heap.nodes.len()), (2, 1));
        assert_eq!(heap.peek_time(), Some(10));
        assert_eq!(heap.pop(), Some((10, "first")));
        assert_eq!(heap.pop(), Some((10, "third")));
        assert_eq!(heap.pop(), Some((20, "second")));
        assert_eq!(heap.pop(), None);
    }

    #[test]
    fn a_heap_lane_pop_leaves_a_hole_the_next_push_fills() {
        let mut heap = EventHeap::new();
        heap.push(100, 'z');
        for (t, e) in [(40, 'd'), (10, 'a'), (30, 'c'), (20, 'b')] {
            heap.push(t, e);
        }
        assert_eq!(heap.pop(), Some((10, 'a')));
        // The root is a hole: counted out of `len`, skipped by `peek_time`.
        assert!(heap.hole);
        assert_eq!((heap.nodes.len(), heap.len(), heap.peek_time()), (4, 4, Some(20)));
        // A push below the children lands in the hole; one above sifts.
        heap.push(15, 'e');
        assert!(!heap.hole);
        assert_eq!(heap.nodes.len(), 4);
        assert_eq!(heap.pop(), Some((15, 'e')));
        heap.push(35, 'f');
        assert_eq!(heap.nodes.len(), 4);
        let order: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
        assert_eq!(order, [(20, 'b'), (30, 'c'), (35, 'f'), (40, 'd'), (100, 'z')]);
        assert!(heap.is_empty());
    }

    #[test]
    fn a_dropped_heap_releases_every_payload() {
        let token = Rc::new(());
        let mut heap = EventHeap::new();
        heap.push(100, Rc::clone(&token));
        for t in (0..8).rev() {
            heap.push(t, Rc::clone(&token));
        }
        // Two heap-lane pops free two slots; the push between them fills
        // the first hole from the free list.
        drop(heap.pop());
        heap.push(50, Rc::clone(&token));
        drop(heap.pop());
        heap.push(60, Rc::clone(&token));
        drop(heap.pop());
        assert!(heap.hole);
        assert_eq!(heap.slab.len(), 8, "freed slots are reused, not appended");
        assert_eq!(Rc::strong_count(&token), 1 + heap.len());
        drop(heap);
        assert_eq!(Rc::strong_count(&token), 1);
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

    #[test]
    fn the_key_orders_by_time_then_push_order() {
        assert!(key(1, u64::MAX) < key(2, 0));
        assert!(key(7, 3) < key(7, 4));
        assert_eq!(time(key(u64::MAX, u64::MAX)), u64::MAX);
        assert_eq!(std::mem::size_of::<Node>(), 32);
    }
}
