//! Set-associative cache simulator (L1 + last-level).

use std::cell::Cell;

/// Tag of a way that holds no line. No byte address shifted by a line
/// size of at least 8 can produce it.
const INVALID: u64 = u64::MAX;

/// Tag arrays at least this long go back to the thread's spare slot
/// when their cache drops. An L1-sized array (512 tags) is cheaper to
/// allocate than to look up; a sweep probe's LLC stack is up to 90 112
/// tags (0.72 MB), and filling it is most of what constructing a probe
/// cost.
const REUSE_MIN_TAGS: usize = 4096;

/// Sets of every [`CacheSim::for_vcpu_sweep`] LLC stack. The slice sizes
/// (2.5 MiB plus 384 KiB per vCPU, of 64-byte lines) are all multiples
/// of 2 048 lines, so every slice is 2 048 sets of `20 + 3 × vCPUs`
/// ways: 23 at 1 vCPU, 44 at 8.
const LLC_SETS: usize = 2048;

/// The arrays behind one cache. In the spare slot every tag is
/// [`INVALID`] and `dirty` is empty, so a reused pair needs no fill.
type Arrays = (Vec<u64>, Vec<u32>);

thread_local! {
    /// The arrays of the longest cache this thread dropped. Per thread,
    /// so a sweep worker reuses its own arrays without a lock and the
    /// slot dies with it; one slot holds the one LLC stack a probe
    /// builds.
    static SPARE: Cell<Option<Arrays>> = const { Cell::new(None) };
}

/// Arrays for a cache of `tags` ways: the spare pair if it is long
/// enough, else a fresh fill. A reused array may be longer than asked;
/// the tail is never indexed and stays [`INVALID`].
fn take_arrays(tags: usize) -> Arrays {
    if tags >= REUSE_MIN_TAGS {
        // A thread that is exiting has no slot left: allocate.
        if let Ok(Some(spare)) = SPARE.try_with(Cell::take) {
            if spare.0.len() >= tags {
                return spare;
            }
            let _ = SPARE.try_with(|slot| slot.set(Some(spare)));
        }
    }
    (vec![INVALID; tags], Vec::new())
}

/// One level of set-associative cache with LRU replacement.
///
/// Addresses are byte addresses; the simulator tracks tags only, so it is
/// cheap enough for the EDA kernels to feed every (sampled) access.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `sets x ways` tags (a reused array may be longer). A set is a
    /// recency stack: most recent line first, invalid ways at the tail,
    /// so the way to replace — the first invalid one, else the least
    /// recent — is always the last, and a set holds a line exactly when
    /// its first tag is valid.
    tags: Vec<u64>,
    /// Sets holding at least one line: all a flush has to clear.
    dirty: Vec<u32>,
}

impl Cache {
    /// Create a cache of `size_bytes` with `line_bytes` lines and
    /// `ways`-way associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, non-power-of-two
    /// line size, or size not divisible into at least one set).
    #[must_use]
    pub fn new(size_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= 8,
            "line size must be a power of two >= 8"
        );
        let lines = size_bytes / line_bytes;
        let sets = (lines / ways).max(1);
        let (tags, dirty) = take_arrays(sets * ways);
        Self {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags,
            dirty,
        }
    }

    /// Simulate one access; returns `true` on hit. Misses install the
    /// line (allocate-on-miss; the replaced way is the first invalid
    /// one, else the least recently used).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.lookup(addr).is_some()
    }

    /// [`Cache::access`] that reports where a hit was: the line's depth
    /// in its set's recency stack before the access (0 = most recent).
    /// Under LRU a cache of `w` ways with the same sets holds exactly
    /// the top `w` lines of this stack, so the access would hit it
    /// exactly when the depth is below `w`.
    #[inline]
    fn lookup(&mut self, addr: u64) -> Option<usize> {
        let line = addr >> self.line_shift;
        let set = if self.sets.is_power_of_two() {
            line as usize & (self.sets - 1)
        } else {
            line as usize % self.sets
        };
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        let first = slots[0];
        if first == line {
            return Some(0);
        }
        slots[0] = line;
        if first == INVALID {
            // An empty set: the line is all it holds.
            self.dirty.push(set as u32);
            return None;
        }
        // Move to front in one pass: each way takes its predecessor's
        // line until the hit's old way, the first invalid way (the rest
        // are invalid too) or the tail, whose line falls off on a miss.
        let mut carry = first;
        for (depth, slot) in slots.iter_mut().enumerate().skip(1) {
            let old = std::mem::replace(slot, carry);
            if old == line {
                return Some(depth);
            }
            if old == INVALID {
                break;
            }
            carry = old;
        }
        None
    }

    /// Drop all cached lines: the cache is as it was when constructed.
    /// Costs the sets that hold a line, not the whole array.
    fn flush(&mut self) {
        for &set in &self.dirty {
            let base = set as usize * self.ways;
            self.tags[base..base + self.ways].fill(INVALID);
        }
        self.dirty.clear();
    }
}

/// Same geometry and contents (a reused array's unused tail does not
/// count).
impl PartialEq for Cache {
    fn eq(&self, other: &Self) -> bool {
        let live = self.sets * self.ways;
        (self.sets, self.ways, self.line_shift) == (other.sets, other.ways, other.line_shift)
            && self.tags[..live] == other.tags[..live]
    }
}

impl Eq for Cache {}

/// A dropped cache hands its arrays, flushed, to the thread's spare
/// slot unless the spare is at least as long — a longer array serves
/// every request a shorter one does, so the slot settles on an array
/// any LLC stack fits in.
impl Drop for Cache {
    fn drop(&mut self) {
        if self.tags.len() < REUSE_MIN_TAGS {
            return;
        }
        // A thread that is exiting has no slot left; the arrays just drop.
        let _ = SPARE.try_with(|slot| {
            let spare = slot.take();
            if spare.as_ref().is_some_and(|(tags, _)| tags.len() >= self.tags.len()) {
                slot.set(spare);
                return;
            }
            self.flush();
            slot.set(Some((std::mem::take(&mut self.tags), std::mem::take(&mut self.dirty))));
        });
    }
}

/// One private L1 in front of a last-level cache per machine, with
/// per-access statistics.
///
/// The LLC capacity models the paper's observation that more vCPUs come
/// with a larger share of the host's last-level cache:
/// [`CacheSim::for_vcpu_sweep`] gives each vCPU count an LLC slice of its
/// own. VM sizes differ in nothing else, so one pass simulates several
/// of them: every slice sees exactly the L1's miss stream, which is the
/// stream it would see behind an L1 of its own. The slices are LRU
/// caches with the same sets and differ only in ways, so each holds the
/// top of one recency stack as deep as the widest (inclusion; Mattson
/// et al., 1970): one stack, and a count of the L1 misses that hit it
/// at each depth, gives every slice's exact miss count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSim {
    l1: Cache,
    /// The recency stack, as many ways as the widest entry's slice.
    llc: Cache,
    /// Entry `k`'s slice: the top `ways[k]` lines of each stack set.
    ways: Vec<usize>,
    /// L1 misses that hit the stack at each depth.
    depth_hits: Vec<u64>,
    l1_misses: u64,
}

impl CacheSim {
    /// One private 32 KiB L1 in front of an LRU LLC slice per entry of
    /// `vcpus`; entry `k` counts what a hierarchy built for the `k`-th
    /// entry alone would. A slice grows *sub-linearly* with the vCPU
    /// count, 2.875 MiB at 1 vCPU to 5.5 MiB at 8 — the hypervisor
    /// carves one physical last-level cache among tenants, so a 1-vCPU
    /// tenant still sees a few MiB while an 8-vCPU tenant gets roughly
    /// the paper's Xeon-class share.
    #[must_use]
    pub fn for_vcpu_sweep(vcpus: impl IntoIterator<Item = u32>) -> Self {
        let ways: Vec<usize> = vcpus.into_iter().map(|v| 20 + 3 * (v as usize).max(1)).collect();
        let deepest = ways.iter().copied().max().unwrap_or(1);
        Self {
            l1: Cache::new(32 * 1024, 64, 8),
            llc: Cache::new(LLC_SETS * deepest * 64, 64, deepest),
            depth_hits: vec![0; deepest],
            ways,
            l1_misses: 0,
        }
    }

    /// Simulate one access through both levels; returns `true` on L1 hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        if self.l1.access(addr) {
            return true;
        }
        self.l1_misses += 1;
        if let Some(depth) = self.llc.lookup(addr) {
            self.depth_hits[depth] += 1;
        }
        false
    }

    /// Accesses that missed both the L1 and entry `k`'s LLC slice.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy has no entry `k`.
    #[must_use]
    pub fn llc_misses_at(&self, k: usize) -> u64 {
        self.l1_misses - self.depth_hits[..self.ways[k]].iter().sum::<u64>()
    }
}

#[cfg(test)]
impl CacheSim {
    /// Build from explicit level geometries (one entry, the given LLC).
    fn new(l1: Cache, llc: Cache) -> Self {
        Self {
            ways: vec![llc.ways],
            depth_hits: vec![0; llc.ways],
            l1,
            llc,
            l1_misses: 0,
        }
    }

    /// Accesses that missed L1.
    fn l1_misses(&self) -> u64 {
        self.l1_misses
    }

    /// Accesses that missed both levels (of the first entry's LLC slice,
    /// for a sweep hierarchy).
    fn llc_misses(&self) -> u64 {
        self.llc_misses_at(0)
    }
}

/// The simulator this module replaced, kept as the reference the
/// differential tests hold the recency stacks to: physical ways, a stamp
/// per way, victim = first invalid way, else least stamp.
#[cfg(test)]
pub(crate) mod oracle {
    #[derive(Debug, Clone)]
    pub(crate) struct StampCache {
        sets: usize,
        ways: usize,
        line_shift: u32,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        tick: u64,
    }

    impl StampCache {
        pub(crate) fn new(size_bytes: usize, line_bytes: usize, ways: usize) -> Self {
            let sets = (size_bytes / line_bytes / ways).max(1);
            Self {
                sets,
                ways,
                line_shift: line_bytes.trailing_zeros(),
                tags: vec![u64::MAX; sets * ways],
                stamps: vec![0; sets * ways],
                tick: 0,
            }
        }

        /// The L1 and LLC slice of one entry of `CacheSim::for_vcpu_sweep`:
        /// 2.5 MiB plus 384 KiB per vCPU, in 2 048 sets.
        pub(crate) fn hierarchy_for_vcpus(vcpus: u32) -> (Self, Self) {
            let llc_bytes = 2_621_440 + (vcpus as usize).max(1) * 393_216;
            (Self::new(32 * 1024, 64, 8), Self::new(llc_bytes, 64, llc_bytes / 64 / 2048))
        }

        pub(crate) fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            let line = addr >> self.line_shift;
            let set = (line as usize) % self.sets;
            let base = set * self.ways;
            let slots = &mut self.tags[base..base + self.ways];
            if let Some(w) = slots.iter().position(|&t| t == line) {
                self.stamps[base + w] = self.tick;
                return true;
            }
            let victim = (0..self.ways)
                .find(|&w| self.tags[base + w] == u64::MAX)
                .or_else(|| (0..self.ways).min_by_key(|&w| self.stamps[base + w]))
                .expect("ways > 0");
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.tick;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::StampCache;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(1024, 64, 2);
        assert!(!c.access(0));
        for _ in 0..10 {
            assert!(c.access(0));
        }
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 ways, 1 set of interest: lines mapping to the same set.
        let mut c = Cache::new(128, 64, 2); // 1 set, 2 ways
        assert!(!c.access(0x000)); // line 0
        assert!(!c.access(0x040)); // line 1
        assert!(c.access(0x000)); // refresh line 0
        assert!(!c.access(0x080)); // line 2 evicts line 1 (LRU)
        assert!(c.access(0x000), "line 0 survived");
        assert!(!c.access(0x040), "line 1 was evicted");
    }

    #[test]
    fn flush_clears_contents() {
        let mut c = Cache::new(1024, 64, 2);
        c.access(0);
        c.flush();
        assert!(!c.access(0));
    }

    #[test]
    fn streaming_larger_than_cache_misses() {
        let mut c = Cache::new(1024, 64, 2);
        // Touch 64 distinct lines twice: second pass still misses because
        // the working set exceeds capacity.
        let mut misses = 0;
        for pass in 0..2 {
            for i in 0..64u64 {
                if !c.access(i * 64) {
                    misses += 1;
                }
                let _ = pass;
            }
        }
        assert_eq!(misses, 128, "pure streaming never hits");
    }

    #[test]
    fn hierarchy_counts_levels_separately() {
        let mut sim = CacheSim::for_vcpu_sweep([1]);
        sim.access(0);
        sim.access(0);
        assert_eq!(sim.l1_misses(), 1);
        assert_eq!(sim.llc_misses(), 1);
    }

    #[test]
    fn l1_miss_can_hit_llc() {
        let mut sim = CacheSim::new(Cache::new(128, 64, 2), Cache::new(64 * 1024, 64, 16));
        // Fill beyond L1 but within LLC.
        for i in 0..16u64 {
            sim.access(i * 64);
        }
        let llc_before = sim.llc_misses();
        // Re-touch an early line: misses L1 (evicted) but hits LLC.
        sim.access(0);
        assert_eq!(sim.llc_misses(), llc_before);
        assert!(sim.l1_misses() > 0);
    }

    #[test]
    fn more_vcpus_mean_more_llc() {
        let sim = CacheSim::for_vcpu_sweep([1, 2, 4, 8]);
        assert_eq!(sim.ways, [23, 26, 32, 44]);
        assert_eq!((sim.llc.sets, sim.llc.ways), (LLC_SETS, 44));
    }

    #[test]
    fn repeated_counts_read_what_a_lone_hierarchy_counts() {
        // A 4 MiB footprint, swept three times: more than the 1-vCPU
        // slice holds, less than the 8-vCPU one, so slices disagree.
        let touch = |sim: &mut CacheSim| {
            for _pass in 0..3 {
                for i in 0..(4u64 << 20) / 64 {
                    sim.access(i * 64);
                }
            }
        };
        let vcpus = [8, 1, 4, 1, 2, 8, 1];
        let mut sweep = CacheSim::for_vcpu_sweep(vcpus);
        touch(&mut sweep);
        for (k, &v) in vcpus.iter().enumerate() {
            let mut lone = CacheSim::for_vcpu_sweep([v]);
            touch(&mut lone);
            assert_eq!(sweep.llc_misses_at(k), lone.llc_misses(), "entry {k} ({v} vCPUs)");
            assert_eq!(sweep.l1_misses(), lone.l1_misses());
        }
        assert_ne!(sweep.llc_misses_at(0), sweep.llc_misses_at(1), "8 and 1 vCPUs disagree");
    }

    /// Addresses that collide: a few sets of a cache with `sets_apart`
    /// sets, up to `max_lines` lines per set, with runs of
    /// re-references — cold fill, hits at every stack depth, and
    /// evictions all occur within a short stream.
    fn colliding_stream(sets_apart: u64, max_lines: u64) -> impl Strategy<Value = Vec<u64>> {
        proptest::strategy::from_fn(move |rng| {
            let sets = 1 + rng.below(4);
            let lines_per_set = 1 + rng.below(max_lines);
            (0..200 + rng.below(600))
                .map(|_| {
                    let line = rng.below(lines_per_set) * sets_apart + rng.below(sets);
                    line * 64 + rng.below(64)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Recency stack == stamp LRU, access for access, from a cold
        /// set through eviction, at the L1's geometry and a tiny one.
        #[test]
        fn recency_stack_matches_stamp_lru(stream in colliding_stream(64, 24), small in 0u8..2) {
            let (size, ways) = if small == 0 { (32 * 1024, 8) } else { (512, 4) };
            let mut stack = Cache::new(size, 64, ways);
            let mut stamps = StampCache::new(size, 64, ways);
            for (i, &addr) in stream.iter().enumerate() {
                prop_assert_eq!(stack.access(addr), stamps.access(addr), "access {} at {:#x}", i, addr);
            }
        }

        /// One 44-way stack behind the L1 counts, for every entry of the
        /// 1/2/4/8 sweep and after every access, the misses of an LRU
        /// slice of its own: 2 048 sets of 23 / 26 / 32 / 44 ways. The
        /// stream crowds up to 64 lines into a few LLC sets, so every
        /// depth on both sides of each slice's ways occurs.
        #[test]
        fn one_stack_equals_four_lru_caches(stream in colliding_stream(LLC_SETS as u64, 64)) {
            let vcpus = [1, 2, 4, 8];
            let mut sweep = CacheSim::for_vcpu_sweep(vcpus);
            let mut lone: Vec<_> = vcpus.map(StampCache::hierarchy_for_vcpus).into();
            let mut counts = [(0u64, 0u64); 4];
            for (i, &addr) in stream.iter().enumerate() {
                sweep.access(addr);
                for (k, (l1, llc)) in lone.iter_mut().enumerate() {
                    if !l1.access(addr) {
                        counts[k].0 += 1;
                        if !llc.access(addr) {
                            counts[k].1 += 1;
                        }
                    }
                    prop_assert_eq!((sweep.l1_misses(), sweep.llc_misses_at(k)), counts[k], "access {} entry {}", i, k);
                }
            }
        }

        /// A cache that ran a larger footprint, was flushed, and runs
        /// again is indistinguishable from a fresh one, in state and in
        /// every later hit/miss.
        #[test]
        fn flushed_cache_equals_fresh(first in colliding_stream(64, 24), second in colliding_stream(64, 24)) {
            let mut reused = Cache::new(2048, 64, 4);
            for &addr in &first {
                reused.access(addr);
            }
            // Widen the footprint past what `second` touches.
            for set in 0..8u64 {
                reused.access(set * 64);
            }
            reused.flush();
            let mut fresh = Cache::new(2048, 64, 4);
            prop_assert_eq!(&reused, &fresh);
            for &addr in &second {
                prop_assert_eq!(reused.access(addr), fresh.access(addr));
            }
            prop_assert_eq!(&reused, &fresh);
        }
    }

    #[test]
    fn dropped_llc_arrays_are_reused_clean_and_bounded() {
        // The spare slot's tag count, after checking the spare is clean.
        let spare_len = || {
            SPARE.with(|slot| {
                let spare = slot.take();
                let len = spare.as_ref().map(|(tags, dirty)| {
                    assert!(dirty.is_empty() && tags.iter().all(|&t| t == INVALID));
                    tags.len()
                });
                slot.set(spare);
                len
            })
        };
        let touch = |sim: &mut CacheSim| {
            for i in 0..50_000u64 {
                sim.access(i * 4096 + (i % 7) * 64);
            }
        };
        SPARE.with(Cell::take);
        let mut first = CacheSim::for_vcpu_sweep([1, 2, 1, 1, 4, 8, 8]);
        assert_eq!(first.llc.tags.len(), 90_112, "one stack as deep as the widest slice");
        touch(&mut first);
        let mut second = CacheSim::for_vcpu_sweep([1]);
        touch(&mut second);
        let expected = {
            let mut fresh = CacheSim::for_vcpu_sweep([1, 2]);
            touch(&mut fresh);
            fresh
        };
        drop(second);
        assert_eq!(spare_len(), Some(47_104));
        drop(first);
        // The longer stack displaces the shorter one.
        assert_eq!(spare_len(), Some(90_112));
        // A smaller stack on the longer, previously dirty array.
        let mut reused = CacheSim::for_vcpu_sweep([1, 2]);
        assert_eq!(spare_len(), None);
        assert_eq!(reused.llc.tags.len(), 90_112);
        touch(&mut reused);
        assert_eq!(reused, expected);
        // A shorter array never displaces the spare.
        drop(reused);
        drop(expected);
        assert_eq!(spare_len(), Some(90_112));
    }
}
