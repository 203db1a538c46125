//! Set-associative cache simulator (L1 + last-level).

use std::cell::RefCell;

/// Tag of a way that holds no line. No byte address shifted by a line
/// size of at least 8 can produce it.
const INVALID: u64 = u64::MAX;

/// Tag arrays at least this long go back to the free list when their
/// cache drops. An L1-sized array (512 tags) is cheaper to allocate
/// than to look up; an LLC slice is 47 104–90 112 tags (0.37–0.72 MB),
/// and filling four of them is most of what constructing a probe cost.
const REUSE_MIN_TAGS: usize = 4096;

/// Arrays one thread keeps between probes: as many as the LLC slices
/// of one 1/2/4/8-vCPU sweep probe (however many times its contexts
/// repeat that sweep), at most 2.9 MB of tags once all four are 8-vCPU
/// sized. A run that holds more caches at once allocates the excess and
/// frees it again on drop.
const FREE_LIST_SLOTS: usize = 4;

/// The arrays behind one cache. On the free list every tag is
/// [`INVALID`] and `dirty` is empty, so a reused pair needs no fill.
type Arrays = (Vec<u64>, Vec<u32>);

thread_local! {
    /// Tag arrays of dropped caches. Per thread, so a sweep worker
    /// reuses its own arrays without a lock and the list dies with it.
    static FREE_LIST: RefCell<Vec<Arrays>> = const { RefCell::new(Vec::new()) };
}

/// Arrays for a cache of `tags` ways: the smallest free pair that is
/// long enough, else a fresh fill. A reused array may be longer than
/// asked; the tail is never indexed and stays [`INVALID`].
fn take_arrays(tags: usize) -> Arrays {
    let reused = if tags < REUSE_MIN_TAGS {
        None
    } else {
        // A thread that is exiting has no list left: allocate.
        FREE_LIST
            .try_with(|free| {
                let mut free = free.try_borrow_mut().ok()?;
                let best = (0..free.len())
                    .filter(|&i| free[i].0.len() >= tags)
                    .min_by_key(|&i| free[i].0.len())?;
                Some(free.swap_remove(best))
            })
            .ok()
            .flatten()
    };
    reused.unwrap_or_else(|| (vec![INVALID; tags], Vec::new()))
}

/// One level of set-associative cache with LRU replacement.
///
/// Addresses are byte addresses; the simulator tracks tags only, so it is
/// cheap enough for the EDA kernels to feed every (sampled) access.
///
/// # Examples
///
/// ```
/// use eda_cloud_perf::Cache;
///
/// let mut l1 = Cache::new(32 * 1024, 64, 8);
/// assert!(!l1.access(0x40));      // cold miss
/// assert!(l1.access(0x40));       // now resident
/// assert!(l1.access(0x44));       // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `sets x ways` tags (a reused array may be longer). Under LRU a
    /// set is a recency stack: most recent line first, invalid ways at
    /// the tail, so the way to replace — the first invalid one, else
    /// the least recent — is always the last. Under random replacement
    /// ways are physical and fill front to back. Either way a set
    /// holds a line exactly when its first tag is valid.
    tags: Vec<u64>,
    /// Sets holding at least one line: all a flush has to clear.
    dirty: Vec<u32>,
    /// Accesses so far under random replacement; feeds its victim
    /// hash.
    tick: u64,
    /// Replacement policy: LRU (true) or deterministic pseudo-random
    /// (false). Large shared LLCs behave closer to random replacement,
    /// which also avoids LRU's all-or-nothing cliff on cyclic scans.
    lru: bool,
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
            tick: 0,
            lru: true,
        }
    }

    /// Same geometry with deterministic pseudo-random replacement.
    #[must_use]
    pub fn new_random_replacement(size_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        let mut cache = Self::new(size_bytes, line_bytes, ways);
        cache.lru = false;
        cache
    }

    /// Simulate one access; returns `true` on hit. Misses install the
    /// line (allocate-on-miss; the replaced way is the first invalid
    /// one, else the policy's victim).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = if self.sets.is_power_of_two() {
            line as usize & (self.sets - 1)
        } else {
            line as usize % self.sets
        };
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        let first = slots[0];
        if self.lru {
            if first == line {
                return true;
            }
            // Move to front; on a miss the tail falls off.
            let depth = slots.iter().position(|&t| t == line);
            slots.copy_within(..depth.unwrap_or(self.ways - 1), 1);
            slots[0] = line;
            if depth.is_some() {
                return true;
            }
        } else {
            self.tick += 1;
            // Nothing valid lies beyond the first invalid way.
            let mut victim = None;
            for (w, &t) in slots.iter().enumerate() {
                if t == line {
                    return true;
                }
                if t == INVALID {
                    victim = Some(w);
                    break;
                }
            }
            // Deterministic hash of (tick, line): pseudo-random victim.
            let victim = victim.unwrap_or_else(|| {
                ((self.tick ^ line).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize % self.ways
            });
            slots[victim] = line;
        }
        if first == INVALID {
            self.dirty.push(set as u32);
        }
        false
    }

    /// Drop all cached lines: the cache is as it was when constructed.
    /// Costs the sets that hold a line, not the whole array.
    pub fn flush(&mut self) {
        for &set in &self.dirty {
            let base = set as usize * self.ways;
            self.tags[base..base + self.ways].fill(INVALID);
        }
        self.dirty.clear();
        self.tick = 0;
    }
}

/// Same geometry, policy and contents (a reused array's unused tail
/// does not count).
impl PartialEq for Cache {
    fn eq(&self, other: &Self) -> bool {
        let live = self.sets * self.ways;
        (self.sets, self.ways, self.line_shift, self.lru, self.tick)
            == (other.sets, other.ways, other.line_shift, other.lru, other.tick)
            && self.tags[..live] == other.tags[..live]
    }
}

impl Eq for Cache {}

/// A dropped cache hands its arrays, flushed, to the thread's free
/// list. A full list keeps the longest arrays — a longer one serves
/// every request a shorter one does, so the list settles on arrays any
/// LLC slice fits in.
impl Drop for Cache {
    fn drop(&mut self) {
        if self.tags.len() < REUSE_MIN_TAGS {
            return;
        }
        // A thread that is exiting has no list left; the arrays just drop.
        let _ = FREE_LIST.try_with(|free| {
            let Ok(mut free) = free.try_borrow_mut() else { return };
            let slot = if free.len() < FREE_LIST_SLOTS {
                free.push(Arrays::default());
                free.len() - 1
            } else {
                let shortest = (0..free.len())
                    .min_by_key(|&i| free[i].0.len())
                    .expect("the list has slots");
                if free[shortest].0.len() >= self.tags.len() {
                    return;
                }
                shortest
            };
            self.flush();
            free[slot] = (std::mem::take(&mut self.tags), std::mem::take(&mut self.dirty));
        });
    }
}

/// One private L1 in front of one last-level cache per machine, with
/// per-access statistics.
///
/// The LLC capacity models the paper's observation that more vCPUs come
/// with a larger share of the host's last-level cache:
/// [`CacheSim::for_vcpu_sweep`] builds one LLC slice per vCPU count. VM
/// sizes differ in nothing else, so one pass simulates several of them:
/// every LLC sees exactly the L1's miss stream, which is the stream it
/// would see behind an L1 of its own. Entries with the same slice size
/// read one slice: equal geometry, fed the same stream from the same
/// tick, ends in the same state with the same misses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSim {
    l1: Cache,
    llcs: Vec<Llc>,
    /// Entry `k`'s slice in `llcs`.
    slice_of: Vec<usize>,
    l1_misses: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Llc {
    cache: Cache,
    misses: u64,
}

impl CacheSim {
    /// Build from explicit level geometries.
    #[must_use]
    pub fn new(l1: Cache, llc: Cache) -> Self {
        Self {
            l1,
            llcs: vec![Llc { cache: llc, misses: 0 }],
            slice_of: vec![0],
            l1_misses: 0,
        }
    }

    /// One private 32 KiB L1 in front of one LLC slice per distinct
    /// slice size among `vcpus`; entry `k` counts what a hierarchy built
    /// for the `k`-th entry alone would. A slice grows *sub-linearly*
    /// with the vCPU count — the hypervisor carves one physical
    /// last-level cache among tenants, so a 1-vCPU tenant still sees a
    /// few MiB while an 8-vCPU tenant gets roughly the paper's
    /// Xeon-class share.
    #[must_use]
    pub fn for_vcpu_sweep(vcpus: impl IntoIterator<Item = u32>) -> Self {
        let mut sizes: Vec<usize> = Vec::new();
        let slice_of = vcpus
            .into_iter()
            .map(|v| {
                let llc_bytes = 2_621_440 + (v as usize).max(1) * 393_216; // ~2.9 MiB .. ~5.6 MiB
                sizes.iter().position(|&s| s == llc_bytes).unwrap_or_else(|| {
                    sizes.push(llc_bytes);
                    sizes.len() - 1
                })
            })
            .collect();
        let llcs = sizes
            .into_iter()
            .map(|bytes| Llc { cache: Cache::new_random_replacement(bytes, 64, 16), misses: 0 })
            .collect();
        Self {
            l1: Cache::new(32 * 1024, 64, 8),
            llcs,
            slice_of,
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
        for llc in &mut self.llcs {
            if !llc.cache.access(addr) {
                llc.misses += 1;
            }
        }
        false
    }

    /// Accesses that missed L1.
    #[must_use]
    pub fn l1_misses(&self) -> u64 {
        self.l1_misses
    }

    /// Accesses that missed both levels (of the first entry's LLC slice,
    /// for a sweep hierarchy).
    #[must_use]
    pub fn llc_misses(&self) -> u64 {
        self.llc_misses_at(0)
    }

    /// Accesses that missed both the L1 and entry `k`'s LLC slice.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy has no entry `k`.
    #[must_use]
    pub fn llc_misses_at(&self, k: usize) -> u64 {
        self.llcs[self.slice_of[k]].misses
    }
}

/// The simulator this module replaced, kept as the reference the
/// differential tests hold the recency-stack L1 and the stampless LLC
/// to: physical ways, a stamp per way, victim = first invalid way, else
/// least stamp (LRU) or the `(tick, line)` hash (random).
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
        lru: bool,
    }

    impl StampCache {
        pub(crate) fn new(size_bytes: usize, line_bytes: usize, ways: usize, lru: bool) -> Self {
            let sets = (size_bytes / line_bytes / ways).max(1);
            Self {
                sets,
                ways,
                line_shift: line_bytes.trailing_zeros(),
                tags: vec![u64::MAX; sets * ways],
                stamps: vec![0; sets * ways],
                tick: 0,
                lru,
            }
        }

        /// The L1 and LLC slice `CacheSim::for_vcpu_sweep` builds for one entry.
        pub(crate) fn hierarchy_for_vcpus(vcpus: u32) -> (Self, Self) {
            let llc_bytes = 2_621_440 + (vcpus as usize).max(1) * 393_216;
            (Self::new(32 * 1024, 64, 8, true), Self::new(llc_bytes, 64, 16, false))
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
            let victim = if let Some(w) = (0..self.ways).find(|&w| self.tags[base + w] == u64::MAX)
            {
                w
            } else if self.lru {
                (0..self.ways)
                    .min_by_key(|&w| self.stamps[base + w])
                    .expect("ways > 0")
            } else {
                ((self.tick ^ line).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize % self.ways
            };
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
        let sim = CacheSim::for_vcpu_sweep([1, 8]);
        assert!(sim.llcs[1].cache.sets > sim.llcs[0].cache.sets);
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
        assert_eq!(sweep.llcs.len(), 4);
        touch(&mut sweep);
        for (k, &v) in vcpus.iter().enumerate() {
            let mut lone = CacheSim::for_vcpu_sweep([v]);
            touch(&mut lone);
            assert_eq!(sweep.llc_misses_at(k), lone.llc_misses(), "entry {k} ({v} vCPUs)");
            assert_eq!(sweep.l1_misses(), lone.l1_misses());
        }
        assert_ne!(sweep.llc_misses_at(0), sweep.llc_misses_at(1), "8 and 1 vCPUs disagree");
    }

    /// Addresses that collide: a few sets, more lines per set than
    /// ways, with runs of re-references — cold fill, hits at every
    /// stack depth, and evictions all occur within a short stream.
    fn colliding_stream() -> impl Strategy<Value = Vec<u64>> {
        proptest::strategy::from_fn(|rng| {
            let sets = 1 + rng.below(4);
            let lines_per_set = 1 + rng.below(24);
            (0..200 + rng.below(600))
                .map(|_| {
                    let line = rng.below(lines_per_set) * 64 + rng.below(sets);
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
        fn recency_stack_matches_stamp_lru(stream in colliding_stream(), small in 0u8..2) {
            let (size, ways) = if small == 0 { (32 * 1024, 8) } else { (512, 4) };
            let mut stack = Cache::new(size, 64, ways);
            let mut stamps = StampCache::new(size, 64, ways, true);
            for (i, &addr) in stream.iter().enumerate() {
                prop_assert_eq!(stack.access(addr), stamps.access(addr), "access {} at {:#x}", i, addr);
            }
        }

        /// The stampless random-replacement cache picks the victims the
        /// stamped one did (the hash reads the tick, never a stamp).
        #[test]
        fn stampless_random_replacement_matches_oracle(stream in colliding_stream()) {
            let mut new = Cache::new_random_replacement(2048, 64, 4);
            let mut old = StampCache::new(2048, 64, 4, false);
            for (i, &addr) in stream.iter().enumerate() {
                prop_assert_eq!(new.access(addr), old.access(addr), "access {} at {:#x}", i, addr);
            }
        }

        /// A cache that ran a larger footprint, was flushed, and runs
        /// again is indistinguishable from a fresh one — for both
        /// policies, in state and in every later hit/miss.
        #[test]
        fn flushed_cache_equals_fresh(first in colliding_stream(), second in colliding_stream(), lru in 0u8..2) {
            let build = || if lru == 1 { Cache::new(2048, 64, 4) } else { Cache::new_random_replacement(2048, 64, 4) };
            let mut reused = build();
            for &addr in &first {
                reused.access(addr);
            }
            // Widen the footprint past what `second` touches.
            for set in 0..8u64 {
                reused.access(set * 64);
            }
            reused.flush();
            let mut fresh = build();
            prop_assert_eq!(&reused, &fresh);
            for &addr in &second {
                prop_assert_eq!(reused.access(addr), fresh.access(addr));
            }
            prop_assert_eq!(&reused, &fresh);
        }
    }

    #[test]
    fn dropped_llc_arrays_are_reused_clean_and_bounded() {
        FREE_LIST.with(|free| free.borrow_mut().clear());
        let free_lens = || {
            FREE_LIST.with(|free| {
                let free = free.borrow();
                assert!(free.iter().all(|(tags, dirty)| dirty.is_empty() && tags.iter().all(|&t| t == INVALID)));
                let mut lens: Vec<usize> = free.iter().map(|(tags, _)| tags.len()).collect();
                lens.sort_unstable();
                lens
            })
        };
        let touch = |sim: &mut CacheSim| {
            for i in 0..50_000u64 {
                sim.access(i * 4096 + (i % 7) * 64);
            }
        };
        let mut first = CacheSim::for_vcpu_sweep([1, 2, 1, 1, 4, 8, 8]);
        assert_eq!(first.llcs.len(), 4, "one slice per distinct vCPU count");
        touch(&mut first);
        let mut second = CacheSim::for_vcpu_sweep([8]);
        touch(&mut second);
        let expected = {
            let mut fresh = CacheSim::for_vcpu_sweep([1, 2]);
            touch(&mut fresh);
            fresh
        };
        drop(first);
        assert_eq!(free_lens(), [47_104, 53_248, 65_536, 90_112]);
        drop(second);
        // Five dirty LLCs dropped, shortest first: the four longest stay.
        assert_eq!(free_lens(), [53_248, 65_536, 90_112, 90_112]);
        // Smaller caches on longer, previously dirty arrays.
        let mut reused = CacheSim::for_vcpu_sweep([1, 2]);
        assert_eq!(free_lens(), [90_112, 90_112]);
        assert_eq!(reused.llcs[0].cache.tags.len(), 53_248);
        assert_eq!(reused.llcs[1].cache.tags.len(), 65_536);
        touch(&mut reused);
        assert_eq!(reused, expected);
    }
}
