//! Set-associative cache simulator (L1 + last-level).

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `sets x ways` tag array; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
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
        Self {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            tick: 0,
            lru: true,
        }
    }

    /// Same geometry with deterministic pseudo-random replacement.
    #[must_use]
    pub fn new_random_replacement(size_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        Self {
            lru: false,
            ..Self::new(size_bytes, line_bytes, ways)
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        (self.sets * self.ways) << self.line_shift
    }

    /// Simulate one access; returns `true` on hit. Misses install the
    /// line (allocate-on-miss, LRU eviction).
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line = addr >> self.line_shift;
        let set = (line as usize) % self.sets;
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(w) = slots.iter().position(|&t| t == line) {
            self.stamps[base + w] = self.tick;
            return true;
        }
        // Miss: evict per policy. Prefer invalid ways first.
        let victim = if let Some(w) = (0..self.ways).find(|&w| self.tags[base + w] == u64::MAX) {
            w
        } else if self.lru {
            (0..self.ways)
                .min_by_key(|&w| self.stamps[base + w])
                .expect("ways > 0")
        } else {
            // Deterministic hash of (tick, line): pseudo-random victim.
            ((self.tick ^ line).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize % self.ways
        };
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.tick;
        false
    }

    /// Drop all cached lines.
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
    }
}

/// A two-level (L1 + LLC) hierarchy with per-access statistics.
///
/// The LLC capacity models the paper's observation that more vCPUs come
/// with a larger share of the host's last-level cache: construct via
/// [`CacheSim::for_vcpus`] to get a per-vCPU LLC slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSim {
    l1: Cache,
    llc: Cache,
    accesses: u64,
    l1_misses: u64,
    llc_misses: u64,
}

impl CacheSim {
    /// Build from explicit level geometries.
    #[must_use]
    pub fn new(l1: Cache, llc: Cache) -> Self {
        Self {
            l1,
            llc,
            accesses: 0,
            l1_misses: 0,
            llc_misses: 0,
        }
    }

    /// Hierarchy sized for a VM with `vcpus` virtual CPUs: a private
    /// 32 KiB L1, and an LLC slice that grows *sub-linearly* with the
    /// vCPU count — the hypervisor carves one physical last-level cache
    /// among tenants, so a 1-vCPU tenant still sees a few MiB while an
    /// 8-vCPU tenant gets roughly the paper's Xeon-class share.
    #[must_use]
    pub fn for_vcpus(vcpus: u32) -> Self {
        let vcpus = (vcpus as usize).max(1);
        let llc_bytes = 2_621_440 + vcpus * 393_216; // ~2.9 MiB .. ~5.6 MiB
        Self::new(
            Cache::new(32 * 1024, 64, 8),
            Cache::new_random_replacement(llc_bytes, 64, 16),
        )
    }

    /// Simulate one access through both levels; returns `true` on L1 hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        if self.l1.access(addr) {
            return true;
        }
        self.l1_misses += 1;
        if !self.llc.access(addr) {
            self.llc_misses += 1;
        }
        false
    }

    /// Number of simulated accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses that missed L1.
    #[must_use]
    pub fn l1_misses(&self) -> u64 {
        self.l1_misses
    }

    /// Accesses that missed both levels.
    #[must_use]
    pub fn llc_misses(&self) -> u64 {
        self.llc_misses
    }

    /// L1 miss ratio.
    #[must_use]
    pub fn l1_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.accesses as f64
        }
    }

    /// Reset statistics and contents.
    pub fn reset(&mut self) {
        self.l1.flush();
        self.llc.flush();
        self.accesses = 0;
        self.l1_misses = 0;
        self.llc_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(1024, 64, 2);
        assert!(!c.access(0));
        for _ in 0..10 {
            assert!(c.access(0));
        }
    }

    #[test]
    fn capacity_matches_geometry() {
        let c = Cache::new(32 * 1024, 64, 8);
        assert_eq!(c.capacity_bytes(), 32 * 1024);
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
        let mut sim = CacheSim::for_vcpus(1);
        sim.access(0);
        sim.access(0);
        assert_eq!(sim.accesses(), 2);
        assert_eq!(sim.l1_misses(), 1);
        assert_eq!(sim.llc_misses(), 1);
        assert!((sim.l1_miss_rate() - 0.5).abs() < 1e-12);
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
        let a = CacheSim::for_vcpus(1);
        let b = CacheSim::for_vcpus(8);
        assert!(b.llc.capacity_bytes() > a.llc.capacity_bytes());
    }

    #[test]
    fn reset_zeroes_stats() {
        let mut sim = CacheSim::for_vcpus(1);
        sim.access(0);
        sim.reset();
        assert_eq!(sim.accesses(), 0);
        assert!(!sim.access(0), "contents flushed too");
    }
}
