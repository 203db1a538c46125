//! The probe EDA kernels emit events into.

use crate::{BranchPredictor, CacheSim, CounterSet, MachineConfig};

/// One event emitted by an instrumented kernel into a [`PerfProbe`].
///
/// Engines only ever *write* events into the probe — no kernel reads
/// probe state back — so the event stream of a run is a pure function
/// of the inputs (design + recipe), independent of the machine the
/// probe models. That makes a recorded [`ProbeTrace`] replayable
/// against any machine configuration with results bit-identical to a
/// fresh run on that machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// `n` generic retired instructions.
    Instr(u64),
    /// A memory access (read or write-allocate) at a byte address.
    Access(u64),
    /// A conditional branch at site `pc` with its outcome.
    Branch {
        /// Branch site address (predictor index).
        pc: u64,
        /// Whether the branch was taken.
        taken: bool,
    },
    /// `n` iterations of a well-predicted loop.
    LoopBranches(u64),
    /// `n` floating-point operations.
    Fp {
        /// Operation count.
        n: u64,
        /// Whether the work can land on vector hardware.
        vectorizable: bool,
    },
}

/// A machine-independent recording of every event a probed run emitted,
/// in order. Replaying it into a probe for machine `m` yields exactly
/// the counters a fresh run on `m` would produce, at a fraction of the
/// cost of re-running the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeTrace {
    events: Vec<ProbeEvent>,
}

impl ProbeTrace {
    /// Replay the trace into a fresh probe for `machine` and return the
    /// resulting counters — bit-identical to running the original
    /// kernel against that machine.
    #[must_use]
    pub fn replay(&self, machine: &MachineConfig) -> CounterSet {
        let mut probe = PerfProbe::for_machine(machine);
        for event in &self.events {
            probe.apply(*event);
        }
        probe.counters()
    }
}

/// Collects events from an instrumented kernel: memory accesses flow
/// through a cache hierarchy sized for the target machine, branches
/// through a bimodal predictor, and floating-point work is attributed to
/// AVX hardware when the machine supports it.
///
/// One probe per thread (cache/predictor state is per-thread, matching
/// private L1s).
///
/// A probe serves one machine ([`PerfProbe::for_machine`]) or a whole
/// sweep of them ([`PerfProbe::for_machines`]). Machines differ, to a
/// probe, in two things only — the LLC slice their vCPU count buys and
/// whether vector FP lands on AVX units — so a sweep probe runs one L1,
/// one predictor and one set of event counts for all of them, one LRU
/// recency stack behind the shared L1's miss stream whose top ways are
/// each machine's LLC slice, and splits the vectorizable FP per machine
/// when counters are read.
/// [`PerfProbe::counters_for`]`(k)` is, bit for bit, what a probe for
/// machine `k` alone reports after the same events.
///
/// A probe created with [`PerfProbe::for_machine_traced`] additionally
/// records every event into a [`ProbeTrace`] for later replay against
/// other machine configurations.
#[derive(Debug, Clone)]
pub struct PerfProbe {
    /// Events every machine counts alike. Vectorizable FP waits in
    /// `avx_ops` until a read moves it to `flops` for machines without
    /// AVX; `llc_misses` stays zero (the hierarchy counts those).
    counters: CounterSet,
    cache: CacheSim,
    branch: BranchPredictor,
    /// Per machine of the sweep, whether it has AVX units.
    avx: Vec<bool>,
    trace: Option<Vec<ProbeEvent>>,
}

impl PerfProbe {
    /// Probe with a cache hierarchy and AVX capability matching `machine`.
    #[must_use]
    pub fn for_machine(machine: &MachineConfig) -> Self {
        Self::for_machines(std::slice::from_ref(machine))
    }

    /// One probe for every machine of a sweep, in the order given
    /// (duplicates allowed); read machine `k`'s result with
    /// [`PerfProbe::counters_for`].
    #[must_use]
    pub fn for_machines(machines: &[MachineConfig]) -> Self {
        Self {
            counters: CounterSet::default(),
            cache: CacheSim::for_vcpu_sweep(machines.iter().map(|m| m.vcpus)),
            branch: BranchPredictor::new(4096),
            avx: machines.iter().map(|m| m.avx).collect(),
            trace: None,
        }
    }

    /// Like [`PerfProbe::for_machine`], but records every event into a
    /// trace retrievable with [`PerfProbe::into_traced`].
    #[must_use]
    pub fn for_machine_traced(machine: &MachineConfig) -> Self {
        Self {
            trace: Some(Vec::new()),
            ..Self::for_machine(machine)
        }
    }

    #[inline]
    fn record(&mut self, event: ProbeEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(event);
        }
    }

    /// Apply one event without recording it (shared by the live entry
    /// points and [`ProbeTrace::replay`]).
    #[inline]
    fn apply(&mut self, event: ProbeEvent) {
        match event {
            ProbeEvent::Instr(n) => self.counters.instructions += n,
            ProbeEvent::Access(addr) => {
                self.counters.instructions += 1;
                self.counters.cache_refs += 1;
                if !self.cache.access(addr) {
                    self.counters.l1_misses += 1;
                }
            }
            ProbeEvent::Branch { pc, taken } => {
                self.counters.instructions += 1;
                self.counters.branches += 1;
                if !self.branch.predict_and_update(pc, taken) {
                    self.counters.branch_misses += 1;
                }
            }
            ProbeEvent::LoopBranches(n) => {
                self.counters.instructions += n;
                self.counters.branches += n;
                // Loop predictors capture short trip counts; long loops
                // pay an amortized exit/alias miss.
                self.counters.branch_misses += n / 48;
            }
            ProbeEvent::Fp { n, vectorizable } => {
                self.counters.instructions += n;
                if vectorizable {
                    self.counters.avx_ops += n;
                } else {
                    self.counters.flops += n;
                }
            }
        }
    }

    /// Count `n` generic retired instructions.
    #[inline]
    pub fn instr(&mut self, n: u64) {
        self.record(ProbeEvent::Instr(n));
        self.apply(ProbeEvent::Instr(n));
    }

    /// Simulate a memory read at byte address `addr`.
    #[inline]
    pub fn read(&mut self, addr: u64) {
        self.record(ProbeEvent::Access(addr));
        self.apply(ProbeEvent::Access(addr));
    }

    /// Simulate a memory write at byte address `addr` (write-allocate).
    #[inline]
    pub fn write(&mut self, addr: u64) {
        self.record(ProbeEvent::Access(addr));
        self.apply(ProbeEvent::Access(addr));
    }

    /// Simulate a conditional branch at site `pc` with outcome `taken`.
    #[inline]
    pub fn branch(&mut self, pc: u64, taken: bool) {
        self.record(ProbeEvent::Branch { pc, taken });
        self.apply(ProbeEvent::Branch { pc, taken });
    }

    /// Count `n` iterations of a well-predicted loop: the back-edge
    /// branch is taken every iteration and mispredicted only at loop
    /// exit. Engines call this once per loop with the trip count, so
    /// the branch population reflects real control flow instead of only
    /// the data-dependent branches.
    #[inline]
    pub fn loop_branches(&mut self, n: u64) {
        self.record(ProbeEvent::LoopBranches(n));
        self.apply(ProbeEvent::LoopBranches(n));
    }

    /// Count `n` floating-point operations; vectorizable work lands on
    /// AVX hardware when available, otherwise executes as scalar FLOPs.
    #[inline]
    pub fn fp(&mut self, n: u64, vectorizable: bool) {
        self.record(ProbeEvent::Fp { n, vectorizable });
        self.apply(ProbeEvent::Fp { n, vectorizable });
    }

    /// Current counter snapshot (of the first machine, for a sweep
    /// probe).
    #[must_use]
    pub fn counters(&self) -> CounterSet {
        self.counters_for(0)
    }

    /// Current counter snapshot for machine `k` of the sweep.
    ///
    /// # Panics
    ///
    /// Panics if the probe has no machine `k`.
    #[must_use]
    pub fn counters_for(&self, k: usize) -> CounterSet {
        let mut c = self.counters;
        if !self.avx[k] {
            c.flops += c.avx_ops;
            c.avx_ops = 0;
        }
        // LLC misses live in the hierarchy (kept there to avoid a
        // second counter increment on the hot path).
        c.llc_misses = self.cache.llc_misses_at(k);
        c
    }

    /// Finish a traced run, returning the final counters and the
    /// recorded event trace (empty for untraced probes).
    #[must_use]
    pub fn into_traced(mut self) -> (CounterSet, ProbeTrace) {
        let events = self.trace.take().unwrap_or_default();
        (self.counters(), ProbeTrace { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::oracle::StampCache;
    use proptest::prelude::*;

    fn probe() -> PerfProbe {
        PerfProbe::for_machine(&MachineConfig::vcpus(1))
    }

    #[test]
    fn reads_flow_through_cache() {
        let mut p = probe();
        p.read(0);
        p.read(0);
        p.read(64 * 1024 * 1024); // far away -> new line
        let c = p.counters();
        assert_eq!(c.cache_refs, 3);
        assert_eq!(c.l1_misses, 2);
        assert_eq!(c.llc_misses, 2);
        assert_eq!(c.instructions, 3);
    }

    #[test]
    fn fp_attribution_depends_on_avx() {
        let mut with = PerfProbe::for_machine(&MachineConfig::vcpus(1));
        with.fp(10, true);
        with.fp(5, false);
        let c = with.counters();
        assert_eq!(c.avx_ops, 10);
        assert_eq!(c.flops, 5);

        let mut without =
            PerfProbe::for_machine(&MachineConfig { avx: false, ..MachineConfig::vcpus(1) });
        without.fp(10, true);
        let c = without.counters();
        assert_eq!(c.avx_ops, 0);
        assert_eq!(c.flops, 10);
    }

    /// Drive a deterministic but machine-sensitive event mix through a
    /// probe (large-stride accesses hit different cache levels per
    /// machine; FP attribution depends on AVX).
    fn exercise(p: &mut PerfProbe) {
        // Working set of 4 MiB: larger than the 1-vCPU LLC (2.875 MiB),
        // smaller than the 8-vCPU LLC (5.5 MiB), so the same trace
        // produces different LLC miss counts on the two machines.
        for pass in 0..3u64 {
            for i in 0..(4 << 20) / 64u64 {
                p.read(i * 64);
                p.branch(0x10 + (i % 7), (i + pass) % 3 == 0);
            }
        }
        p.instr(123);
        p.loop_branches(500);
        p.fp(64, true);
        p.fp(9, false);
        p.write(0xDEAD_0000);
    }

    #[test]
    fn trace_replay_is_bit_identical_per_machine() {
        let m1 = MachineConfig::vcpus(1);
        let m8 = MachineConfig::vcpus(8);
        let mut traced = PerfProbe::for_machine_traced(&m1);
        exercise(&mut traced);
        let (recorded, trace) = traced.into_traced();
        assert!(!trace.events.is_empty());

        // Replay on the recording machine reproduces its counters.
        assert_eq!(trace.replay(&m1), recorded);

        // Replay on a different machine matches a fresh run there —
        // and genuinely differs from the m1 counters (bigger LLC).
        let mut fresh = PerfProbe::for_machine(&m8);
        exercise(&mut fresh);
        let on_m8 = trace.replay(&m8);
        assert_eq!(on_m8, fresh.counters());
        assert_ne!(on_m8.llc_misses, recorded.llc_misses);
    }

    #[test]
    fn untraced_probe_yields_empty_trace() {
        let mut p = probe();
        p.instr(5);
        let (counters, trace) = p.into_traced();
        assert_eq!(counters.instructions, 5);
        assert_eq!(trace, ProbeTrace::default());
    }

    // -----------------------------------------------------------------
    // Differential tests: the sweep probe against one probe per
    // machine, and both against the arithmetic this module replaced.
    // -----------------------------------------------------------------

    /// Feed `events` through the public entry points.
    fn drive(p: &mut PerfProbe, events: &[ProbeEvent]) {
        for &event in events {
            match event {
                ProbeEvent::Instr(n) => p.instr(n),
                ProbeEvent::Access(addr) => p.read(addr),
                ProbeEvent::Branch { pc, taken } => p.branch(pc, taken),
                ProbeEvent::LoopBranches(n) => p.loop_branches(n),
                ProbeEvent::Fp { n, vectorizable } => p.fp(n, vectorizable),
            }
        }
    }

    /// The single-machine probe's arithmetic, event for event: stamp
    /// caches, FP attributed as it arrives, `llc_misses` counted aside
    /// and set on read.
    fn reference_counters(machine: &MachineConfig, events: &[ProbeEvent]) -> CounterSet {
        let (mut l1, mut llc) = StampCache::hierarchy_for_vcpus(machine.vcpus);
        let mut branch = BranchPredictor::new(4096);
        let mut c = CounterSet::default();
        let mut llc_misses = 0;
        for &event in events {
            match event {
                ProbeEvent::Instr(n) => c.instructions += n,
                ProbeEvent::Access(addr) => {
                    c.instructions += 1;
                    c.cache_refs += 1;
                    if !l1.access(addr) {
                        c.l1_misses += 1;
                        if !llc.access(addr) {
                            llc_misses += 1;
                        }
                    }
                }
                ProbeEvent::Branch { pc, taken } => {
                    c.instructions += 1;
                    c.branches += 1;
                    if !branch.predict_and_update(pc, taken) {
                        c.branch_misses += 1;
                    }
                }
                ProbeEvent::LoopBranches(n) => {
                    c.instructions += n;
                    c.branches += n;
                    c.branch_misses += n / 48;
                }
                ProbeEvent::Fp { n, vectorizable } => {
                    c.instructions += n;
                    if vectorizable && machine.avx {
                        c.avx_ops += n;
                    } else {
                        c.flops += n;
                    }
                }
            }
        }
        c.llc_misses = llc_misses;
        c
    }

    /// Segments of strided passes sized around the 2.875–5.5 MiB LLC
    /// slices (so slices disagree and evict), clustered re-references
    /// (L1 hits at every depth), branches, loop branches, FP of both
    /// kinds and plain instructions.
    fn event_stream() -> impl Strategy<Value = Vec<ProbeEvent>> {
        proptest::strategy::from_fn(|rng| {
            let mut events = Vec::new();
            for _ in 0..2 + rng.below(5) {
                match rng.below(5) {
                    0 | 1 => {
                        let base = rng.below(4) << 28;
                        let stride = [64, 64, 192, 4096 + 64][rng.below(4) as usize];
                        let lines = 30_000 + rng.below(70_000);
                        for _pass in 0..1 + rng.below(2) {
                            events.extend((0..lines).map(|i| ProbeEvent::Access(base + i * stride)));
                        }
                    }
                    2 => {
                        let base = rng.below(1 << 32);
                        let window = 64 << rng.below(6);
                        for _ in 0..500 + rng.below(4_500) {
                            events.push(ProbeEvent::Access(base + rng.below(window) * 64 + rng.below(64)));
                        }
                    }
                    3 => {
                        let bias = 1 + rng.below(9);
                        for _ in 0..200 + rng.below(1_800) {
                            let (pc, taken) = (0xD0 + rng.below(8), rng.below(10) < bias);
                            events.push(ProbeEvent::Branch { pc, taken });
                        }
                    }
                    _ => {
                        for _ in 0..1 + rng.below(12) {
                            events.push(match rng.below(3) {
                                0 => ProbeEvent::Instr(rng.below(10_000)),
                                1 => ProbeEvent::LoopBranches(rng.below(500)),
                                _ => ProbeEvent::Fp { n: rng.below(4_000), vectorizable: rng.below(2) == 0 },
                            });
                        }
                    }
                }
            }
            events
        })
    }

    /// One to four machines: every sweep size, both instance families,
    /// AVX on and off, duplicates likely.
    fn machine_list() -> impl Strategy<Value = Vec<MachineConfig>> {
        proptest::strategy::from_fn(|rng| {
            (0..1 + rng.below(4))
                .map(|_| {
                    let vcpus = 1 << rng.below(4);
                    let base = MachineConfig::vcpus(vcpus);
                    let bandwidth_scale = [1.0, 1.5][rng.below(2) as usize];
                    MachineConfig {
                        avx: rng.below(3) != 0,
                        mem_bw_gbps: base.mem_bw_gbps * bandwidth_scale,
                        ..base
                    }
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sweep_probe_equals_one_probe_per_machine(machines in machine_list(), events in event_stream()) {
            let mut sweep = PerfProbe::for_machines(&machines);
            drive(&mut sweep, &events);
            for (k, machine) in machines.iter().enumerate() {
                let mut single = PerfProbe::for_machine(machine);
                drive(&mut single, &events);
                prop_assert_eq!(sweep.counters_for(k), single.counters(), "machine {} of {:?}", k, machines);
                prop_assert_eq!(single.counters(), reference_counters(machine, &events), "machine {}", k);
            }
        }

        /// A probe built on the arrays a dropped, larger probe left on
        /// the free list is a fresh probe.
        #[test]
        fn reused_probe_equals_fresh(machines in machine_list(), first in event_stream(), second in event_stream()) {
            let mut eights = PerfProbe::for_machines(&[MachineConfig::vcpus(8); 4]);
            drive(&mut eights, &first);
            drop(eights);
            let mut probe = PerfProbe::for_machines(&machines);
            drive(&mut probe, &second);
            for (k, machine) in machines.iter().enumerate() {
                prop_assert_eq!(probe.counters_for(k), reference_counters(machine, &second), "machine {}", k);
            }
        }

        /// Record on one machine, replay on another: equal to running
        /// there.
        #[test]
        fn replay_equals_a_fresh_run(machines in machine_list(), events in event_stream()) {
            let mut traced = PerfProbe::for_machine_traced(&machines[0]);
            drive(&mut traced, &events);
            let (recorded, trace) = traced.into_traced();
            prop_assert_eq!(trace.events.len(), events.len());
            prop_assert_eq!(recorded, reference_counters(&machines[0], &events));
            for machine in &machines {
                prop_assert_eq!(trace.replay(machine), reference_counters(machine, &events));
            }
        }
    }
}
