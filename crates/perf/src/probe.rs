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
    /// Counters merged in from a worker probe.
    Absorb(CounterSet),
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
    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace recorded nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

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
/// One probe per thread; merge per-thread [`CounterSet`]s with
/// [`PerfProbe::absorb`] after a parallel section (cache/predictor state
/// is per-thread, matching private L1s).
///
/// A probe created with [`PerfProbe::for_machine_traced`] additionally
/// records every event into a [`ProbeTrace`] for later replay against
/// other machine configurations.
#[derive(Debug, Clone)]
pub struct PerfProbe {
    counters: CounterSet,
    cache: CacheSim,
    branch: BranchPredictor,
    avx_available: bool,
    trace: Option<Vec<ProbeEvent>>,
}

/// The final result of a probed run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// All counted events with cache/branch misses folded in.
    pub counters: CounterSet,
}

impl PerfProbe {
    /// Probe with a cache hierarchy and AVX capability matching `machine`.
    #[must_use]
    pub fn for_machine(machine: &MachineConfig) -> Self {
        Self {
            counters: CounterSet::default(),
            cache: CacheSim::for_vcpus(machine.vcpus),
            branch: BranchPredictor::new(4096),
            avx_available: machine.avx,
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

    /// Probe with an explicit cache hierarchy (used by cache-model
    /// ablations).
    #[must_use]
    pub fn with_cache(cache: CacheSim, avx_available: bool) -> Self {
        Self {
            counters: CounterSet::default(),
            cache,
            branch: BranchPredictor::new(4096),
            avx_available,
            trace: None,
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
                if vectorizable && self.avx_available {
                    self.counters.avx_ops += n;
                } else {
                    self.counters.flops += n;
                }
            }
            ProbeEvent::Absorb(other) => self.counters += other,
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

    /// Current counter snapshot.
    #[must_use]
    pub fn counters(&self) -> CounterSet {
        let mut c = self.counters;
        // Fold LLC misses from the hierarchy (kept there to avoid a
        // second counter increment on the hot path).
        c.llc_misses = self.cache.llc_misses();
        c
    }

    /// Merge counters collected by another probe (e.g. a worker thread).
    ///
    /// Note for tracing: the absorbed counters are recorded verbatim,
    /// so a trace containing absorbs replays machine-independently only
    /// if the absorbed counters themselves are (worker probes are
    /// usually machine-specific; the flow engines that absorb — the
    /// router — are exactly the ones that are never traced).
    pub fn absorb(&mut self, other: CounterSet) {
        self.record(ProbeEvent::Absorb(other));
        self.apply(ProbeEvent::Absorb(other));
    }

    /// Whether this probe attributes vector FP work to AVX hardware.
    #[must_use]
    pub fn avx_available(&self) -> bool {
        self.avx_available
    }

    /// Finish the run and produce the report.
    #[must_use]
    pub fn finish(self) -> PerfReport {
        let counters = self.counters();
        PerfReport { counters }
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

    #[test]
    fn absorb_merges_worker_counters() {
        let mut main = probe();
        let mut worker = probe();
        worker.instr(50);
        worker.branch(1, true);
        main.absorb(worker.counters());
        assert_eq!(main.counters().instructions, 51);
        assert_eq!(main.counters().branches, 1);
    }

    #[test]
    fn finish_reports_llc() {
        let mut p = probe();
        for i in 0..1000u64 {
            p.read(i * 4096); // pathological stride
        }
        let report = p.finish();
        assert!(report.counters.llc_misses > 0);
    }

    /// Drive a deterministic but machine-sensitive event mix through a
    /// probe (large-stride accesses hit different cache levels per
    /// machine; FP attribution depends on AVX).
    fn exercise(p: &mut PerfProbe) {
        // Working set of 4 MiB: larger than the 1-vCPU LLC (~3 MiB),
        // smaller than the 8-vCPU LLC (~5.8 MiB), so the same trace
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
        assert!(!trace.is_empty());

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
        assert!(trace.is_empty());
        assert_eq!(trace.len(), 0);
    }

    #[test]
    fn absorb_is_replayed() {
        let m = MachineConfig::vcpus(2);
        let mut p = PerfProbe::for_machine_traced(&m);
        let mut worker = PerfProbe::for_machine(&m);
        worker.instr(40);
        p.absorb(worker.counters());
        p.instr(2);
        let (counters, trace) = p.into_traced();
        assert_eq!(trace.replay(&m), counters);
        assert_eq!(counters.instructions, 42);
    }
}
