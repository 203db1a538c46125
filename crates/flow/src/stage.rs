//! Stage identity and reporting.

use crate::ExecContext;
use eda_cloud_perf::{CounterSet, PerfProbe, StageWork};
use std::fmt;

/// The four EDA applications the paper characterizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StageKind {
    /// Logic synthesis (AIG optimization + technology mapping).
    Synthesis,
    /// Analytical placement.
    Placement,
    /// Global routing.
    Routing,
    /// Static timing analysis.
    Sta,
}

impl StageKind {
    /// All stages in flow order.
    pub const ALL: [StageKind; 4] = [
        StageKind::Synthesis,
        StageKind::Placement,
        StageKind::Routing,
        StageKind::Sta,
    ];
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StageKind::Synthesis => "synthesis",
            StageKind::Placement => "placement",
            StageKind::Routing => "routing",
            StageKind::Sta => "sta",
        };
        f.write_str(s)
    }
}

/// What one stage run produced, performance-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Which application ran.
    pub kind: StageKind,
    /// Simulated runtime in seconds on the context's machine.
    pub runtime_secs: f64,
    /// Raw event counters collected during the run.
    pub counters: CounterSet,
    /// The derived serial/parallel/memory work split.
    pub work: StageWork,
    /// Effective parallel fraction the stage achieved on this machine.
    pub parallel_fraction: f64,
}

impl StageReport {
    /// Cost counted work on `ctx`'s machine: the work split for a stage
    /// that distributes `parallel_fraction` of its cycles and pays
    /// `sync_cycles` per barrier, and the runtime the context's model
    /// gives it.
    pub(crate) fn from_counters(
        kind: StageKind,
        counters: CounterSet,
        parallel_fraction: f64,
        sync_cycles: f64,
        ctx: &ExecContext,
    ) -> Self {
        let work = StageWork::from_counters(&counters, parallel_fraction, sync_cycles);
        Self {
            kind,
            runtime_secs: ctx.model.runtime_secs(&work, &ctx.machine),
            counters,
            work,
            parallel_fraction,
        }
    }

    /// One report per context of a sweep, in context order, from the
    /// sweep probe one engine run fed: context `k` is costed on the
    /// counters of the probe's machine `k`.
    pub(crate) fn for_sweep(
        kind: StageKind,
        probe: &PerfProbe,
        parallel_fraction: f64,
        sync_cycles: f64,
        ctxs: &[ExecContext],
    ) -> Vec<Self> {
        ctxs.iter()
            .enumerate()
            .map(|(k, ctx)| {
                Self::from_counters(kind, probe.counters_for(k), parallel_fraction, sync_cycles, ctx)
            })
            .collect()
    }
}

impl fmt::Display for StageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.1}s  br-miss {:.1}%  cache-miss {:.1}%  avx {:.1}%  (p={:.2})",
            self.kind,
            self.runtime_secs,
            100.0 * self.counters.branch_miss_rate(),
            100.0 * self.counters.cache_miss_rate(),
            100.0 * self.counters.avx_share(),
            self.parallel_fraction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_display_lowercase() {
        assert_eq!(StageKind::Synthesis.to_string(), "synthesis");
        assert_eq!(StageKind::Sta.to_string(), "sta");
        assert_eq!(StageKind::ALL.len(), 4);
    }

    #[test]
    fn report_display_has_metrics() {
        let r = StageReport {
            kind: StageKind::Routing,
            runtime_secs: 12.5,
            counters: CounterSet::default(),
            work: StageWork::default(),
            parallel_fraction: 0.9,
        };
        let s = r.to_string();
        assert!(s.contains("routing"));
        assert!(s.contains("12.5s"));
    }
}
