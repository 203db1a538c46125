//! Execution context shared by all stages.

use eda_cloud_perf::{MachineConfig, MachineModel, PerfProbe};
use eda_cloud_trace::Span;
use std::fmt::Display;

/// Where and how a flow stage executes: the target machine configuration
/// plus the calibrated cost model converting counted work into seconds.
///
/// # Examples
///
/// ```
/// use eda_cloud_flow::ExecContext;
///
/// let ctx = ExecContext::with_vcpus(4);
/// assert_eq!(ctx.machine.vcpus, 4);
/// ```
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// The VM configuration the job runs on.
    pub machine: MachineConfig,
    /// Cost model (its per-stage work scale).
    pub model: MachineModel,
    /// Parent trace span the stage hangs its phase spans under.
    /// Disabled by default; instrumentation is a no-op then.
    pub span: Span,
}

// `span` is a recording handle, not part of the context's identity.
impl PartialEq for ExecContext {
    fn eq(&self, other: &Self) -> bool {
        self.machine == other.machine && self.model == other.model
    }
}

impl ExecContext {
    /// Context for a general-purpose VM with `vcpus` cores.
    #[must_use]
    pub fn with_vcpus(vcpus: u32) -> Self {
        Self::new(MachineConfig::vcpus(vcpus))
    }

    /// Context for an explicit machine configuration.
    #[must_use]
    pub fn new(machine: MachineConfig) -> Self {
        Self {
            machine,
            model: MachineModel::default(),
            span: Span::disabled(),
        }
    }

    /// Replace the cost model (e.g. to apply a work-scale calibration).
    #[must_use]
    pub fn with_model(mut self, model: MachineModel) -> Self {
        self.model = model;
        self
    }

    /// Attach a parent span; stages open phase children under it.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = span;
        self
    }

    /// Threads the machine runs a stage's parallel work on: one per
    /// vCPU, at least one.
    #[must_use]
    pub fn threads(&self) -> usize {
        (self.machine.vcpus as usize).max(1)
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        Self::with_vcpus(1)
    }
}

/// One probe for every context of a sweep, in context order: the
/// engine runs once and reads context `k`'s counters with
/// [`PerfProbe::counters_for`].
pub(crate) fn sweep_probe<'a>(ctxs: impl IntoIterator<Item = &'a ExecContext>) -> PerfProbe {
    let machines: Vec<MachineConfig> = ctxs.into_iter().map(|ctx| ctx.machine).collect();
    PerfProbe::for_machines(&machines)
}

/// The spans of a sweep's contexts, driven as one. An engine run that
/// serves several contexts opens each phase span under every context's
/// span and adds each counter to all of them, so every context's trace
/// subtree is the one a run of its own would record. Holds only the
/// spans that record: with tracing off it is empty and labels are never
/// formatted.
pub(crate) struct SpanFan(Vec<Span>);

impl SpanFan {
    pub(crate) fn of<'a>(ctxs: impl IntoIterator<Item = &'a ExecContext>) -> Self {
        Self(
            ctxs.into_iter()
                .map(|ctx| &ctx.span)
                .filter(|span| span.is_enabled())
                .cloned()
                .collect(),
        )
    }

    /// Open a child under every span.
    pub(crate) fn child(&self, label: impl Display) -> Self {
        if self.0.is_empty() {
            return Self(Vec::new());
        }
        let label = label.to_string();
        Self(self.0.iter().map(|span| span.child(&label)).collect())
    }

    /// Add `delta` to a named counter on every span.
    pub(crate) fn counter(&self, name: &str, delta: u64) {
        for span in &self.0 {
            span.counter(name, delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_single_core() {
        let ctx = ExecContext::default();
        assert_eq!(ctx.machine.vcpus, 1);
        assert_eq!(ctx.threads(), 1);
    }

    #[test]
    fn threads_follow_vcpus() {
        assert_eq!(ExecContext::with_vcpus(2).threads(), 2);
        let none = MachineConfig { vcpus: 0, ..MachineConfig::vcpus(1) };
        assert_eq!(ExecContext::new(none).threads(), 1);
    }
}
