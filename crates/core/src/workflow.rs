//! The workflow façade.

use crate::recommended_family;
use eda_cloud_cloud::Catalog;
use eda_cloud_flow::{ExecContext, StageKind};
use eda_cloud_perf::MachineModel;
use eda_cloud_trace::{Metrics, Span, Tracer};

/// Per-stage calibration bridging this reproduction's lightweight
/// engines to commercial-flow runtimes (see `DESIGN.md`): each engine
/// under-models a different share of its commercial counterpart's work
/// (a production synthesis tool runs orders of magnitude more
/// optimization than our three passes; our router is closer to the real
/// thing). Chosen so the `sparc_core` composite lands at the paper's
/// Table-I runtime magnitudes at 1 vCPU (synthesis 6100 s, placement
/// 1206 s, routing 10461 s, STA 183 s). A per-stage constant cannot
/// change any speedup, ordering, or knapsack-selection *shape* — only
/// absolute seconds.
#[must_use]
pub fn stage_work_scale(stage: StageKind) -> f64 {
    match stage {
        StageKind::Synthesis => 7_300_000.0,
        StageKind::Placement => 1_330.0,
        StageKind::Routing => 2_420.0,
        StageKind::Sta => 20_000.0,
    }
}

/// The top-level entry point tying catalog, cost model, and flow
/// engines together.
///
/// # Examples
///
/// ```
/// use eda_cloud_core::Workflow;
///
/// let workflow = Workflow::with_defaults();
/// assert!(workflow.catalog().instances().len() >= 12);
/// ```
#[derive(Debug, Clone)]
pub struct Workflow {
    catalog: Catalog,
    tracer: Tracer,
    metrics: Metrics,
}

impl Workflow {
    /// Workflow over the AWS-like catalog and the calibrated cost model.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self {
            catalog: Catalog::aws_like(),
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
        }
    }

    /// The instance catalog in use.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Attach a tracer; characterization and fleet runs record spans
    /// into it. Pass [`Tracer::new`] to enable, then
    /// [`Tracer::drain`] after the run to export.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach a metrics registry; the sweep pool records queue-wait
    /// and occupancy into it.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// The tracer in use (disabled by default).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metrics registry in use (disabled by default).
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Execution context for running `stage` at `vcpus` on the stage's
    /// recommended instance family.
    #[must_use]
    pub fn exec_context(&self, stage: StageKind, vcpus: u32) -> ExecContext {
        let family = recommended_family(stage);
        let machine = self
            .catalog
            .cheapest_with(family, vcpus)
            .map(|i| {
                let mut cfg = i.machine_config();
                // The sweep emulates a VM of exactly `vcpus`, even when
                // the purchasable size is larger.
                cfg.vcpus = vcpus;
                cfg.mem_bw_gbps = cfg.mem_bw_gbps / f64::from(i.vcpus) * f64::from(vcpus);
                cfg
            })
            .unwrap_or_else(|| eda_cloud_perf::MachineConfig::vcpus(vcpus));
        ExecContext::new(machine).with_model(MachineModel::with_work_scale(stage_work_scale(stage)))
    }

    /// [`Workflow::exec_context`] for `stage` at every point of a
    /// sweep, each tracing under a child of its point's span named for
    /// the stage — what one `run_sweep` call of the stage's engine
    /// takes.
    pub(crate) fn stage_contexts(
        &self,
        stage: StageKind,
        vcpu_sweep: &[u32],
        points: &[Span],
    ) -> Vec<ExecContext> {
        let label = stage.to_string();
        vcpu_sweep
            .iter()
            .zip(points)
            .map(|(&vcpus, point)| self.exec_context(stage, vcpus).with_span(point.child(&label)))
            .collect()
    }
}

impl Default for Workflow {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_follow_recommendations() {
        let wf = Workflow::with_defaults();
        let syn = wf.exec_context(StageKind::Synthesis, 4);
        let place = wf.exec_context(StageKind::Placement, 4);
        assert_eq!(syn.machine.vcpus, 4);
        assert_eq!(place.machine.vcpus, 4);
        // Memory-optimized has more bandwidth per vCPU.
        assert!(place.machine.mem_bw_gbps > syn.machine.mem_bw_gbps);
    }

    #[test]
    fn work_scale_applied_per_stage() {
        let wf = Workflow::with_defaults();
        let ctx = wf.exec_context(StageKind::Routing, 1);
        assert_eq!(ctx.model, MachineModel::with_work_scale(stage_work_scale(StageKind::Routing)));
        // Synthesis is scaled harder than routing (its engine models a
        // smaller share of the commercial tool's work).
        assert!(
            stage_work_scale(StageKind::Synthesis) > stage_work_scale(StageKind::Routing)
        );
    }
}
