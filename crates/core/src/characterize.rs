//! Problem 1: characterize the four applications across VM sizes.

use crate::{recommended_family, WorkflowError, Workflow};
use eda_cloud_flow::{
    Placer, Recipe, Router, StaEngine, StageKind, StageReport, Synthesizer,
};
use eda_cloud_netlist::Aig;
use eda_cloud_trace::Span;

/// How to run a characterization sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationConfig {
    /// vCPU counts to sweep (the paper uses 1, 2, 4, 8).
    pub vcpu_sweep: Vec<u32>,
    /// Whether synthesis runs its equivalence spot-check.
    pub verify: bool,
}

impl CharacterizationConfig {
    /// The paper's sweep: 1, 2, 4, 8 vCPUs with the default recipe.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            vcpu_sweep: vec![1, 2, 4, 8],
            verify: true,
        }
    }

    /// A minimal sweep for tests and doc examples.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            vcpu_sweep: vec![1, 2],
            verify: false,
        }
    }
}

impl Default for CharacterizationConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One stage run at one vCPU count.
#[derive(Debug, Clone, PartialEq)]
pub struct VcpuRun {
    /// vCPU count of the VM.
    pub vcpus: u32,
    /// The stage's performance report.
    pub report: StageReport,
}

/// A stage's full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCharacterization {
    /// Which application.
    pub kind: StageKind,
    /// Instance-family name the sweep ran on.
    pub family: String,
    /// One entry per vCPU count, in sweep order.
    pub runs: Vec<VcpuRun>,
}

impl StageCharacterization {
    /// Speedup of each run relative to the first (1-vCPU) run.
    #[must_use]
    pub fn speedups(&self) -> Vec<f64> {
        let base = self.runs.first().map_or(1.0, |r| r.report.runtime_secs);
        self.runs
            .iter()
            .map(|r| base / r.report.runtime_secs)
            .collect()
    }

    /// The run at a specific vCPU count, if it was swept.
    #[must_use]
    pub fn at_vcpus(&self, vcpus: u32) -> Option<&VcpuRun> {
        self.runs.iter().find(|r| r.vcpus == vcpus)
    }
}

/// The characterization of one design across all four stages.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationReport {
    /// Design name.
    pub design: String,
    /// Cell count of the synthesized netlist.
    pub cells: usize,
    /// Per-stage sweeps, in flow order.
    pub stages: Vec<StageCharacterization>,
}

impl CharacterizationReport {
    /// Find the sweep of a given stage.
    #[must_use]
    pub fn stage(&self, kind: StageKind) -> Option<&StageCharacterization> {
        self.stages.iter().find(|s| s.kind == kind)
    }
}

impl Workflow {
    /// Synthesize `design` with [`Recipe::balanced`], run the four-stage
    /// flow at every vCPU count in the sweep, each stage on its
    /// recommended instance family, and collect the counter signatures
    /// and runtimes of the paper's Figure 2.
    ///
    /// No stage's result depends on the machine, only its cost, so each
    /// stage runs once for the whole sweep through its `run_sweep`:
    /// routing lays the netlist out once and prices that layout on every
    /// vCPU count.
    ///
    /// # Errors
    ///
    /// Propagates stage failures as [`WorkflowError::Flow`].
    pub fn characterize_design(
        &self,
        design: &Aig,
        config: &CharacterizationConfig,
    ) -> Result<CharacterizationReport, WorkflowError> {
        let sweep = &config.vcpu_sweep;
        let report = |cells: usize, per_stage: [Vec<StageReport>; 4]| CharacterizationReport {
            design: design.name().to_owned(),
            cells,
            stages: StageKind::ALL
                .into_iter()
                .zip(per_stage)
                .map(|(kind, reports)| StageCharacterization {
                    kind,
                    family: recommended_family(kind).to_string(),
                    runs: sweep
                        .iter()
                        .zip(reports)
                        .map(|(&vcpus, report)| VcpuRun { vcpus, report })
                        .collect(),
                })
                .collect(),
        };

        // Span identity comes from the sweep index — canonical data,
        // never scheduling — and every point's children are created in
        // flow order, so the drained trace is the same on every run.
        let points: Vec<Span> = sweep
            .iter()
            .enumerate()
            .map(|(index, vcpus)| {
                let point = self.tracer().root_at(index as u64, &format!("point/{index:04}"));
                point.attr("vcpus", vcpus);
                point
            })
            .collect();

        if sweep.is_empty() {
            return Ok(report(0, Default::default()));
        }
        let contexts = |stage| self.stage_contexts(stage, sweep, &points);
        let (netlist, syn_reports) = Synthesizer::new()
            .with_verification(config.verify)
            .run_sweep(design, &Recipe::balanced(), &contexts(StageKind::Synthesis))?;
        let (placement, place_reports) =
            Placer::new().run_sweep(&netlist, &contexts(StageKind::Placement))?;
        let routed = Router::new().run_sweep(&netlist, &placement, &contexts(StageKind::Routing))?;
        let route_reports = routed.into_iter().map(|(_, report)| report).collect();
        let (_, sta_reports) = StaEngine::new().run_sweep(&netlist, &placement, &contexts(StageKind::Sta))?;

        Ok(report(
            netlist.cell_count(),
            [syn_reports, place_reports, route_reports, sta_reports],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_netlist::generators;

    #[test]
    fn sweep_produces_all_stages_and_vcpus() {
        let wf = Workflow::with_defaults();
        let report = wf
            .characterize_design(&generators::adder(8), &CharacterizationConfig::fast())
            .expect("characterization runs");
        assert_eq!(report.stages.len(), 4);
        for stage in &report.stages {
            assert_eq!(stage.runs.len(), 2);
            assert_eq!(stage.runs[0].vcpus, 1);
            assert!(stage.runs[0].report.runtime_secs > 0.0);
        }
        assert!(report.cells > 0);
        assert!(report.stage(StageKind::Routing).is_some());
    }

    #[test]
    fn placement_and_routing_run_on_memory_optimized() {
        let wf = Workflow::with_defaults();
        let report = wf
            .characterize_design(&generators::adder(6), &CharacterizationConfig::fast())
            .expect("characterization runs");
        assert_eq!(report.stage(StageKind::Placement).unwrap().family, "memory-optimized");
        assert_eq!(report.stage(StageKind::Sta).unwrap().family, "general-purpose");
    }

    #[test]
    fn speedups_start_at_one() {
        let wf = Workflow::with_defaults();
        let report = wf
            .characterize_design(&generators::multiplier(6), &CharacterizationConfig::fast())
            .expect("characterization runs");
        for stage in &report.stages {
            let sp = stage.speedups();
            assert!((sp[0] - 1.0).abs() < 1e-12);
        }
    }
}
