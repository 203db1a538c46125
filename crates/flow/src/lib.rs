//! EDA flow engines: logic synthesis, analytical placement, grid
//! routing, and static timing analysis.
//!
//! The paper characterizes four applications of a **commercial** EDA
//! flow; that flow is license-gated, so this crate implements each stage
//! from scratch with the same algorithmic skeleton the paper attributes
//! its observations to:
//!
//! * [`synthesis`] — AIG optimization passes (balance / rewrite /
//!   refactor) followed by pattern-based technology mapping, checked
//!   against the source AIG by random simulation. Pass-dominated and
//!   hash-heavy: modest parallelism, balanced counters.
//! * [`placement`] — analytical quadratic placement by gradient descent
//!   with bin-based spreading and row legalization. Convex-optimization
//!   inner loops over large coordinate vectors: heavy vectorizable FP
//!   work and high cache-miss rates, exactly the signature in Fig. 2.
//! * [`routing`] — grid-based maze routing with negotiated congestion
//!   and rip-up-and-reroute. Graph search over irregular frontiers:
//!   the highest branch-miss rate of the four, and near-embarrassing
//!   parallelism across independent regions (Fig. 2d / Fig. 3).
//! * [`sta`] — levelized arrival/required/slack propagation with library
//!   float lookups: AVX-friendly but dependency-bound.
//!
//! Every engine emits its memory / branch / FP events into an
//! [`eda_cloud_perf::PerfProbe`] and reports a [`StageReport`] whose
//! simulated runtime comes from the calibrated machine model. No engine
//! reads its probe back, so what a run does never depends on the
//! machine it is costed for: every engine takes a whole sweep of
//! [`ExecContext`]s in one `run_sweep` call — one run, one report per
//! context — and `run` is the one-context case.
//!
//! # Examples
//!
//! ```
//! use eda_cloud_flow::{ExecContext, synthesis::{Synthesizer, Recipe}};
//! use eda_cloud_netlist::generators;
//!
//! let aig = generators::adder(8);
//! let ctx = ExecContext::with_vcpus(2);
//! let (netlist, report) = Synthesizer::new().run(&aig, &Recipe::balanced(), &ctx)?;
//! assert!(netlist.cell_count() > 0);
//! assert!(report.runtime_secs > 0.0);
//! # Ok::<(), eda_cloud_flow::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod exec;
pub mod placement;
pub mod routing;
mod stage;
pub mod sta;
pub mod synthesis;

pub use error::FlowError;
pub use exec::ExecContext;
pub use placement::{Placement, Placer};
pub use routing::{Router, RoutingResult};
pub use sta::{StaEngine, TimingReport};
pub use stage::{StageKind, StageReport};
pub use synthesis::{Pass, Recipe, SynthesisTrace, Synthesizer};

use eda_cloud_netlist::{Aig, Netlist};

/// Outputs of a full four-stage flow run.
#[derive(Debug, Clone)]
pub struct FlowOutputs {
    /// The mapped netlist from synthesis.
    pub netlist: Netlist,
    /// Cell placement.
    pub placement: Placement,
    /// Routing solution summary.
    pub routing: RoutingResult,
    /// Timing analysis result.
    pub timing: TimingReport,
    /// One report per stage, in flow order.
    pub reports: [StageReport; 4],
}

/// Run synthesis → placement → routing → STA on one machine
/// configuration.
///
/// # Errors
///
/// Propagates any stage's [`FlowError`].
pub fn run_full_flow(
    aig: &Aig,
    recipe: &Recipe,
    ctx: &ExecContext,
) -> Result<FlowOutputs, FlowError> {
    let (netlist, syn_report) = Synthesizer::new().run(aig, recipe, ctx)?;
    let (placement, place_report) = Placer::new().run(&netlist, ctx)?;
    let (routing, route_report) = Router::new().run(&netlist, &placement, ctx)?;
    let (timing, sta_report) = StaEngine::new().run(&netlist, &placement, ctx)?;
    Ok(FlowOutputs {
        netlist,
        placement,
        routing,
        timing,
        reports: [syn_report, place_report, route_report, sta_report],
    })
}
