//! Workflow errors.

use eda_cloud_cloud::CloudError;
use eda_cloud_fleet::FleetError;
use eda_cloud_flow::FlowError;
use eda_cloud_gcn::GcnError;
use eda_cloud_lifecycle::LifecycleError;
use eda_cloud_mckp::MckpError;
use eda_cloud_recipe::RecipeError;
use eda_cloud_serve::ServeError;
use eda_cloud_simtest::SimtestError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the end-to-end workflow.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// A flow stage failed.
    Flow(FlowError),
    /// The cloud substrate rejected a request.
    Cloud(CloudError),
    /// The optimizer instance was malformed.
    Mckp(MckpError),
    /// The fleet simulator rejected the workload.
    Fleet(FleetError),
    /// The serving tier rejected the request or stream.
    Serve(ServeError),
    /// The model-lifecycle controller rejected its configuration or a
    /// registry operation.
    Lifecycle(LifecycleError),
    /// The fault-injection harness rejected its configuration or plan,
    /// or a driven loop failed under it.
    Simtest(SimtestError),
    /// The recipe subsystem rejected a search, encoding, or snapshot.
    Recipe(RecipeError),
    /// The dataset builder produced no samples for a stage.
    EmptyDataset {
        /// The stage whose corpus came out empty.
        stage: &'static str,
    },
    /// Model training failed (empty split, degenerate architecture,
    /// diverged loss).
    Train(GcnError),
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::Flow(e) => write!(f, "flow stage failed: {e}"),
            WorkflowError::Cloud(e) => write!(f, "cloud substrate error: {e}"),
            WorkflowError::Mckp(e) => write!(f, "optimizer error: {e}"),
            WorkflowError::Fleet(e) => write!(f, "fleet simulator error: {e}"),
            WorkflowError::Serve(e) => write!(f, "serving error: {e}"),
            WorkflowError::Lifecycle(e) => write!(f, "lifecycle error: {e}"),
            WorkflowError::Simtest(e) => write!(f, "simtest harness error: {e}"),
            WorkflowError::Recipe(e) => write!(f, "recipe subsystem error: {e}"),
            WorkflowError::EmptyDataset { stage } => {
                write!(f, "dataset for stage `{stage}` is empty")
            }
            WorkflowError::Train(e) => write!(f, "model training failed: {e}"),
        }
    }
}

impl Error for WorkflowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkflowError::Flow(e) => Some(e),
            WorkflowError::Cloud(e) => Some(e),
            WorkflowError::Mckp(e) => Some(e),
            WorkflowError::Fleet(e) => Some(e),
            WorkflowError::Serve(e) => Some(e),
            WorkflowError::Lifecycle(e) => Some(e),
            WorkflowError::Simtest(e) => Some(e),
            WorkflowError::Recipe(e) => Some(e),
            WorkflowError::EmptyDataset { .. } => None,
            WorkflowError::Train(e) => Some(e),
        }
    }
}

impl From<FlowError> for WorkflowError {
    fn from(e: FlowError) -> Self {
        WorkflowError::Flow(e)
    }
}

impl From<CloudError> for WorkflowError {
    fn from(e: CloudError) -> Self {
        WorkflowError::Cloud(e)
    }
}

impl From<MckpError> for WorkflowError {
    fn from(e: MckpError) -> Self {
        WorkflowError::Mckp(e)
    }
}

impl From<FleetError> for WorkflowError {
    fn from(e: FleetError) -> Self {
        WorkflowError::Fleet(e)
    }
}

impl From<ServeError> for WorkflowError {
    fn from(e: ServeError) -> Self {
        WorkflowError::Serve(e)
    }
}

impl From<LifecycleError> for WorkflowError {
    fn from(e: LifecycleError) -> Self {
        WorkflowError::Lifecycle(e)
    }
}

impl From<SimtestError> for WorkflowError {
    fn from(e: SimtestError) -> Self {
        WorkflowError::Simtest(e)
    }
}

impl From<RecipeError> for WorkflowError {
    fn from(e: RecipeError) -> Self {
        WorkflowError::Recipe(e)
    }
}

impl From<GcnError> for WorkflowError {
    fn from(e: GcnError) -> Self {
        WorkflowError::Train(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: WorkflowError = FlowError::EmptyDesign.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("flow stage"));
        let e: WorkflowError = MckpError::NoStages.into();
        assert!(e.to_string().contains("optimizer"));
        let e: WorkflowError = FleetError::InvalidConfig("no stages").into();
        assert!(e.to_string().contains("fleet simulator"));
        assert!(e.source().is_some());
        let e: WorkflowError = ServeError::Overloaded {
            ordinal: 3,
            queue_depth: 4,
            capacity: 4,
        }
        .into();
        assert!(e.to_string().contains("serving"));
        assert!(e.source().is_some());
        let e: WorkflowError = LifecycleError::Config {
            message: "requests must be positive".into(),
        }
        .into();
        assert!(e.to_string().contains("lifecycle"));
        assert!(e.source().is_some());
        let e: WorkflowError = SimtestError::Config("planted_guardrail_bug needs its feature").into();
        assert!(e.to_string().contains("simtest harness"));
        assert!(e.source().is_some());
        let e: WorkflowError = RecipeError::RecipeTooLong { len: 9, max: 6 }.into();
        assert!(e.to_string().contains("recipe subsystem"));
        assert!(e.source().is_some());
        let e = WorkflowError::EmptyDataset { stage: "routing" };
        assert!(e.to_string().contains("routing"));
        assert!(e.source().is_none());
        let e: WorkflowError = GcnError::EmptyTrainingSet.into();
        assert!(e.to_string().contains("model training"));
        assert!(e.source().is_some());
    }

    #[test]
    fn trait_bounds() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<WorkflowError>();
    }
}
