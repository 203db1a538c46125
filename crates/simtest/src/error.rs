//! Simtest errors.

use eda_cloud_engine::EngineError;
use eda_cloud_fleet::FleetError;
use eda_cloud_lifecycle::LifecycleError;
use eda_cloud_serve::ServeError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the fault-injection harness.
#[derive(Debug, Clone, PartialEq)]
pub enum SimtestError {
    /// The harness configuration is out of range.
    Config(&'static str),
    /// A fault-plan JSON document failed to parse.
    Plan {
        /// What was wrong with the document.
        message: String,
    },
    /// The fleet phase rejected its workload.
    Fleet(FleetError),
    /// The serve phase rejected its stream.
    Serve(ServeError),
    /// The lifecycle phase rejected its configuration.
    Lifecycle(LifecycleError),
    /// The engine phase rejected its multi-region configuration.
    Engine(EngineError),
    /// [`crate::shrink_plan`] was asked to minimize a plan that does
    /// not violate any invariant — there is nothing to reproduce.
    ShrinkOnPassingPlan,
}

impl fmt::Display for SimtestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimtestError::Config(message) => write!(f, "invalid simtest config: {message}"),
            SimtestError::Plan { message } => write!(f, "invalid fault plan: {message}"),
            SimtestError::Fleet(e) => write!(f, "fleet phase failed: {e}"),
            SimtestError::Serve(e) => write!(f, "serve phase failed: {e}"),
            SimtestError::Lifecycle(e) => write!(f, "lifecycle phase failed: {e}"),
            SimtestError::Engine(e) => write!(f, "engine phase failed: {e}"),
            SimtestError::ShrinkOnPassingPlan => {
                write!(f, "cannot shrink a fault plan that violates no invariant")
            }
        }
    }
}

impl Error for SimtestError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimtestError::Fleet(e) => Some(e),
            SimtestError::Serve(e) => Some(e),
            SimtestError::Lifecycle(e) => Some(e),
            SimtestError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FleetError> for SimtestError {
    fn from(e: FleetError) -> Self {
        SimtestError::Fleet(e)
    }
}

impl From<ServeError> for SimtestError {
    fn from(e: ServeError) -> Self {
        SimtestError::Serve(e)
    }
}

impl From<LifecycleError> for SimtestError {
    fn from(e: LifecycleError) -> Self {
        SimtestError::Lifecycle(e)
    }
}

impl From<EngineError> for SimtestError {
    fn from(e: EngineError) -> Self {
        SimtestError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = SimtestError::Config("workers must be positive");
        assert!(e.to_string().contains("workers"));
        assert!(e.source().is_none());
        let e = SimtestError::Plan { message: "line 3: bad kind".into() };
        assert!(e.to_string().contains("line 3"));
        let e: SimtestError = FleetError::InvalidConfig("no stages").into();
        assert!(e.to_string().contains("fleet"));
        assert!(e.source().is_some());
        let e: SimtestError =
            LifecycleError::Config { message: "requests must be positive".into() }.into();
        assert!(e.to_string().contains("lifecycle"));
        assert!(e.source().is_some());
        let e: SimtestError = EngineError::InvalidConfig("region sim needs a region").into();
        assert!(e.to_string().contains("engine"));
        assert!(e.source().is_some());
        assert!(SimtestError::ShrinkOnPassingPlan.to_string().contains("shrink"));
    }

    #[test]
    fn trait_bounds() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<SimtestError>();
    }
}
