//! Fleet-simulator errors.

use eda_cloud_cloud::CloudError;
use eda_cloud_engine::EngineError;
use std::error::Error;
use std::fmt;

/// Errors raised by the fleet simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The cloud substrate rejected a request (an unknown instance name
    /// in a plan).
    Cloud(CloudError),
    /// A job plan or configuration value is unusable.
    InvalidConfig(&'static str),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Cloud(e) => write!(f, "cloud substrate error: {e}"),
            FleetError::InvalidConfig(what) => write!(f, "invalid fleet configuration: {what}"),
        }
    }
}

impl Error for FleetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FleetError::Cloud(e) => Some(e),
            FleetError::InvalidConfig(_) => None,
        }
    }
}

impl From<CloudError> for FleetError {
    fn from(e: CloudError) -> Self {
        FleetError::Cloud(e)
    }
}

/// Engine-substrate failures (checked-time overflow, bad sim config)
/// surface as fleet configuration errors, carrying the engine's static
/// diagnosis.
impl From<EngineError> for FleetError {
    fn from(e: EngineError) -> Self {
        FleetError::InvalidConfig(e.message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_messages() {
        let e: FleetError = CloudError::UnknownInstance("z9.mega".into()).into();
        assert!(e.to_string().contains("z9.mega"));
        assert!(e.source().is_some());
        let e = FleetError::InvalidConfig("job 2 has no stages");
        assert!(e.to_string().contains("no stages"));
        assert!(e.source().is_none());
    }

    #[test]
    fn engine_errors_keep_their_diagnosis() {
        let e: FleetError = EngineError::Time("time overflows the microsecond clock").into();
        assert_eq!(e, FleetError::InvalidConfig("time overflows the microsecond clock"));
        let e: FleetError = EngineError::UnknownRegion { region: 1, regions: 1 }.into();
        assert!(matches!(e, FleetError::InvalidConfig(_)));
    }

    #[test]
    fn trait_bounds() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<FleetError>();
    }
}
