//! Cloud-substrate errors.

use std::error::Error;
use std::fmt;

/// Errors raised by the cloud substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudError {
    /// No instance type with the given name exists in the catalog.
    UnknownInstance(String),
    /// Operation on a VM in the wrong lifecycle state.
    InvalidState {
        /// The VM id.
        vm: u64,
        /// What was attempted.
        operation: &'static str,
    },
    /// No such VM id.
    UnknownVm(u64),
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudError::UnknownInstance(name) => write!(f, "unknown instance type `{name}`"),
            CloudError::InvalidState { vm, operation } => {
                write!(f, "vm {vm} cannot `{operation}` in its current state")
            }
            CloudError::UnknownVm(id) => write!(f, "no vm with id {id}"),
        }
    }
}

impl Error for CloudError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(CloudError::UnknownInstance("z9.mega".into())
            .to_string()
            .contains("z9.mega"));
    }

    #[test]
    fn trait_bounds() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<CloudError>();
    }
}
