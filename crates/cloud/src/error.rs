//! Cloud-substrate errors.

use std::error::Error;
use std::fmt;

/// Errors raised by the cloud substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudError {
    /// No instance type with the given name exists in the catalog.
    UnknownInstance(String),
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudError::UnknownInstance(name) => write!(f, "unknown instance type `{name}`"),
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
