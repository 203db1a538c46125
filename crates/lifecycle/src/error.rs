//! Typed lifecycle errors.

use std::error::Error;
use std::fmt;

/// Everything that can go wrong running the lifecycle controller.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleError {
    /// A configuration knob is out of range.
    Config {
        /// What is wrong with the configuration.
        message: String,
    },
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config { message } => write!(f, "invalid lifecycle config: {message}"),
        }
    }
}

impl Error for LifecycleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let c = LifecycleError::Config { message: "requests must be positive".into() };
        assert!(c.to_string().contains("requests"));
        assert!(c.source().is_none());
    }
}
