//! Recipe-subsystem errors.

use eda_cloud_flow::FlowError;
use std::error::Error;
use std::fmt;

/// Errors raised by recipe search, the hybrid predictor, and joint
/// planning.
#[derive(Debug, Clone, PartialEq)]
pub enum RecipeError {
    /// A candidate evaluation failed inside the synthesis engine.
    Flow(FlowError),
    /// A pass outside the search alphabet reached the sequence encoder.
    UnknownPass {
        /// Canonical rendering of the offending pass.
        pass: String,
    },
    /// A recipe longer than the encoder's positional window.
    RecipeTooLong {
        /// Number of passes in the rejected recipe.
        len: usize,
        /// Maximum encodable length.
        max: usize,
    },
    /// A search scenario named a design family the generators don't
    /// know.
    UnknownDesign {
        /// The unrecognized family name.
        name: String,
    },
}

impl fmt::Display for RecipeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecipeError::Flow(e) => write!(f, "candidate evaluation failed: {e}"),
            RecipeError::UnknownPass { pass } => {
                write!(f, "pass `{pass}` is outside the search alphabet")
            }
            RecipeError::RecipeTooLong { len, max } => {
                write!(f, "recipe has {len} passes but the encoder window is {max}")
            }
            RecipeError::UnknownDesign { name } => {
                write!(f, "unknown design family `{name}`")
            }
        }
    }
}

impl Error for RecipeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RecipeError::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlowError> for RecipeError {
    fn from(e: FlowError) -> Self {
        RecipeError::Flow(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e: RecipeError = FlowError::EmptyDesign.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("evaluation failed"));
        let e = RecipeError::RecipeTooLong { len: 9, max: 6 };
        assert!(e.to_string().contains('9'));
        assert!(e.source().is_none());
        let e = RecipeError::UnknownDesign { name: "mystery".into() };
        assert!(e.to_string().contains("mystery"));
        assert!(e.source().is_none());
    }

    #[test]
    fn send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<RecipeError>();
    }
}
