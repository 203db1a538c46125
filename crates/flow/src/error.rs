//! Flow-level errors.

use eda_cloud_netlist::NetlistError;
use eda_cloud_tech::TechError;
use std::error::Error;
use std::fmt;

/// Errors raised by the flow engines.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The input design is malformed.
    Design(NetlistError),
    /// A required library cell is missing.
    Tech(TechError),
    /// The routing grid has no capacity for the design.
    Unroutable {
        /// Nets that still overflow after the final rip-up iteration.
        overflowed_nets: usize,
    },
    /// The placement did not converge within the iteration budget.
    PlacementDiverged,
    /// An empty design was given to a stage that needs logic.
    EmptyDesign,
    /// Synthesis verification found an input on which the mapped
    /// netlist computes other outputs than its source AIG: the input
    /// was fine, the mapper was wrong.
    MappingMismatch {
        /// The failing input vector, one value per primary input.
        inputs: Vec<bool>,
    },
    /// A recipe was constructed with no passes. The explicit pass-free
    /// baseline is [`Recipe::raw`](crate::Recipe::raw); every other
    /// recipe must name at least one pass so runtime estimates and
    /// search alphabets never silently degenerate.
    EmptyRecipe {
        /// Name the caller tried to give the empty recipe.
        name: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Design(e) => write!(f, "malformed design: {e}"),
            FlowError::Tech(e) => write!(f, "technology library problem: {e}"),
            FlowError::Unroutable { overflowed_nets } => {
                write!(f, "routing failed with {overflowed_nets} overflowed nets")
            }
            FlowError::PlacementDiverged => write!(f, "placement failed to converge"),
            FlowError::EmptyDesign => write!(f, "design has no logic to process"),
            FlowError::MappingMismatch { inputs } => {
                let bits: String = inputs.iter().map(|&b| if b { '1' } else { '0' }).collect();
                write!(f, "mapped netlist differs from its AIG on input vector {bits} (input 0 first)")
            }
            FlowError::EmptyRecipe { name } => {
                write!(f, "recipe `{name}` has no passes; use Recipe::raw() for the pass-free baseline")
            }
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Design(e) => Some(e),
            FlowError::Tech(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for FlowError {
    fn from(e: NetlistError) -> Self {
        FlowError::Design(e)
    }
}

impl From<TechError> for FlowError {
    fn from(e: TechError) -> Self {
        FlowError::Tech(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = FlowError::Unroutable { overflowed_nets: 3 };
        assert!(e.to_string().contains("3 overflowed"));
        assert!(e.source().is_none());
        let e: FlowError = NetlistError::CombinationalCycle.into();
        assert!(e.source().is_some());
        let e: FlowError = TechError::UnknownCell("X".into()).into();
        assert!(e.to_string().contains('X'));
        let e = FlowError::EmptyRecipe { name: "broken".into() };
        assert!(e.to_string().contains("`broken`"));
        assert!(e.source().is_none());
    }

    #[test]
    fn send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<FlowError>();
    }
}
