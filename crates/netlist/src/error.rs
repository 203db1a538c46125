//! Error types for the design substrate.

use std::error::Error;
use std::fmt;

/// Errors raised when constructing, checking or simulating designs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A literal or identifier referenced a node that does not exist.
    InvalidReference {
        /// What was being referenced (e.g. "node", "net", "cell").
        what: &'static str,
        /// The out-of-range index.
        index: usize,
        /// The number of valid entities.
        len: usize,
    },
    /// A net has more than one driver or a cell output drives two nets.
    MultipleDrivers(String),
    /// A net has no driver.
    Undriven(String),
    /// Structural check failed: the design contains a combinational cycle.
    CombinationalCycle,
    /// Simulation was given the wrong number of input values.
    InputArity {
        /// Number of values provided.
        got: usize,
        /// Number of primary inputs expected.
        expected: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::InvalidReference { what, index, len } => {
                write!(f, "invalid {what} reference {index} (only {len} exist)")
            }
            NetlistError::MultipleDrivers(net) => write!(f, "net `{net}` has multiple drivers"),
            NetlistError::Undriven(net) => write!(f, "net `{net}` has no driver"),
            NetlistError::CombinationalCycle => write!(f, "design contains a combinational cycle"),
            NetlistError::InputArity { got, expected } => {
                write!(f, "expected {expected} input values, got {got}")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NetlistError::InvalidReference {
            what: "node",
            index: 9,
            len: 3,
        };
        assert_eq!(e.to_string(), "invalid node reference 9 (only 3 exist)");
    }

    #[test]
    fn error_trait_bounds() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<NetlistError>();
    }
}
