//! Typed, position-annotated errors for the ingestion front door.

use eda_cloud_netlist::NetlistError;
use std::fmt;

/// Everything that can make an upload unservable. Parsers never panic
/// on malformed input — every failure mode is a variant here, and
/// parse-shaped failures carry a 1-based line (and column when the
/// offending token is known).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The text is not well-formed in its claimed format.
    Parse {
        /// 1-based line of the failure (0 when unknown).
        line: usize,
        /// 1-based column (byte offset within the line) of the
        /// offending token; 0 when unknown.
        col: usize,
        /// What was malformed.
        message: String,
    },
    /// The text is well-formed but uses a construct outside the
    /// supported subset (e.g. BLIF `.subckt`, behavioral Verilog).
    Unsupported {
        /// 1-based line of the construct.
        line: usize,
        /// The construct, as written.
        construct: String,
    },
    /// The design parsed but violates a structural invariant:
    /// combinational loop, undriven or multiply-driven net, bad arity.
    Validation {
        /// The violated invariant.
        message: String,
    },
    /// The design exceeds an admission quota and was rejected before
    /// any expensive processing.
    Quota {
        /// The quota dimension (`"bytes"`, `"nodes"`, `"degree"`, …).
        what: &'static str,
        /// The design's value.
        got: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// The upload declared a format the front door does not speak.
    UnknownFormat {
        /// The declared format tag.
        format: String,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse { line, col, message } => {
                if *col > 0 {
                    write!(f, "parse error at line {line}, col {col}: {message}")
                } else if *line > 0 {
                    write!(f, "parse error at line {line}: {message}")
                } else {
                    write!(f, "parse error: {message}")
                }
            }
            Self::Unsupported { line, construct } => {
                write!(f, "unsupported construct at line {line}: `{construct}`")
            }
            Self::Validation { message } => write!(f, "validation failed: {message}"),
            Self::Quota { what, got, limit } => {
                write!(f, "quota exceeded: {got} {what} > limit {limit}")
            }
            Self::UnknownFormat { format } => write!(f, "unknown upload format `{format}`"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<NetlistError> for IngestError {
    fn from(e: NetlistError) -> Self {
        Self::Validation { message: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_positions_and_facts() {
        let e = IngestError::Parse { line: 4, col: 9, message: "bad token".into() };
        let s = e.to_string();
        assert!(s.contains("line 4") && s.contains("col 9"), "{s}");
        let e = IngestError::Parse { line: 4, col: 0, message: "truncated".into() };
        assert!(!e.to_string().contains("col"), "{e}");
        let e = IngestError::Quota { what: "nodes", got: 9_999, limit: 100 };
        assert!(e.to_string().contains("9999 nodes"), "{e}");
        let e = IngestError::Unsupported { line: 2, construct: ".subckt".into() };
        assert!(e.to_string().contains(".subckt"), "{e}");
    }

    #[test]
    fn netlist_errors_map_to_validation() {
        let e: IngestError = NetlistError::CombinationalCycle.into();
        assert!(matches!(e, IngestError::Validation { .. }));
    }

    #[test]
    fn trait_bounds() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<IngestError>();
    }
}
