//! Typed serving errors.

use eda_cloud_gcn::LoadWeightsError;
use eda_cloud_mckp::MckpError;
use std::fmt;

/// Everything that can go wrong while serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was full when the request arrived; the
    /// request was shed instead of enqueued.
    Overloaded {
        /// Arrival ordinal of the shed request.
        ordinal: u64,
        /// Queue depth at the moment of rejection.
        queue_depth: usize,
        /// Configured queue capacity.
        capacity: usize,
    },
    /// A model snapshot failed to parse.
    Snapshot {
        /// What was malformed.
        message: String,
    },
    /// Deployment planning failed (malformed MCKP instance).
    Plan {
        /// The underlying solver complaint.
        message: String,
    },
    /// An [`crate::RequestKind::Ingest`] request could not be routed:
    /// no ingestor is attached, or the request carries no upload.
    /// (A *rejected* upload is an outcome, not this error.)
    Ingest {
        /// What was missing.
        message: String,
    },
    /// The request stream handed to a `run` entry point is not sorted
    /// by arrival time.
    Unsorted {
        /// Ordinal of the first request that arrives before its
        /// predecessor in the stream.
        ordinal: u64,
    },
    /// A [`crate::ServeConfig`] knob that must be positive is zero.
    Config {
        /// The offending field (`"max_batch"`, `"queue_capacity"` or
        /// `"pad_stride"`).
        field: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overloaded { ordinal, queue_depth, capacity } => write!(
                f,
                "request {ordinal} shed: admission queue full ({queue_depth}/{capacity})"
            ),
            Self::Snapshot { message } => write!(f, "cannot load model snapshot: {message}"),
            Self::Plan { message } => write!(f, "deployment planning failed: {message}"),
            Self::Ingest { message } => write!(f, "ingest routing failed: {message}"),
            Self::Unsorted { ordinal } => write!(
                f,
                "request {ordinal} arrives before its predecessor: streams must be sorted by arrival time"
            ),
            Self::Config { field } => write!(f, "serve config: `{field}` must be positive"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<LoadWeightsError> for ServeError {
    fn from(e: LoadWeightsError) -> Self {
        Self::Snapshot { message: e.message }
    }
}

impl From<MckpError> for ServeError {
    fn from(e: MckpError) -> Self {
        Self::Plan { message: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_facts() {
        let e = ServeError::Overloaded { ordinal: 9, queue_depth: 32, capacity: 32 };
        let s = e.to_string();
        assert!(s.contains("request 9"), "{s}");
        assert!(s.contains("32/32"), "{s}");
    }

    #[test]
    fn converts_from_load_weights_error() {
        let e: ServeError = LoadWeightsError { message: "bad dim".into() }.into();
        assert_eq!(e, ServeError::Snapshot { message: "bad dim".into() });
    }
}
