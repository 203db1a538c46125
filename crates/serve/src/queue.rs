//! Bounded, deadline-ordered admission queue.

use crate::{ServeError, ServeRequest};
use std::collections::BTreeMap;

/// Earliest-deadline-first admission queue with a hard capacity.
///
/// Requests are keyed by `(deadline_us, ordinal)` — the server always
/// pops the most urgent request, with the arrival ordinal breaking
/// deadline ties deterministically. When the queue is full an arriving
/// request is rejected with [`ServeError::Overloaded`] (shed at the
/// door), bounding both memory and worst-case queueing delay.
#[derive(Debug)]
pub struct AdmissionQueue {
    entries: BTreeMap<(u64, u64), ServeRequest>,
    capacity: usize,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` requests at a time; a
    /// capacity of zero sheds every arrival.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self { entries: BTreeMap::new(), capacity }
    }

    /// Admit a request, or shed it if the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Overloaded`] when at capacity; the request
    /// is dropped.
    pub fn try_admit(&mut self, request: ServeRequest) -> Result<(), ServeError> {
        if self.entries.len() >= self.capacity {
            return Err(ServeError::Overloaded {
                ordinal: request.ordinal,
                queue_depth: self.entries.len(),
                capacity: self.capacity,
            });
        }
        self.entries.insert((request.deadline_us, request.ordinal), request);
        Ok(())
    }

    /// Pop the most urgent request (earliest deadline, then lowest
    /// ordinal).
    pub fn pop(&mut self) -> Option<ServeRequest> {
        self.entries.pop_first().map(|(_, r)| r)
    }

    /// Requests currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RequestKind;
    use eda_cloud_gcn::GraphSample;
    use eda_cloud_netlist::{generators, DesignGraph};
    use std::sync::Arc;

    fn request(ordinal: u64, deadline_us: u64) -> ServeRequest {
        let g = DesignGraph::from_aig(&generators::adder(3));
        let view = || GraphSample::new(&g, [1.0; 4]);
        ServeRequest {
            ordinal,
            arrival_us: 0,
            deadline_us,
            kind: RequestKind::Predict,
            design: Arc::new(crate::ServeDesign::new("d", view(), view())),
            upload: None,
        }
    }

    #[test]
    fn pops_in_deadline_then_ordinal_order() {
        let mut q = AdmissionQueue::new(8);
        q.try_admit(request(0, 500)).expect("fits");
        q.try_admit(request(1, 100)).expect("fits");
        q.try_admit(request(2, 100)).expect("fits");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().map(|r| r.ordinal), Some(1), "earliest deadline first");
        assert_eq!(q.pop().map(|r| r.ordinal), Some(2), "ordinal breaks the tie");
        assert_eq!(q.pop().map(|r| r.ordinal), Some(0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn sheds_when_full() {
        let mut q = AdmissionQueue::new(2);
        q.try_admit(request(0, 10)).expect("fits");
        q.try_admit(request(1, 20)).expect("fits");
        let err = q.try_admit(request(2, 5)).unwrap_err();
        assert_eq!(err, ServeError::Overloaded { ordinal: 2, queue_depth: 2, capacity: 2 });
        // The rejection did not disturb the admitted requests.
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|r| r.ordinal), Some(0));
    }

    #[test]
    fn zero_capacity_sheds_every_arrival() {
        let mut q = AdmissionQueue::new(0);
        for ordinal in 0..3 {
            let err = q.try_admit(request(ordinal, 10)).unwrap_err();
            assert_eq!(err, ServeError::Overloaded { ordinal, queue_depth: 0, capacity: 0 });
        }
        assert!(q.pop().is_none());
    }
}
