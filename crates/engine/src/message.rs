//! Cross-shard messages and the per-window outbox.
//!
//! A region never touches another region's state directly; everything
//! that crosses a region boundary travels as an [`Envelope`] stamped
//! with `(send_time_us, src_region, seq)` — the deterministic merge
//! key. The [`Outbox`] is the only way to mint envelopes, and it
//! enforces the conservative-barrier contract at the source: a
//! cross-shard latency below the lookahead window is rejected, because
//! delivering inside the current window would make the receiving
//! region's timeline depend on which shard ran first.

use crate::time::checked_add_us;
use crate::EngineError;

/// One cross-shard message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Simulated time the source region sent it, µs.
    pub send_time_us: u64,
    /// The sending region.
    pub src_region: u32,
    /// Monotone per-source sequence number — with `src_region`, a
    /// globally unique identity.
    pub seq: u64,
    /// The receiving region.
    pub dst_region: u32,
    /// Earliest simulated time the destination may observe it, µs
    /// (`send_time_us + latency`; fault hooks may only push it later).
    pub deliver_at_us: u64,
    /// The message itself.
    pub payload: M,
}

impl<M> Envelope<M> {
    /// The deterministic merge key: envelopes from every shard are
    /// delivered in ascending `(send_time_us, src_region, seq)` order,
    /// which is total because `(src_region, seq)` never repeats.
    #[must_use]
    pub fn merge_key(&self) -> (u64, u32, u64) {
        (self.send_time_us, self.src_region, self.seq)
    }
}

/// A region's send buffer for one barrier window.
///
/// Constructed by the coordinator with the region's persistent
/// sequence cursor, handed to [`RegionShard::advance`], and drained at
/// the barrier.
///
/// [`RegionShard::advance`]: crate::RegionShard::advance
#[derive(Debug)]
pub struct Outbox<M> {
    src_region: u32,
    min_latency_us: u64,
    next_seq: u64,
    pending: Vec<Envelope<M>>,
}

impl<M> Outbox<M> {
    /// An empty outbox for `src_region`, continuing its sequence
    /// numbering at `next_seq` and enforcing `min_latency_us` (the
    /// coordinator's lookahead window) on every send.
    #[must_use]
    pub fn new(src_region: u32, min_latency_us: u64, next_seq: u64) -> Self {
        Self::with_buffer(Vec::new(), src_region, min_latency_us, next_seq)
    }

    /// [`Outbox::new`] over `buffer`, emptied first: the coordinator
    /// hands each region the buffer it drained at the last barrier, so
    /// a window's sends reuse that allocation.
    pub(crate) fn with_buffer(
        mut buffer: Vec<Envelope<M>>,
        src_region: u32,
        min_latency_us: u64,
        next_seq: u64,
    ) -> Self {
        buffer.clear();
        Self { src_region, min_latency_us, next_seq, pending: buffer }
    }

    /// Send `payload` to `dst_region`, arriving `latency_us` after
    /// `send_time_us`. Returns the assigned sequence number.
    ///
    /// # Errors
    ///
    /// [`EngineError::LookaheadViolation`] when the latency is below
    /// the lookahead window; [`EngineError::Time`] when the delivery
    /// time overflows the clock.
    pub fn send(
        &mut self,
        send_time_us: u64,
        dst_region: u32,
        latency_us: u64,
        payload: M,
    ) -> Result<u64, EngineError> {
        if latency_us < self.min_latency_us {
            return Err(EngineError::LookaheadViolation {
                latency_us,
                min_latency_us: self.min_latency_us,
            });
        }
        let deliver_at_us = checked_add_us(send_time_us, latency_us)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(Envelope {
            send_time_us,
            src_region: self.src_region,
            seq,
            dst_region,
            deliver_at_us,
            payload,
        });
        Ok(seq)
    }

    /// The sequence cursor after this window's sends (the coordinator
    /// persists it for the next window).
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of buffered envelopes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing was sent this window.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Drain the buffered envelopes.
    #[must_use]
    pub fn into_envelopes(self) -> Vec<Envelope<M>> {
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sends_stamp_monotone_sequences_and_delivery_times() {
        let mut outbox: Outbox<&str> = Outbox::new(2, 100, 7);
        assert!(outbox.is_empty());
        assert_eq!(outbox.send(1_000, 0, 150, "a"), Ok(7));
        assert_eq!(outbox.send(1_000, 1, 100, "b"), Ok(8));
        assert_eq!(outbox.next_seq(), 9);
        assert_eq!(outbox.len(), 2);
        let envs = outbox.into_envelopes();
        assert_eq!(envs[0].merge_key(), (1_000, 2, 7));
        assert_eq!(envs[0].deliver_at_us, 1_150);
        assert_eq!(envs[1].dst_region, 1);
    }

    #[test]
    fn latency_below_lookahead_is_rejected_at_the_source() {
        let mut outbox: Outbox<()> = Outbox::new(0, 100, 0);
        let err = outbox.send(5, 1, 99, ()).unwrap_err();
        assert_eq!(err, EngineError::LookaheadViolation { latency_us: 99, min_latency_us: 100 });
        assert!(outbox.is_empty(), "a rejected send buffers nothing");
    }

    #[test]
    fn delivery_time_overflow_is_typed() {
        let mut outbox: Outbox<()> = Outbox::new(0, 0, 0);
        assert!(matches!(outbox.send(u64::MAX, 1, 1, ()), Err(EngineError::Time(_))));
    }
}
