//! The sharded multi-region coordinator: a conservative lookahead
//! barrier over independent per-region event loops.
//!
//! # Why the merged timeline is byte-identical at any fan-out
//!
//! Each window starts at `t`, the minimum pending event time across
//! all regions, and runs to `horizon = t + lookahead`. Within the
//! window every region processes only its own events — the [`Outbox`]
//! rejects any cross-region send with latency below the lookahead, so
//! nothing sent inside a window can be observed inside that same
//! window. Regions are therefore *independent* between barriers: the
//! coordinator may advance them on one thread or eight, grouped into
//! one shard or one-per-region, and each region's state at the horizon
//! is the same bytes.
//!
//! At the barrier the coordinator collects every outbox, sorts the
//! envelopes by the total order `(send_time_us, src_region, seq)`, and
//! delivers them one by one on the coordinator thread. Sorting erases
//! the only nondeterminism fan-out could introduce (collection order),
//! so delivery order — and with it every downstream sequence number —
//! is a pure function of the simulation inputs. The key is unique, so
//! an unstable sort yields the order a stable one would, and the
//! per-region outbox buffers and the merge buffer can be reused from
//! one window to the next without the collection order showing.

use crate::message::{Envelope, Outbox};
use crate::time::checked_add_us;
use crate::{EngineError, EngineFaults};
use eda_cloud_trace::par;
use std::sync::Arc;

/// One shard of work for a window: a contiguous chunk of regions, their
/// sequence cursors and their outbox buffers.
type ShardChunk<'a, S, M> = ((&'a mut [S], &'a mut [u64]), &'a mut [Vec<Envelope<M>>]);

/// One region's event loop, driven by the coordinator.
pub trait RegionShard: Send {
    /// The cross-region message type.
    type Msg: Send;

    /// Fire time of the region's earliest pending event, `None` when
    /// the region is quiescent.
    fn next_time(&self) -> Option<u64>;

    /// Process every local event with `time < horizon_us`, sending any
    /// cross-region traffic through `outbox`.
    fn advance(
        &mut self,
        horizon_us: u64,
        outbox: &mut Outbox<Self::Msg>,
    ) -> Result<(), EngineError>;

    /// Accept a message; the region must not act on it before
    /// `envelope.deliver_at_us` (schedule it as a local event there).
    fn deliver(&mut self, envelope: Envelope<Self::Msg>) -> Result<(), EngineError>;
}

/// Cross-shard message accounting, tracked by the coordinator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Envelopes regions handed to their outboxes.
    pub sent: u64,
    /// Envelopes delivered to their destination region.
    pub delivered: u64,
    /// Envelopes a fault hook dropped (never delivered, accounted).
    pub dropped: u64,
    /// Delivered envelopes a fault hook pushed later.
    pub delayed: u64,
    /// Delivered envelopes held back by a partition until its heal
    /// time.
    pub held: u64,
}

/// The coordinator: owns the regions, runs the barrier loop.
pub struct ShardedSim<S: RegionShard> {
    regions: Vec<S>,
    lookahead_us: u64,
    faults: Arc<dyn EngineFaults>,
    next_seq: Vec<u64>,
    /// Each region's outbox buffer, drained at every barrier.
    sent: Vec<Vec<Envelope<S::Msg>>>,
    /// The barrier's merge buffer.
    merged: Vec<Envelope<S::Msg>>,
    stats: MessageStats,
    windows: u64,
}

impl<S: RegionShard> ShardedSim<S> {
    /// A coordinator over `regions` with the given lookahead window and
    /// fault hooks on the message path.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] when `regions` is empty or the
    /// lookahead is zero (a zero window would never make progress
    /// past simultaneous events).
    pub fn with_faults(
        regions: Vec<S>,
        lookahead_us: u64,
        faults: Arc<dyn EngineFaults>,
    ) -> Result<Self, EngineError> {
        if regions.is_empty() {
            return Err(EngineError::InvalidConfig("sharded sim needs at least one region"));
        }
        if lookahead_us == 0 {
            return Err(EngineError::InvalidConfig("lookahead window must be positive"));
        }
        let next_seq = vec![0; regions.len()];
        let sent = regions.iter().map(|_| Vec::new()).collect();
        Ok(Self {
            regions,
            lookahead_us,
            faults,
            next_seq,
            sent,
            merged: Vec::new(),
            stats: MessageStats::default(),
            windows: 0,
        })
    }

    /// Run to quiescence: barrier windows until no region has a
    /// pending event. `workers` bounds the threads used per window;
    /// `shards` groups regions into execution containers. Neither
    /// affects the result — that is the point — both are clamped to
    /// sane ranges rather than rejected.
    pub fn run(&mut self, workers: usize, shards: usize) -> Result<(), EngineError> {
        let shard_count = shards.clamp(1, self.regions.len());
        let workers = workers.clamp(1, shard_count);
        loop {
            let Some(t) = self.regions.iter().filter_map(RegionShard::next_time).min() else {
                return Ok(());
            };
            let horizon = checked_add_us(t, self.lookahead_us)?;
            self.advance_window(horizon, workers, shard_count)?;
            let mut merged = std::mem::take(&mut self.merged);
            for sent in &mut self.sent {
                merged.append(sent);
            }
            merged.sort_unstable_by_key(Envelope::merge_key);
            self.deliver_all(merged.drain(..))?;
            self.merged = merged;
            self.windows += 1;
        }
    }

    /// Advance every region to `horizon`, leaving each region's sends in
    /// its outbox buffer.
    fn advance_window(
        &mut self,
        horizon: u64,
        workers: usize,
        shard_count: usize,
    ) -> Result<(), EngineError> {
        let lookahead = self.lookahead_us;
        let chunk = self.regions.len().div_ceil(shard_count);
        // Shards are contiguous chunks of regions. Grouping is invisible
        // in the result because regions only read/write their own state
        // this side of the barrier.
        let shards: Vec<ShardChunk<'_, S, S::Msg>> = self
            .regions
            .chunks_mut(chunk)
            .zip(self.next_seq.chunks_mut(chunk))
            .zip(self.sent.chunks_mut(chunk))
            .collect();
        let done = par::map_indexed(workers, shards, |shard, ((regions, seqs), sent)| {
            let lanes = regions.iter_mut().zip(seqs.iter_mut()).zip(sent.iter_mut());
            for (k, ((region, seq), sent)) in lanes.enumerate() {
                let src = (shard * chunk + k) as u32;
                let mut outbox = Outbox::with_buffer(std::mem::take(sent), src, lookahead, *seq);
                region.advance(horizon, &mut outbox)?;
                *seq = outbox.next_seq();
                *sent = outbox.into_envelopes();
            }
            Ok::<_, EngineError>(())
        });
        done.into_iter().collect()
    }

    /// Deliver merged envelopes in canonical order, applying fault
    /// hooks. Runs on the coordinator thread only.
    fn deliver_all(
        &mut self,
        envelopes: impl Iterator<Item = Envelope<S::Msg>>,
    ) -> Result<(), EngineError> {
        for mut env in envelopes {
            self.stats.sent += 1;
            let (src, dst, seq) = (env.src_region, env.dst_region, env.seq);
            if self.faults.drop_message(src, dst, seq) {
                self.stats.dropped += 1;
                continue;
            }
            let extra = self.faults.message_extra_delay_us(src, dst, seq);
            if extra > 0 {
                self.stats.delayed += 1;
                env.deliver_at_us = checked_add_us(env.deliver_at_us, extra)?;
            }
            if let Some(heal) = self.faults.partition_heal_us(src, dst, env.send_time_us) {
                if heal > env.deliver_at_us {
                    self.stats.held += 1;
                    env.deliver_at_us = heal;
                }
            }
            let dst_index = dst as usize;
            if dst_index >= self.regions.len() {
                return Err(EngineError::UnknownRegion {
                    region: dst,
                    regions: self.regions.len(),
                });
            }
            self.regions[dst_index].deliver(env)?;
            self.stats.delivered += 1;
        }
        Ok(())
    }

    /// Message accounting so far.
    #[must_use]
    pub fn stats(&self) -> MessageStats {
        self.stats
    }

    /// Barrier windows executed so far.
    #[must_use]
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Consume the coordinator, returning the regions in index order.
    #[must_use]
    pub fn into_regions(self) -> Vec<S> {
        self.regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventHeap, NoEngineFaults};

    /// A token-passing region: each delivery schedules a local event
    /// that forwards the token to the next region, `hops` times.
    struct Ring {
        id: u32,
        regions: u32,
        heap: EventHeap<u64>, // remaining hops
        log: Vec<(u64, u64)>, // (time, remaining hops)
    }

    impl RegionShard for Ring {
        type Msg = u64;

        fn next_time(&self) -> Option<u64> {
            self.heap.peek_time()
        }

        fn advance(&mut self, horizon_us: u64, outbox: &mut Outbox<u64>) -> Result<(), EngineError> {
            while self.heap.peek_time().is_some_and(|t| t < horizon_us) {
                let (t, hops) = self.heap.pop().expect("peeked");
                self.log.push((t, hops));
                if hops > 0 {
                    outbox.send(t, (self.id + 1) % self.regions, 1_000, hops - 1)?;
                }
            }
            Ok(())
        }

        fn deliver(&mut self, envelope: Envelope<u64>) -> Result<(), EngineError> {
            self.heap.push(envelope.deliver_at_us, envelope.payload);
            Ok(())
        }
    }

    fn ring(regions: u32) -> Vec<Ring> {
        (0..regions)
            .map(|id| {
                let mut heap = EventHeap::new();
                if id == 0 {
                    heap.push(0, 8u64); // 8 hops around the ring
                }
                Ring { id, regions, heap, log: Vec::new() }
            })
            .collect()
    }

    fn run_ring(regions: u32, workers: usize, shards: usize) -> (Vec<Vec<(u64, u64)>>, MessageStats) {
        let mut sim = ShardedSim::with_faults(ring(regions), 1_000, Arc::new(NoEngineFaults))
            .expect("valid");
        sim.run(workers, shards).expect("runs");
        let stats = sim.stats();
        (sim.into_regions().into_iter().map(|r| r.log).collect(), stats)
    }

    #[test]
    fn token_ring_terminates_and_conserves_messages() {
        let (logs, stats) = run_ring(3, 1, 1);
        let total: usize = logs.iter().map(Vec::len).sum();
        assert_eq!(total, 9, "the token is observed hops+1 times");
        assert_eq!(stats.sent, 8);
        assert_eq!(stats.delivered, 8);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn fan_out_and_sharding_are_invisible() {
        let baseline = run_ring(4, 1, 1);
        for (workers, shards) in [(1, 4), (2, 2), (2, 4), (8, 4), (8, 1)] {
            assert_eq!(run_ring(4, workers, shards), baseline, "workers={workers} shards={shards}");
        }
    }

    #[test]
    fn zero_lookahead_and_empty_topologies_are_rejected() {
        assert!(matches!(
            ShardedSim::<Ring>::with_faults(Vec::new(), 10, Arc::new(NoEngineFaults)),
            Err(EngineError::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardedSim::with_faults(ring(2), 0, Arc::new(NoEngineFaults)),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    struct DelayAll;
    impl EngineFaults for DelayAll {
        fn message_extra_delay_us(&self, _src: u32, _dst: u32, seq: u64) -> u64 {
            if seq.is_multiple_of(2) {
                5_000
            } else {
                0
            }
        }
        fn drop_message(&self, src: u32, _dst: u32, seq: u64) -> bool {
            // Sequence numbers are per source region: region 1's
            // second send is the token's fifth hop.
            src == 1 && seq == 1
        }
    }

    #[test]
    fn fault_hooks_delay_and_drop_with_accounting() {
        let mut sim = ShardedSim::with_faults(ring(3), 1_000, Arc::new(DelayAll)).expect("valid");
        sim.run(1, 1).expect("runs");
        let stats = sim.stats();
        // The token dies on its fifth hop: r0, r1, r2, r0, then r1's
        // second send is dropped.
        assert_eq!(stats.sent, 5);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.delivered, 4);
        assert!(stats.delayed >= 1, "even-seq messages were delayed");
        // Faulty runs stay deterministic at any fan-out.
        let rerun = |workers, shards| {
            let mut sim =
                ShardedSim::with_faults(ring(3), 1_000, Arc::new(DelayAll)).expect("valid");
            sim.run(workers, shards).expect("runs");
            (sim.stats(), sim.into_regions().into_iter().map(|r| r.log).collect::<Vec<_>>())
        };
        assert_eq!(rerun(1, 1), rerun(8, 3));
    }
}
