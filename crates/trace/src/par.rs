//! The workspace's one host-parallel primitive: fan a job list out over
//! scoped threads and join the results **by index**.
//!
//! Every subsystem that parallelises on the host (corpus labelling,
//! fleet planning, per-stage model forwards, retraining, sharded event
//! windows) does it under
//! the same policy: jobs are numbered up front and each result lands in
//! its job's slot, so the output is a function of the job list alone —
//! never of thread scheduling. A run at any worker count is therefore
//! byte-identical to the serial run.

use std::sync::{Mutex, OnceLock};

/// Resolve a `workers` knob: `0` asks for the machine's available
/// parallelism, any other value is taken as given; either way at most
/// `cap` (the widest fan-out the call site can use) and at least 1.
#[must_use]
pub fn resolve_workers(requested: usize, cap: usize) -> usize {
    // Asked once per process: the query reads cgroup files on Linux.
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let workers = if requested > 0 {
        requested
    } else {
        *AVAILABLE.get_or_init(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    };
    workers.clamp(1, cap.max(1))
}

/// Run `f` over every `(index, item)` pair on up to `workers` threads
/// and return the results **in item order**.
///
/// `workers` scoped threads pull the next job from a shared queue (fast
/// jobs absorb the slack left by slow ones) while the caller waits.
/// With `workers <= 1` or at most one item nothing is spawned and `f`
/// runs inline on the caller's thread. Items may be `&mut` borrows and
/// `f` may borrow from the caller's stack.
///
/// A panicking job propagates with its **original payload** once every
/// thread has stopped; the remaining jobs may or may not have run — the
/// same observable outcome as a panic in a serial loop.
pub fn map_indexed<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    // The lock covers only `next()`; `f` runs outside it, so a job's
    // panic can never poison the queue for the other threads.
    let next_job = || queue.lock().expect("job queue iterator cannot panic").next();
    let drain = || {
        let mut done = Vec::new();
        while let Some((index, item)) = next_job() {
            done.push((index, f(index, item)));
        }
        done
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    // The caller only joins: jobs that allocate heavily (cache
    // simulators) thrash the main thread's malloc arena when run there
    // between spawns — measured at 6x the page faults.
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
        for handle in spawned {
            match handle.join() {
                Ok(done) => {
                    for (index, result) in done {
                        slots[index] = Some(result);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every job ran exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn output_order_is_input_order_at_every_worker_count() {
        for n in [0usize, 1, 2, 7, 64] {
            let expected: Vec<usize> = (0..n).map(|v| v * v).collect();
            for workers in 0..=9 {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let got = map_indexed(workers, (0..n).collect(), |i, v| {
                    assert_eq!(i, v);
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    // Skew job times so completion order differs from
                    // index order whenever more than one thread runs.
                    if v % 3 == 0 {
                        thread::sleep(Duration::from_micros(300));
                    }
                    v * v
                });
                assert_eq!(got, expected, "workers={workers} n={n}");
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "every item runs exactly once (workers={workers} n={n})"
                );
            }
        }
    }

    #[test]
    fn serial_cases_stay_on_the_callers_thread() {
        let caller = thread::current().id();
        for (workers, n) in [(0usize, 5usize), (1, 5), (4, 1), (4, 0)] {
            let ids = map_indexed(workers, (0..n).collect(), |_, _: usize| thread::current().id());
            assert!(ids.iter().all(|id| *id == caller), "workers={workers} n={n}");
        }
    }

    #[test]
    fn parallel_runs_use_more_than_one_thread() {
        // Each job waits until both threads have arrived, so the run
        // can only finish if two distinct threads are draining.
        let barrier = std::sync::Barrier::new(2);
        let ids = map_indexed(2, vec![(), ()], |_, ()| {
            barrier.wait();
            thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn panicking_job_resurfaces_original_payload() {
        for panicking in [5u32, 63] {
            let result = std::panic::catch_unwind(|| {
                map_indexed(4, (0..64u32).collect(), |_, v| {
                    if v == panicking {
                        panic!("job {v} exploded");
                    }
                    v
                })
            });
            let payload = result.expect_err("the fan-out must propagate the panic");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_owned)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert_eq!(msg, format!("job {panicking} exploded"));
        }
    }

    #[test]
    fn items_may_be_mut_borrows_and_f_may_borrow_the_stack() {
        // Mirrors `ShardedSim`: disjoint `&mut` chunks of two parallel
        // vectors, with `f` reading non-`'static` caller state.
        let mut regions = vec![1u64, 2, 3, 4, 5];
        let mut seqs = vec![0u64; 5];
        let offset = 10u64;
        let offset_ref = &offset;
        let items: Vec<(&mut [u64], &mut [u64])> =
            regions.chunks_mut(2).zip(seqs.chunks_mut(2)).collect();
        let sums = map_indexed(3, items, |_, (region, seq)| {
            for (r, s) in region.iter_mut().zip(seq.iter_mut()) {
                *r += *offset_ref;
                *s += 1;
            }
            region.iter().sum::<u64>()
        });
        assert_eq!(sums, vec![23, 27, 15]);
        assert_eq!(regions, vec![11, 12, 13, 14, 15]);
        assert_eq!(seqs, vec![1; 5]);
    }

    #[test]
    fn nested_fan_outs_terminate() {
        let got = map_indexed(3, (0..6u64).collect(), |_, outer| {
            map_indexed(3, (0..5u64).collect(), |_, inner| outer * 10 + inner)
                .into_iter()
                .sum::<u64>()
        });
        let expected: Vec<u64> = (0..6u64).map(|o| (0..5).map(|i| o * 10 + i).sum()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn workers_resolve_to_positive_capped_counts() {
        assert_eq!(resolve_workers(3, 8), 3);
        assert_eq!(resolve_workers(9, 4), 4);
        assert!((1..=8).contains(&resolve_workers(0, 8)));
        assert_eq!(resolve_workers(0, 1), 1);
    }
}
