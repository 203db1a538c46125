//! The host-speed reference: a fixed kernel timed beside every sample,
//! so that host time can be reported at *reference host speed*.
//!
//! This benchmark runs on a few cores of a shared host. Traces of one
//! build show the same call taking 250 ms or 380 ms depending on the
//! minute, in phases that last seconds to minutes (presumably
//! neighbours on the same physical cores; no steal is reported and a
//! dependent-chain spin loop does not see it, but any code that keeps
//! the core's ports busy does). No run length the contract allows averages that out: the
//! median iteration of back-to-back 10 s windows spread 10-33 %, and
//! 45 s windows were no steadier.
//!
//! A small dense matrix product — nothing from the repository, so no
//! change to the program under test can move it — slows down in step
//! with the workloads (1.35x where `ingest_stream` read 1.3x). Timing
//! it immediately before and after each sample and dividing the
//! sample's wall time by the measured slow-down took the same windows
//! to 2-7 %. The slow-down is measured against [`NOMINAL_SECS`], a
//! constant of the benchmark's definition, so units stay seconds and a
//! calm reference host reads what its wall clock reads.

use std::time::Instant;

/// Side of the square matrices: three of them are 384 KB, inside one
/// core's L2, so the kernel watches the core, not the memory bus.
const N: usize = 128;
/// Products per sample.
const REPS: usize = 48;
/// What one sample takes on the reference host (2.1 GHz Xeon guest)
/// with its core to itself: the floor of a few thousand samples.
pub const NOMINAL_SECS: f64 = 0.021;

/// The reference kernel, its buffers, and its latest reading.
pub struct HostClock {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    /// The host's slow-down when last read.
    last: f64,
}

/// A host-time sample and the slow-down that bracketed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Seconds on the wall clock.
    pub wall_secs: f64,
    /// Mean of the slow-downs read just before and just after.
    pub slowdown: f64,
}

impl Sample {
    /// The sample at reference host speed.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.wall_secs / self.slowdown
    }
}

impl HostClock {
    /// Allocate the operands and take the first reading.
    #[must_use]
    pub fn new() -> Self {
        let mut clock = Self {
            a: vec![1.000_1; N * N],
            b: vec![0.999_9; N * N],
            c: vec![0.0; N * N],
            last: 1.0,
        };
        clock.read();
        clock
    }

    /// Time the kernel once and return the host's slow-down: `1.0` on a
    /// calm reference host, `1.4` when everything takes 1.4 times as
    /// long.
    pub fn read(&mut self) -> f64 {
        self.c.fill(0.0);
        let start = Instant::now();
        for _ in 0..REPS {
            for i in 0..N {
                let row = &mut self.c[i * N..(i + 1) * N];
                for k in 0..N {
                    let aik = self.a[i * N + k];
                    let other = &self.b[k * N..(k + 1) * N];
                    for (out, &b) in row.iter_mut().zip(other) {
                        *out += aik * b;
                    }
                }
            }
        }
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(&self.c);
        self.last = secs / NOMINAL_SECS;
        self.last
    }

    /// Close the bracket around something that just took `wall_secs`
    /// and started right after the previous reading: read again, and
    /// pair the wall time with the mean of the two readings.
    pub fn sample(&mut self, wall_secs: f64) -> Sample {
        let before = self.last;
        Sample {
            wall_secs,
            slowdown: 0.5 * (before + self.read()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_positive_and_the_product_is_right() {
        let mut clock = HostClock::new();
        assert!(clock.read() > 0.0);
        // Every entry: REPS * N products of 1.0001 * 0.9999.
        let expected = (REPS * N) as f64 * 1.000_1 * 0.999_9;
        assert!(clock.c.iter().all(|v| (v - expected).abs() < 1e-6));
        // ...and a second sample starts from zero, not from the first.
        let sample = clock.sample(0.5);
        assert!(sample.slowdown > 0.0 && sample.secs() > 0.0);
        assert!(clock.c.iter().all(|v| (v - expected).abs() < 1e-6));
    }

    #[test]
    fn a_sample_scales_by_its_slowdown() {
        let sample = Sample {
            wall_secs: 0.42,
            slowdown: 1.4,
        };
        assert!((sample.secs() - 0.3).abs() < 1e-12);
    }
}
