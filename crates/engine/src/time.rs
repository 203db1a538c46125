//! Checked simulated-time arithmetic.
//!
//! The substrate's clock is integer microseconds in a `u64`. Every
//! conversion from wall-second floats and every addition on the clock
//! goes through these helpers, because the raw alternatives fail
//! silently in ways that scramble an event heap: `as u64` casts NaN
//! and negatives to 0, pins overlarge values to `u64::MAX`, and plain
//! `+` wraps. Each helper returns a typed [`EngineError::Time`]
//! instead. [`poisson_arrivals`], the seeded arrival process every
//! simulated tier draws its workload from, lives here too.

use crate::EngineError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Microseconds per second, as the float conversion factor.
pub const MICROS_PER_SEC: f64 = 1e6;

/// Largest microsecond value convertible from `f64` without the
/// saturating-cast cliff: beyond 2^63, `as u64` silently pins to
/// `u64::MAX` and event times stop being meaningful.
pub const MAX_US: f64 = 9.2e18;

/// Convert seconds to integer microseconds (rounding to nearest),
/// rejecting values a saturating `as` cast would silently mangle: NaN
/// (casts to 0), negatives (cast to 0), and times beyond the
/// microsecond clock's range (pin to `u64::MAX`, reordering the event
/// heap).
pub fn secs_to_us(secs: f64) -> Result<u64, EngineError> {
    if !secs.is_finite() || secs < 0.0 {
        return Err(EngineError::Time("time must be finite and >= 0"));
    }
    let us = (secs * MICROS_PER_SEC).round();
    if us > MAX_US {
        return Err(EngineError::Time("time overflows the microsecond clock"));
    }
    Ok(us as u64)
}

/// [`secs_to_us`] with ceiling rounding — for readiness deadlines,
/// where rounding down would schedule an event before the thing it
/// waits on.
pub fn secs_to_us_ceil(secs: f64) -> Result<u64, EngineError> {
    if !secs.is_finite() || secs < 0.0 {
        return Err(EngineError::Time("time must be finite and >= 0"));
    }
    let us = (secs * MICROS_PER_SEC).ceil();
    if us > MAX_US {
        return Err(EngineError::Time("time overflows the microsecond clock"));
    }
    Ok(us as u64)
}

/// Microseconds back to seconds (exact for any time the clock can
/// reach within `f64`'s 53-bit mantissa, ~285 simulated years).
#[must_use]
pub fn us_to_secs(us: u64) -> f64 {
    us as f64 / MICROS_PER_SEC
}

/// Saturating seconds→µs conversion for soft windows where clamping is
/// the *intended* semantics (an autoscaler's look-back horizon): NaN
/// and negatives clamp to 0, overlarge values pin to the clock's top.
/// Event times must never go through here — use [`secs_to_us`].
#[must_use]
pub fn saturating_secs_to_us(secs: f64) -> u64 {
    let clamped = if secs.is_finite() { secs.max(0.0) } else { 0.0 };
    let us = (clamped * MICROS_PER_SEC).round();
    if us > MAX_US {
        MAX_US as u64
    } else {
        us as u64
    }
}

/// A planned duration of whole seconds in microseconds, or an error
/// when the multiply would wrap `u64` (a >292-millennium stage is a
/// bad plan, not a schedulable event).
pub fn secs_to_duration_us(runtime_secs: u64) -> Result<u64, EngineError> {
    runtime_secs
        .checked_mul(1_000_000)
        .ok_or(EngineError::Time("stage runtime overflows the microsecond clock"))
}

/// Advance the clock: `now + delta`, or a typed error instead of the
/// silent wraparound that would reorder the event heap.
pub fn checked_add_us(now: u64, delta_us: u64) -> Result<u64, EngineError> {
    now.checked_add(delta_us)
        .ok_or(EngineError::Time("time overflows the microsecond clock"))
}

/// Scale a duration by an integer percentage (`us * pct / 100`),
/// checked against `u64` wrap.
pub fn scale_us_pct(us: u64, pct: u64) -> Result<u64, EngineError> {
    us.checked_mul(pct)
        .map(|v| v / 100)
        .ok_or(EngineError::Time("scaled duration overflows the microsecond clock"))
}

/// A fractional offset into a duration: `duration * fraction`,
/// rejecting NaN/out-of-range fractions and offsets beyond the clock
/// instead of letting the cast collapse them to 0 or `u64::MAX`.
pub fn fraction_of_us(duration_us: u64, fraction: f64) -> Result<u64, EngineError> {
    if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
        return Err(EngineError::Time("fraction must be finite and in [0, 1]"));
    }
    let offset = duration_us as f64 * fraction;
    if !offset.is_finite() || !(0.0..=MAX_US).contains(&offset) {
        return Err(EngineError::Time("fractional offset overflows the microsecond clock"));
    }
    Ok(offset as u64)
}

/// Seeded Poisson arrival process: `count` arrival times (seconds,
/// non-decreasing) with exponential inter-arrival gaps at
/// `rate_per_hour`. Deterministic per `(count, rate, seed)`; a
/// non-positive rate degenerates to all jobs arriving at `t = 0`.
#[must_use]
pub fn poisson_arrivals(count: usize, rate_per_hour: f64, seed: u64) -> Vec<f64> {
    if rate_per_hour <= 0.0 {
        return vec![0.0; count];
    }
    let mean_gap = 3600.0 / rate_per_hour;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            // Inverse-transform sample of Exp(1/mean): u in [0, 1) keeps
            // the log argument in (0, 1].
            t += -mean_gap * (1.0 - u).ln();
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_to_us_rejects_the_cast_cliffs() {
        assert_eq!(secs_to_us(1.5), Ok(1_500_000));
        assert_eq!(secs_to_us(0.0), Ok(0));
        assert!(secs_to_us(f64::NAN).is_err(), "NaN must not cast to 0");
        assert!(secs_to_us(-1.0).is_err(), "negative must not cast to 0");
        assert!(secs_to_us(f64::INFINITY).is_err());
        assert!(secs_to_us(1e20).is_err(), "beyond the clock must not saturate");
    }

    #[test]
    fn ceil_variant_rounds_up() {
        assert_eq!(secs_to_us_ceil(0.0000001), Ok(1));
        assert_eq!(secs_to_us_ceil(1.0), Ok(1_000_000));
        assert!(secs_to_us_ceil(-0.5).is_err());
        assert!(secs_to_us_ceil(1e20).is_err());
    }

    #[test]
    fn round_trip_is_exact_in_range() {
        for us in [0u64, 1, 999_999, 1_000_000, 86_400_000_000] {
            assert_eq!(secs_to_us(us_to_secs(us)), Ok(us));
        }
    }

    #[test]
    fn saturating_conversion_clamps_instead_of_erroring() {
        assert_eq!(saturating_secs_to_us(1.5), 1_500_000);
        assert_eq!(saturating_secs_to_us(-3.0), 0);
        assert_eq!(saturating_secs_to_us(f64::NAN), 0);
        assert_eq!(saturating_secs_to_us(1e20), MAX_US as u64);
    }

    #[test]
    fn duration_and_addition_report_overflow() {
        assert_eq!(secs_to_duration_us(2), Ok(2_000_000));
        assert!(secs_to_duration_us(u64::MAX).is_err());
        assert_eq!(checked_add_us(5, 7), Ok(12));
        assert!(checked_add_us(u64::MAX, 1).is_err());
    }

    #[test]
    fn percentage_scaling_is_checked() {
        assert_eq!(scale_us_pct(1_000, 150), Ok(1_500));
        assert_eq!(scale_us_pct(1_000, 100), Ok(1_000));
        assert!(scale_us_pct(u64::MAX, 200).is_err());
    }

    #[test]
    fn fractional_offsets_reject_bad_fractions() {
        assert_eq!(fraction_of_us(1_000_000, 0.5), Ok(500_000));
        assert_eq!(fraction_of_us(1_000_000, 0.0), Ok(0));
        assert_eq!(fraction_of_us(1_000_000, 1.0), Ok(1_000_000));
        assert!(fraction_of_us(1_000_000, f64::NAN).is_err());
        assert!(fraction_of_us(1_000_000, -0.1).is_err());
        assert!(fraction_of_us(1_000_000, 1.1).is_err());
        assert!(fraction_of_us(u64::MAX, 1.0).is_err(), "offset past the clock is rejected");
    }

    #[test]
    fn arrivals_are_sorted_positive_and_deterministic() {
        let a = poisson_arrivals(200, 120.0, 7);
        let b = poisson_arrivals(200, 120.0, 7);
        assert_eq!(a, b);
        assert!(a[0] > 0.0);
        assert!(a.windows(2).all(|w| w[1] >= w[0]));
        assert_ne!(a, poisson_arrivals(200, 120.0, 8), "seed matters");
    }

    #[test]
    fn mean_gap_tracks_rate() {
        let a = poisson_arrivals(4000, 60.0, 3);
        let mean = a.last().unwrap() / 4000.0;
        // 60 jobs/hour -> 60 s mean gap, within sampling noise.
        assert!((mean - 60.0).abs() < 5.0, "mean gap {mean}");
    }

    #[test]
    fn zero_rate_degenerates_to_burst() {
        assert_eq!(poisson_arrivals(3, 0.0, 1), vec![0.0, 0.0, 0.0]);
    }
}
