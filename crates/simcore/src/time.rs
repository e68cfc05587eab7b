//! Virtual time with nanosecond resolution.
//!
//! All latencies in the paper are quoted in microseconds (1 µs link
//! propagation, 40 µs gateway processing, 12 µs base RTT), while serialization
//! times at 100 Gb/s are fractions of a microsecond, so nanoseconds are the
//! natural resolution. A `u64` nanosecond counter overflows after ~584 years
//! of simulated time, far beyond any experiment here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, measured in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time since start as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time since start as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future (clock skew never occurs in-sim, but callers that race
    /// timers against packet arrivals appreciate the total function).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable duration; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// Negative and non-finite inputs clamp to zero: they only arise from
    /// degenerate analytic expressions (e.g. a zero-rate source) where "never"
    /// is handled by the caller.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_finite() && s > 0.0 {
            SimDuration((s * 1e9).round() as u64)
        } else {
            SimDuration(0)
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The serialization time of `bytes` at `bits_per_sec` line rate.
    ///
    /// This is the store-and-forward transmission delay used by every link in
    /// the simulator. Rounds up so that back-to-back packets never overlap.
    pub fn serialization(bytes: u32, bits_per_sec: u64) -> Self {
        debug_assert!(bits_per_sec > 0, "link rate must be positive");
        let bits = bytes as u64 * 8;
        // bits × 10⁹ fits 64 bits for any frame under 2.3 GB; dividing
        // there spares the several-times-slower 128-bit division.
        let ns = match bits.checked_mul(1_000_000_000) {
            Some(bit_ns) => bit_ns.div_ceil(bits_per_sec),
            None => (bits as u128 * 1_000_000_000).div_ceil(bits_per_sec as u128) as u64,
        };
        SimDuration(ns)
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", fmt_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_micros(12).as_nanos(), 12_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimDuration::from_micros(40).as_micros_f64(), 40.0);
    }

    #[test]
    fn arithmetic_is_saturating() {
        let t = SimTime::from_nanos(10);
        assert_eq!((t - SimDuration::from_nanos(20)).as_nanos(), 0);
        assert_eq!(SimTime::MAX + SimDuration::from_nanos(1), SimTime::MAX);
        assert_eq!(
            SimTime::from_nanos(5).saturating_since(SimTime::from_nanos(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn serialization_delay_matches_line_rate() {
        // 1500 B at 100 Gb/s = 120 ns.
        assert_eq!(
            SimDuration::serialization(1500, 100_000_000_000).as_nanos(),
            120
        );
        // 1500 B at 400 Gb/s = 30 ns.
        assert_eq!(
            SimDuration::serialization(1500, 400_000_000_000).as_nanos(),
            30
        );
        // Rounds up: 1 B at 3 b/s = ceil(8/3 * 1e9).
        assert_eq!(
            SimDuration::serialization(1, 3).as_nanos(),
            (8_u64 * 1_000_000_000).div_ceil(3)
        );
    }

    #[test]
    fn serialization_is_exact_on_both_sides_of_the_64_bit_limit() {
        // bits × 10⁹ leaves 64 bits just above 2 305 843 009 B.
        let wide =
            |bytes: u32, bps: u64| (bytes as u128 * 8 * 1_000_000_000).div_ceil(bps as u128) as u64;
        for bytes in [
            0,
            1,
            61,
            1060,
            1500,
            65_535,
            2_305_843_009,
            2_305_843_010,
            u32::MAX,
        ] {
            for bps in [
                1,
                3,
                7_000_000_007,
                100_000_000_000,
                400_000_000_000,
                u64::MAX,
            ] {
                assert_eq!(
                    SimDuration::serialization(bytes, bps).as_nanos(),
                    wide(bytes, bps),
                    "{bytes} B at {bps} b/s"
                );
            }
        }
    }

    #[test]
    fn from_secs_f64_clamps_degenerate_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5e-9).as_nanos(), 2);
    }

    #[test]
    fn display_uses_human_units() {
        assert_eq!(SimTime::from_nanos(500).to_string(), "500ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(1).to_string(), "1.000s");
    }

    #[test]
    fn duration_sum_and_scalar_ops() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
        assert_eq!(total / 2, SimDuration::from_micros(5));
        assert_eq!(total * 3, SimDuration::from_micros(30));
    }
}
