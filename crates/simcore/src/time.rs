//! Simulated time and bandwidth.
//!
//! [`Time`] is a nanosecond count used both for instants (time since the
//! start of a simulation) and durations. Keeping a single type avoids a
//! combinatorial explosion of conversions in the subsystem models; the
//! documentation of each API states which interpretation applies.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A simulated instant or duration, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Time(pub u64);

impl Time {
    /// The zero instant (simulation start) / the empty duration.
    pub const ZERO: Time = Time(0);
    /// The greatest representable time; useful as an "infinity" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Constructs a time from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Constructs a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Constructs a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Constructs a time from whole seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    /// Constructs a time from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs saturate to zero.
    pub fn from_secs_f64(s: f64) -> Time {
        if s <= 0.0 {
            return Time::ZERO;
        }
        Time((s * 1e9).round() as u64)
    }

    /// Constructs a time from fractional milliseconds (saturating at zero).
    pub fn from_millis_f64(ms: f64) -> Time {
        Time::from_secs_f64(ms / 1e3)
    }

    /// Constructs a time from fractional microseconds (saturating at zero).
    pub fn from_micros_f64(us: f64) -> Time {
        Time::from_secs_f64(us / 1e6)
    }

    /// Nanoseconds in this time.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time expressed in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction: `max(self - rhs, 0)`.
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// The later of two instants.
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// Saturating addition: `min(self + rhs, Time::MAX)`. Unlike `+`, this
    /// never debug-asserts — use it where clamping at the "infinity"
    /// sentinel is the intended semantics (deadline arithmetic).
    pub const fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Saturating multiplication by a scalar (see [`Time::saturating_add`]).
    pub const fn saturating_mul(self, rhs: u64) -> Time {
        Time(self.0.saturating_mul(rhs))
    }
}

// `Add`/`AddAssign`/`Mul` saturate at `Time::MAX` instead of wrapping.
// Instants near `Time::MAX` arise legitimately (`Bandwidth(0).time_for`
// returns the sentinel, watchdogs use "never" deadlines); wrapping them in
// release mode silently reorders time. Saturation keeps the sentinel
// absorbing, while the `debug_assert!` still flags overflow as a likely
// logic error in debug builds — callers that *intend* to clamp should say
// so via `saturating_add`/`saturating_mul`.
impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        let (sum, overflowed) = self.0.overflowing_add(rhs.0);
        debug_assert!(
            !overflowed,
            "Time addition overflow: {:?} + {:?}",
            Time(self.0),
            Time(rhs.0)
        );
        if overflowed {
            Time::MAX
        } else {
            Time(sum)
        }
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    fn mul(self, rhs: u64) -> Time {
        let (product, overflowed) = self.0.overflowing_mul(rhs);
        debug_assert!(
            !overflowed,
            "Time multiplication overflow: {:?} * {rhs}",
            Time(self.0)
        );
        if overflowed {
            Time::MAX
        } else {
            Time(product)
        }
    }
}

impl Div<u64> for Time {
    type Output = Time;
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

/// A transfer rate in bytes per second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Constructs a bandwidth from bytes per second.
    pub const fn from_bytes_per_sec(bps: u64) -> Bandwidth {
        Bandwidth(bps)
    }

    /// Constructs a bandwidth from mebibytes per second.
    pub const fn from_mib_per_sec(mibps: u64) -> Bandwidth {
        Bandwidth(mibps * 1024 * 1024)
    }

    /// Constructs a bandwidth from fractional MiB/s (saturating at zero).
    pub fn from_mib_per_sec_f64(mibps: f64) -> Bandwidth {
        if mibps <= 0.0 {
            return Bandwidth(0);
        }
        Bandwidth((mibps * 1024.0 * 1024.0).round() as u64)
    }

    /// Constructs a bandwidth from a link speed in megabits per second
    /// (decimal, as network links are specified).
    pub const fn from_megabits_per_sec(mbps: u64) -> Bandwidth {
        Bandwidth(mbps * 1_000_000 / 8)
    }

    /// Bytes per second.
    pub const fn bytes_per_sec(self) -> u64 {
        self.0
    }

    /// This bandwidth in fractional MiB/s.
    pub fn as_mib_per_sec(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Time needed to move `bytes` at this rate, rounded up to the next
    /// nanosecond. A zero rate yields [`Time::MAX`] (the transfer never
    /// completes); zero bytes always take zero time.
    pub fn time_for(self, bytes: u64) -> Time {
        if bytes == 0 {
            return Time::ZERO;
        }
        if self.0 == 0 {
            return Time::MAX;
        }
        // u64 whenever bytes × 10⁹ fits, i.e. below ~17.2 GiB; beyond that
        // a u128 intermediate, whose division is done in software.
        if bytes <= u64::MAX / 1_000_000_000 {
            return Time((bytes * 1_000_000_000).div_ceil(self.0));
        }
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(self.0 as u128);
        Time(ns.min(u64::MAX as u128) as u64)
    }

    /// The rate achieved moving `bytes` in `elapsed`; zero elapsed gives a
    /// zero rate (callers treat that as "unmeasured").
    pub fn measured(bytes: u64, elapsed: Time) -> Bandwidth {
        if elapsed == Time::ZERO {
            return Bandwidth(0);
        }
        let bps = (bytes as u128 * 1_000_000_000u128) / elapsed.0 as u128;
        Bandwidth(bps.min(u64::MAX as u128) as u64)
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}MiB/s", self.as_mib_per_sec())
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}MiB/s", self.as_mib_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_agree() {
        assert_eq!(Time::from_secs(2), Time::from_millis(2_000));
        assert_eq!(Time::from_millis(3), Time::from_micros(3_000));
        assert_eq!(Time::from_micros(5), Time::from_nanos(5_000));
        assert_eq!(Time::from_secs_f64(1.5), Time::from_millis(1_500));
        assert_eq!(Time::from_millis_f64(0.25), Time::from_micros(250));
        assert_eq!(Time::from_secs_f64(-1.0), Time::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let a = Time::from_secs(1);
        let b = Time::from_millis(500);
        assert_eq!(a + b, Time::from_millis(1_500));
        assert_eq!(a - b, Time::from_millis(500));
        assert_eq!(b * 4, Time::from_secs(2));
        assert_eq!(a / 4, Time::from_millis(250));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: Time = [a, b, b].into_iter().sum();
        assert_eq!(total, Time::from_secs(2));
    }

    #[test]
    fn time_saturating_ops_clamp_at_max() {
        assert_eq!(Time::MAX.saturating_add(Time::from_secs(1)), Time::MAX);
        assert_eq!(Time::MAX.saturating_mul(2), Time::MAX);
        assert_eq!(
            Time::from_secs(1).saturating_add(Time::from_secs(2)),
            Time::from_secs(3)
        );
        assert_eq!(Time::from_secs(3).saturating_mul(2), Time::from_secs(6));
        assert_eq!(Time::MAX.checked_add(Time::from_nanos(1)), None);
    }

    // Regression: `Time::MAX + x` used to wrap in release builds, turning a
    // watchdog "never" deadline into an instant in the distant past. The
    // operators now saturate; in debug builds they additionally assert.
    #[cfg(not(debug_assertions))]
    #[test]
    fn time_add_saturates_in_release() {
        assert_eq!(Time::MAX + Time::from_secs(1), Time::MAX);
        let mut t = Time::MAX;
        t += Time::from_nanos(7);
        assert_eq!(t, Time::MAX);
        assert_eq!(Time::MAX * 3, Time::MAX);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Time addition overflow")]
    fn time_add_overflow_asserts_in_debug() {
        let _ = Time::MAX + Time::from_nanos(1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Time multiplication overflow")]
    fn time_mul_overflow_asserts_in_debug() {
        let _ = Time::MAX * 2;
    }

    #[test]
    fn time_display_picks_sensible_unit() {
        assert_eq!(format!("{}", Time::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Time::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Time::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Time::from_secs(12)), "12.000s");
    }

    #[test]
    fn bandwidth_time_for_rounds_up() {
        let bw = Bandwidth::from_bytes_per_sec(3);
        // 1 byte at 3 B/s = 333333333.33.. ns -> rounds up.
        assert_eq!(bw.time_for(1), Time(333_333_334));
        assert_eq!(bw.time_for(3), Time::from_secs(1));
        assert_eq!(bw.time_for(0), Time::ZERO);
    }

    #[test]
    fn bandwidth_zero_rate_never_completes() {
        assert_eq!(Bandwidth(0).time_for(1), Time::MAX);
        assert_eq!(Bandwidth(0).time_for(u64::MAX), Time::MAX);
        // Zero bytes take no time, whatever the rate.
        assert_eq!(Bandwidth(0).time_for(0), Time::ZERO);
        assert_eq!(Bandwidth(u64::MAX).time_for(0), Time::ZERO);
    }

    #[test]
    fn bandwidth_time_for_agrees_across_the_u64_boundary() {
        // At 1 GB/s a byte takes one nanosecond on either path.
        let bw = Bandwidth::from_bytes_per_sec(1_000_000_000);
        // The largest byte count whose product with 10⁹ fits in a u64.
        let edge = 18_446_744_073;
        assert_eq!(bw.time_for(edge), Time(edge));
        assert_eq!(bw.time_for(edge + 1), Time(edge + 1));
        // 1 B/s: the u128 product saturates at Time::MAX.
        assert_eq!(Bandwidth(1).time_for(edge), Time(edge * 1_000_000_000));
        assert_eq!(Bandwidth(1).time_for(edge + 1), Time::MAX);
    }

    #[test]
    fn bandwidth_large_transfer_no_overflow() {
        let bw = Bandwidth::from_mib_per_sec(100);
        let one_tib = 1024u64 * 1024 * 1024 * 1024;
        // 1 TiB at 100 MiB/s = 10485.76 s.
        let t = bw.time_for(one_tib);
        assert!((t.as_secs_f64() - 10_485.76).abs() < 1e-3);
    }

    #[test]
    fn bandwidth_measured_inverts_time_for() {
        let bw = Bandwidth::from_mib_per_sec(113);
        let bytes = 77 * 1024 * 1024;
        let t = bw.time_for(bytes);
        let back = Bandwidth::measured(bytes, t);
        let rel = (back.bytes_per_sec() as f64 - bw.bytes_per_sec() as f64).abs()
            / bw.bytes_per_sec() as f64;
        assert!(rel < 1e-6, "relative error {rel}");
    }

    #[test]
    fn bandwidth_from_megabits() {
        // 1 Gb/s = 125 MB/s = 125_000_000 B/s.
        assert_eq!(
            Bandwidth::from_megabits_per_sec(1000).bytes_per_sec(),
            125_000_000
        );
    }

    #[test]
    fn measured_zero_elapsed_is_zero_rate() {
        assert_eq!(Bandwidth::measured(100, Time::ZERO), Bandwidth(0));
    }
}
