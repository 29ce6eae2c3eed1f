//! Virtual time for the simulation kernel.
//!
//! [`SimTime`] is an absolute instant and [`SimDuration`] a span, both held
//! as `u64` nanoseconds. Integer representation keeps event ordering exact
//! (no floating-point ties) while `as_secs_f64`-style accessors provide
//! convenient reporting.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Kernel-wide float→nanosecond conversion policy: round to nearest.
///
/// NaN and negative inputs are programming errors — they panic in debug
/// builds; in release the `as` cast clamps them to 0 rather than
/// producing an arbitrary bit pattern. Values beyond `u64::MAX`
/// nanoseconds (including `+inf`) saturate explicitly at `u64::MAX`.
#[inline]
fn secs_to_nanos(s: f64) -> u64 {
    debug_assert!(!s.is_nan(), "virtual time from NaN seconds");
    debug_assert!(s >= 0.0, "virtual time cannot be negative: {s}");
    // `as` saturates: NaN/negative -> 0, above-range/+inf -> u64::MAX.
    (s * 1e9).round() as u64
}

/// An absolute instant of virtual time, in nanoseconds since simulation
/// start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds (saturates at [`SimTime::MAX`]).
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    /// Construct from whole milliseconds (saturates at [`SimTime::MAX`]).
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000_000))
    }

    /// Construct from whole seconds (saturates at [`SimTime::MAX`]).
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000_000))
    }

    /// Construct from fractional seconds: rounds to the nearest
    /// nanosecond, saturates at [`SimTime::MAX`], and debug-panics on NaN
    /// or negative input (clamped to zero in release).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(secs_to_nanos(s))
    }

    /// Raw nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as `f64`.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since the epoch as `f64`.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Microseconds since the epoch as `f64`.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Span from an earlier instant, saturating at zero if `earlier` is
    /// actually later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole microseconds (saturates at
    /// [`SimDuration::MAX`]).
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    /// Construct from whole milliseconds (saturates at
    /// [`SimDuration::MAX`]).
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Construct from whole seconds (saturates at [`SimDuration::MAX`]).
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    /// Construct from fractional seconds: rounds to the nearest
    /// nanosecond, saturates at [`SimDuration::MAX`], and debug-panics on
    /// NaN or negative input (clamped to zero in release).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(secs_to_nanos(s))
    }

    /// Time to serialize `bits` onto a line of `bits_per_sec` capacity.
    ///
    /// This is the workhorse of the network simulator: the transmission
    /// delay of a frame/cell. Follows the kernel-wide round-to-nearest
    /// policy, with an explicit floor of 1 ns so a positive number of
    /// bits on a finite-rate line never takes zero time (a zero-length
    /// service would let a single stage loop at one instant forever).
    #[inline]
    pub fn transmission(bits: u64, bits_per_sec: f64) -> Self {
        // NaN fails this comparison too, so bad rates cannot slip through.
        assert!(bits_per_sec > 0.0, "line rate must be positive ({bits_per_sec})");
        let ns = ((bits as f64) * 1e9 / bits_per_sec).round() as u64;
        SimDuration(if bits > 0 { ns.max(1) } else { ns })
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as `f64`.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as `f64`.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Microseconds as `f64`.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by an integer count (e.g. `n` cells of equal length),
    /// saturating at [`SimDuration::MAX`].
    #[inline]
    pub const fn times(self, n: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(n))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
    }

    #[test]
    fn float_conversions() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((t.as_millis_f64() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(2) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 2_500_000_000);
        let d = t - SimTime::from_secs(1);
        assert_eq!(d, SimDuration::from_millis(1500));
        assert_eq!(d * 2, SimDuration::from_secs(3));
        assert_eq!(d / 3, SimDuration::from_millis(500));
    }

    #[test]
    fn transmission_delay_examples() {
        // 53-byte ATM cell on an OC-3 (155.52 Mbit/s) line: 2.726 us.
        let d = SimDuration::transmission(53 * 8, 155.52e6);
        assert!((d.as_micros_f64() - 2.726).abs() < 0.01, "{d}");
        // 1 bit on a 1 bit/s line = 1 s.
        assert_eq!(SimDuration::transmission(1, 1.0), SimDuration::from_secs(1));
        // Zero bits take zero time.
        assert_eq!(SimDuration::transmission(0, 622e6), SimDuration::ZERO);
    }

    #[test]
    fn transmission_never_zero_for_positive_bits() {
        let d = SimDuration::transmission(1, 1e18);
        assert!(d > SimDuration::ZERO);
    }

    #[test]
    fn saturating_ops() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn checked_add_overflow() {
        assert!(SimTime::MAX.checked_add(SimDuration::from_nanos(1)).is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_nanos(1) > SimDuration::ZERO);
        assert_eq!(SimTime::ZERO, SimTime::default());
    }

    #[test]
    fn integer_constructors_saturate() {
        assert_eq!(SimTime::from_secs(u64::MAX), SimTime::MAX);
        assert_eq!(SimTime::from_millis(u64::MAX), SimTime::MAX);
        assert_eq!(SimTime::from_micros(u64::MAX), SimTime::MAX);
        assert_eq!(SimDuration::from_secs(u64::MAX), SimDuration::MAX);
        assert_eq!(SimDuration::from_millis(u64::MAX), SimDuration::MAX);
        assert_eq!(SimDuration::from_micros(u64::MAX), SimDuration::MAX);
        assert_eq!(SimDuration::from_nanos(3).times(u64::MAX), SimDuration::MAX);
        // In-range values are unaffected.
        assert_eq!(SimTime::from_secs(5).as_nanos(), 5_000_000_000);
    }

    #[test]
    fn float_constructors_saturate_out_of_range() {
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::MAX);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        // Just beyond the representable range (u64::MAX ns ~ 584.9 years).
        assert_eq!(SimTime::from_secs_f64(1e12), SimTime::MAX);
        assert_eq!(SimDuration::from_secs_f64(1e12), SimDuration::MAX);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NaN")]
    fn nan_seconds_panic_in_debug() {
        let _ = SimTime::from_secs_f64(f64::NAN);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cannot be negative")]
    fn negative_seconds_panic_in_debug() {
        let _ = SimDuration::from_secs_f64(-1.0e-9);
    }

    #[test]
    fn rounding_policy_is_uniform() {
        // from_secs_f64 and transmission share round-to-nearest: 1 bit at
        // 3 bit/s is 333_333_333.3 ns and must round the same way as the
        // equivalent fractional-second construction.
        let via_rate = SimDuration::transmission(1, 3.0);
        let via_secs = SimDuration::from_secs_f64(1.0 / 3.0);
        assert_eq!(via_rate, via_secs);
        assert_eq!(via_rate.as_nanos(), 333_333_333);
        // Half-way cases round away from zero (f64::round semantics).
        assert_eq!(SimDuration::from_secs_f64(1.5e-9).as_nanos(), 2);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn transmission_rejects_nan_rate() {
        let _ = SimDuration::transmission(100, f64::NAN);
    }
}
