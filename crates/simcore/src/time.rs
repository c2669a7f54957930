//! Fixed-point simulated time.
//!
//! All simulated clocks in the workspace use integer nanoseconds. Floating
//! point time accumulates rounding error across millions of events, which
//! breaks exact reproducibility and makes event-order assertions flaky;
//! integers do not.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per second, the fixed-point scale for [`SimTime`].
pub const NANOS_PER_SEC: i64 = 1_000_000_000;

/// An absolute instant on the simulated clock, in nanoseconds since the
/// simulation epoch (t = 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(i64);

/// A span of simulated time, in nanoseconds. May be negative as an
/// intermediate value (e.g. when subtracting instants), though schedulers
/// reject scheduling into the past.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(i64);

impl SimTime {
    /// The simulation epoch, t = 0.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(i64::MAX);

    /// Construct from raw nanoseconds since the epoch.
    pub const fn from_nanos(nanos: i64) -> Self {
        SimTime(nanos)
    }

    /// Construct from whole seconds since the epoch.
    pub const fn from_secs(secs: i64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds. Rounds to the nearest nanosecond.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs * NANOS_PER_SEC as f64).round() as i64)
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// Seconds since the epoch as a float (lossy; for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration since `earlier`. Saturates instead of overflowing.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(i64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(nanos: i64) -> Self {
        SimDuration(nanos)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(micros: i64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(millis: i64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: i64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds. Rounds to the nearest nanosecond.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs * NANOS_PER_SEC as f64).round() as i64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// Seconds as a float (lossy; for rate arithmetic and reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if the span is zero or negative.
    pub fn is_empty(self) -> bool {
        self.0 <= 0
    }

    /// True if the span is strictly positive.
    pub fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Clamp to be non-negative.
    pub fn max_zero(self) -> SimDuration {
        SimDuration(self.0.max(0))
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
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
        self.0 = self.0.saturating_add(rhs.0);
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
        SimDuration(self.0.saturating_sub(rhs.0))
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
        self.0 = self.0.saturating_add(rhs.0);
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
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<i64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: i64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<i64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: i64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrips_seconds() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3000));
        assert_eq!(SimDuration::from_micros(5), SimDuration::from_nanos(5000));
    }

    #[test]
    fn arithmetic_is_exact() {
        let t0 = SimTime::from_secs(10);
        let t1 = t0 + SimDuration::from_millis(250);
        assert_eq!(t1.as_nanos(), 10_250_000_000);
        assert_eq!((t1 - t0).as_nanos(), 250_000_000);
        assert_eq!(t1.duration_since(t0), SimDuration::from_millis(250));
    }

    #[test]
    fn subtraction_saturates() {
        let d = SimTime::ZERO - SimTime::MAX;
        assert_eq!(d.as_nanos(), i64::MIN + 1 - 1 + 1); // -i64::MAX
        assert_eq!(d.max_zero(), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(4);
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_secs(1);
        let db = SimDuration::from_secs(2);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(
            format!("{}", SimTime::from_millis_for_test(1500)),
            "1.500000s"
        );
    }

    impl SimTime {
        fn from_millis_for_test(ms: i64) -> SimTime {
            SimTime::from_nanos(ms * 1_000_000)
        }
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert!(SimTime::ZERO
            .checked_add(SimDuration::from_secs(1))
            .is_some());
    }

    #[test]
    fn empty_and_positive() {
        assert!(SimDuration::ZERO.is_empty());
        assert!(!SimDuration::ZERO.is_positive());
        assert!(SimDuration::from_nanos(1).is_positive());
        assert!(SimDuration::from_nanos(-1).is_empty());
    }
}
