//! Virtual time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A point in (or span of) virtual time, in microseconds.
///
/// The paper works in milliseconds (near-miss window δ = 100 ms, delays of
/// 10/100 ms, gaps of 1–100 ms); microsecond resolution keeps sub-delay
/// effects (instrumentation overhead, short service times) representable.
/// All arithmetic is saturating: a simulation never wraps, it just pins at
/// the (unreachable) maximum.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero instant / empty span.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// A span of `ms` milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000))
    }

    /// A span of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us)
    }

    /// This time expressed in whole milliseconds (truncating).
    pub const fn as_ms(self) -> u64 {
        self.0 / 1_000
    }

    /// This time expressed in microseconds.
    pub const fn as_us(self) -> u64 {
        self.0
    }

    /// This time expressed in fractional milliseconds.
    pub(crate) fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating difference (`self - other`, pinned at zero).
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Scales this span by a rational factor `num/den` (used for the
    /// paper's α = 1.15 delay-length factor without floating point).
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn scale(self, num: u64, den: u64) -> SimTime {
        assert!(den != 0, "scale denominator must be non-zero");
        SimTime((self.0.saturating_mul(num)) / den)
    }

    /// The larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

/// Convenience constructor: `ms(100)` is 100 milliseconds.
pub const fn ms(v: u64) -> SimTime {
    SimTime::from_ms(v)
}

/// Convenience constructor: `us(50)` is 50 microseconds.
pub const fn us(v: u64) -> SimTime {
    SimTime::from_us(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(ms(100).as_ms(), 100);
        assert_eq!(ms(1).as_us(), 1_000);
        assert_eq!(us(500).as_ms(), 0);
        assert!((us(1_500).as_ms_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(SimTime::MAX + ms(1), SimTime::MAX);
        assert_eq!(us(1) - us(5), SimTime::ZERO);
        assert_eq!(us(3).saturating_sub(us(10)), SimTime::ZERO);
    }

    #[test]
    fn scale_applies_rational_factor() {
        // α = 1.15 from the paper.
        assert_eq!(ms(100).scale(115, 100), ms(115));
        assert_eq!(us(10).scale(115, 100), us(11));
    }

    #[test]
    fn min_and_max() {
        assert_eq!(us(3).max(us(9)), us(9));
        assert_eq!(us(3).min(us(9)), us(3));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(us(42).to_string(), "42µs");
        assert_eq!(ms(2).to_string(), "2.000ms");
    }

    #[test]
    fn sum_accumulates() {
        let total: SimTime = [us(1), us(2), us(3)].into_iter().sum();
        assert_eq!(total, us(6));
    }
}
