//! Simulated time.
//!
//! Time is measured in abstract *cycles*. One cycle is whatever the model
//! using it says it is — for the network timing model it is one switch
//! traversal quantum. Keeping the unit abstract matches the paper, whose
//! communication-cost metric is deliberately implementation independent.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in cycles since the start of the simulation.
///
/// `SimTime` is an absolute instant; differences between instants are plain
/// `u64` cycle counts.
///
/// # Example
///
/// ```
/// use tmc_simcore::SimTime;
///
/// let t = SimTime::ZERO + 5;
/// assert_eq!(t.cycles(), 5);
/// assert_eq!(t - SimTime::new(2), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `cycles` cycles after the start of the simulation.
    pub const fn new(cycles: u64) -> Self {
        SimTime(cycles)
    }

    /// Number of cycles since the start of the simulation.
    pub const fn cycles(self) -> u64 {
        self.0
    }

    /// Returns the later of `self` and `other`.
    ///
    /// Useful when a resource becomes free at one time and a message arrives
    /// at another: service starts at the max of the two.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Cycles from `self` to `later`, or zero if `later` is in the past.
    pub fn saturating_until(self, later: SimTime) -> u64 {
        later.0.saturating_sub(self.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;

    /// Cycles elapsed from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> u64 {
        self.0 - rhs.0
    }
}

impl Sum<u64> for SimTime {
    fn sum<I: Iterator<Item = u64>>(iter: I) -> Self {
        SimTime(iter.sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for SimTime {
    fn from(cycles: u64) -> Self {
        SimTime(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::new(100);
        assert_eq!((t + 20).cycles(), 120);
        assert_eq!(t + 20 - t, 20);
    }

    #[test]
    fn max_picks_later() {
        assert_eq!(SimTime::new(3).max(SimTime::new(7)), SimTime::new(7));
        assert_eq!(SimTime::new(9).max(SimTime::new(7)), SimTime::new(9));
    }

    #[test]
    fn saturating_until_clamps() {
        assert_eq!(SimTime::new(5).saturating_until(SimTime::new(9)), 4);
        assert_eq!(SimTime::new(9).saturating_until(SimTime::new(5)), 0);
    }

    #[test]
    fn ordering_and_default() {
        assert!(SimTime::ZERO < SimTime::new(1));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", SimTime::new(7)), "7cy");
        assert_eq!(format!("{}", SimTime::new(7)), "7");
    }
}
