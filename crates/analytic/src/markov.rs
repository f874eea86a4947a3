//! Two-state Markov chain analysis (paper §4, Figure 7).
//!
//! The paper models the global reference string to a block under the
//! write-once protocol as a two-state Markov process (states *exclusive*
//! and *shared*). This module provides the general two-state chain and the
//! write-once instance.

/// A two-state Markov chain with transition probabilities per step.
///
/// State 0 and state 1 are abstract; [`TwoStateChain::write_once`] names
/// them *exclusive* (0) and *shared* (1).
///
/// # Example
///
/// ```
/// use tmc_analytic::TwoStateChain;
///
/// let chain = TwoStateChain::write_once(0.25);
/// let (pi_exclusive, pi_shared) = chain.stationary();
/// // The paper's result: π(exclusive) = w, π(shared) = 1 − w.
/// assert!((pi_exclusive - 0.25).abs() < 1e-12);
/// assert!((pi_shared - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoStateChain {
    /// P(next = 1 | now = 0).
    pub p01: f64,
    /// P(next = 0 | now = 1).
    pub p10: f64,
}

impl TwoStateChain {
    /// Creates a chain from its two cross-transition probabilities.
    ///
    /// # Panics
    ///
    /// Panics unless both probabilities are within `0.0..=1.0`.
    pub fn new(p01: f64, p10: f64) -> Self {
        assert!((0.0..=1.0).contains(&p01), "p01 out of range");
        assert!((0.0..=1.0).contains(&p10), "p10 out of range");
        TwoStateChain { p01, p10 }
    }

    /// The write-once chain of Figure 7 for write fraction `w`:
    /// an exclusive block becomes shared on the next read (probability
    /// `1 − w`); a shared block becomes exclusive on the next write
    /// (probability `w`).
    ///
    /// # Panics
    ///
    /// Panics unless `w` is within `0.0..=1.0`.
    pub fn write_once(w: f64) -> Self {
        assert!((0.0..=1.0).contains(&w), "write fraction out of range");
        TwoStateChain::new(1.0 - w, w)
    }

    /// The stationary distribution `(π₀, π₁)`.
    ///
    /// For a chain with no cross transitions at all (`p01 = p10 = 0`) every
    /// distribution is stationary; we return `(0.5, 0.5)` by convention.
    pub fn stationary(&self) -> (f64, f64) {
        let denom = self.p01 + self.p10;
        if denom == 0.0 {
            (0.5, 0.5)
        } else {
            (self.p10 / denom, self.p01 / denom)
        }
    }

    /// Expected number of 0→1 transitions per step at stationarity.
    pub fn rate_01(&self) -> f64 {
        self.stationary().0 * self.p01
    }

    /// Expected number of 1→0 transitions per step at stationarity.
    pub fn rate_10(&self) -> f64 {
        self.stationary().1 * self.p10
    }

    /// Expected cost per step when a 0→1 transition costs `cost_01` and a
    /// 1→0 transition costs `cost_10`.
    pub fn expected_cost_per_step(&self, cost_01: f64, cost_10: f64) -> f64 {
        self.rate_01() * cost_01 + self.rate_10() * cost_10
    }

    /// Evolves a distribution one step.
    pub fn step(&self, dist: (f64, f64)) -> (f64, f64) {
        (
            dist.0 * (1.0 - self.p01) + dist.1 * self.p10,
            dist.0 * self.p01 + dist.1 * (1.0 - self.p10),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_is_a_fixed_point() {
        for &(p01, p10) in &[(0.3, 0.7), (0.05, 0.6), (1.0, 1.0), (0.5, 0.0)] {
            let chain = TwoStateChain::new(p01, p10);
            let pi = chain.stationary();
            let next = chain.step(pi);
            assert!((pi.0 - next.0).abs() < 1e-12, "{p01} {p10}");
            assert!((pi.0 + pi.1 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn write_once_stationary_matches_paper() {
        // π(exclusive) = w, π(shared) = 1 − w, and both transition rates
        // equal w(1 − w) — the factor in eq. 10.
        for w in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let chain = TwoStateChain::write_once(w);
            let (pe, ps) = chain.stationary();
            assert!((pe - w).abs() < 1e-12);
            assert!((ps - (1.0 - w)).abs() < 1e-12);
            assert!((chain.rate_01() - w * (1.0 - w)).abs() < 1e-12);
            assert!((chain.rate_10() - w * (1.0 - w)).abs() < 1e-12);
        }
    }

    #[test]
    fn expected_cost_recovers_eq_10_shape() {
        // cost(shared→exclusive) = CC4(n), cost(exclusive→shared) = 2·CC1:
        // per-reference cost = w(1−w)(CC4 + 2CC1).
        let w = 0.3;
        let (cc4, cc1) = (1000.0, 275.0);
        let chain = TwoStateChain::write_once(w);
        let got = chain.expected_cost_per_step(2.0 * cc1, cc4);
        let want = w * (1.0 - w) * (cc4 + 2.0 * cc1);
        assert!((got - want).abs() < 1e-9);
    }

    #[test]
    fn frozen_chain_converges_to_convention() {
        let chain = TwoStateChain::new(0.0, 0.0);
        assert_eq!(chain.stationary(), (0.5, 0.5));
        assert_eq!(chain.rate_01(), 0.0);
    }

    #[test]
    fn step_preserves_probability_mass() {
        let chain = TwoStateChain::new(0.2, 0.4);
        let mut dist = (1.0, 0.0);
        for _ in 0..50 {
            dist = chain.step(dist);
            assert!((dist.0 + dist.1 - 1.0).abs() < 1e-12);
        }
        let pi = chain.stationary();
        assert!((dist.0 - pi.0).abs() < 1e-9, "iteration converges");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_probability() {
        TwoStateChain::new(1.5, 0.0);
    }
}
