//! Per-reference communication-cost models for whole protocols
//! (paper §4, equations 9–12, Figure 8).
//!
//! Setting: `n` tasks share a read–write block, exactly one task writes it,
//! the write fraction is `w`, and a read costs twice a write in network
//! traversals. Costs are normalized by `CC₁` (the cost of one scheme-1
//! message to one destination), which is what Figure 8 plots.

use crate::markov::TwoStateChain;
use crate::multicast;

/// The two-mode selection threshold `w₁ = 2/(n+2)` (paper §4): distributed
/// write is the cheaper mode when `w ≤ w₁`, global read when `w ≥ w₁`.
///
/// # Example
///
/// ```
/// use tmc_analytic::TwoModeThreshold;
///
/// let t = TwoModeThreshold::new(14);
/// assert!((t.value() - 0.125).abs() < 1e-12);
/// assert!(t.prefers_distributed_write(0.1));
/// assert!(!t.prefers_distributed_write(0.2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoModeThreshold {
    n: u64,
}

impl TwoModeThreshold {
    /// Threshold for `n` sharing tasks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "at least one sharer required");
        TwoModeThreshold { n }
    }

    /// `w₁ = 2/(n+2)`.
    pub fn value(self) -> f64 {
        2.0 / (self.n as f64 + 2.0)
    }

    /// Whether distributed write is the (weakly) cheaper mode at `w`.
    pub fn prefers_distributed_write(self, w: f64) -> bool {
        w <= self.value()
    }
}

/// Analytic per-reference costs for the protocols of §4.
///
/// All `*_norm` methods return costs normalized by `CC₁(1 destination)`,
/// assuming multicast scheme 1 (so an n-destination multicast costs
/// `n · CC₁`), exactly the simplification the paper applies for Figure 8.
/// The un-normalized methods take the actual multicast cost `cc4_n` so the
/// model can be driven by any scheme, including measured costs.
///
/// # Example
///
/// ```
/// use tmc_analytic::ProtocolCostModel;
///
/// let model = ProtocolCostModel::new(16, 1024, 20);
/// let w = 0.05;
/// // The two-mode protocol never exceeds the no-cache cost (the paper's
/// // headline claim).
/// assert!(model.two_mode_norm(w) <= model.no_cache_norm(w));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolCostModel {
    /// Number of tasks sharing the block.
    pub n: u64,
    /// Machine size `N`.
    pub big_n: u64,
    /// Message payload bits `M`.
    pub m_bits: u64,
}

impl ProtocolCostModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≤ big_n`, `n ≥ 1` and `big_n` is a power of two.
    pub fn new(n: u64, big_n: u64, m_bits: u64) -> Self {
        assert!(n >= 1 && n <= big_n, "need 1 ≤ n ≤ N");
        let _ = multicast::log2_exact(big_n);
        ProtocolCostModel { n, big_n, m_bits }
    }

    /// `CC₁` for a single destination: the normalization unit.
    pub fn cc1_unit(&self) -> u64 {
        multicast::scheme1(1, self.big_n, self.m_bits)
    }

    /// Eq. 9: block kept at memory. `(1−w)·2CC₁ + w·CC₁` bits per reference.
    pub fn no_cache(&self, w: f64) -> f64 {
        self.no_cache_norm(w) * self.cc1_unit() as f64
    }

    /// Eq. 9 normalized: `2 − w`.
    pub fn no_cache_norm(&self, w: f64) -> f64 {
        check_w(w);
        2.0 - w
    }

    /// Eq. 10: write-once under the Figure 7 Markov chain, with
    /// `cc4_n` the cost of one invalidation multicast to `n` caches.
    pub fn write_once(&self, w: f64, cc4_n: f64) -> f64 {
        check_w(w);
        TwoStateChain::write_once(w).expected_cost_per_step(2.0 * self.cc1_unit() as f64, cc4_n)
    }

    /// Eq. 10's scheme-1 upper bound, normalized: `w(1−w)(n+2)`.
    pub fn write_once_norm(&self, w: f64) -> f64 {
        check_w(w);
        w * (1.0 - w) * (self.n as f64 + 2.0)
    }

    /// Eq. 11: distributed-write mode, with `cc4_n` the cost of one write
    /// distribution to `n` caches: `w · cc4_n`.
    pub fn distributed_write(&self, w: f64, cc4_n: f64) -> f64 {
        check_w(w);
        w * cc4_n
    }

    /// Eq. 11's scheme-1 bound, normalized: `w·n`.
    pub fn distributed_write_norm(&self, w: f64) -> f64 {
        check_w(w);
        w * self.n as f64
    }

    /// Eq. 12: global-read mode: `(1−w)·2CC₁` (every read crosses the
    /// network twice; writes are local at the owner).
    pub fn global_read(&self, w: f64) -> f64 {
        self.global_read_norm(w) * self.cc1_unit() as f64
    }

    /// Eq. 12 normalized: `2(1−w)`.
    pub fn global_read_norm(&self, w: f64) -> f64 {
        check_w(w);
        2.0 * (1.0 - w)
    }

    /// The two-mode protocol with the mode chosen per the threshold:
    /// `min(eq. 11, eq. 12)`, given `cc4_n`.
    pub fn two_mode(&self, w: f64, cc4_n: f64) -> f64 {
        self.distributed_write(w, cc4_n).min(self.global_read(w))
    }

    /// The two-mode cost, normalized, scheme-1 bound: `min(wn, 2(1−w))`.
    pub fn two_mode_norm(&self, w: f64) -> f64 {
        self.distributed_write_norm(w).min(self.global_read_norm(w))
    }

    /// The mode-selection threshold for this model's `n`.
    pub fn threshold(&self) -> TwoModeThreshold {
        TwoModeThreshold::new(self.n)
    }

    /// The worst-case (over all `w`) normalized two-mode cost,
    /// `2n/(n+2)` — strictly below the no-cache curve everywhere.
    pub fn two_mode_peak_norm(&self) -> f64 {
        2.0 * self.n as f64 / (self.n as f64 + 2.0)
    }
}

fn check_w(w: f64) {
    assert!((0.0..=1.0).contains(&w), "write fraction {w} out of range");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> impl Iterator<Item = f64> {
        (0..=100).map(|i| i as f64 / 100.0)
    }

    #[test]
    fn threshold_value_and_preference() {
        let t = TwoModeThreshold::new(2);
        assert!((t.value() - 0.5).abs() < 1e-12);
        assert!(t.prefers_distributed_write(0.5));
        assert!(!t.prefers_distributed_write(0.51));
    }

    #[test]
    fn two_mode_never_exceeds_no_cache() {
        // The paper's first claim below eq. 12.
        for n in [1u64, 2, 4, 16, 64, 256] {
            let model = ProtocolCostModel::new(n, 1024, 20);
            for w in sweep() {
                assert!(
                    model.two_mode_norm(w) <= model.no_cache_norm(w) + 1e-12,
                    "n={n} w={w}"
                );
            }
        }
    }

    #[test]
    fn two_mode_never_exceeds_write_once() {
        // The paper's second claim.
        for n in [1u64, 2, 4, 16, 64, 256] {
            let model = ProtocolCostModel::new(n, 1024, 20);
            for w in sweep() {
                assert!(
                    model.two_mode_norm(w) <= model.write_once_norm(w) + 1e-12,
                    "n={n} w={w}"
                );
            }
        }
    }

    #[test]
    fn modes_cross_exactly_at_the_threshold() {
        for n in [2u64, 4, 14, 62] {
            let model = ProtocolCostModel::new(n, 1024, 20);
            let w1 = model.threshold().value();
            assert!((model.distributed_write_norm(w1) - model.global_read_norm(w1)).abs() < 1e-12);
            // Below the threshold DW is cheaper, above GR is.
            assert!(model.distributed_write_norm(w1 * 0.5) < model.global_read_norm(w1 * 0.5));
            let above = (w1 * 1.5).min(1.0);
            assert!(model.distributed_write_norm(above) > model.global_read_norm(above));
        }
    }

    #[test]
    fn peak_is_attained_at_the_threshold() {
        let model = ProtocolCostModel::new(16, 1024, 20);
        let w1 = model.threshold().value();
        assert!((model.two_mode_norm(w1) - model.two_mode_peak_norm()).abs() < 1e-12);
        for w in sweep() {
            assert!(model.two_mode_norm(w) <= model.two_mode_peak_norm() + 1e-12);
        }
    }

    #[test]
    fn unnormalized_forms_scale_by_cc1() {
        let model = ProtocolCostModel::new(8, 256, 20);
        let cc1 = model.cc1_unit() as f64;
        let w = 0.2;
        assert!((model.no_cache(w) - (2.0 - w) * cc1).abs() < 1e-9);
        assert!((model.global_read(w) - 2.0 * (1.0 - w) * cc1).abs() < 1e-9);
        // With CC4 = n·CC1 the generic forms reduce to the normalized ones.
        let cc4 = 8.0 * cc1;
        assert!(
            (model.distributed_write(w, cc4) / cc1 - model.distributed_write_norm(w)).abs() < 1e-9
        );
        assert!((model.write_once(w, cc4) / cc1 - model.write_once_norm(w)).abs() < 1e-9);
        assert!((model.two_mode(w, cc4) / cc1 - model.two_mode_norm(w)).abs() < 1e-9);
    }

    #[test]
    fn write_once_peaks_at_half() {
        let model = ProtocolCostModel::new(16, 1024, 20);
        let peak = model.write_once_norm(0.5);
        for w in sweep() {
            assert!(model.write_once_norm(w) <= peak + 1e-12);
        }
        assert!((peak - 0.25 * 18.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_write_fraction() {
        ProtocolCostModel::new(4, 64, 20).no_cache_norm(1.5);
    }

    #[test]
    #[should_panic(expected = "1 ≤ n ≤ N")]
    fn rejects_more_sharers_than_caches() {
        ProtocolCostModel::new(2048, 1024, 20);
    }
}
