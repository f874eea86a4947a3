//! Break-even analysis between the multicast schemes (Tables 2–4).
//!
//! A reproduction note: the paper's printed break-even tables do not follow
//! exactly from its own equations — recomputing eq. 3 − eq. 2 places the
//! scheme-1/scheme-2 crossover about a factor of two above several printed
//! entries. We implement the equations (which the paper presents as the
//! definition) and report both our values and the paper's in
//! `EXPERIMENTS.md`. All three properties the paper *proves* from eq. 4
//! (existence for `N ≥ 4`, break-even decreasing in `M`, increasing in `N`)
//! hold for the equation-derived values and are asserted in this module's
//! tests.

use crate::multicast;

/// One of the paper's three multicast schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scheme {
    /// Scheme 1: replicated unicasts.
    S1,
    /// Scheme 2: bit-vector routing.
    S2,
    /// Scheme 3: broadcast-tag routing.
    S3,
}

impl Scheme {
    /// The scheme's number in the paper's tables.
    pub fn number(self) -> u8 {
        match self {
            Scheme::S1 => 1,
            Scheme::S2 => 2,
            Scheme::S3 => 3,
        }
    }
}

/// Break-even between schemes 1 and 2 (Table 2): the smallest power-of-two
/// destination count `n ≤ N` at which worst-case scheme 2 is no more
/// expensive than scheme 1, or `None` if scheme 2 never catches up. (The
/// weak inequality matters only at the `N = 4, M = 0` boundary, where the
/// two schemes tie exactly at `n = 4` — the case behind the paper's
/// "for N ≥ 4" qualifier.)
///
/// # Panics
///
/// Panics if `big_n` is not a power of two.
pub fn break_even_scheme2(big_n: u64, m_bits: u64) -> Option<u64> {
    let m = multicast::log2_exact(big_n);
    (0..=m).map(|k| 1u64 << k).find(|&n| {
        multicast::scheme2_worst(n, big_n, m_bits) <= multicast::scheme1(n, big_n, m_bits)
    })
}

/// Break-even between schemes 2 and 3 within an `n1`-region: the smallest
/// power-of-two `n ≤ n1` at which multicasting the whole region with
/// scheme 3 undercuts region-constrained worst-case scheme 2, or `None`.
///
/// # Panics
///
/// Panics unless `n1 ≤ big_n` are powers of two.
pub fn break_even_scheme3(n1: u64, big_n: u64, m_bits: u64) -> Option<u64> {
    let l = multicast::log2_exact(n1);
    (0..=l)
        .map(|k| 1u64 << k)
        .find(|&n| multicast::cc3_minus_cc2_region(n, n1, big_n, m_bits) < 0)
}

/// The cheapest scheme for `n` destinations among `n1` adjacent ports
/// (Tables 3 and 4). Ties prefer the lower-numbered (simpler) scheme, the
/// ordering the paper's tables use.
///
/// # Panics
///
/// Panics unless `n ≤ n1 ≤ big_n` are powers of two.
pub fn cheapest_scheme(n: u64, n1: u64, big_n: u64, m_bits: u64) -> Scheme {
    let c1 = multicast::scheme1(n, big_n, m_bits);
    let c2 = multicast::scheme2_region_worst(n, n1, big_n, m_bits);
    let c3 = multicast::scheme3(n1, big_n, m_bits);
    if c1 <= c2 && c1 <= c3 {
        Scheme::S1
    } else if c2 <= c3 {
        Scheme::S2
    } else {
        Scheme::S3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn break_even_exists_for_n_at_least_4() {
        // The paper's first claim from eq. 4.
        for m in 2..=12 {
            let big_n = 1u64 << m;
            for m_bits in [0u64, 10, 20, 40, 100] {
                assert!(
                    break_even_scheme2(big_n, m_bits).is_some(),
                    "N={big_n} M={m_bits}"
                );
            }
        }
    }

    #[test]
    fn break_even_decreases_with_message_size() {
        // The paper's second claim: bigger messages favor scheme 2 sooner.
        for m in 3..=12 {
            let big_n = 1u64 << m;
            let mut prev = u64::MAX;
            for m_bits in [0u64, 20, 40, 100, 400] {
                let be = break_even_scheme2(big_n, m_bits).unwrap();
                assert!(be <= prev, "N={big_n}: break-even rose with M");
                prev = be;
            }
        }
    }

    #[test]
    fn break_even_increases_with_machine_size() {
        // The paper's third claim.
        for m_bits in [0u64, 20, 40, 100] {
            let mut prev = 0;
            for m in 3..=12 {
                let be = break_even_scheme2(1u64 << m, m_bits).unwrap();
                assert!(be >= prev, "M={m_bits}: break-even fell with N");
                prev = be;
            }
        }
    }

    #[test]
    fn scheme3_break_even_exists_within_regions() {
        // Eq. 7's claim: there is an n ≤ n1 where scheme 3 wins — for
        // regions small relative to the machine (Tables 3/4 territory).
        for (n1, big_n) in [(128u64, 1024u64), (128, 2048), (64, 1024), (32, 512)] {
            for m_bits in [0u64, 20, 40, 60] {
                assert!(
                    break_even_scheme3(n1, big_n, m_bits).is_some(),
                    "n1={n1} N={big_n} M={m_bits}"
                );
            }
        }
    }

    #[test]
    fn scheme3_break_even_moves_as_claimed() {
        // Increasing M raises the scheme-2/3 break-even; increasing N
        // lowers it (the paper's observations after eq. 7).
        let be = |n1, big_n, m_bits| break_even_scheme3(n1, big_n, m_bits).unwrap();
        assert!(be(128, 1024, 0) <= be(128, 1024, 60));
        assert!(be(128, 2048, 20) <= be(128, 256, 20));
    }

    #[test]
    fn cheapest_scheme_monotone_progression() {
        // Figure 6's qualitative shape: as n grows from 1 to n1 the winner
        // moves 1 → 2 → 3 and never backwards.
        let (n1, big_n, m_bits) = (128u64, 1024u64, 20u64);
        let mut best_rank = 1;
        for k in 0..=7 {
            let n = 1u64 << k;
            let s = cheapest_scheme(n, n1, big_n, m_bits).number();
            assert!(s >= best_rank, "winner regressed at n={n}");
            best_rank = best_rank.max(s);
        }
        assert_eq!(cheapest_scheme(1, n1, big_n, m_bits), Scheme::S1);
        assert_eq!(cheapest_scheme(128, n1, big_n, m_bits), Scheme::S3);
    }

    #[test]
    fn table4_n2048_row_matches_paper() {
        // The Table 4 row our equations reproduce cell-for-cell:
        // N=2048, M=20, n1=128 → schemes 1, 1, 3, 3, 3.
        let got: Vec<u8> = [8u64, 16, 32, 64, 128]
            .iter()
            .map(|&n| cheapest_scheme(n, 128, 2048, 20).number())
            .collect();
        assert_eq!(got, [1, 1, 3, 3, 3]);
    }

    #[test]
    fn scheme_numbers() {
        assert_eq!(Scheme::S1.number(), 1);
        assert_eq!(Scheme::S2.number(), 2);
        assert_eq!(Scheme::S3.number(), 3);
        assert!(Scheme::S1 < Scheme::S2);
    }
}
