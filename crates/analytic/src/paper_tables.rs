//! The paper's printed tables, as data — with the reproduction scorecard
//! computed (and locked in by tests) rather than eyeballed.
//!
//! The `tmc paper` tables print these side by side with our
//! equation-derived values; this module is the single source of truth for
//! both, so the match counts reported in `EXPERIMENTS.md` are regression-
//! tested.

use crate::breakeven;

/// Table 2 as printed: `(N, [break-even at M=0, M=40, M=100])`.
pub const TABLE2_PAPER: &[(u64, [u64; 3])] = &[
    (64, [16, 1, 1]),
    (128, [32, 4, 1]),
    (256, [32, 8, 4]),
    (512, [64, 16, 8]),
    (1024, [128, 32, 16]),
];

/// The message sizes of Table 2's columns.
pub const TABLE2_MS: [u64; 3] = [0, 40, 100];

/// Table 3 as printed: `(M, winners at n = 4, 8, 16, 64, 128)`, N = 1024,
/// n₁ = 128.
pub const TABLE3_PAPER: &[(u64, [u8; 5])] = &[
    (0, [1, 1, 3, 3, 3]),
    (20, [1, 1, 2, 2, 3]),
    (40, [1, 2, 2, 2, 3]),
    (60, [1, 2, 2, 2, 3]),
];

/// The destination counts of Table 3's columns.
pub const TABLE3_NS: [u64; 5] = [4, 8, 16, 64, 128];

/// Table 4 as printed: `(N, winners at n = 8, 16, 32, 64, 128)`, M = 20,
/// n₁ = 128.
pub const TABLE4_PAPER: &[(u64, [u8; 5])] = &[
    (256, [2, 2, 2, 2, 3]),
    (512, [2, 2, 2, 2, 3]),
    (1024, [1, 2, 2, 2, 3]),
    (2048, [1, 1, 3, 3, 3]),
];

/// The destination counts of Table 4's columns.
pub const TABLE4_NS: [u64; 5] = [8, 16, 32, 64, 128];

/// Our Table 3 winners from the paper's own equations.
pub fn table3_ours() -> Vec<(u64, [u8; 5])> {
    TABLE3_PAPER
        .iter()
        .map(|&(m_bits, _)| {
            let mut row = [0u8; 5];
            for (i, &n) in TABLE3_NS.iter().enumerate() {
                row[i] = breakeven::cheapest_scheme(n, 128, 1024, m_bits).number();
            }
            (m_bits, row)
        })
        .collect()
}

/// Our Table 4 winners from the paper's own equations.
pub fn table4_ours() -> Vec<(u64, [u8; 5])> {
    TABLE4_PAPER
        .iter()
        .map(|&(big_n, _)| {
            let mut row = [0u8; 5];
            for (i, &n) in TABLE4_NS.iter().enumerate() {
                row[i] = breakeven::cheapest_scheme(n, 128, big_n, 20).number();
            }
            (big_n, row)
        })
        .collect()
}

/// Cells agreeing with the paper, for a `(paper, ours)` table pair.
pub fn matching_cells(paper: &[(u64, [u8; 5])], ours: &[(u64, [u8; 5])]) -> (usize, usize) {
    let mut agree = 0;
    let mut total = 0;
    for ((_, p), (_, o)) in paper.iter().zip(ours) {
        for (a, b) in p.iter().zip(o) {
            total += 1;
            if a == b {
                agree += 1;
            }
        }
    }
    (agree, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reproduction scorecard reported in EXPERIMENTS.md, locked in:
    /// any change to the cost equations that moves these counts fails CI.
    #[test]
    fn table3_matches_paper_in_18_of_20_cells() {
        let (agree, total) = matching_cells(TABLE3_PAPER, &table3_ours());
        assert_eq!((agree, total), (18, 20));
    }

    #[test]
    fn table4_matches_paper_in_17_of_20_cells() {
        let (agree, total) = matching_cells(TABLE4_PAPER, &table4_ours());
        assert_eq!((agree, total), (17, 20));
    }

    #[test]
    fn table4_final_row_matches_exactly() {
        let ours = table4_ours();
        assert_eq!(ours.last().unwrap().1, TABLE4_PAPER.last().unwrap().1);
    }

    /// Table 2: the equation-derived break-evens sit above the printed
    /// values by small power-of-two factors — exactly 2× in 11 of 15
    /// cells, equal in 1, 4× in 3 (the documented discrepancy between the
    /// paper's printed table and its own equations). Locked in as a
    /// regression scorecard.
    #[test]
    fn table2_discrepancy_distribution_is_stable() {
        let mut by_ratio = std::collections::BTreeMap::new();
        for &(big_n, paper_row) in TABLE2_PAPER {
            for (i, &m_bits) in TABLE2_MS.iter().enumerate() {
                let ours = breakeven::break_even_scheme2(big_n, m_bits)
                    .expect("break-even exists for N >= 4");
                assert_eq!(ours % paper_row[i], 0, "N={big_n} M={m_bits}");
                *by_ratio.entry(ours / paper_row[i]).or_insert(0u32) += 1;
            }
        }
        assert_eq!(
            by_ratio.into_iter().collect::<Vec<_>>(),
            vec![(1, 1), (2, 11), (4, 3)]
        );
    }

    /// The monotonic structure of the printed tables (which our values
    /// share): winners never step backwards along a row.
    #[test]
    fn winner_monotonicity_holds_in_both_sources() {
        for rows in [
            TABLE3_PAPER.to_vec(),
            table3_ours(),
            TABLE4_PAPER.to_vec(),
            table4_ours(),
        ] {
            for (_, row) in rows {
                for pair in row.windows(2) {
                    assert!(pair[0] <= pair[1], "winner regressed in {row:?}");
                }
            }
        }
    }
}
