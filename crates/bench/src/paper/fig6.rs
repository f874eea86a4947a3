//! Regenerates Figure 6: communication cost versus destinations for schemes
//! 1, 2 (region worst case) and 3, with N = 1024, n₁ = 128, M = 20.
//! Rows are independent cells, evaluated on the [`crate::sweep`] engine
//! and merged back in order.

use tmc_analytic::multicast::{scheme1, scheme2_region_worst, scheme3};

use crate::{sweep, Table};

pub fn run(threads: usize) {
    let (big_n, n1, m_bits) = (1024u64, 128u64, 20u64);
    let cc3 = scheme3(n1, big_n, m_bits);
    let mut t = Table::new(vec![
        "n".into(),
        "CC1 (eq.2)".into(),
        "CC2' (eq.6)".into(),
        "CC3 (eq.5)".into(),
        "winner".into(),
    ]);
    let rows = sweep::map(threads, (0u32..=7).collect(), |k| {
        let n = 1u64 << k;
        let c1 = scheme1(n, big_n, m_bits);
        let c2 = scheme2_region_worst(n, n1, big_n, m_bits);
        (n, c1, c2)
    });
    for (n, c1, c2) in rows {
        let min = c1.min(c2).min(cc3);
        let winner = if min == c1 {
            "1"
        } else if min == c2 {
            "2"
        } else {
            "3"
        };
        t.row(vec![
            n.to_string(),
            c1.to_string(),
            c2.to_string(),
            cc3.to_string(),
            winner.to_string(),
        ]);
    }
    t.print("Figure 6: CC vs destinations, N=1024, n1=128, M=20");
    println!(
        "Shape check (paper): scheme 1 wins for small n, scheme 2 for moderate\n\
         n, scheme 3 (a flat line — it always covers the whole region) for\n\
         large n. The combined scheme CC4 = min of the three columns."
    );
}
