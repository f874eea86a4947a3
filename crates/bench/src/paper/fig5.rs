//! Regenerates Figure 5: communication cost versus number of destinations
//! for scheme 1 and scheme 2 (worst case), N = 1024 caches, M = 20 bits.
//! Rows are independent cells, evaluated on the [`crate::sweep`] engine
//! and merged back in order.

use tmc_analytic::multicast::{scheme1, scheme2_worst};

use crate::{sweep, Table};

pub fn run(threads: usize) {
    let (big_n, m_bits) = (1024u64, 20u64);
    let mut t = Table::new(vec![
        "n".into(),
        "CC1 (eq.2)".into(),
        "CC2 worst (eq.3)".into(),
        "CC2/CC1".into(),
        "winner".into(),
    ]);
    let rows = sweep::map(threads, (0u32..=10).collect(), |k| {
        let n = 1u64 << k;
        let c1 = scheme1(n, big_n, m_bits);
        let c2 = scheme2_worst(n, big_n, m_bits);
        (n, c1, c2)
    });
    for (n, c1, c2) in rows {
        t.row(vec![
            n.to_string(),
            c1.to_string(),
            c2.to_string(),
            format!("{:.3}", c2 as f64 / c1 as f64),
            if c2 <= c1 { "scheme 2" } else { "scheme 1" }.to_string(),
        ]);
    }
    t.print("Figure 5: CC vs destinations, N=1024, M=20");
    println!(
        "Shape check (paper): scheme 1 grows linearly in n; scheme 2 starts\n\
         far above it (the kilobit vector dominates small casts) and wins from\n\
         the break-even on — a small fraction of N."
    );
}
