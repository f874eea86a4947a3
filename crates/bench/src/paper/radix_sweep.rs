//! The §3 generalization, quantified: the same N-port machine built from
//! 2×2, 4×4 or 16×16 switches. Fewer, wider stages shorten every path and
//! shrink the per-stage routing tags, shifting the scheme-1/scheme-2
//! trade-off. Each destination count is one sweep cell
//! ([`crate::sweep`]); row pairs merge back in order.

use tmc_omeganet::aary::AryOmega;
use tmc_omeganet::DestSet;

use crate::{sweep, Table};

pub fn run(threads: usize) {
    let configs = [(8u32, 1u32, "2x2"), (4, 2, "4x4"), (2, 4, "16x16")];
    let m_bits = 20;

    let mut t = Table::new(vec![
        "n dests".into(),
        "scheme".into(),
        "2x2 (8 stages)".into(),
        "4x4 (4 stages)".into(),
        "16x16 (2 stages)".into(),
    ]);
    let row_pairs = sweep::map(threads, vec![0u32, 2, 4, 6, 8], |k| {
        let n = 1usize << k;
        let dests = DestSet::worst_case_spread(256, n).expect("valid");
        let mut row1 = vec![n.to_string(), "1 (replicated)".into()];
        let mut row2 = vec![n.to_string(), "2 (bit-vector)".into()];
        for &(m, g, _) in &configs {
            let net = AryOmega::new(m, g).expect("valid shape");
            assert_eq!(net.ports(), 256);
            let mut traffic = net.traffic_matrix();
            let c1 = net
                .cast_replicated(0, &dests, m_bits, &mut traffic)
                .expect("valid")
                .cost_bits;
            traffic.clear();
            let c2 = net
                .cast_bitvector(0, &dests, m_bits, &mut traffic)
                .expect("valid")
                .cost_bits;
            assert_eq!(c1, net.cost_replicated(n as u64, m_bits));
            assert_eq!(c2, net.cost_bitvector(&dests, m_bits));
            row1.push(c1.to_string());
            row2.push(c2.to_string());
        }
        (row1, row2)
    });
    for (row1, row2) in row_pairs {
        t.row(row1);
        t.row(row2);
    }
    t.print("Multicast cost on N=256 omega networks of a x a switches (M=20, worst-case spread)");
    println!(
        "Wider switches shorten paths (m = log_a N stages), cutting scheme 1\n\
         roughly in proportion; scheme 2 also gains because each of the fewer\n\
         layers carries the same-total subvectors. The break-even between the\n\
         schemes moves accordingly — the generalization §3 alludes to."
    );
}
