//! A synthesis of §4: for every (sharers n, write fraction w) cell, which
//! protocol has the lowest analytic per-reference communication cost?
//!
//! The paper draws Figure 8 for a few n; this map shows the whole plane.
//! Legend: `-` no-cache, `W` write-once, `D` distributed write, `G` global
//! read. (By the paper's two claims, `-` can never appear: the two-mode
//! envelope min(D, G) is below no-cache everywhere, so every cell is W, D
//! or G — and W only where the Markov model's hump dips under both modes,
//! which never happens either; the map makes that visible.)
//!
//! Each sharer-count row is one sweep cell ([`crate::sweep`]); rows
//! print in order.

use tmc_analytic::ProtocolCostModel;

use crate::sweep;

pub fn run(threads: usize) {
    let big_n = 1024;
    let m_bits = 20;
    println!("\ncolumns: w = 0.025 .. 0.975 (step 0.05); rows: sharers n\n");
    print!("{:>6} ", "n");
    for i in 0..20 {
        print!("{}", if i % 2 == 0 { '.' } else { ' ' });
    }
    println!("   w1 = 2/(n+2)");
    let lines = sweep::map(threads, (1u32..=8).collect(), |k| {
        let n = 1u64 << k;
        let model = ProtocolCostModel::new(n, big_n, m_bits);
        let mut row = String::new();
        for i in 0..20 {
            let w = 0.025 + i as f64 * 0.05;
            let costs = [
                ('-', model.no_cache_norm(w)),
                ('W', model.write_once_norm(w)),
                ('D', model.distributed_write_norm(w)),
                ('G', model.global_read_norm(w)),
            ];
            let winner = costs
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("nonempty")
                .0;
            row.push(winner);
        }
        format!("{n:>6} {row}   {:.3}", model.threshold().value())
    });
    for line in lines {
        println!("{line}");
    }
    println!(
        "\nReading the map: the D→G boundary tracks w1 = 2/(n+2) exactly; the\n\
         write-once protocol is never the winner (its w(1-w)(n+2) hump always\n\
         sits above min(wn, 2(1-w))); and no-cache never wins — the paper's\n\
         two claims under eq. 12, visualized."
    );
}
