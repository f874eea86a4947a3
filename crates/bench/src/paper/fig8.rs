//! Regenerates Figure 8: normalized communication cost per memory reference
//! versus write fraction w — no-cache (bold reference), write-once (dashed)
//! and the two-mode protocol (solid), for several sharer counts n. Each
//! sharer count is one sweep cell ([`crate::sweep`]); rendered tables
//! merge back in order.

use tmc_analytic::ProtocolCostModel;

use crate::{sweep, Table};

fn render_for_sharers(n: u64, big_n: u64, m_bits: u64) -> String {
    let model = ProtocolCostModel::new(n, big_n, m_bits);
    let w1 = model.threshold().value();
    let mut t = Table::new(vec![
        "w".into(),
        "no-cache (2-w)".into(),
        "write-once w(1-w)(n+2)".into(),
        "DW mode (wn)".into(),
        "GR mode 2(1-w)".into(),
        "two-mode (min)".into(),
    ]);
    for i in 0..=20 {
        let w = i as f64 / 20.0;
        t.row(vec![
            format!("{w:.2}"),
            format!("{:.3}", model.no_cache_norm(w)),
            format!("{:.3}", model.write_once_norm(w)),
            format!("{:.3}", model.distributed_write_norm(w)),
            format!("{:.3}", model.global_read_norm(w)),
            format!("{:.3}", model.two_mode_norm(w)),
        ]);
    }
    format!(
        "\n== Figure 8 (n = {n}): normalized CC vs write fraction; threshold w1 = {w1:.4}, two-mode peak = {:.3} ==\n{}",
        model.two_mode_peak_norm(),
        t.render()
    )
}

pub fn run(threads: usize) {
    let big_n = 1024;
    let m_bits = 20;
    let tables = sweep::map(threads, vec![4u64, 16, 64], |n| {
        render_for_sharers(n, big_n, m_bits)
    });
    for table in tables {
        print!("{table}");
    }
    println!(
        "Claims checked by the analytic test suite: the two-mode curve never\n\
         exceeds the no-cache curve or the write-once curve for any w, and\n\
         its peak 2n/(n+2) < 2 is attained exactly at w1 = 2/(n+2)."
    );
}
