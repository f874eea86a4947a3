//! Regenerates Figure 7: the write-once two-state Markov chain — transition
//! probabilities, stationary distribution and the per-reference transition
//! rate `w(1−w)` that eq. 10 builds on. Each write fraction is one sweep
//! cell ([`crate::sweep`]); rows merge back in order.

use tmc_analytic::TwoStateChain;

use crate::{sweep, Table};

pub fn run(threads: usize) {
    println!(
        "\nFigure 7 state machine:\n\
         \n\
             exclusive --(read: 1-w)--> shared\n\
             shared    --(write: w)---> exclusive\n\
             exclusive --(write: w)---> exclusive (self loop)\n\
             shared    --(read: 1-w)--> shared    (self loop)\n"
    );
    let mut t = Table::new(vec![
        "w".into(),
        "P(e->s)".into(),
        "P(s->e)".into(),
        "pi(exclusive)".into(),
        "pi(shared)".into(),
        "transitions/ref = w(1-w)".into(),
    ]);
    let rows = sweep::map(threads, vec![0.05, 0.1, 0.25, 0.5, 0.75, 0.9], |w| {
        let chain = TwoStateChain::write_once(w);
        let (pe, ps) = chain.stationary();
        vec![
            format!("{w:.2}"),
            format!("{:.2}", chain.p01),
            format!("{:.2}", chain.p10),
            format!("{pe:.3}"),
            format!("{ps:.3}"),
            format!("{:.4}", chain.rate_01()),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.print("Figure 7: write-once global Markov chain");
    println!(
        "Check: pi(exclusive) = w and both transition rates equal w(1-w),\n\
         which is exactly the prefactor of eq. 10."
    );
}
