//! §5's cautionary experiment: ownership churn under task migration.
//!
//! "For any application where each block of its shared data structure is
//! modified by at most one task, ownership will not change. … However, for
//! applications where several tasks can modify a block, or when tasks can
//! migrate, ownership will change which increases the network traffic."
//!
//! We sweep the migration period (how many references pass before each
//! block's writer moves to the next task) and measure traffic and ownership
//! transfers on the two-mode protocol and the baselines. Each period is an
//! independent cell on [`crate::sweep`]; rows merge back in order.

use tmc_baselines::{
    two_mode_adaptive, CoherentSystem, DirectoryInvalidateSystem, UpdateOnlySystem,
};
use tmc_simcore::SimRng;
use tmc_workload::MigratingWorkload;

use crate::{drive, sweep, Table};

const N_PROCS: usize = 16;
const REFS: usize = 20_000;

pub fn run(threads: usize) {
    let mut t = Table::new(vec![
        "migration period".into(),
        "two-mode bits/ref".into(),
        "ownership transfers".into(),
        "update-only bits/ref".into(),
        "dir-invalidate bits/ref".into(),
    ]);
    // `usize::MAX` period = no migration (the §4/§5 one-writer best case).
    let periods = vec![
        ("none", usize::MAX),
        ("10000", 10_000),
        ("1000", 1_000),
        ("100", 100),
        ("10", 10),
    ];
    let rows = sweep::map(threads, periods, |(label, period)| {
        let period_refs = if period == usize::MAX {
            REFS + 1
        } else {
            period
        };
        let trace = MigratingWorkload::new(8, 16, 0.2, period_refs)
            .references(REFS)
            .generate(N_PROCS, &mut SimRng::seed_from(8));

        let mut tm = two_mode_adaptive(N_PROCS, 64);
        let tm_bits = drive(&mut tm, &trace).bits_per_ref;
        let transfers = tm.counters().get("ownership_transfers");
        tm.inner().check_invariants().expect("invariants");

        let mut upd = UpdateOnlySystem::new(N_PROCS);
        let upd_bits = drive(&mut upd, &trace).bits_per_ref;

        let mut dir = DirectoryInvalidateSystem::new(N_PROCS);
        let dir_bits = drive(&mut dir, &trace).bits_per_ref;

        vec![
            label.to_string(),
            format!("{tm_bits:.1}"),
            transfers.to_string(),
            format!("{upd_bits:.1}"),
            format!("{dir_bits:.1}"),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.print("Ownership churn under task migration (n=8 tasks, w=0.2)");
    println!(
        "Expected (paper, section 5): without migration ownership settles and\n\
         transfers stay near the number of blocks; as the migration period\n\
         shrinks, every epoch forces an ownership-request round trip per block\n\
         and the two-mode protocol's traffic rises toward the invalidating\n\
         baseline's."
    );
}
