//! The empirical twin of Figure 8: instead of the closed forms, run every
//! protocol through the full trace-driven simulator on the §4 workload
//! (n tasks share blocks, one writer per block, write fraction w) and
//! measure bits per reference on the simulated network.
//!
//! Every (write fraction, protocol) cell is independent — its own seeded
//! trace, its own simulated machine — so the grid fans out across cores on
//! [`crate::sweep`]. Results are merged back in cell order, making the
//! output bit-for-bit identical to a serial run (`--threads 1`).
//!
//! Expected shapes (paper): the update-based protocols are flat-ish in w at
//! low w and grow with w; global read falls with w; the two-mode adaptive
//! protocol tracks the lower envelope of the two fixed modes; the
//! directory-invalidate (write-once-equivalent) baseline peaks in the
//! middle (the w(1−w) hump); no-cache is the 2−w reference line.

use tmc_simcore::SimRng;
use tmc_workload::{Placement, SharedBlockWorkload};

use crate::{build_protocol, drive_steady_state_checked, sweep, Table, PROTOCOLS};

const N_PROCS: usize = 16;
const N_TASKS: usize = 8;
const N_BLOCKS: u64 = 16;
const REFS: usize = 24_000;
const WARMUP: usize = 4_000;

/// Column labels of [`PROTOCOLS`], in the same order.
const SYSTEMS: [&str; 6] = [
    "no-cache",
    "dir-invalidate",
    "update-only",
    "two-mode DW",
    "two-mode GR",
    "two-mode adaptive",
];

/// One grid cell: simulate `protocol` on the w-workload seeded by
/// `seed`, reporting steady-state bits per reference. Every read is
/// value-checked against the sequential-consistency oracle, so the
/// published numbers come from verified-correct runs (the checked drive
/// writes the same stamp sequence, keeping traffic bit-identical).
fn run_cell(w: f64, seed: u64, protocol: &str) -> f64 {
    let trace = SharedBlockWorkload::new(N_TASKS, N_BLOCKS, w)
        .references(REFS)
        .placement(Placement::Adjacent { base: 0 })
        .generate(N_PROCS, &mut SimRng::seed_from(seed));
    let mut sys = build_protocol(protocol, N_PROCS).expect("known protocol");
    drive_steady_state_checked(sys.as_mut(), &trace, WARMUP).bits_per_ref
}

pub fn run(threads: usize) {
    let ws = [0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];
    let mut headers: Vec<String> = vec!["w".into()];
    headers.extend(SYSTEMS.iter().map(|s| s.to_string()));
    headers.push("winner".into());
    let mut t = Table::new(headers);
    println!(
        "\nTrace-driven run: N={N_PROCS} processors, n={N_TASKS} sharing tasks, \
         {N_BLOCKS} blocks, {REFS} refs ({WARMUP} warm-up), bits/reference \
         ({threads} sweep threads):"
    );

    let cells: Vec<(f64, u64, &str)> = ws
        .iter()
        .enumerate()
        .flat_map(|(i, &w)| PROTOCOLS.map(move |p| (w, 1000 + i as u64, p)))
        .collect();
    let bits = sweep::map(threads, cells, |(w, seed, p)| run_cell(w, seed, p));

    for (i, &w) in ws.iter().enumerate() {
        let row = &bits[i * SYSTEMS.len()..(i + 1) * SYSTEMS.len()];
        let winner = SYSTEMS
            .iter()
            .zip(row)
            .skip(1) // exclude the no-cache reference from "winner"
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("nonempty")
            .0;
        let mut cells = vec![format!("{w:.2}")];
        cells.extend(row.iter().map(|b| format!("{b:.1}")));
        cells.push(winner.to_string());
        t.row(cells);
    }
    t.print("Figure 8 (empirical): measured bits per reference");

    let w1 = 2.0 / (N_TASKS as f64 + 2.0);
    println!(
        "Two-mode threshold for n={N_TASKS}: w1 = {w1:.3}. Expect the fixed-DW\n\
         column to win below it, fixed-GR above it, and the adaptive column to\n\
         track whichever fixed mode is cheaper."
    );
}
