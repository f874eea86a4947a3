//! The empirical twin of Figure 8: instead of the closed forms, run every
//! protocol through the full trace-driven simulator on the §4 workload
//! (n tasks share blocks, one writer per block, write fraction w) and
//! measure bits per reference on the simulated network.
//!
//! Every (write fraction, protocol) cell is independent — its own seeded
//! trace, its own simulated machine — so the grid fans out across cores on
//! [`tmc_bench::sweep`]. Results are merged back in cell order, making the
//! output bit-for-bit identical to a serial run (`TMC_SWEEP_THREADS=1`).
//!
//! Expected shapes (paper): the update-based protocols are flat-ish in w at
//! low w and grow with w; global read falls with w; the two-mode adaptive
//! protocol tracks the lower envelope of the two fixed modes; the
//! directory-invalidate (write-once-equivalent) baseline peaks in the
//! middle (the w(1−w) hump); no-cache is the 2−w reference line.

use tmc_baselines::{
    two_mode_adaptive, two_mode_fixed, CoherentSystem, DirectoryInvalidateSystem, NoCacheSystem,
    UpdateOnlySystem,
};
use tmc_bench::shardsim::{self, ShardRunOptions};
use tmc_bench::{drive_steady_state_checked, sweep, Table};
use tmc_core::{Mode, ModePolicy, SystemConfig};
use tmc_simcore::SimRng;
use tmc_workload::{Placement, SharedBlockWorkload};

const N_PROCS: usize = 16;
const N_TASKS: usize = 8;
const N_BLOCKS: u64 = 16;
const REFS: usize = 24_000;
const WARMUP: usize = 4_000;

const SYSTEMS: [&str; 6] = [
    "no-cache",
    "dir-invalidate",
    "update-only",
    "two-mode DW",
    "two-mode GR",
    "two-mode adaptive",
];

fn build_system(idx: usize) -> Box<dyn CoherentSystem> {
    match idx {
        0 => Box::new(NoCacheSystem::new(N_PROCS)),
        1 => Box::new(DirectoryInvalidateSystem::new(N_PROCS)),
        2 => Box::new(UpdateOnlySystem::new(N_PROCS)),
        3 => Box::new(two_mode_fixed(N_PROCS, Mode::DistributedWrite)),
        4 => Box::new(two_mode_fixed(N_PROCS, Mode::GlobalRead)),
        _ => Box::new(two_mode_adaptive(N_PROCS, 64)),
    }
}

/// The two-mode engine's config for a shardable cell, if `sys_idx` is one.
fn two_mode_cfg(sys_idx: usize) -> Option<SystemConfig> {
    let policy = match sys_idx {
        3 => ModePolicy::Fixed(Mode::DistributedWrite),
        4 => ModePolicy::Fixed(Mode::GlobalRead),
        5 => ModePolicy::Adaptive { window: 64 },
        _ => return None,
    };
    Some(SystemConfig::new(N_PROCS).mode_policy(policy))
}

/// One grid cell: simulate protocol `sys_idx` on the w-workload seeded by
/// `seed`, reporting steady-state bits per reference. Every read is
/// value-checked against the sequential-consistency oracle, so the
/// published numbers come from verified-correct runs (the checked drive
/// writes the same stamp sequence, keeping traffic bit-identical).
///
/// With `TMC_SHARDS` set, the two-mode cells run on the block-sharded
/// engine instead — same oracle checking, bit-identical traffic — so one
/// cell can use several cores.
fn run_cell(w: f64, seed: u64, sys_idx: usize) -> f64 {
    let trace = SharedBlockWorkload::new(N_TASKS, N_BLOCKS, w)
        .references(REFS)
        .placement(Placement::Adjacent { base: 0 })
        .generate(N_PROCS, &mut SimRng::seed_from(seed));
    let shards = shardsim::env_shards();
    if shards > 0 {
        if let Some(cfg) = two_mode_cfg(sys_idx) {
            let script = shardsim::script_from_trace(&trace);
            let opts = ShardRunOptions::new(shards, 0).warmup(WARMUP).check(true);
            return shardsim::run(&cfg, &script, &opts)
                .expect("default two-mode configs are shardable")
                .report
                .bits_per_ref;
        }
    }
    let mut sys = build_system(sys_idx);
    drive_steady_state_checked(sys.as_mut(), &trace, WARMUP).bits_per_ref
}

fn main() {
    let ws = [0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];
    let mut headers: Vec<String> = vec!["w".into()];
    headers.extend(SYSTEMS.iter().map(|s| s.to_string()));
    headers.push("winner".into());
    let mut t = Table::new(headers);
    println!(
        "\nTrace-driven run: N={N_PROCS} processors, n={N_TASKS} sharing tasks, \
         {N_BLOCKS} blocks, {REFS} refs ({WARMUP} warm-up), bits/reference \
         ({} sweep threads):",
        sweep::num_threads()
    );
    let shards = shardsim::env_shards();
    if shards > 0 {
        println!("Two-mode cells run block-sharded ({shards} shards requested).");
    }

    let cells: Vec<(f64, u64, usize)> = ws
        .iter()
        .enumerate()
        .flat_map(|(i, &w)| (0..SYSTEMS.len()).map(move |s| (w, 1000 + i as u64, s)))
        .collect();
    let bits = sweep::map(cells, |(w, seed, s)| run_cell(w, seed, s));

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
