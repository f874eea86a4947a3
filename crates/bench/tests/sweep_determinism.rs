//! The parallel sweep engine must be a drop-in for serial iteration: same
//! cells, same results, same order, bit-for-bit — regardless of thread
//! count, stealing order or finish order. This drives the sim-fig8 grid
//! (write fraction × protocol) both ways and compares exactly.

use tmc_bench::args::Args;
use tmc_bench::{build_protocol, drive_steady_state, sweep, PROTOCOLS};
use tmc_simcore::SimRng;
use tmc_workload::{Placement, SharedBlockWorkload};

const N_PROCS: usize = 16;
const N_TASKS: usize = 8;
const N_BLOCKS: u64 = 16;
const REFS: usize = 6_000;
const WARMUP: usize = 1_000;

fn run_cell((w, seed, sys_idx): (f64, u64, usize)) -> (u64, f64) {
    let trace = SharedBlockWorkload::new(N_TASKS, N_BLOCKS, w)
        .references(REFS)
        .placement(Placement::Adjacent { base: 0 })
        .generate(N_PROCS, &mut SimRng::seed_from(seed));
    let mut sys = build_protocol(PROTOCOLS[sys_idx], N_PROCS).expect("known protocol");
    let report = drive_steady_state(sys.as_mut(), &trace, WARMUP);
    // Compare total bits (exact integers) AND the derived float,
    // bit-for-bit.
    (report.total_bits, report.bits_per_ref)
}

fn grid() -> Vec<(f64, u64, usize)> {
    let ws = [0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];
    ws.iter()
        .enumerate()
        .flat_map(|(i, &w)| (0..PROTOCOLS.len()).map(move |s| (w, 1000 + i as u64, s)))
        .collect()
}

#[test]
fn parallel_sim_fig8_grid_is_bit_identical_to_serial() {
    let plain: Vec<(u64, f64)> = grid().into_iter().map(run_cell).collect();
    let serial = sweep::map(1, grid(), run_cell);
    assert_eq!(serial.len(), plain.len());
    for threads in [2, 4, 7] {
        let parallel = sweep::map(threads, grid(), run_cell);
        for (i, ((pb, pf), (sb, sf))) in parallel.iter().zip(&plain).enumerate() {
            assert_eq!(pb, sb, "threads={threads} cell {i}: total_bits differ");
            assert_eq!(
                pf.to_bits(),
                sf.to_bits(),
                "threads={threads} cell {i}: bits_per_ref differ bitwise"
            );
        }
        assert_eq!(parallel, serial, "threads={threads}");
    }
}

#[test]
fn default_map_matches_explicit_serial() {
    // The thread count a command gets without `--threads`: one per core.
    let threads = sweep::threads(&mut Args::new([])).expect("no flag given");
    let via_map = sweep::map(threads, grid(), run_cell);
    let serial: Vec<(u64, f64)> = grid().into_iter().map(run_cell).collect();
    assert_eq!(via_map, serial);
}
