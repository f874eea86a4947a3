//! Guards what the cache lines of a big machine cost as a *count*, not a
//! timing: resident pages read from `/proc/self/statm` around a
//! `bigN-zipf`-shaped run (N = 1024, 2048 tenants × 1024 blocks, w = 0.2,
//! adaptive window 64, seed 11). A line keeps the state every holder uses
//! and a 4-word block, 56 bytes; the present vector and the §5 window
//! counters live once per owned block in the owner table. While every
//! line carried them and room for 8 words (144 bytes), the same 300 000
//! references grew the resident set by ≈ 48.1 MiB; with the §5 layout
//! they grow it by ≈ 32.6 MiB (both measured on a two-core Linux host),
//! so the 38 MiB bound leaves ≈ 5.4 MiB of headroom.
//!
//! One test in its own file, so it has the process (and its heap) to
//! itself.
#![cfg(target_os = "linux")]

use tmc_bench::script;
use tmc_core::{ModePolicy, System, SystemConfig};
use tmc_simcore::SimRng;
use tmc_workload::MultiTenantZipfWorkload;

const N: usize = 1024;
const REFS: usize = 300_000;
const MIB: usize = 1 << 20;

/// Resident set size of this process in bytes (statm field 2 is in pages;
/// Linux on every supported target uses 4 KiB base pages for it).
fn resident_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("procfs is mounted");
    let pages: usize = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm has a resident field");
    pages * 4096
}

#[test]
fn big_machine_lines_cost_what_holders_use() {
    // The references exist before the baseline is read, so only the
    // machine is measured.
    let trace = MultiTenantZipfWorkload::new(N, 1_000_000, 0.2)
        .tenants(2048)
        .blocks_per_tenant(1024)
        .references(REFS)
        .generate(N, &mut SimRng::seed_from(11));
    let ops = script::from_trace(&trace);
    drop(trace);

    let before = resident_bytes();
    let cfg = SystemConfig::new(N).mode_policy(ModePolicy::Adaptive { window: 64 });
    let mut sys = System::new(cfg).expect("system");
    script::apply_script(&mut sys, &ops);
    let grew = resident_bytes().saturating_sub(before);
    assert!(sys.owner_entries() > 0, "the run owns blocks");
    assert!(
        grew < 38 * MIB,
        "{REFS} references on an N = {N} machine grew the resident set by {} KiB",
        grew / 1024
    );
}
