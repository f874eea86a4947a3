//! Guards the fixed cost of a machine as a *count*, not a timing: resident
//! pages read from `/proc/self/statm` around building an N = 1024 `System`
//! and around a short run on it. A machine must cost what the run touches —
//! at the parent of this guard, construction alone wrote all 262 144 cache
//! line slots (≈ 37 MiB), and until the line store grew with use, each
//! cache the run touched reserved a line slot for every way of every set
//! (≈ 10.4 MiB after the run below; ≈ 7 MiB with rows added on demand).
//!
//! One test in its own file, so it has the process (and its heap) to
//! itself.
#![cfg(target_os = "linux")]

use tmc_bench::script::{apply_script, from_trace};
use tmc_core::{System, SystemConfig};
use tmc_simcore::SimRng;
use tmc_workload::MultiTenantZipfWorkload;

const N_PORTS: usize = 1024;
const REFS: usize = 2000;
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
fn big_machine_costs_what_the_run_touches() {
    // The script exists before the baseline is read, so only the machine
    // is measured.
    let trace = MultiTenantZipfWorkload::new(N_PORTS, 500_000, 0.15)
        .tenants(64)
        .blocks_per_tenant(32)
        .references(REFS)
        .generate(N_PORTS, &mut SimRng::seed_from(14));
    let script = from_trace(&trace);

    let before = resident_bytes();
    let mut sys = System::new(SystemConfig::new(N_PORTS)).expect("valid config");
    let built = resident_bytes().saturating_sub(before);
    // ≈ 0.3 MiB: the ledger and the empty directories. Nothing sized by
    // what a run might do (cache lines, the cast memo's sighting table)
    // exists before the run does it.
    assert!(
        built < 2 * MIB,
        "building an N={N_PORTS} machine grew the resident set by {} KiB",
        built / 1024
    );

    apply_script(&mut sys, &script);
    sys.check_invariants().expect("healthy after the run");
    let ran = resident_bytes().saturating_sub(before);
    assert!(
        ran < 10 * MIB,
        "{REFS} references on an N={N_PORTS} machine grew the resident set by {} KiB",
        ran / 1024
    );
}
