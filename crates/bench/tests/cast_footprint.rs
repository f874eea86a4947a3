//! Guards what the multicast memo keeps, as *counts*: over the first
//! 100 000 references of the `bigN-zipf`-shaped stream (N = 1024, 2^21
//! blocks, Zipf users, w = 0.2) almost every cast is an owner announcing
//! itself to a sharer set nobody casts to again. Each must be walked and
//! forgotten — at the parent of this guard every one of them left a
//! ≈ 2.3 KB memo entry behind (1187 entries here, ≈ 60 MiB over a
//! benchmark repetition).
//!
//! The counts come from a fixed hash, so they repeat exactly: the guard
//! re-runs itself in two child processes and compares.

use std::process::Command;

use tmc_bench::script::{apply_script, from_trace};
use tmc_core::{CastStats, ModePolicy, System, SystemConfig};
use tmc_simcore::SimRng;
use tmc_workload::MultiTenantZipfWorkload;

const N_PORTS: usize = 1024;
const REFS: usize = 100_000;
const STATS_LINE: &str = "cast-stats:";

/// Runs the stream on a new machine; returns its cast statistics and the
/// number of multicasts its protocol counters report.
fn run_stream() -> (CastStats, u64) {
    let trace = MultiTenantZipfWorkload::new(N_PORTS, 1_000_000, 0.2)
        .tenants(2048)
        .blocks_per_tenant(1024)
        .references(REFS)
        .generate(N_PORTS, &mut SimRng::seed_from(11));
    let cfg = SystemConfig::new(N_PORTS).mode_policy(ModePolicy::Adaptive { window: 64 });
    let mut sys = System::new(cfg).expect("valid config");
    assert_eq!(sys.cast_stats(), CastStats::default());
    apply_script(&mut sys, &from_trace(&trace));
    let casts = [
        "updates_multicast",
        "owner_announce_multicast",
        "invalidate_multicast",
    ]
    .iter()
    .map(|name| sys.counters().get(name))
    .sum();
    (sys.cast_stats(), casts)
}

/// The child half of the guard: prints the statistics of one run.
#[test]
fn print_cast_stats() {
    println!("{STATS_LINE}{:?}", run_stream().0);
}

fn stats_from_child_process() -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", "print_cast_stats", "--nocapture"])
        .output()
        .expect("spawn the test binary");
    assert!(out.status.success(), "child run failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let at = stdout.find(STATS_LINE).expect("child printed its stats") + STATS_LINE.len();
    stdout[at..].lines().next().expect("a line").to_string()
}

#[test]
fn one_off_casts_leave_no_memo_entries_and_counts_repeat() {
    let (stats, casts) = run_stream();
    assert!(casts > 1000, "the stream must cast: {casts}");
    assert_eq!(
        stats.replayed + stats.walked + stats.admitted,
        casts,
        "every cast is billed exactly one way: {stats:?}"
    );
    assert_eq!(stats.flushes, 0);
    assert!(
        (stats.entries as u64) * 50 < casts,
        "{} memo entries for {casts} casts: one-off casts are being memoized",
        stats.entries
    );
    assert_eq!(stats.entries as u64, stats.admitted);

    let here = format!("{stats:?}");
    for run in 0..2 {
        assert_eq!(stats_from_child_process(), here, "child process {run}");
    }
}
