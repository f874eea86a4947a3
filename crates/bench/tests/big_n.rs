//! Big-machine coverage: the protocol invariants at N = 128 and N = 256
//! processors, and an N = 256 capture that replays, over the multi-tenant
//! Zipfian workload. These configurations put `DestSet` into its
//! small-list/bitmap layouts and scatter writes across many pages of the
//! paged `MainMemory`/`BlockStore`.

use tmc_bench::script;
use tmc_core::{Mode, ModePolicy, System, SystemConfig};
use tmc_simcore::SimRng;
use tmc_workload::{MultiTenantZipfWorkload, Trace};

fn zipf_trace(n_procs: usize, refs: usize, seed: u64) -> Trace {
    MultiTenantZipfWorkload::new(n_procs, 1_000_000, 0.3)
        .tenants(64)
        .blocks_per_tenant(512)
        .references(refs)
        .generate(n_procs, &mut SimRng::seed_from(seed))
}

#[test]
fn invariants_hold_at_big_n() {
    for n in [128usize, 256] {
        for policy in [
            ModePolicy::Fixed(Mode::DistributedWrite),
            ModePolicy::Fixed(Mode::GlobalRead),
            ModePolicy::Adaptive { window: 16 },
        ] {
            let mut sys = System::new(SystemConfig::new(n).mode_policy(policy)).expect("system");
            let trace = zipf_trace(n, 4000, 0xB16 ^ n as u64);
            script::apply_script(&mut sys, &script::from_trace(&trace));
            sys.check_invariants()
                .unwrap_or_else(|e| panic!("N={n} {policy:?}: {e}"));
            assert!(sys.counters().get("msgs_total") > 0);
        }
    }
}

/// An N = 256 adaptive run captured as JSONL replays with every
/// obligation: the bitmap `DestSet` layouts and the paged store survive
/// the capture format.
#[test]
fn capture_replays_at_n_256() {
    let n = 256;
    let cfg = SystemConfig::new(n).mode_policy(ModePolicy::Adaptive { window: 16 });
    let trace = zipf_trace(n, 1500, 0xCA7);
    let script = script::from_trace(&trace);
    let jsonl = tmc_bench::tracecheck::capture(cfg, |sys| script::apply_script(sys, &script))
        .expect("capture");
    tmc_bench::tracecheck::check(&jsonl).expect("replay");
}
