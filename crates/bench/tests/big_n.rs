//! Big-machine coverage: the protocol invariants and the block-sharded
//! engine's bit-identity guarantee at N = 128 and N = 256 processors, over
//! the multi-tenant Zipfian workload. These configurations put `DestSet`
//! into its small-list/bitmap layouts and scatter writes across many pages
//! of the paged `MainMemory`/`BlockStore`, so a sharded `absorb` merge
//! exercises page-granular recombination rather than per-entry hash-map
//! moves.

use tmc_bench::script;
use tmc_bench::shardsim::{self, ShardRunOptions};
use tmc_core::{Mode, ModePolicy, System, SystemConfig};
use tmc_omeganet::SchemeKind;
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

#[test]
fn sharded_merge_is_bit_identical_at_n_256() {
    let n = 256;
    let cfg = SystemConfig::new(n)
        .multicast(SchemeKind::Combined)
        .mode_policy(ModePolicy::Adaptive { window: 16 });
    let trace = zipf_trace(n, 3000, 0x5AFE);
    let script = script::from_trace(&trace);

    let mut serial = System::new(cfg.clone()).expect("serial system");
    serial.set_tracing(true);
    script::apply_script(&mut serial, &script);
    let serial_events = serial.drain_trace();

    for shards in [2usize, 4, 8] {
        let got = shardsim::run(
            &cfg,
            &script,
            &ShardRunOptions::new(shards, shards.min(4)).tracing(true),
        )
        .unwrap_or_else(|e| panic!("N=256 K={shards}: sharded run failed: {e}"));
        assert_eq!(
            got.system.protocol_fingerprint(),
            serial.protocol_fingerprint(),
            "N=256 K={shards}: fingerprint diverged"
        );
        assert_eq!(
            got.system.counters(),
            serial.counters(),
            "N=256 K={shards}: counters diverged"
        );
        assert_eq!(
            got.system.traffic(),
            serial.traffic(),
            "N=256 K={shards}: link charges diverged"
        );
        assert_eq!(
            got.events, serial_events,
            "N=256 K={shards}: trace events diverged"
        );
    }
}

#[test]
fn sharded_capture_replays_at_n_256() {
    let n = 256;
    let cfg = SystemConfig::new(n).mode_policy(ModePolicy::Adaptive { window: 16 });
    let trace = zipf_trace(n, 1500, 0xCA7);
    let script = script::from_trace(&trace);
    let jsonl = shardsim::capture_sharded(&cfg, &script, 8, 4).expect("capture");
    let serial = tmc_bench::tracecheck::capture(cfg, |sys| script::apply_script(sys, &script))
        .expect("serial capture");
    assert_eq!(jsonl, serial, "sharded capture must be byte-identical");
    tmc_bench::tracecheck::check(&jsonl).expect("replay");
}
