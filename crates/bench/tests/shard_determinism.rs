//! Property test: the block-sharded engine is bit-identical to the serial
//! `System` — protocol fingerprint, counters, per-link charges, trace
//! events, and the replayable JSONL capture — across randomized workloads,
//! every multicast scheme, both fixed modes plus the adaptive policy, and
//! explicit mode-switch storms.

use tmc_bench::script::{self, ScriptOp};
use tmc_bench::shardsim::{self, ShardRunOptions};
use tmc_core::{Mode, ModePolicy, System, SystemConfig};
use tmc_omeganet::SchemeKind;
use tmc_simcore::SimRng;
use tmc_workload::{HotSpotWorkload, MigratingWorkload, SharedBlockWorkload, Trace};

const N_PROCS: usize = 8;

fn configs() -> Vec<SystemConfig> {
    let mut cfgs = Vec::new();
    for scheme in [
        SchemeKind::Replicated,
        SchemeKind::BitVector,
        SchemeKind::BroadcastTag,
        SchemeKind::Combined,
    ] {
        for policy in [
            ModePolicy::Fixed(Mode::DistributedWrite),
            ModePolicy::Fixed(Mode::GlobalRead),
            ModePolicy::Adaptive { window: 16 },
        ] {
            cfgs.push(
                SystemConfig::new(N_PROCS)
                    .multicast(scheme)
                    .mode_policy(policy),
            );
        }
    }
    // Bypass off exercises the redirect path under sharding too.
    cfgs.push(SystemConfig::new(N_PROCS).owner_bypass(false));
    cfgs
}

fn workloads(seed: u64) -> Vec<Trace> {
    let mut rng = SimRng::seed_from(seed);
    vec![
        SharedBlockWorkload::new(4, 24, 0.35)
            .references(700)
            .generate(N_PROCS, &mut rng),
        MigratingWorkload::new(4, 16, 0.5, 40)
            .references(700)
            .generate(N_PROCS, &mut rng),
        HotSpotWorkload::new(4, 0.2, 0.4)
            .references(700)
            .generate(N_PROCS, &mut rng),
    ]
}

/// Interleaves explicit software mode directives into a script so sharding
/// is exercised while blocks flip modes under it ("mode-switch storm").
fn storm(script: &mut Vec<ScriptOp>, rng: &mut SimRng) {
    let mut i = 5;
    while i < script.len() {
        let (ScriptOp::Read { proc, addr } | ScriptOp::Write { proc, addr, .. }) = script[i] else {
            i += 13;
            continue;
        };
        let mode = if rng.next_u64() & 1 == 0 {
            Mode::DistributedWrite
        } else {
            Mode::GlobalRead
        };
        script.insert(i, ScriptOp::SetMode { proc, addr, mode });
        i += 13;
    }
}

fn assert_identical(cfg: &SystemConfig, script: &[ScriptOp], label: &str) {
    let mut serial = System::new(cfg.clone()).expect("serial system");
    serial.set_tracing(true);
    script::apply_script(&mut serial, script);
    let serial_events = serial.drain_trace();

    for (shards, threads) in [(2, 2), (4, 4), (8, 2)] {
        let got = shardsim::run(
            cfg,
            script,
            &ShardRunOptions::new(shards, threads).tracing(true),
        )
        .unwrap_or_else(|e| panic!("{label}: sharded run failed: {e}"));
        assert_eq!(
            got.system.protocol_fingerprint(),
            serial.protocol_fingerprint(),
            "{label}: fingerprint diverged at {shards} shards"
        );
        assert_eq!(
            got.system.counters(),
            serial.counters(),
            "{label}: counters diverged at {shards} shards"
        );
        // TrafficMatrix equality covers every per-link bit charge.
        assert_eq!(
            got.system.traffic(),
            serial.traffic(),
            "{label}: link charges diverged at {shards} shards"
        );
        assert_eq!(
            got.events, serial_events,
            "{label}: trace events diverged at {shards} shards"
        );
    }
}

#[test]
fn sharded_matches_serial_across_schemes_policies_and_workloads() {
    for cfg in configs() {
        for (w, trace) in workloads(0xC0FFEE).into_iter().enumerate() {
            let script = script::from_trace(&trace);
            assert_identical(&cfg, &script, &format!("cfg {cfg:?} workload {w}"));
        }
    }
}

#[test]
fn sharded_matches_serial_under_mode_switch_storms() {
    let mut rng = SimRng::seed_from(0xBAD5EED);
    for policy in [
        ModePolicy::Fixed(Mode::DistributedWrite),
        ModePolicy::Adaptive { window: 8 },
    ] {
        let cfg = SystemConfig::new(N_PROCS).mode_policy(policy);
        for trace in workloads(0xD15EA5E) {
            let mut script = script::from_trace(&trace);
            storm(&mut script, &mut rng);
            assert_identical(&cfg, &script, &format!("storm {policy:?}"));
        }
    }
}

#[test]
fn sharded_capture_replays_through_tracecheck() {
    let cfg = SystemConfig::new(N_PROCS).mode_policy(ModePolicy::Adaptive { window: 16 });
    let trace = SharedBlockWorkload::new(4, 24, 0.4)
        .references(500)
        .generate(N_PROCS, &mut SimRng::seed_from(77));
    let script = script::from_trace(&trace);
    let jsonl = shardsim::capture_sharded(&cfg, &script, 8, 4).expect("capture");
    let serial = tmc_bench::tracecheck::capture(cfg, |sys| script::apply_script(sys, &script))
        .expect("serial capture");
    assert_eq!(jsonl, serial, "sharded capture must be byte-identical");
    tmc_bench::tracecheck::check(&jsonl).expect("replay");
}
