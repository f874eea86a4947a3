//! Fault-injection robustness tests for the protocol engine: zero-fault
//! transparency, recovery under seeded campaigns, and value correctness
//! against a simple memory oracle throughout. The cross-engine
//! determinism suite lives in `tmc-bench` (`tests/chaos_determinism.rs`);
//! generated fault campaigns run through `tmc fuzz`.

use std::collections::BTreeMap;

use tmc_core::{decode_system, encode_system, FaultSpec, Mode, ModePolicy, System, SystemConfig};
use tmc_memsys::WordAddr;
use tmc_omeganet::SchemeKind;
use tmc_simcore::SimRng;

/// Drives a mixed read/write workload over 48 shared words (40 %
/// writes), asserting every read against a software oracle and the
/// invariants at every quiescent point. With `directives`, one op in
/// eight is a mode directive and every 150th op flushes the machine.
/// Returns the oracle and the values read.
fn drive_checked(
    sys: &mut System,
    seed: u64,
    ops: usize,
    directives: bool,
) -> (BTreeMap<u64, u64>, Vec<u8>) {
    let mut rng = SimRng::seed_from(seed);
    let n = sys.n_procs();
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut reads = Vec::new();
    for i in 0..ops {
        let proc = rng.gen_range(0..n);
        let a = rng.gen_range(0..48u64);
        if directives && rng.gen_range(0..8u32) == 0 {
            let mode = if rng.gen_bool(0.5) {
                Mode::DistributedWrite
            } else {
                Mode::GlobalRead
            };
            sys.set_mode(proc, WordAddr::new(a), mode).unwrap();
        } else if rng.gen_bool(0.4) {
            let v = rng.next_u64();
            sys.write(proc, WordAddr::new(a), v).unwrap();
            oracle.insert(a, v);
        } else {
            let got = sys.read(proc, WordAddr::new(a)).unwrap();
            let want = oracle.get(&a).copied().unwrap_or(0);
            assert_eq!(got, want, "read of word {a} diverged from the oracle");
            reads.extend_from_slice(&got.to_le_bytes());
        }
        if directives && i % 150 == 149 {
            sys.flush();
        }
        if sys.faults_quiescent() {
            sys.check_invariants().expect("invariants at quiescence");
        }
    }
    (oracle, reads)
}

#[test]
fn zero_fault_plan_is_observably_absent() {
    let base = SystemConfig::new(8).mode_policy(ModePolicy::Adaptive { window: 8 });
    let mut plain = System::new(base.clone()).unwrap();
    let mut zeroed = System::new(base.faults(FaultSpec::new(42).count(0))).unwrap();
    plain.set_tracing(true);
    zeroed.set_tracing(true);
    drive_checked(&mut plain, 7, 400, false);
    drive_checked(&mut zeroed, 7, 400, false);
    assert_eq!(plain.protocol_fingerprint(), zeroed.protocol_fingerprint());
    assert_eq!(plain.counters(), zeroed.counters());
    assert_eq!(plain.traffic().total_bits(), zeroed.traffic().total_bits());
    assert_eq!(plain.drain_trace(), zeroed.drain_trace());
    assert!(zeroed.faults_enabled());
    assert_eq!(zeroed.faults_injected(), 0);
    assert!(zeroed.faults_quiescent());
}

#[test]
fn seeded_campaigns_recover_and_hold_invariants() {
    // Several seeds, both fixed modes; invariants are checked at every
    // quiescent point plus the end, and every read is oracle-checked.
    for seed in [1u64, 5, 9, 23] {
        for mode in [Mode::GlobalRead, Mode::DistributedWrite] {
            let spec = FaultSpec::new(seed).count(24).horizon(600).mean_outage(40);
            let cfg = SystemConfig::new(8)
                .mode_policy(ModePolicy::Fixed(mode))
                .faults(spec);
            let mut sys = System::new(cfg).unwrap();
            let (oracle, _) = drive_checked(&mut sys, seed ^ 0xdead, 1200, false);
            assert_eq!(sys.faults_injected(), 24, "whole plan fired (seed {seed})");
            assert_eq!(sys.faults_pending(), 0);
            sys.check_invariants()
                .expect("invariants at end of campaign");
            for (&a, &v) in &oracle {
                assert_eq!(sys.peek_word(WordAddr::new(a)), v);
            }
            assert!(sys.counters().get("faults_injected") == 24);
        }
    }
}

#[test]
fn campaigns_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let spec = FaultSpec::new(seed).count(16).horizon(300);
        let mut sys = System::new(SystemConfig::new(8).faults(spec)).unwrap();
        sys.set_tracing(true);
        drive_checked(&mut sys, seed.wrapping_mul(3), 800, false);
        (
            sys.protocol_fingerprint(),
            sys.counters().clone(),
            sys.traffic().total_bits(),
            sys.drain_trace(),
        )
    };
    assert_eq!(run(11), run(11));
    let (fp_a, ..) = run(11);
    let (fp_b, ..) = run(12);
    // Different seeds give different fault schedules; the runs almost
    // surely diverge (the workloads differ too, so just sanity-check that
    // both completed with distinct protocol states).
    assert_ne!(fp_a, fp_b);
}

#[test]
fn degradation_and_recovery_counters_are_coherent() {
    // A dense campaign on a tiny machine is all but guaranteed to block
    // routes and exercise retry + degradation at least once across seeds.
    let mut total_injected = 0;
    let mut total_recovered = 0;
    for seed in 0..6u64 {
        let spec = FaultSpec::new(seed).count(32).horizon(200).mean_outage(30);
        let mut sys = System::new(SystemConfig::new(4).faults(spec)).unwrap();
        drive_checked(&mut sys, seed, 900, false);
        total_injected += sys.counters().get("faults_injected");
        total_recovered += sys.counters().get("fault_recoveries");
        let degr = sys.counters().get("fault_degraded_blocks")
            + sys.counters().get("fault_quarantined_caches");
        assert!(
            sys.counters().get("fault_recoveries") <= degr,
            "every recovery corresponds to a prior degradation"
        );
        sys.check_invariants().unwrap();
    }
    assert_eq!(total_injected, 6 * 32, "all scheduled faults fired");
    assert!(total_recovered > 0, "at least one degradation healed");
}

/// The multicast schemes and mode policies the seeded campaigns cycle
/// through, campaign by campaign.
const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Replicated,
    SchemeKind::BitVector,
    SchemeKind::BroadcastTag,
    SchemeKind::Combined,
];
const POLICIES: [ModePolicy; 3] = [
    ModePolicy::Fixed(Mode::DistributedWrite),
    ModePolicy::Fixed(Mode::GlobalRead),
    ModePolicy::Adaptive { window: 8 },
];

/// A seeded campaign's machine: 8 processors on `seed`'s plan of `faults`
/// faults over `horizon` ops (mean outage 40), with the seed's scheme and
/// policy.
fn campaign(seed: u64, faults: usize, horizon: u64) -> System {
    let spec = FaultSpec::new(seed)
        .count(faults)
        .horizon(horizon)
        .mean_outage(40);
    let cfg = SystemConfig::new(8)
        .multicast(SCHEMES[seed as usize % 4])
        .mode_policy(POLICIES[seed as usize % 3])
        .faults(spec);
    System::new(cfg).unwrap()
}

/// One FNV-1a digest over everything a run shows: the protocol
/// fingerprint, every counter, the per-link charges, the values read (in
/// `stream`) and the drained trace events.
fn run_digest(sys: &mut System, mut stream: Vec<u8>) -> u64 {
    use std::io::Write as _;
    use tmc_obs::jsonl::{encode_event_into, fnv1a64};

    stream.extend_from_slice(&sys.protocol_fingerprint());
    write!(stream, "{:?}", sys.counters().iter().collect::<Vec<_>>()).unwrap();
    write!(stream, "{:?}", sys.traffic()).unwrap();
    for event in sys.drain_trace() {
        encode_event_into(&mut stream, &event);
    }
    fnv1a64(&stream)
}

/// A seeded [`campaign`] and its script, run on a traced `System`, with
/// the values it read.
fn campaign_run(
    seed: u64,
    faults: usize,
    horizon: u64,
    ops: usize,
    directives: bool,
) -> (System, Vec<u8>) {
    let mut sys = campaign(seed, faults, horizon);
    sys.set_tracing(true);
    let (_, reads) = drive_checked(&mut sys, seed ^ 0xc4a0_5eed, ops, directives);
    sys.check_invariants().unwrap();
    (sys, reads)
}

/// Every fault path, pinned: four 8-fault campaigns (seeds 0 and 3
/// refetch a flipped copy and write through an owner's update cast), a
/// 12-fault campaign on seed 3 (a bit flip in an empty cache) and
/// four campaigns with mode directives and flushes (directives dropped for
/// degraded blocks, flushes of dirty lines under the plan). Each run's
/// digest covers everything it shows; the recovery counters prove every
/// path ran.
#[test]
fn fault_paths_reproduce_their_pinned_digests() {
    /// A campaign: seed, faults, horizon, ops, directives.
    type Campaign = (u64, usize, u64, usize, bool);
    #[rustfmt::skip]
    const RUNS: [(Campaign, u64); 9] = [
        ((0, 8, 300, 800, false), 0x5bfa8f55afd7835a),
        ((1, 8, 300, 800, false), 0x13628932864aa17a),
        ((2, 8, 300, 800, false), 0x7677b8a4223c52e0),
        ((3, 8, 300, 800, false), 0x15f5a331f08c4fe4),
        ((3, 12, 900, 2_400, false), 0x675a663f69182782),
        ((0, 16, 600, 1_500, true), 0x5562bfa377878e93),
        ((1, 16, 600, 1_500, true), 0x0d7512a4d89143a6),
        ((2, 16, 600, 1_500, true), 0x690a7b0bd8480777),
        ((3, 16, 600, 1_500, true), 0x7fe51b140b46f0ce),
    ];
    let mut reached = tmc_simcore::CounterSet::new();
    for ((seed, faults, horizon, ops, directives), pinned) in RUNS {
        let (mut sys, reads) = campaign_run(seed, faults, horizon, ops, directives);
        for (name, n) in sys.counters().iter() {
            reached.add(name, n);
        }
        assert_eq!(
            run_digest(&mut sys, reads),
            pinned,
            "seed {seed}, {faults} faults, directives {directives}"
        );
    }
    for path in [
        "fault_bitflip_refetch",
        "fault_bitflip_vacuous",
        "fault_uncached_setmodes",
        "fault_ecc_corrected",
        "fault_quarantined_caches",
        "fault_degraded_blocks",
    ] {
        assert!(reached.get(path) > 0, "no run reached {path}");
    }
}

/// A machine decoded from its checkpoint flushes exactly as the original
/// does. `flush` lists dirty lines in slot order, a function of the
/// caches' contents; in first-use order, which a decoded array rebuilds
/// differently, a pending message drop or duplicate re-billed another
/// write-back. Every 7th op of a 40-fault [`campaign`], a clone and a
/// decoded copy are flushed and their per-link charges compared; these
/// seeds diverged in first-use order.
#[test]
fn a_decoded_machine_flushes_like_the_original() {
    for seed in [9u64, 19, 26, 29] {
        let mut sys = campaign(seed, 40, 800);
        let mut rng = SimRng::seed_from(seed);
        for i in 1..=800 {
            let (proc, a) = (rng.gen_range(0..8), WordAddr::new(rng.gen_range(0..48u64)));
            if rng.gen_bool(0.4) {
                sys.write(proc, a, rng.next_u64()).unwrap();
            } else {
                sys.read(proc, a).unwrap();
            }
            if i % 7 == 0 {
                let mut decoded = decode_system(&encode_system(&sys).unwrap()).unwrap();
                let mut clone = sys.clone();
                clone.flush();
                decoded.flush();
                assert_eq!(clone.traffic(), decoded.traffic(), "seed {seed}, op {i}");
            }
        }
    }
}
