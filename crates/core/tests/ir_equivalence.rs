//! Bit-identity of the guarded-action IR interpreter and the hand-coded
//! protocol engine: identical configs driven by identical scripts must
//! produce the same per-access results, protocol fingerprint, counters,
//! per-link traffic, trace events, and transaction log whether `System`
//! interprets [`tmc_core::PROTOCOL_IR`] or runs its hand-coded paths —
//! and a deliberately broken table must be *caught* by the same
//! comparison.

use tmc_core::ir::{Guard, ProtocolIr, Rule, Step};
use tmc_core::{AccessStats, Mode, ModePolicy, System, SystemConfig, PROTOCOL_IR};
use tmc_memsys::WordAddr;
use tmc_obs::ProtocolEvent;
use tmc_omeganet::{SchemeKind, TimingModel};
use tmc_simcore::SimRng;

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Replicated,
    SchemeKind::BitVector,
    SchemeKind::BroadcastTag,
    SchemeKind::Combined,
];

const POLICIES: [ModePolicy; 3] = [
    ModePolicy::Fixed(Mode::DistributedWrite),
    ModePolicy::Fixed(Mode::GlobalRead),
    ModePolicy::Adaptive { window: 4 },
];

/// One scripted access.
#[derive(Clone, Copy, Debug)]
enum Op {
    Read(usize, u64),
    Write(usize, u64, u64),
    SetMode(usize, u64, Mode),
}

/// A seeded op mix that exercises every table: hits, cold and invalid
/// misses, ownership migration, mode directives, and (with the small
/// cache below) replacements with handoff.
fn script(seed: u64, n: usize, ops: usize) -> Vec<Op> {
    let mut rng = SimRng::seed_from(seed);
    // Enough distinct blocks to overflow the small cache, few enough to
    // keep heavy sharing and stale-hint traffic.
    let words = (n as u64) * 24;
    (0..ops)
        .map(|_| {
            let proc = rng.gen_range(0..n);
            let a = rng.gen_range(0..words);
            match rng.gen_range(0..10u32) {
                0..=4 => Op::Read(proc, a),
                5..=8 => Op::Write(proc, a, rng.next_u64()),
                _ => {
                    let mode = if rng.gen_bool(0.5) {
                        Mode::DistributedWrite
                    } else {
                        Mode::GlobalRead
                    };
                    Op::SetMode(proc, a, mode)
                }
            }
        })
        .collect()
}

fn build(scheme: SchemeKind, policy: ModePolicy, n: usize, ir: bool) -> System {
    let cfg = SystemConfig::new(n)
        .multicast(scheme)
        .mode_policy(policy)
        .cache_blocks(8)
        .timing(TimingModel::default())
        .log_transactions(true);
    let mut sys = System::new(cfg).expect("valid config");
    sys.set_ir_dispatch(ir);
    sys.set_tracing(true);
    // Refuse a few ownership offers so the handoff NAK path runs too.
    sys.inject_offer_naks(3);
    sys
}

fn drive(sys: &mut System, ops: &[Op]) -> Vec<AccessStats> {
    ops.iter()
        .map(|op| match *op {
            Op::Read(p, a) => sys.read_stats(p, WordAddr::new(a)).expect("valid proc"),
            Op::Write(p, a, v) => sys.write_stats(p, WordAddr::new(a), v).expect("valid proc"),
            Op::SetMode(p, a, m) => {
                sys.set_mode(p, WordAddr::new(a), m).expect("valid proc");
                AccessStats {
                    value: 0,
                    cost_bits: 0,
                    messages: 0,
                    latency_cycles: None,
                }
            }
        })
        .collect()
}

/// Everything observable about a finished run.
struct Observed {
    fingerprint: Vec<u8>,
    counters: Vec<(&'static str, u64)>,
    total_bits: u64,
    trace: Vec<ProtocolEvent>,
    log: Vec<tmc_core::TraceEvent>,
}

fn observe(sys: &mut System) -> Observed {
    Observed {
        fingerprint: sys.protocol_fingerprint(),
        counters: sys.counters().iter().collect(),
        total_bits: sys.traffic().total_bits(),
        trace: sys.drain_trace(),
        log: sys.take_log(),
    }
}

/// The tentpole equivalence sweep: all four §3 multicast schemes × three
/// mode policies × two machine sizes, each driven by a seeded 600-op
/// script through both engines. Every per-access stat and every final
/// observable must match exactly.
#[test]
fn ir_matches_handcoded_across_scheme_policy_grid() {
    for &n in &[4usize, 16] {
        for scheme in SCHEMES {
            for policy in POLICIES {
                let ops = script(0x1_5EED ^ n as u64, n, 600);
                let mut hand = build(scheme, policy, n, false);
                let mut ir = build(scheme, policy, n, true);
                assert!(!hand.ir_dispatch() && ir.ir_dispatch());
                let label = format!("{scheme:?}/{policy:?}/N={n}");
                let hand_stats = drive(&mut hand, &ops);
                let ir_stats = drive(&mut ir, &ops);
                for (i, (h, g)) in hand_stats.iter().zip(&ir_stats).enumerate() {
                    assert_eq!(h, g, "{label}: op {i} ({:?}) diverged", ops[i]);
                }
                let h = observe(&mut hand);
                let g = observe(&mut ir);
                assert_eq!(h.fingerprint, g.fingerprint, "{label}: fingerprint");
                assert_eq!(h.counters, g.counters, "{label}: counters");
                assert_eq!(h.total_bits, g.total_bits, "{label}: total bits");
                assert_eq!(hand.traffic(), ir.traffic(), "{label}: per-link traffic");
                assert_eq!(h.trace.len(), g.trace.len(), "{label}: trace length");
                for (i, (a, b)) in h.trace.iter().zip(&g.trace).enumerate() {
                    assert_eq!(a, b, "{label}: trace event {i}");
                }
                assert_eq!(h.log, g.log, "{label}: transaction log");
                ir.check_invariants().expect("invariants hold under IR");
            }
        }
    }
}

/// Dispatch can flip mid-run without a seam: half the script hand-coded,
/// half interpreted, against a full hand-coded run.
#[test]
fn ir_dispatch_flips_mid_run_without_divergence() {
    let n = 8;
    let ops = script(0xF11B, n, 400);
    let mut hand = build(SchemeKind::Combined, POLICIES[2], n, false);
    let mut mixed = build(SchemeKind::Combined, POLICIES[2], n, false);
    let hand_stats = drive(&mut hand, &ops);
    let mixed_first = drive(&mut mixed, &ops[..200]);
    mixed.set_ir_dispatch(true);
    let mixed_second = drive(&mut mixed, &ops[200..]);
    let mixed_stats: Vec<_> = mixed_first.into_iter().chain(mixed_second).collect();
    assert_eq!(hand_stats, mixed_stats, "per-op stats across the flip");
    assert_eq!(hand.protocol_fingerprint(), mixed.protocol_fingerprint());
    assert_eq!(
        observe(&mut hand).counters,
        observe(&mut mixed).counters,
        "counters across the flip"
    );
}

/// A deliberately broken guard is *caught*: swapping the `Dirty`/`Clean`
/// guards on the exclusive-owner replacement rules silently drops
/// write-backs (a dirty victim leaves only a `ReplaceNotice`), so memory
/// goes stale — and the differential harness reports the divergence in
/// counters, traffic, and read values instead of accepting the table.
/// This is the negative control for every green assertion above.
#[test]
fn broken_guard_is_caught_by_differential_comparison() {
    let broken_replace: Vec<Rule> = PROTOCOL_IR
        .replace
        .iter()
        .map(|r| match r.name {
            "replace-owned-exclusive-dirty" => Rule {
                when: &[Guard::VictimOwned, Guard::Exclusive, Guard::Clean],
                ..*r
            },
            "replace-owned-exclusive-clean" => Rule {
                when: &[Guard::VictimOwned, Guard::Exclusive, Guard::Dirty],
                ..*r
            },
            _ => *r,
        })
        .collect();
    let table: &'static ProtocolIr = Box::leak(Box::new(ProtocolIr {
        replace: Box::leak(broken_replace.into_boxed_slice()),
        ..PROTOCOL_IR
    }));
    // Sanity: the broken table is wrong, not incomplete — it still keeps
    // the write-back step somewhere.
    assert!(table
        .replace
        .iter()
        .any(|r| r.steps.contains(&Step::MemWriteBackVictim)));

    let n = 4;
    let ops = script(0xBAD, n, 600);
    let cfg = || {
        SystemConfig::new(n)
            .multicast(SchemeKind::Combined)
            .mode_policy(ModePolicy::Fixed(Mode::DistributedWrite))
            .cache_blocks(8)
    };
    let mut hand = System::new(cfg()).expect("valid config");
    let mut broken = System::new(cfg()).expect("valid config");
    broken.set_ir_table(table);
    let _ = drive(&mut hand, &ops);
    let _ = drive(&mut broken, &ops);
    assert!(
        hand.counters().get("writebacks") > 0,
        "script must exercise dirty-exclusive replacement for the control to mean anything"
    );
    let diverged = hand.protocol_fingerprint() != broken.protocol_fingerprint()
        || hand.counters().iter().collect::<Vec<_>>()
            != broken.counters().iter().collect::<Vec<_>>()
        || hand.traffic() != broken.traffic();
    assert!(
        diverged,
        "a table with swapped Dirty/Clean guards must not pass the equivalence check"
    );
}
