//! Protocol behaviour tests: the §2.2 scenarios, replacement, mode
//! switching, ownership migration, and value-level coherence against a
//! program-order oracle.

use tmc_core::{AccessStats, CoreError, Mode, ModePolicy, StateName, System, SystemConfig};
use tmc_memsys::{BlockSpec, CacheGeometry, ReferenceMemory, WordAddr};
use tmc_omeganet::SchemeKind;
use tmc_simcore::SimRng;

fn addr(a: u64) -> WordAddr {
    WordAddr::new(a)
}

fn small_system() -> System {
    System::new(SystemConfig::new(4)).expect("valid config")
}

#[test]
fn cold_write_makes_exclusive_owner_in_global_read() {
    let mut sys = small_system();
    sys.write(0, addr(0), 5).unwrap();
    // Paper case 4(a): loaded from memory, Owned Exclusively Global Read.
    assert_eq!(
        sys.state_name(0, sys.config().spec.block_of(addr(0))),
        Some(StateName::OwnedExclusivelyGlobalRead)
    );
    assert_eq!(
        sys.owner_of(sys.config().spec.block_of(addr(0)))
            .unwrap()
            .port(),
        0
    );
    sys.check_invariants().unwrap();
}

#[test]
fn figure2_like_distributed_state() {
    // Reconstruct the flavor of Figure 2: owner with a modified copy in
    // distributed-write mode, one sharer with an UnOwned copy, the block
    // store pointing at the owner.
    let mut sys = small_system();
    let block = sys.config().spec.block_of(addr(0));
    sys.write(1, addr(0), 7).unwrap(); // C1 owns
    sys.set_mode(1, addr(0), Mode::DistributedWrite).unwrap();
    assert_eq!(sys.read(2, addr(0)).unwrap(), 7); // C2 loads a copy
    sys.write(1, addr(0), 8).unwrap(); // distributed write

    assert_eq!(
        sys.state_name(1, block),
        Some(StateName::OwnedNonExclusivelyDistributedWrite)
    );
    assert_eq!(sys.state_name(2, block), Some(StateName::UnOwned));
    assert_eq!(sys.state_name(3, block), None); // no entry at all
    assert_eq!(sys.owner_of(block).unwrap().port(), 1);
    assert_eq!(
        sys.present_set(block).unwrap().iter().collect::<Vec<_>>(),
        vec![1, 2]
    );
    // The sharer sees the distributed write without any further traffic.
    let before = sys.traffic().total_bits();
    assert_eq!(sys.read(2, addr(0)).unwrap(), 8);
    assert_eq!(sys.traffic().total_bits(), before, "read hit is local");
    sys.check_invariants().unwrap();
}

/// One step of the Figure 2 walk: what it does, every message kind it
/// sends as (kind, messages, link bits), and each cache's Table 1 state
/// for block X afterwards.
type WalkStep = (
    &'static str,
    &'static [(tmc_core::MsgKind, u64, u64)],
    [Option<StateName>; 4],
);

/// The Figure 2 walk that `examples/protocol_trace.rs` prints, at N = 4
/// with the default block and message sizes, read back from the per-kind
/// `bits[..]` and `msgs_total` counter deltas and from `state_name`.
#[test]
fn figure2_walk_bills_every_step_by_kind() {
    use tmc_core::MsgKind::*;
    use StateName::*;
    #[rustfmt::skip]
    const WALK: [WalkStep; 5] = [
        ("C1 writes X", &[(LoadOwnReq, 1, 111), (BlockReply, 1, 495)],
         [None, Some(OwnedExclusivelyGlobalRead), None, None]),
        ("C3 reads X (GR)", &[(LoadReq, 1, 111), (FwdLoad, 1, 111), (DatumReply, 1, 117)],
         [None, Some(OwnedNonExclusivelyGlobalRead), None, Some(Invalid)]),
        ("C1 sets DW", &[],
         [None, Some(OwnedExclusivelyDistributedWrite), None, Some(Invalid)]),
        ("C2 reads X (DW)", &[(LoadReq, 1, 111), (FwdLoad, 1, 111), (BlockReply, 1, 495)],
         [None, Some(OwnedNonExclusivelyDistributedWrite), Some(UnOwned), Some(Invalid)]),
        ("C1 writes X (DW)", &[(UpdateWrite, 1, 213)],
         [None, Some(OwnedNonExclusivelyDistributedWrite), Some(UnOwned), Some(Invalid)]),
    ];
    let mut sys = small_system();
    let x = addr(0);
    let block = sys.config().spec.block_of(x);
    for (i, &(step, msgs, after)) in WALK.iter().enumerate() {
        let before = sys.counters().clone();
        match i {
            0 => sys.write(1, x, 10),
            1 => sys.read(3, x).map(drop),
            2 => sys.set_mode(1, x, Mode::DistributedWrite),
            3 => sys.read(2, x).map(drop),
            _ => sys.write(1, x, 11),
        }
        .unwrap();

        // The counters: one `bits[..]` delta per kind in the table and none
        // for any other kind; `msgs_total` moves by the table's messages.
        let delta = |name: &str| sys.counters().get(name) - before.get(name);
        let mut billed: Vec<(&str, u64)> = sys
            .counters()
            .iter()
            .filter(|&(name, _)| name.starts_with("bits["))
            .map(|(name, _)| (name, delta(name)))
            .filter(|&(_, bits)| bits > 0)
            .collect();
        let mut want: Vec<(&str, u64)> = msgs
            .iter()
            .map(|&(kind, _, bits)| (kind.bits_counter(), bits))
            .collect();
        billed.sort_unstable();
        want.sort_unstable();
        assert_eq!(billed, want, "{step}: link bits by kind");
        let sent: u64 = msgs.iter().map(|&(_, n, _)| n).sum();
        assert_eq!(delta("msgs_total"), sent, "{step}: messages");
        let states: Vec<_> = (0..4).map(|c| sys.state_name(c, block)).collect();
        assert_eq!(states, after, "{step}: Table 1 states");
    }
    sys.check_invariants().unwrap();
}

#[test]
fn global_read_keeps_a_single_copy() {
    let mut sys = small_system();
    let block = sys.config().spec.block_of(addr(16));
    sys.write(0, addr(16), 11).unwrap(); // owner in GR mode (default)
    assert_eq!(sys.read(3, addr(16)).unwrap(), 11);
    // 2(b)ii: requester holds an Invalid entry with the OWNER field set.
    assert_eq!(sys.state_name(3, block), Some(StateName::Invalid));
    assert_eq!(
        sys.state_name(0, block),
        Some(StateName::OwnedNonExclusivelyGlobalRead)
    );
    // Every further read crosses the network again.
    let before = sys.traffic().total_bits();
    assert_eq!(sys.read(3, addr(16)).unwrap(), 11);
    assert!(sys.traffic().total_bits() > before, "GR reads are remote");
    // Owner writes stay local (no copies to update).
    let before = sys.traffic().total_bits();
    sys.write(0, addr(16), 12).unwrap();
    assert_eq!(
        sys.traffic().total_bits(),
        before,
        "GR owner write is local"
    );
    assert_eq!(sys.read(3, addr(16)).unwrap(), 12);
    sys.check_invariants().unwrap();
}

#[test]
fn second_gr_read_uses_owner_bypass() {
    let mut sys = small_system();
    sys.write(0, addr(16), 1).unwrap();
    assert_eq!(sys.read(3, addr(16)).unwrap(), 1); // installs invalid entry
    let c = sys.counters().get("read_miss_invalid");
    assert_eq!(sys.read(3, addr(16)).unwrap(), 1); // direct to owner
    assert_eq!(sys.counters().get("read_miss_invalid"), c + 1);
    assert_eq!(sys.counters().get("redirects"), 0, "hint was fresh");
}

#[test]
fn write_by_sharer_migrates_ownership_dw() {
    let mut sys = small_system();
    let block = sys.config().spec.block_of(addr(0));
    sys.write(0, addr(0), 1).unwrap();
    sys.set_mode(0, addr(0), Mode::DistributedWrite).unwrap();
    sys.read(2, addr(0)).unwrap(); // C2 takes a copy
    sys.write(2, addr(1), 9).unwrap(); // write hit on UnOwned → 3(d)i
    assert_eq!(sys.owner_of(block).unwrap().port(), 2);
    assert_eq!(sys.state_name(0, block), Some(StateName::UnOwned));
    assert_eq!(
        sys.state_name(2, block),
        Some(StateName::OwnedNonExclusivelyDistributedWrite)
    );
    // Both copies coherent after the distributed write.
    assert_eq!(sys.read(0, addr(1)).unwrap(), 9);
    assert_eq!(sys.read(2, addr(1)).unwrap(), 9);
    sys.check_invariants().unwrap();
}

#[test]
fn write_by_reader_migrates_ownership_gr() {
    let mut sys = small_system();
    let block = sys.config().spec.block_of(addr(0));
    sys.write(0, addr(0), 1).unwrap(); // GR owner
    sys.read(1, addr(0)).unwrap(); // invalid entry at C1
    sys.read(2, addr(0)).unwrap(); // invalid entry at C2
    sys.write(1, addr(0), 2).unwrap(); // write miss (invalid) → 4(b)ii
    assert_eq!(sys.owner_of(block).unwrap().port(), 1);
    assert_eq!(sys.state_name(0, block), Some(StateName::Invalid));
    // The other invalid entry learned the new owner.
    assert_eq!(sys.read(2, addr(0)).unwrap(), 2);
    assert_eq!(
        sys.counters().get("redirects"),
        0,
        "announce kept hints fresh"
    );
    sys.check_invariants().unwrap();
}

#[test]
fn dw_to_gr_switch_invalidates_copies() {
    let mut sys = small_system();
    let block = sys.config().spec.block_of(addr(0));
    sys.write(0, addr(0), 1).unwrap();
    sys.set_mode(0, addr(0), Mode::DistributedWrite).unwrap();
    sys.read(1, addr(0)).unwrap();
    sys.read(2, addr(0)).unwrap();
    assert_eq!(
        sys.present_set(block).unwrap().iter().collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    sys.set_mode(0, addr(0), Mode::GlobalRead).unwrap(); // case 7
    assert_eq!(sys.state_name(1, block), Some(StateName::Invalid));
    assert_eq!(sys.state_name(2, block), Some(StateName::Invalid));
    // The present vector survives: it now marks the invalid entries.
    assert_eq!(
        sys.present_set(block).unwrap().iter().collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    assert!(sys.counters().get("invalidate_multicast") >= 1);
    assert_eq!(sys.read(1, addr(0)).unwrap(), 1);
    sys.check_invariants().unwrap();
}

#[test]
fn stale_hint_redirects_through_memory() {
    let mut sys = small_system();
    sys.write(0, addr(0), 1).unwrap(); // C0 owns, GR
    sys.read(3, addr(0)).unwrap(); // C3 invalid entry, hint → C0
    sys.set_mode(0, addr(0), Mode::DistributedWrite).unwrap(); // clears P
                                                               // Ownership moves in DW mode — no announcement to C3.
    sys.read(1, addr(0)).unwrap();
    sys.write(1, addr(0), 2).unwrap();
    assert_eq!(
        sys.owner_of(sys.config().spec.block_of(addr(0)))
            .unwrap()
            .port(),
        1
    );
    // C3's hint still points at C0: the read must bounce and still succeed.
    assert_eq!(sys.read(3, addr(0)).unwrap(), 2);
    assert!(sys.counters().get("redirects") >= 1);
    sys.check_invariants().unwrap();
}

#[test]
fn exclusive_modified_replacement_writes_back() {
    let mut sys = System::new(
        SystemConfig::new(4).geometry(CacheGeometry::new(1, 1)), // one slot!
    )
    .unwrap();
    sys.write(0, addr(0), 77).unwrap(); // block 0 in the only slot
    sys.write(0, addr(4), 88).unwrap(); // evicts block 0 → write-back
    assert!(sys.counters().get("writebacks") >= 1);
    // Block 0 is gone from every cache but its value lives in memory.
    assert_eq!(sys.peek_word(addr(0)), 77);
    assert_eq!(sys.owner_of(sys.config().spec.block_of(addr(0))), None);
    assert_eq!(sys.read(1, addr(0)).unwrap(), 77);
    sys.check_invariants().unwrap();
}

#[test]
fn unowned_replacement_clears_present_flag() {
    let mut sys = System::new(SystemConfig::new(4).geometry(CacheGeometry::new(1, 1))).unwrap();
    let block0 = sys.config().spec.block_of(addr(0));
    sys.write(0, addr(0), 1).unwrap();
    sys.set_mode(0, addr(0), Mode::DistributedWrite).unwrap();
    sys.read(1, addr(0)).unwrap(); // C1 holds UnOwned copy
    assert_eq!(
        sys.present_set(block0).unwrap().iter().collect::<Vec<_>>(),
        vec![0, 1]
    );
    sys.read(1, addr(4)).unwrap(); // evicts C1's copy → 5(c)
    assert_eq!(
        sys.present_set(block0).unwrap().iter().collect::<Vec<_>>(),
        vec![0]
    );
    assert_eq!(
        sys.state_name(0, block0),
        Some(StateName::OwnedExclusivelyDistributedWrite),
        "owner reverts to exclusive once the last sharer drops"
    );
    sys.check_invariants().unwrap();
}

#[test]
fn nonexclusive_owner_replacement_hands_off_ownership() {
    let mut sys = System::new(SystemConfig::new(4).geometry(CacheGeometry::new(1, 1))).unwrap();
    let block0 = sys.config().spec.block_of(addr(0));
    sys.write(0, addr(0), 5).unwrap();
    sys.set_mode(0, addr(0), Mode::DistributedWrite).unwrap();
    sys.read(1, addr(0)).unwrap(); // sharer
    sys.write(0, addr(0), 6).unwrap(); // owner modified
    sys.read(0, addr(4)).unwrap(); // owner evicts block 0 → 5(b)
                                   // Ownership (and the modified bit) moved to the sharer.
    assert_eq!(sys.owner_of(block0).unwrap().port(), 1);
    assert_eq!(
        sys.state_name(1, block0),
        Some(StateName::OwnedExclusivelyDistributedWrite)
    );
    assert_eq!(sys.read(1, addr(0)).unwrap(), 6);
    assert!(sys.counters().get("ownership_transfers") >= 1);
    sys.check_invariants().unwrap();
    // The value was never written back yet; flushing persists it.
    sys.flush();
    assert_eq!(sys.peek_word(addr(0)), 6);
}

#[test]
fn gr_owner_replacement_hands_off_to_invalid_holder() {
    let mut sys = System::new(SystemConfig::new(4).geometry(CacheGeometry::new(1, 1))).unwrap();
    let block0 = sys.config().spec.block_of(addr(0));
    sys.write(0, addr(0), 9).unwrap(); // GR owner
    sys.read(2, addr(0)).unwrap(); // C2: invalid entry in P
    sys.read(0, addr(4)).unwrap(); // owner evicts block 0
    assert_eq!(sys.owner_of(block0).unwrap().port(), 2);
    assert_eq!(
        sys.read(2, addr(0)).unwrap(),
        9,
        "data travelled with ownership"
    );
    sys.check_invariants().unwrap();
}

#[test]
fn offer_naks_are_survivable() {
    let mut sys = System::new(SystemConfig::new(8).geometry(CacheGeometry::new(1, 1))).unwrap();
    sys.write(0, addr(0), 1).unwrap();
    sys.set_mode(0, addr(0), Mode::DistributedWrite).unwrap();
    for c in 1..6 {
        sys.read(c, addr(0)).unwrap();
    }
    sys.inject_offer_naks(3);
    sys.read(0, addr(4)).unwrap(); // owner replacement with 5 candidates
    assert_eq!(sys.counters().get("offer_nak"), 3);
    let block0 = sys.config().spec.block_of(addr(0));
    assert!(sys.owner_of(block0).is_some());
    assert_eq!(sys.read(7, addr(0)).unwrap(), 1);
    sys.check_invariants().unwrap();
}

#[test]
fn adaptive_policy_converges_to_the_cheaper_mode() {
    // Low write fraction → distributed write; high → global read.
    for (w, expect) in [(0.05, Mode::DistributedWrite), (0.8, Mode::GlobalRead)] {
        let mut sys =
            System::new(SystemConfig::new(8).mode_policy(ModePolicy::Adaptive { window: 32 }))
                .unwrap();
        let mut rng = SimRng::seed_from(99);
        let block = sys.config().spec.block_of(addr(0));
        // Warm up sharers.
        sys.write(0, addr(0), 0).unwrap();
        for c in 1..5 {
            sys.read(c, addr(0)).unwrap();
        }
        for i in 0..400u64 {
            if rng.gen_bool(w) {
                sys.write(0, addr(0), i).unwrap();
            } else {
                let c = 1 + (rng.next_u64() % 4) as usize;
                sys.read(c, addr(0)).unwrap();
            }
            sys.check_invariants().unwrap();
        }
        assert_eq!(sys.mode_of(block), Some(expect), "w = {w}");
        if expect == Mode::DistributedWrite {
            // The block starts in global read, so reaching DW proves the
            // adaptive controller actually switched.
            assert!(sys.counters().get("adaptive_switches") >= 1);
        }
    }
}

#[test]
fn bypass_off_routes_via_memory_and_stays_coherent() {
    let mut sys = System::new(SystemConfig::new(4).owner_bypass(false)).unwrap();
    sys.write(0, addr(0), 3).unwrap();
    sys.read(1, addr(0)).unwrap();
    let with_bypass_off = {
        sys.read(1, addr(0)).unwrap();
        sys.counters().get("read_miss_invalid")
    };
    assert!(with_bypass_off >= 1);
    assert_eq!(sys.read(1, addr(0)).unwrap(), 3);
    assert_eq!(sys.counters().get("redirects"), 0);
    sys.check_invariants().unwrap();
}

#[test]
fn gr_remote_read_is_cheaper_than_block_load() {
    // The point of global-read mode: a remote read moves one datum, not a
    // block. Compare the per-read marginal traffic of the two modes.
    let mk = |mode| {
        let mut sys = small_system();
        sys.write(0, addr(0), 1).unwrap();
        sys.set_mode(0, addr(0), mode).unwrap();
        sys
    };
    let mut gr = mk(Mode::GlobalRead);
    let s1 = gr.read_stats(1, addr(0)).unwrap();
    let mut dw = mk(Mode::DistributedWrite);
    let s2 = dw.read_stats(1, addr(0)).unwrap();
    assert!(
        s1.cost_bits < s2.cost_bits,
        "GR first read ({}) should undercut DW block load ({})",
        s1.cost_bits,
        s2.cost_bits
    );
}

#[test]
fn every_message_lands_in_the_traffic_matrix() {
    let mut sys = small_system();
    sys.write(0, addr(0), 1).unwrap();
    let stats = sys.read_stats(2, addr(0)).unwrap();
    assert!(stats.messages >= 2);
    assert_eq!(
        sys.counters().get("bits_total"),
        sys.traffic().total_bits(),
        "counter and matrix agree"
    );
}

#[test]
fn per_kind_traffic_breakdown_sums_to_the_total() {
    let mut sys = System::new(SystemConfig::new(4).geometry(CacheGeometry::new(1, 1))).unwrap();
    let mut rng = SimRng::seed_from(31);
    for i in 0..400u64 {
        let a = addr(4 * (i % 6));
        let p = (rng.next_u64() % 4) as usize;
        if rng.gen_bool(0.4) {
            sys.write(p, a, i).unwrap();
        } else {
            sys.read(p, a).unwrap();
        }
        if i % 60 == 0 {
            sys.set_mode(p, a, Mode::DistributedWrite).unwrap();
        }
    }
    let by_kind: u64 = sys
        .counters()
        .iter()
        .filter(|(name, _)| name.starts_with("bits["))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(by_kind, sys.counters().get("bits_total"));
    assert_eq!(by_kind, sys.traffic().total_bits());
    // A run with ownership churn must show transfer traffic explicitly.
    assert!(sys.counters().get("bits[OwnershipXfer]") > 0);
}

#[test]
fn rejects_out_of_range_processor() {
    let mut sys = small_system();
    assert!(matches!(
        sys.read(4, addr(0)),
        Err(tmc_core::CoreError::BadProcessor { proc: 4, .. })
    ));
    assert!(sys.write(9, addr(0), 1).is_err());
    assert!(sys.set_mode(4, addr(0), Mode::GlobalRead).is_err());
}

/// Randomized oracle run: arbitrary interleavings of reads, writes, mode
/// switches across several machine shapes; every read checked against the
/// program-order oracle, invariants checked throughout, memory checked
/// after a final flush.
fn oracle_run(seed: u64, cfg: SystemConfig, ops: usize, n_blocks: u64) {
    let n = cfg.n_caches;
    let spec = cfg.spec;
    let mut sys = System::new(cfg).unwrap();
    let mut oracle = ReferenceMemory::new();
    let mut rng = SimRng::seed_from(seed);
    for step in 0..ops {
        let proc = rng.gen_range(0..n);
        let block = rng.gen_range(0..n_blocks);
        let offset = rng.gen_range(0..spec.words_per_block());
        let a = spec.word_at(tmc_memsys::BlockAddr::new(block), offset);
        match rng.gen_range(0..10) {
            0..=5 => {
                let got = sys.read(proc, a).unwrap();
                assert_eq!(got, oracle.read(a), "seed {seed} step {step}: read {a}");
            }
            6..=8 => {
                let v = oracle.stamp();
                sys.write(proc, a, v).unwrap();
                oracle.write(a, v);
            }
            _ => {
                let mode = if rng.gen_bool(0.5) {
                    Mode::DistributedWrite
                } else {
                    Mode::GlobalRead
                };
                sys.set_mode(proc, a, mode).unwrap();
            }
        }
        if step % 16 == 0 {
            sys.check_invariants()
                .unwrap_or_else(|v| panic!("seed {seed} step {step}: {v}"));
        }
    }
    sys.check_invariants().unwrap();
    sys.flush();
    for (a, v) in oracle.iter() {
        assert_eq!(sys.peek_word(a), v, "seed {seed}: post-flush {a}");
    }
}

#[test]
fn oracle_default_geometry() {
    for seed in 0..4 {
        oracle_run(seed, SystemConfig::new(4), 1500, 8);
    }
}

#[test]
fn oracle_tiny_cache_heavy_replacement() {
    for seed in 10..14 {
        oracle_run(
            seed,
            SystemConfig::new(4).geometry(CacheGeometry::new(1, 1)),
            1200,
            6,
        );
    }
}

#[test]
fn oracle_two_way_tiny_cache() {
    for seed in 20..23 {
        oracle_run(
            seed,
            SystemConfig::new(8).geometry(CacheGeometry::new(2, 1)),
            1200,
            10,
        );
    }
}

#[test]
fn oracle_fixed_dw_policy() {
    for seed in 30..33 {
        oracle_run(
            seed,
            SystemConfig::new(4)
                .mode_policy(ModePolicy::Fixed(Mode::DistributedWrite))
                .geometry(CacheGeometry::new(2, 2)),
            1500,
            8,
        );
    }
}

#[test]
fn oracle_adaptive_policy() {
    for seed in 40..43 {
        oracle_run(
            seed,
            SystemConfig::new(4).mode_policy(ModePolicy::Adaptive { window: 16 }),
            1500,
            8,
        );
    }
}

#[test]
fn oracle_every_multicast_scheme() {
    for (i, scheme) in [
        SchemeKind::Replicated,
        SchemeKind::BitVector,
        SchemeKind::BroadcastTag,
        SchemeKind::Combined,
    ]
    .into_iter()
    .enumerate()
    {
        oracle_run(
            50 + i as u64,
            SystemConfig::new(8)
                .multicast(scheme)
                .mode_policy(ModePolicy::Fixed(Mode::DistributedWrite)),
            1000,
            8,
        );
    }
}

#[test]
fn oracle_bypass_disabled() {
    for seed in 60..62 {
        oracle_run(seed, SystemConfig::new(4).owner_bypass(false), 1200, 8);
    }
}

#[test]
fn oracle_single_word_blocks() {
    for seed in 70..72 {
        oracle_run(
            seed,
            SystemConfig::new(4).block_spec(BlockSpec::new(0)),
            1000,
            8,
        );
    }
}

#[test]
fn oracle_with_nak_injection() {
    let cfg = SystemConfig::new(4).geometry(CacheGeometry::new(1, 1));
    let n = cfg.n_caches;
    let spec = cfg.spec;
    let mut sys = System::new(cfg).unwrap();
    let mut oracle = ReferenceMemory::new();
    let mut rng = SimRng::seed_from(123);
    for step in 0..800 {
        if step % 50 == 0 {
            sys.inject_offer_naks(2);
        }
        let proc = rng.gen_range(0..n);
        let a = spec.word_at(tmc_memsys::BlockAddr::new(rng.gen_range(0..6)), 0);
        if rng.gen_bool(0.4) {
            let v = oracle.stamp();
            sys.write(proc, a, v).unwrap();
            oracle.write(a, v);
        } else {
            assert_eq!(sys.read(proc, a).unwrap(), oracle.read(a), "step {step}");
        }
        sys.check_invariants().unwrap();
    }
}

// ----------------------------------------------------------------------
// Pinned answers on seeded scripts.
//
// Until PR 16 the protocol existed twice — hand-written transition bodies
// in `system.rs` and the rule tables in `ir.rs` — and a differential suite
// drove both with these scripts. The hand-written engine is gone; what it
// answered on every cell below is kept as a golden, so the tables must
// keep reproducing it: per-access stats, trace events, fingerprint,
// counters and link bits, across every multicast scheme and
// mode policy, with mode directives, refused ownership offers and
// out-of-range processors in the stream.
// ----------------------------------------------------------------------

/// One cell's digests: FNV-1a of the protocol fingerprint, of the counter
/// set, the raw link-bit total, and FNV-1a of the whole observable stream
/// (per-access results, trace events as JSONL, per-link ledger).
type Pinned = (u64, u64, u64, u64);

/// Appends one access's value, link bits and message count to the stream,
/// or the error's `Debug` when it was refused.
fn push_access(stream: &mut Vec<u8>, result: Result<AccessStats, CoreError>) {
    use std::io::Write as _;
    match result {
        Ok(s) => write!(stream, "{} {} {};", s.value, s.cost_bits, s.messages),
        Err(e) => write!(stream, "{e:?};"),
    }
    .unwrap();
}

fn pinned_cell(n: usize, scheme: SchemeKind, policy: ModePolicy) -> Pinned {
    use std::io::Write as _;
    use tmc_obs::jsonl::{encode_event_into, fnv1a64};

    let cfg = SystemConfig::new(n)
        .multicast(scheme)
        .mode_policy(policy)
        .cache_blocks(8);
    let mut sys = System::new(cfg).unwrap();
    sys.set_tracing(true);
    // Enough distinct blocks to overflow the 8-block caches, few enough to
    // keep heavy sharing and stale-hint traffic.
    let words = n as u64 * 24;
    let mut rng = SimRng::seed_from(0x1_5EED ^ n as u64);
    let mut stream = Vec::new();
    for step in 0..600 {
        if step % 100 == 0 {
            sys.inject_offer_naks(3);
        }
        // Every 97th access names a processor the machine does not have:
        // a typed error, and no trace of it in any observable below.
        let proc = if step % 97 == 96 {
            n
        } else {
            rng.gen_range(0..n)
        };
        let a = addr(rng.gen_range(0..words));
        match rng.gen_range(0..10u32) {
            0..=4 => push_access(&mut stream, sys.read_stats(proc, a)),
            5..=8 => push_access(&mut stream, sys.write_stats(proc, a, rng.next_u64())),
            _ => {
                let mode = if rng.gen_bool(0.5) {
                    Mode::DistributedWrite
                } else {
                    Mode::GlobalRead
                };
                write!(stream, "{:?};", sys.set_mode(proc, a, mode)).unwrap();
            }
        }
    }
    sys.check_invariants().unwrap();
    for event in sys.drain_trace() {
        encode_event_into(&mut stream, &event);
    }
    write!(stream, "{:?}", sys.traffic()).unwrap();
    let counters = format!("{:?}", sys.counters().iter().collect::<Vec<_>>());
    (
        fnv1a64(&sys.protocol_fingerprint()),
        fnv1a64(counters.as_bytes()),
        sys.traffic().total_bits(),
        fnv1a64(&stream),
    )
}

#[test]
fn seeded_scripts_reproduce_the_pinned_digests() {
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
    // Row order: N ∈ {2, 4, 16} × SCHEMES × POLICIES.
    #[rustfmt::skip]
    const PINNED: [Pinned; 36] = [
        (0xa80cfd6ef061e3dc, 0x935e7775ea136bdd, 169461, 0x91acdd87c3343bee),
        (0x8841cc79479b642a, 0xf45e7598c0412fd3, 167249, 0x8b814e7782cba703),
        (0x8ee8bf2d982a6627, 0x2102fdefd960e663, 165524, 0xc3395a9850d0e6e3),
        (0xa80cfd6ef061e3dc, 0x528ec2a79c0ad183, 169729, 0x679ed32307102f9f),
        (0x8841cc79479b642a, 0x8661224f5bbbd009, 167347, 0x13e8f8a7973313d0),
        (0x8ee8bf2d982a6627, 0xd68cd44ce2afdb34, 165684, 0xe79199d6cbf04981),
        (0xa80cfd6ef061e3dc, 0xf39fd5d4d6cde6bc, 169595, 0x8af02eec611d5b5e),
        (0x8841cc79479b642a, 0xa476077e2a49d1d3, 167298, 0xf1cb40f3d425c8e6),
        (0x8ee8bf2d982a6627, 0x637c1952996341d7, 165604, 0x563a4796f576f226),
        (0xa80cfd6ef061e3dc, 0x935e7775ea136bdd, 169461, 0x91acdd87c3343bee),
        (0x8841cc79479b642a, 0xf45e7598c0412fd3, 167249, 0x8b814e7782cba703),
        (0x8ee8bf2d982a6627, 0x2102fdefd960e663, 165524, 0xc3395a9850d0e6e3),
        (0xa82e70e951f8fe28, 0xde4b651d5e84557e, 461688, 0xf3931aed3d3d2ca4),
        (0xfee1ea1ddaeba274, 0x4703ebf0abe80961, 434913, 0x6b9e18c13dd1c2d5),
        (0xd65ece1f505cc6ee, 0xb690c81a11780c5e, 435666, 0x9a99e0e18fe0a8b3),
        (0xa82e70e951f8fe28, 0xfbf8dfee6bff04df, 456402, 0xcb0ce1ab16d8c899),
        (0xfee1ea1ddaeba274, 0x77193a03dd48cb37, 433741, 0xcf56125c70d7154e),
        (0xd65ece1f505cc6ee, 0xe2a82d1e9afbc687, 434272, 0x55a92631ecc7f932),
        (0xa82e70e951f8fe28, 0xd1505af01fce9534, 459383, 0xbc998a8306fc9122),
        (0xfee1ea1ddaeba274, 0xc22cc37ab6ed4363, 434330, 0xf133e70f87c471b0),
        (0xd65ece1f505cc6ee, 0xd846c1ea54bd4f71, 434792, 0x00db3fc4bc864c15),
        (0xa82e70e951f8fe28, 0x58a8df118cd0b77b, 455856, 0x7685091fa72690bd),
        (0xfee1ea1ddaeba274, 0x3a54fb7ac1e3d30e, 433379, 0x0881470ef376ff38),
        (0xd65ece1f505cc6ee, 0x16ffb37a380c1bea, 433924, 0x3ba9bd622433bff1),
        (0xb2f3c088fe769c53, 0x23898c174b6e7461, 1004540, 0xf8692f03e7534b64),
        (0x2d4b0c3bde74ef49, 0xf572fc637ea96464, 913280, 0xee648c96ff4c88e3),
        (0xd630ef3764b2948a, 0x7915398dd5d8a6b0, 911520, 0x2ec9d9602739e9b2),
        (0xb2f3c088fe769c53, 0xaa664e2a9dfad035, 996440, 0x2735fea78c583bdc),
        (0x2d4b0c3bde74ef49, 0x94242ff950a6b907, 912964, 0x92ccfbfed5c2aec8),
        (0xd630ef3764b2948a, 0xf1dcfc93e89c0fad, 911183, 0xd010aa5c075c2b2a),
        (0xb2f3c088fe769c53, 0x6f8870e9c800e1c1, 1065856, 0x045a320421827381),
        (0x2d4b0c3bde74ef49, 0x230ca4dd849e2319, 933140, 0xd75b33c40555e130),
        (0xd630ef3764b2948a, 0x9a63d8fb3716d904, 931370, 0x4fb34aaf0075eeb7),
        (0xb2f3c088fe769c53, 0xabfb647d3694087d, 994275, 0xd5dc21b4b5179089),
        (0x2d4b0c3bde74ef49, 0x3c92a2d6fb177eb3, 911124, 0x23e1e3677063f6ab),
        (0xd630ef3764b2948a, 0x6faeb3902b89b4e6, 909364, 0x65ba21abb003c7c8),
    ];
    let mut rows = PINNED.iter();
    for n in [2usize, 4, 16] {
        for scheme in SCHEMES {
            for policy in POLICIES {
                let got = pinned_cell(n, scheme, policy);
                assert_eq!(
                    Some(&got),
                    rows.next(),
                    "N={n} {scheme:?} {policy:?}: (fingerprint, counters, total_bits, stream)"
                );
            }
        }
    }
}
