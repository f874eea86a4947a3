//! Litmus tests: the classic memory-model patterns, asserted under every
//! protocol engine.
//!
//! The harness executes one reference at a time (the paper's protocol has
//! no transient states), so the machine is sequentially consistent by
//! construction — these tests document that guarantee and pin it down for
//! every protocol, mode and ownership-migration path.

use two_mode_coherence::baselines::{
    two_mode_adaptive, two_mode_fixed, CoherentSystem, DirectoryInvalidateSystem, NoCacheSystem,
    UpdateOnlySystem,
};
use two_mode_coherence::memsys::WordAddr;
use two_mode_coherence::protocol::Mode;

/// Machine sizes the suite runs at: the classic 4-processor machine plus
/// big-N points that put `DestSet` in its small-list and bitmap layouts
/// and the paged stores over wide port spaces. The patterns themselves
/// only involve procs 0..4 — coherence must not depend on machine size.
const SIZES: [usize; 3] = [4, 128, 256];

fn engines_at(n: usize) -> Vec<Box<dyn CoherentSystem>> {
    vec![
        Box::new(NoCacheSystem::new(n)),
        Box::new(DirectoryInvalidateSystem::new(n)),
        Box::new(UpdateOnlySystem::new(n)),
        Box::new(two_mode_fixed(n, Mode::DistributedWrite)),
        Box::new(two_mode_fixed(n, Mode::GlobalRead)),
        Box::new(two_mode_adaptive(n, 8)),
    ]
}

fn engines() -> Vec<Box<dyn CoherentSystem>> {
    SIZES.iter().flat_map(|&n| engines_at(n)).collect()
}

fn a() -> WordAddr {
    WordAddr::new(0)
}

/// Blocks far enough apart to be in different cache sets and modules.
fn b() -> WordAddr {
    WordAddr::new(1028)
}

/// Message passing (MP): once the flag is visible, the data must be.
#[test]
fn message_passing() {
    for mut sys in engines() {
        // P0: data = 42; flag = 1.
        sys.write(0, a(), 42);
        sys.write(0, b(), 1);
        // P1: sees flag = 1 → must see data = 42.
        assert_eq!(sys.read(1, b()), 1, "{}", sys.name());
        assert_eq!(sys.read(1, a()), 42, "{}: MP violated", sys.name());
    }
}

/// Coherence read-read (CoRR): two reads of the same location by the same
/// processor never observe values out of write order.
#[test]
fn corr_no_value_regression() {
    for mut sys in engines() {
        sys.write(0, a(), 1);
        let r1 = sys.read(1, a());
        sys.write(0, a(), 2);
        let r2 = sys.read(1, a());
        assert_eq!((r1, r2), (1, 2), "{}: stale second read", sys.name());
    }
}

/// Write serialization: all processors agree on the final value after
/// interleaved writes by different processors (ownership migrates).
#[test]
fn write_serialization_across_owners() {
    for mut sys in engines() {
        sys.write(0, a(), 10);
        sys.write(1, a(), 20);
        sys.write(2, a(), 30);
        for p in 0..4 {
            assert_eq!(sys.read(p, a()), 30, "{}: proc {p} disagrees", sys.name());
        }
    }
}

/// Store buffering (SB) shape: with serialized execution, at least one of
/// the two readers must see the other's write (the SC-forbidden r0=r1=0
/// outcome cannot occur).
#[test]
fn store_buffering_forbidden_outcome() {
    for mut sys in engines() {
        sys.write(0, a(), 1); // P0: x = 1
        sys.write(1, b(), 1); // P1: y = 1
        let r0 = sys.read(0, b()); // P0 reads y
        let r1 = sys.read(1, a()); // P1 reads x
        assert!(
            r0 == 1 || r1 == 1,
            "{}: SB forbidden outcome r0={r0} r1={r1}",
            sys.name()
        );
    }
}

/// Independent reads of independent writes (IRIW): both observers agree on
/// the order of writes to different locations.
#[test]
fn iriw_observers_agree() {
    for mut sys in engines() {
        sys.write(0, a(), 1);
        sys.write(1, b(), 1);
        let o2 = (sys.read(2, a()), sys.read(2, b()));
        let o3 = (sys.read(3, b()), sys.read(3, a()));
        assert_eq!(o2, (1, 1), "{}", sys.name());
        assert_eq!(o3, (1, 1), "{}", sys.name());
    }
}

/// Coherence write-write (CoWW): writes to one location are serialized —
/// after the last write, no processor can resurface an earlier value.
#[test]
fn coww_last_write_wins() {
    for mut sys in engines() {
        sys.write(0, a(), 1);
        sys.write(0, a(), 2);
        for p in 0..4 {
            assert_eq!(sys.read(p, a()), 2, "{}: proc {p} resurrected", sys.name());
        }
        // A different writer (ownership migrates) extends the same order.
        sys.write(1, a(), 3);
        for p in 0..4 {
            assert_eq!(sys.read(p, a()), 3, "{}: proc {p} stale", sys.name());
        }
    }
}

/// IRIW with the reads *interleaved* between the writes: each observer's
/// two reads bracket one of the writes, so the exact values are forced
/// under sequential consistency — no observer may see the writes in
/// contradictory orders.
#[test]
fn iriw_interleaved_observers_agree() {
    for mut sys in engines() {
        sys.write(0, a(), 1);
        let o2 = (sys.read(2, a()), sys.read(2, b())); // between the writes
        sys.write(1, b(), 1);
        let o3 = (sys.read(3, b()), sys.read(3, a()));
        assert_eq!(o2, (1, 0), "{}: observer 2", sys.name());
        assert_eq!(o3, (1, 1), "{}: observer 3", sys.name());
        // Observer 2 re-reads b: the write must now be visible (CoRR
        // forward progress), completing an agreed a-before-b order.
        assert_eq!(sys.read(2, b()), 1, "{}: observer 2 stuck", sys.name());
    }
}

/// Write-to-read causality (WRC): a value observed and passed on through
/// a second location must imply the original write is visible.
#[test]
fn wrc_causality_chain() {
    for mut sys in engines() {
        sys.write(0, a(), 1); // P0: x = 1
        assert_eq!(sys.read(1, a()), 1, "{}", sys.name());
        sys.write(1, b(), 1); // P1 saw x, then y = 1
        assert_eq!(sys.read(2, b()), 1, "{}", sys.name());
        assert_eq!(sys.read(2, a()), 1, "{}: causality broken", sys.name());
    }
}

/// The same patterns survive mode switches mid-stream on the two-mode
/// protocol (the paper: "both modes maintain consistency. The sole
/// difference is performance").
#[test]
fn message_passing_across_mode_switches() {
    let mut adapter = two_mode_fixed(4, Mode::DistributedWrite);
    adapter.write(0, a(), 41);
    adapter.read(1, a());
    // Switch the data block to global read between the two writes.
    adapter
        .inner_mut()
        .set_mode(0, a(), Mode::GlobalRead)
        .expect("switch");
    adapter.write(0, a(), 42);
    adapter.write(0, b(), 1);
    assert_eq!(adapter.read(1, b()), 1);
    assert_eq!(adapter.read(1, a()), 42);
    adapter
        .inner_mut()
        .set_mode(0, a(), Mode::DistributedWrite)
        .expect("switch back");
    assert_eq!(adapter.read(2, a()), 42);
    adapter.inner().check_invariants().expect("invariants");
}

/// Write-after-mode-switch: a write landing immediately after a software
/// mode directive (§2.2 ops 6/7) is never lost, in either direction, for
/// every two-mode variant (fixed DW, fixed GR, adaptive).
#[test]
fn write_after_mode_switch_is_never_lost() {
    let variants: Vec<two_mode_coherence::baselines::TwoModeAdapter> = vec![
        two_mode_fixed(4, Mode::DistributedWrite),
        two_mode_fixed(4, Mode::GlobalRead),
        two_mode_adaptive(4, 8),
    ];
    for mut sys in variants {
        let name = sys.name();
        sys.write(0, a(), 1);
        // DW → GR, then write: copies must be invalidated, not updated late.
        sys.inner_mut()
            .set_mode(0, a(), Mode::GlobalRead)
            .expect("switch to GR");
        sys.write(0, a(), 2);
        for p in 0..4 {
            assert_eq!(sys.read(p, a()), 2, "{name}: proc {p} after GR switch");
        }
        // GR → DW, then write from a *different* processor (ownership moves).
        sys.inner_mut()
            .set_mode(0, a(), Mode::DistributedWrite)
            .expect("switch to DW");
        sys.write(2, a(), 3);
        for p in 0..4 {
            assert_eq!(sys.read(p, a()), 3, "{name}: proc {p} after DW switch");
        }
        sys.inner().check_invariants().expect("invariants");
    }
}

/// Multicast memoization across mode switches: after a DW -> GR -> DW
/// round trip shrinks a block's sharer set, the owner's update cast must
/// be routed (and charged) for the *new* present set — the memoized
/// traversal for the old full set keys on the destination set and cannot
/// be replayed for the smaller one.
#[test]
fn cast_cache_tracks_sharer_set_across_mode_switches() {
    let mut sys = two_mode_fixed(4, Mode::DistributedWrite);
    // Every processor loads the block: present set {0, 1, 2, 3}.
    sys.write(0, a(), 1);
    for p in 0..4 {
        assert_eq!(sys.read(p, a()), 1);
    }
    // Steady-state cost of one DW update to the full set (second write is
    // a memo replay; the charges are identical either way).
    sys.write(0, a(), 2);
    let before = sys.total_traffic_bits();
    sys.write(0, a(), 3);
    let full_set_bits = sys.total_traffic_bits() - before;

    // DW -> GR invalidates the copies; back to DW with only proc 1
    // re-reading leaves the present set at {0, 1}.
    sys.inner_mut()
        .set_mode(0, a(), Mode::GlobalRead)
        .expect("switch to GR");
    sys.write(0, a(), 4);
    sys.inner_mut()
        .set_mode(0, a(), Mode::DistributedWrite)
        .expect("switch back");
    sys.write(0, a(), 5);
    assert_eq!(sys.read(1, a()), 5);

    sys.write(0, a(), 6);
    let before = sys.total_traffic_bits();
    sys.write(0, a(), 7);
    let small_set_bits = sys.total_traffic_bits() - before;
    assert!(
        small_set_bits < full_set_bits,
        "update to shrunken sharer set must cost less than the old full-set \
         cast ({small_set_bits} vs {full_set_bits} bits) — stale memoized route?"
    );

    // Values stayed coherent throughout, and restoring the full set
    // restores the original steady-state cast cost bit-for-bit.
    for p in 0..4 {
        assert_eq!(sys.read(p, a()), 7, "proc {p}");
    }
    sys.write(0, a(), 8);
    let before = sys.total_traffic_bits();
    sys.write(0, a(), 9);
    assert_eq!(
        sys.total_traffic_bits() - before,
        full_set_bits,
        "full present set must replay the original cast cost"
    );
    sys.inner().check_invariants().expect("invariants");
}

/// A storm of alternating mode directives interleaved with writes and
/// reads from every processor: values always track program order and the
/// protocol invariants hold throughout.
#[test]
fn mode_switch_storm_preserves_values() {
    let mut sys = two_mode_adaptive(4, 8);
    let mut expected_a; // assigned every round before any read
    let mut expected_b = 0u64;
    for round in 0..24u64 {
        let mode = if round % 2 == 0 {
            Mode::GlobalRead
        } else {
            Mode::DistributedWrite
        };
        let proc = (round % 4) as usize;
        sys.inner_mut()
            .set_mode(proc, a(), mode)
            .expect("directive");
        expected_a = 100 + round;
        sys.write(proc, a(), expected_a);
        if round % 3 == 0 {
            expected_b = 200 + round;
            sys.write((round % 4) as usize, b(), expected_b);
        }
        for p in 0..4 {
            assert_eq!(sys.read(p, a()), expected_a, "round {round}, proc {p}");
            assert_eq!(sys.read(p, b()), expected_b, "round {round}, proc {p}");
        }
        sys.inner().check_invariants().expect("invariants");
    }
}

/// Tracing is observation, not participation: running the same litmus
/// script with tracing on must leave every engine's values and traffic
/// untouched, while producing a nonempty event stream.
#[test]
fn tracing_does_not_perturb_any_engine() {
    let script = |sys: &mut dyn CoherentSystem| -> Vec<u64> {
        sys.write(0, a(), 42);
        sys.write(0, b(), 1);
        sys.write(1, a(), 43);
        (0..4)
            .flat_map(|p| [sys.read(p, a()), sys.read(p, b())])
            .collect()
    };
    for (mut plain, mut traced) in engines().into_iter().zip(engines()) {
        traced.set_tracing(true);
        assert!(!plain.tracing_enabled() && traced.tracing_enabled());
        let values_plain = script(plain.as_mut());
        let values_traced = script(traced.as_mut());
        assert_eq!(values_plain, values_traced, "{}", plain.name());
        assert_eq!(
            plain.total_traffic_bits(),
            traced.total_traffic_bits(),
            "{}: tracing changed traffic",
            plain.name()
        );
        assert!(plain.drain_trace().is_empty(), "{}", plain.name());
        let events = traced.drain_trace();
        assert!(!events.is_empty(), "{}: no events", traced.name());
    }
}
