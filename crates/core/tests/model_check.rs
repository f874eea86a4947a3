//! Bounded model checking: exhaustively explore every protocol state a
//! small machine can reach within `DEPTH` operations, checking the
//! invariants (and value coherence against per-path oracles) at every
//! state.
//!
//! Every transition runs the rule tables of `crates/core/src/ir.rs` — the
//! only definition of each protocol — so the pinned visited-state counts
//! below are properties of those tables, the baselines' included. They were first measured through the
//! hand-written engine the tables replaced, which reached the bit-identical
//! state sets.
//!
//! The state space is the *protocol* state ([`System::protocol_fingerprint`]):
//! data values, counters and traffic are excluded, since the control
//! behavior does not depend on them. Writes therefore write a constant.
//! With one-slot caches, every replacement path (write-back, presence
//! clearing, ownership handoff) is inside the explored space.

use std::collections::{HashSet, VecDeque};

use tmc_core::{Baseline, Mode, ModePolicy, System, SystemConfig};
use tmc_memsys::{BlockAddr, BlockSpec, CacheGeometry};

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(usize, u64),
    Write(usize, u64),
    SetMode(usize, u64, Mode),
}

fn all_ops(n_procs: usize, n_blocks: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for p in 0..n_procs {
        for b in 0..n_blocks {
            ops.push(Op::Read(p, b));
            ops.push(Op::Write(p, b));
            ops.push(Op::SetMode(p, b, Mode::DistributedWrite));
            ops.push(Op::SetMode(p, b, Mode::GlobalRead));
        }
    }
    ops
}

fn apply(sys: &mut System, op: Op) {
    let spec = sys.config().spec;
    match op {
        Op::Read(p, b) => {
            sys.read(p, spec.word_at(BlockAddr::new(b), 0))
                .expect("read");
        }
        Op::Write(p, b) => {
            sys.write(p, spec.word_at(BlockAddr::new(b), 0), 1)
                .expect("write");
        }
        Op::SetMode(p, b, m) => {
            sys.set_mode(p, spec.word_at(BlockAddr::new(b), 0), m)
                .expect("set_mode");
        }
    }
}

/// Breadth-first exploration up to `depth` with every cache active;
/// returns the number of distinct protocol states visited. Panics on any
/// invariant violation.
fn explore(cfg: SystemConfig, n_blocks: u64, depth: usize) -> usize {
    let active = cfg.n_caches;
    explore_procs(cfg, active, n_blocks, depth)
}

/// [`explore`] with only the first `active_procs` processors issuing
/// operations — how a 3-processor machine is modelled on a 4-cache
/// (power-of-two) network.
fn explore_procs(cfg: SystemConfig, active_procs: usize, n_blocks: u64, depth: usize) -> usize {
    assert!(active_procs <= cfg.n_caches);
    let ops = all_ops(active_procs, n_blocks);
    explore_from(System::new(cfg).expect("valid config"), &ops, depth)
}

/// Breadth-first exploration of `initial` up to `depth` steps of `ops`;
/// returns the number of distinct protocol states visited. Panics on any
/// invariant violation.
fn explore_from(initial: System, ops: &[Op], depth: usize) -> usize {
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    seen.insert(initial.protocol_fingerprint());
    let mut frontier: VecDeque<(System, usize)> = VecDeque::new();
    frontier.push_back((initial, 0));
    while let Some((state, d)) = frontier.pop_front() {
        if d == depth {
            continue;
        }
        for &op in ops {
            let mut next = state.clone();
            apply(&mut next, op);
            next.check_invariants().unwrap_or_else(|v| {
                panic!("depth {}: {v} after {op:?}", d + 1);
            });
            if seen.insert(next.protocol_fingerprint()) {
                frontier.push_back((next, d + 1));
            }
        }
    }
    seen.len()
}

/// One-word blocks keep the machine minimal; one-slot caches force every
/// replacement action into the explored space.
fn tiny_config() -> SystemConfig {
    SystemConfig::new(2)
        .geometry(CacheGeometry::new(1, 1))
        .block_spec(BlockSpec::new(0))
}

#[test]
fn exhaustive_two_procs_two_blocks_tiny_caches() {
    let states = explore(tiny_config(), 2, 6);
    // The space must close at a modest size (protocol states, not paths).
    assert!(states > 50, "suspiciously small space: {states}");
    assert!(states < 200_000, "state space failed to converge: {states}");
}

#[test]
fn exhaustive_two_procs_roomier_caches() {
    let cfg = SystemConfig::new(2)
        .geometry(CacheGeometry::new(1, 2))
        .block_spec(BlockSpec::new(0));
    let states = explore(cfg, 2, 6);
    assert!(states > 50);
}

#[test]
fn exhaustive_three_procs_shallow() {
    let cfg = SystemConfig::new(4)
        .geometry(CacheGeometry::new(1, 1))
        .block_spec(BlockSpec::new(0));
    // 4 procs x 1 block x 4 op kinds = 16 ops per level; depth 4.
    let states = explore(cfg, 1, 4);
    assert!(states > 30);
}

/// The regression matrix: exact visited-state counts for a grid of small
/// machines under each mode policy. Any protocol change that adds, merges
/// or removes reachable states moves one of these numbers.
fn matrix_configs() -> Vec<(&'static str, SystemConfig, usize, u64, usize)> {
    // (label, config, active_procs, blocks, depth)
    let tiny = |n: usize| {
        SystemConfig::new(n)
            .geometry(CacheGeometry::new(1, 1))
            .block_spec(BlockSpec::new(0))
    };
    vec![
        (
            "2p2b-gr",
            tiny(2).mode_policy(ModePolicy::Fixed(Mode::GlobalRead)),
            2,
            2,
            6,
        ),
        (
            "2p2b-dw",
            tiny(2).mode_policy(ModePolicy::Fixed(Mode::DistributedWrite)),
            2,
            2,
            6,
        ),
        (
            "2p2b-adaptive",
            tiny(2).mode_policy(ModePolicy::Adaptive { window: 2 }),
            2,
            2,
            5,
        ),
        (
            "3p2b-gr",
            tiny(4).mode_policy(ModePolicy::Fixed(Mode::GlobalRead)),
            3,
            2,
            4,
        ),
        (
            "3p2b-dw",
            tiny(4).mode_policy(ModePolicy::Fixed(Mode::DistributedWrite)),
            3,
            2,
            4,
        ),
    ]
}

/// The measured counts, pinned: properties of the rule tables. These
/// are regression values, not truths derived from the paper: re-measure
/// (print the counts from `explore_procs`) and update deliberately when
/// the protocol's reachable space changes.
#[test]
fn config_matrix_visited_state_counts_are_pinned() {
    let expected = [
        ("2p2b-gr", 137),
        ("2p2b-dw", 137),
        ("2p2b-adaptive", 137),
        ("3p2b-gr", 1675),
        ("3p2b-dw", 1663),
    ];
    for ((label, cfg, active, blocks, depth), (elabel, count)) in
        matrix_configs().into_iter().zip(expected)
    {
        assert_eq!(label, elabel, "matrix/expectation tables out of sync");
        let states = explore_procs(cfg, active, blocks, depth);
        assert_eq!(states, count, "{label}: visited-state count moved");
    }
}

/// The full reachable space of the 3-active-processor machine closes at
/// 3349 protocol states — identical under every mode policy, because the
/// software directives (§2.2 ops 6/7) are in the exploration alphabet, so
/// any policy can steer every block into either mode. Deep: runs in the
/// release-mode CI job (`--include-ignored`), skipped under debug.
#[test]
#[cfg_attr(debug_assertions, ignore = "deep exploration; run in release")]
fn three_proc_space_closes_at_the_same_size_under_every_policy() {
    let tiny4 = SystemConfig::new(4)
        .geometry(CacheGeometry::new(1, 1))
        .block_spec(BlockSpec::new(0));
    for policy in [
        ModePolicy::Fixed(Mode::GlobalRead),
        ModePolicy::Fixed(Mode::DistributedWrite),
        ModePolicy::Adaptive { window: 2 },
    ] {
        let at_8 = explore_procs(tiny4.clone().mode_policy(policy), 3, 2, 8);
        let at_9 = explore_procs(tiny4.clone().mode_policy(policy), 3, 2, 9);
        assert_eq!(at_8, 3349, "{policy:?}: closed-space size moved");
        assert_eq!(at_8, at_9, "{policy:?}: space not closed at depth 8");
    }
}

/// The baselines explore through their own tables: reads and writes only
/// (a baseline has no modes), on the one-slot 2-processor × 2-block
/// machine, checking the home directory's invariants at every state. Each
/// space is closed: one more step reaches nothing new. The counts are the
/// whole space: each cache holds nothing or one of the two blocks, and a
/// block held somewhere has no writer or one of its holders — under
/// write-invalidate only a lone holder may be the writer (19 states),
/// under update-only either of two sharers may (23).
#[test]
fn baseline_visited_state_counts_are_pinned() {
    for (protocol, count) in [
        (Baseline::DirectoryInvalidate, 19),
        (Baseline::UpdateOnly, 23),
    ] {
        let ops: Vec<Op> = all_ops(2, 2)
            .into_iter()
            .filter(|op| !matches!(op, Op::SetMode(..)))
            .collect();
        let machine = || System::baseline(tiny_config(), protocol).expect("valid config");
        let states = explore_from(machine(), &ops, 6);
        assert_eq!(states, count, "{protocol:?}: visited-state count moved");
        assert_eq!(
            explore_from(machine(), &ops, 7),
            count,
            "{protocol:?}: not closed"
        );
    }
}

#[test]
fn state_space_is_closed_under_further_steps() {
    // Once the reachable set stops growing between depths, it is the full
    // reachable space: check convergence for the tiny machine.
    let a = explore(tiny_config(), 1, 6);
    let b = explore(tiny_config(), 1, 8);
    assert_eq!(a, b, "reachable set must be closed (depth 6 vs 8)");
}

#[test]
fn fingerprint_ignores_data_but_not_state() {
    let spec = BlockSpec::new(0);
    let mk = || System::new(tiny_config()).unwrap();
    // Same ops with different values: same fingerprint.
    let mut s1 = mk();
    let mut s2 = mk();
    s1.write(0, spec.word_at(BlockAddr::new(0), 0), 7).unwrap();
    s2.write(0, spec.word_at(BlockAddr::new(0), 0), 9).unwrap();
    assert_eq!(s1.protocol_fingerprint(), s2.protocol_fingerprint());
    // A protocol-visible difference changes it.
    let mut s3 = mk();
    s3.write(1, spec.word_at(BlockAddr::new(0), 0), 7).unwrap();
    assert_ne!(s1.protocol_fingerprint(), s3.protocol_fingerprint());
    // Mode changes are protocol-visible.
    let mut s4 = mk();
    s4.write(0, spec.word_at(BlockAddr::new(0), 0), 7).unwrap();
    s4.set_mode(
        0,
        spec.word_at(BlockAddr::new(0), 0),
        Mode::DistributedWrite,
    )
    .unwrap();
    assert_ne!(s1.protocol_fingerprint(), s4.protocol_fingerprint());
}
