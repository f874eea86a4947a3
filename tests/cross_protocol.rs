//! Cross-protocol integration tests: every engine in the workspace is
//! driven through identical traces and must (a) return identical values —
//! all are sequentially consistent — and (b) reproduce the paper's traffic
//! ordering claims on the §4 workload.

use two_mode_coherence::baselines::{
    two_mode_adaptive, two_mode_fixed, CoherentSystem, DirectoryInvalidateSystem, NoCacheSystem,
    UpdateOnlySystem,
};
use two_mode_coherence::memsys::ReferenceMemory;
use two_mode_coherence::protocol::Mode;
use two_mode_coherence::sim::SimRng;
use two_mode_coherence::workload::{Op, Placement, SharedBlockWorkload, Trace};

const N_PROCS: usize = 16;

fn all_systems() -> Vec<Box<dyn CoherentSystem>> {
    vec![
        Box::new(NoCacheSystem::new(N_PROCS)),
        Box::new(DirectoryInvalidateSystem::new(N_PROCS)),
        Box::new(UpdateOnlySystem::new(N_PROCS)),
        Box::new(two_mode_fixed(N_PROCS, Mode::DistributedWrite)),
        Box::new(two_mode_fixed(N_PROCS, Mode::GlobalRead)),
        Box::new(two_mode_adaptive(N_PROCS, 32)),
    ]
}

#[test]
fn every_protocol_returns_identical_values() {
    let trace = SharedBlockWorkload::new(8, 12, 0.3)
        .references(4000)
        .generate(N_PROCS, &mut SimRng::seed_from(404));
    let mut systems = all_systems();
    let mut oracle = ReferenceMemory::new();
    let mut stamp = 1u64;
    for (i, r) in trace.iter().enumerate() {
        match r.op {
            Op::Read => {
                let want = oracle.read(r.addr);
                for sys in &mut systems {
                    let got = sys.read(r.proc, r.addr);
                    assert_eq!(got, want, "step {i}: {} diverged", sys.name());
                }
            }
            Op::Write => {
                for sys in &mut systems {
                    sys.write(r.proc, r.addr, stamp);
                }
                oracle.write(r.addr, stamp);
                stamp += 1;
            }
        }
    }
    for sys in &mut systems {
        sys.flush();
        for (a, v) in oracle.iter() {
            assert_eq!(sys.peek_word(a), v, "{}: post-flush {a}", sys.name());
        }
    }
}

fn steady_bits(sys: &mut dyn CoherentSystem, trace: &Trace, warmup: usize) -> f64 {
    let mut stamp = 1u64;
    let mut base = 0u64;
    for (i, r) in trace.iter().enumerate() {
        if i == warmup {
            base = sys.total_traffic_bits();
        }
        match r.op {
            Op::Read => {
                sys.read(r.proc, r.addr);
            }
            Op::Write => {
                sys.write(r.proc, r.addr, stamp);
                stamp += 1;
            }
        }
    }
    (sys.total_traffic_bits() - base) as f64 / (trace.len() - warmup) as f64
}

fn paper_workload(w: f64, seed: u64) -> Trace {
    SharedBlockWorkload::new(8, 16, w)
        .references(16_000)
        .placement(Placement::Adjacent { base: 0 })
        .generate(N_PROCS, &mut SimRng::seed_from(seed))
}

/// The headline claim: with the mode chosen by the w₁ rule, the two-mode
/// protocol's steady-state traffic stays below the no-cache cost at every
/// write fraction.
#[test]
fn two_mode_beats_no_cache_for_all_w() {
    let w1 = 2.0 / (8.0 + 2.0);
    for (i, w) in [0.02, 0.1, 0.2, 0.4, 0.6, 0.9].into_iter().enumerate() {
        let trace = paper_workload(w, 900 + i as u64);
        let mut best_mode = two_mode_fixed(
            N_PROCS,
            if w <= w1 {
                Mode::DistributedWrite
            } else {
                Mode::GlobalRead
            },
        );
        let two_mode = steady_bits(&mut best_mode, &trace, 3000);
        let mut nc = NoCacheSystem::new(N_PROCS);
        let no_cache = steady_bits(&mut nc, &trace, 3000);
        assert!(
            two_mode < no_cache,
            "w={w}: two-mode {two_mode:.1} >= no-cache {no_cache:.1}"
        );
    }
}

/// Eq. 10 versus eq. 11/12 in the mid-range: the invalidating
/// (write-once-like) baseline pays the w(1−w) hump where the two-mode
/// protocol caps its cost.
#[test]
fn two_mode_beats_invalidation_at_moderate_write_fractions() {
    for (i, w) in [0.1, 0.2, 0.3, 0.5].into_iter().enumerate() {
        let trace = paper_workload(w, 950 + i as u64);
        let w1 = 0.2;
        let mut tm = two_mode_fixed(
            N_PROCS,
            if w <= w1 {
                Mode::DistributedWrite
            } else {
                Mode::GlobalRead
            },
        );
        let two_mode = steady_bits(&mut tm, &trace, 3000);
        let mut dir = DirectoryInvalidateSystem::new(N_PROCS);
        let invalidate = steady_bits(&mut dir, &trace, 3000);
        assert!(
            two_mode < invalidate,
            "w={w}: two-mode {two_mode:.1} >= invalidate {invalidate:.1}"
        );
    }
}

/// The modes cross where the paper says they do: DW is cheaper strictly
/// below w₁ = 0.2 (n = 8), GR strictly above.
#[test]
fn fixed_modes_cross_near_the_threshold() {
    let below = paper_workload(0.08, 971);
    let mut dw = two_mode_fixed(N_PROCS, Mode::DistributedWrite);
    let mut gr = two_mode_fixed(N_PROCS, Mode::GlobalRead);
    assert!(steady_bits(&mut dw, &below, 3000) < steady_bits(&mut gr, &below, 3000));

    let above = paper_workload(0.4, 972);
    let mut dw = two_mode_fixed(N_PROCS, Mode::DistributedWrite);
    let mut gr = two_mode_fixed(N_PROCS, Mode::GlobalRead);
    assert!(steady_bits(&mut dw, &above, 3000) > steady_bits(&mut gr, &above, 3000));
}

/// The adaptive controller lands within a modest factor of the better
/// fixed mode on both sides of the threshold.
#[test]
fn adaptive_tracks_the_cheaper_mode() {
    for (i, w) in [0.05, 0.6].into_iter().enumerate() {
        let trace = paper_workload(w, 980 + i as u64);
        let mut dw = two_mode_fixed(N_PROCS, Mode::DistributedWrite);
        let mut gr = two_mode_fixed(N_PROCS, Mode::GlobalRead);
        let mut ad = two_mode_adaptive(N_PROCS, 64);
        let best = steady_bits(&mut dw, &trace, 3000).min(steady_bits(&mut gr, &trace, 3000));
        let adaptive = steady_bits(&mut ad, &trace, 3000);
        assert!(
            adaptive <= best * 1.3,
            "w={w}: adaptive {adaptive:.1} vs best fixed {best:.1}"
        );
    }
}

/// No-sharing sanity: on disjoint working sets every caching protocol's
/// steady-state traffic collapses to (near) zero while no-cache keeps
/// paying full price.
#[test]
fn private_workloads_generate_no_consistency_traffic() {
    use two_mode_coherence::workload::PrivateWorkload;
    let trace = PrivateWorkload::new(8, 8, 0.4)
        .references(12_000)
        .generate(N_PROCS, &mut SimRng::seed_from(33));
    for mut sys in all_systems() {
        let bits = steady_bits(sys.as_mut(), &trace, 4000);
        if sys.name() == "no-cache" {
            assert!(bits > 100.0);
        } else {
            // Even fixed global-read is silent here: each task owns its own
            // blocks, so every reference is a local owner hit.
            assert!(
                bits < 1.0,
                "{}: {bits:.2} bits/ref on a private workload",
                sys.name()
            );
        }
    }
}
