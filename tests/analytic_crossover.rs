//! Empirical check of the paper's mode-switch threshold w1 = 2/(n+2)
//! (eq. 13, Stenström 1989): sweep the write fraction, locate where the
//! *simulated* DW and GR traffic curves actually cross, and compare
//! against the closed form.
//!
//! Eq. 13 is derived with every message costing the same M bits. The
//! simulator charges real per-type sizes — a DW update carries
//! addr + word, while a GR miss costs a bare request plus a datum reply —
//! and that asymmetry shifts the real crossover *well* below 2/(n+2)
//! (from 0.500 down to ~0.35 at n=2). Neither side is buggy; they answer
//! different questions. So this test pins both:
//!
//! 1. Under (near-)uniform message sizing the simulated crossover must
//!    land on w1 itself — the paper's formula, reproduced end to end.
//! 2. Under the default realistic sizing the crossover must land on the
//!    size-corrected prediction solving
//!    `w · CC4(n−1) = (1−w) · ((n−1)/n) · (request + datum)`,
//!    the same formulas the conformance fuzzer's sim-vs-analytic pair
//!    calibrated to within a few percent of measurement.
//!
//! The fuzzer's ranking check (`tmc fuzz`) guards around the same
//! corrected crossover, so the threshold formula, the simulator, and the
//! fuzzer cannot silently drift apart.

use two_mode_coherence::analytic::TwoModeThreshold;
use two_mode_coherence::memsys::MsgSizing;
use two_mode_coherence::net::{DestSet, Omega, SchemeKind};
use two_mode_coherence::protocol::{Mode, ModePolicy, System, SystemConfig};
use two_mode_coherence::sim::SimRng;
use two_mode_coherence::workload::{Op, Placement, SharedBlockWorkload};

const N_PROCS: usize = 16;
const WARMUP: usize = 1_000;
const REFS: usize = 3_000;

/// Tolerance on a crossover's write fraction: covers grid quantization
/// (step 0.04) plus workload sampling noise, while staying far below the
/// uniform-vs-real-sizing shift this test exists to tell apart (0.08 to
/// 0.16 across n = 2..8).
const TOLERANCE: f64 = 0.05;

/// Near-uniform sizing: every message family costs `control_bits` (the
/// update adds only the 2-bit word offset, <2% here) — the paper's
/// single-M idealization, expressible in the simulator itself.
fn uniform_sizing() -> MsgSizing {
    MsgSizing {
        addr_bits: 0,
        word_bits: 0,
        block_words: 4,
        control_bits: 128,
    }
}

/// Steady-state traffic (bits over the measured window) for one fixed
/// mode at write fraction `w` with `n` sharing tasks.
fn measure(n: usize, w: f64, mode: Mode, sizing: MsgSizing, seed: u64) -> u64 {
    let trace = SharedBlockWorkload::new(n, 2 * n as u64, w)
        .references(WARMUP + REFS)
        .placement(Placement::Adjacent { base: 0 })
        .generate(N_PROCS, &mut SimRng::seed_from(seed));
    let cfg = SystemConfig::new(N_PROCS)
        .multicast(SchemeKind::Replicated)
        .mode_policy(ModePolicy::Fixed(mode))
        .sizing(sizing);
    let mut sys = System::new(cfg).expect("valid config");
    let mut stamp = 1;
    let mut base = 0;
    for (i, r) in trace.iter().enumerate() {
        if i == WARMUP {
            base = sys.traffic().total_bits();
        }
        match r.op {
            Op::Read => {
                sys.read(r.proc, r.addr).expect("valid proc");
            }
            Op::Write => {
                sys.write(r.proc, r.addr, stamp).expect("valid proc");
                stamp += 1;
            }
        }
    }
    sys.traffic().total_bits() - base
}

/// Locates the write fraction where DW stops being the cheaper mode, by
/// coarse sweep plus linear interpolation in the bracketing cell.
fn measured_crossover(n: usize, sizing: MsgSizing, seed: u64) -> f64 {
    let grid: Vec<f64> = (1..=17).map(|i| 0.04 * i as f64).collect();
    let gaps: Vec<f64> = grid
        .iter()
        .map(|&w| {
            measure(n, w, Mode::DistributedWrite, sizing, seed) as f64
                - measure(n, w, Mode::GlobalRead, sizing, seed) as f64
        })
        .collect();
    assert!(gaps[0] < 0.0, "n={n}: DW must win at w={}", grid[0]);
    assert!(
        *gaps.last().unwrap() > 0.0,
        "n={n}: GR must win at w={}",
        grid.last().unwrap()
    );
    let i = gaps.iter().position(|&g| g > 0.0).expect("sign change");
    let (w_lo, w_hi) = (grid[i - 1], grid[i]);
    let (g_lo, g_hi) = (gaps[i - 1], gaps[i]);
    w_lo + (w_hi - w_lo) * (-g_lo) / (g_hi - g_lo)
}

/// The size-corrected crossover: where eq. 11 with the real update
/// multicast cost meets eq. 12 with real request/datum costs.
fn corrected_crossover(n: usize, sizing: MsgSizing) -> f64 {
    let net = Omega::with_ports(N_PROCS).expect("power of two");
    let mut cc4_sum = 0u64;
    for writer in 0..n {
        let dests = DestSet::from_ports(N_PROCS, (0..n).filter(|&p| p != writer)).unwrap();
        cc4_sum += net
            .multicast_cost(SchemeKind::Replicated, &dests, sizing.update_bits())
            .unwrap();
    }
    let cc4 = cc4_sum as f64 / n as f64;
    let single = |bits: u64| -> f64 {
        let dests = DestSet::from_ports(N_PROCS, [1usize]).unwrap();
        net.multicast_cost(SchemeKind::Replicated, &dests, bits)
            .unwrap() as f64
    };
    let rr = single(sizing.request_bits()) + single(sizing.datum_bits());
    let q = ((n - 1) as f64 / n as f64) * rr / cc4;
    q / (1.0 + q)
}

#[test]
fn uniform_message_sizes_reproduce_w1() {
    for (n, seed) in [(2usize, 900u64), (4, 910), (8, 920)] {
        let w1 = TwoModeThreshold::new(n as u64).value();
        let crossover = measured_crossover(n, uniform_sizing(), seed);
        assert!(
            (crossover - w1).abs() <= TOLERANCE,
            "n={n}: uniform-M crossover {crossover:.3} vs w1 = 2/(n+2) = {w1:.3}"
        );
    }
}

#[test]
fn real_message_sizes_match_the_corrected_crossover() {
    let sizing = MsgSizing::default();
    for (n, seed) in [(2usize, 930u64), (4, 940), (8, 950)] {
        let predicted = corrected_crossover(n, sizing);
        let crossover = measured_crossover(n, sizing, seed);
        assert!(
            (crossover - predicted).abs() <= TOLERANCE,
            "n={n}: measured crossover {crossover:.3} vs size-corrected {predicted:.3}"
        );
        // And the shift away from the uniform-M w1 is real and in the
        // direction the size asymmetry predicts (updates outweigh the
        // request half of a read round trip).
        let w1 = TwoModeThreshold::new(n as u64).value();
        assert!(
            crossover < w1,
            "n={n}: real-size crossover {crossover:.3} should sit below w1 {w1:.3}"
        );
    }
}
