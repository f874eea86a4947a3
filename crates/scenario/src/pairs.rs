//! The engine pairs the fuzzer diffs, and what each one asserts.
//!
//! | pair | engines | comparison |
//! |---|---|---|
//! | `serial-vs-replay` | serial capture vs `tracecheck` replay | every replay obligation (values, regenerated events, trailer, oracle, memory) |
//! | `sim-vs-analytic` | steady-state simulation vs eqs. 11–12 | bits/ref inside a calibrated band + mode ranking vs the w₁ threshold |
//! | `faults-zero-vs-off` | zero-count fault plan vs no plan | full outcome including events (bit-identity) |
//! | `adaptive-vs-fixed` | adaptive policy vs both fixed modes | identical read values; traffic bounded by the best fixed mode |
//! | `oracle-self` | serial `System` vs `ReferenceMemory` | every read's value, the end-of-run audit (invariants, every word of every touched block), re-run determinism |
//! | `resumed-vs-uninterrupted` | one straight run vs the same script frozen/thawed mid-flight through the runner frame | the final frame byte for byte: machine payload, oracle image, read values and event stream checksums |
//!
//! Adaptive-vs-fixed deliberately does **not** compare fingerprints or
//! traffic for equality: the adaptive policy changes block modes as its
//! windows close, so protocol state and per-link charges legitimately
//! diverge from any fixed-mode run. Only value-level agreement and the
//! cost bound are contractual; the rest is *expected* divergence.

use tmc_bench::script::{apply, apply_script, from_trace, Runner};
use tmc_bench::tracecheck;
use tmc_core::{FaultSpec, Mode, ModePolicy, System, SystemConfig};
use tmc_memsys::MsgSizing;
use tmc_omeganet::{DestSet, Omega};
use tmc_simcore::SimRng;
use tmc_workload::{Op, Placement, SharedBlockWorkload};

use crate::case::CaseSpec;
use crate::outcome::{diff_outcomes, run_serial, snapshot, Divergence};

/// One engine pair the fuzzer can diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pair {
    /// Serial capture vs JSONL trace replay.
    SerialVsReplay,
    /// Steady-state simulation vs the closed-form cost model.
    SimVsAnalytic,
    /// Zero-count fault plan vs fault injection disabled.
    FaultsZeroVsOff,
    /// Adaptive mode policy vs the best fixed mode.
    AdaptiveVsFixed,
    /// Serial engine vs the sequential-consistency oracle.
    OracleSelf,
    /// One straight run vs a run checkpointed and resumed mid-script.
    ResumedVsUninterrupted,
}

impl Pair {
    /// Every pair, in check order.
    pub fn all() -> [Pair; 6] {
        [
            Pair::OracleSelf,
            Pair::ResumedVsUninterrupted,
            Pair::SerialVsReplay,
            Pair::FaultsZeroVsOff,
            Pair::AdaptiveVsFixed,
            Pair::SimVsAnalytic,
        ]
    }

    /// Stable name used in corpus files and reports.
    pub fn name(self) -> &'static str {
        match self {
            Pair::SerialVsReplay => "serial-vs-replay",
            Pair::SimVsAnalytic => "sim-vs-analytic",
            Pair::FaultsZeroVsOff => "faults-zero-vs-off",
            Pair::AdaptiveVsFixed => "adaptive-vs-fixed",
            Pair::OracleSelf => "oracle-self",
            Pair::ResumedVsUninterrupted => "resumed-vs-uninterrupted",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Pair> {
        Pair::all().into_iter().find(|p| p.name() == s)
    }

    /// Whether the pair applies to `case`.
    pub fn applies(self, case: &CaseSpec) -> bool {
        match self {
            Pair::SerialVsReplay
            | Pair::FaultsZeroVsOff
            | Pair::OracleSelf
            | Pair::ResumedVsUninterrupted => true,
            Pair::AdaptiveVsFixed => matches!(case.policy, ModePolicy::Adaptive { .. }),
            Pair::SimVsAnalytic => {
                case.analytic.is_some() && matches!(case.policy, ModePolicy::Fixed(_))
            }
        }
    }
}

/// Runs every applicable pair; returns how many applied.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_case(case: &CaseSpec) -> Result<usize, Divergence> {
    let mut applied = 0;
    for pair in Pair::all() {
        if pair.applies(case) {
            applied += 1;
            check_pair(case, pair)?;
        }
    }
    Ok(applied)
}

/// Runs one pair against `case`.
///
/// # Errors
///
/// Returns the divergence, with the pair and first differing observable.
pub fn check_pair(case: &CaseSpec, pair: Pair) -> Result<(), Divergence> {
    let fail = |detail: String| Err(Divergence { pair, detail });
    match pair {
        Pair::SerialVsReplay => check_serial_vs_replay(case).or_else(fail),
        Pair::SimVsAnalytic => check_sim_vs_analytic(case).or_else(fail),
        Pair::FaultsZeroVsOff => check_faults_zero_vs_off(case).or_else(fail),
        Pair::AdaptiveVsFixed => check_adaptive_vs_fixed(case).or_else(fail),
        Pair::OracleSelf => check_oracle_self(case).or_else(fail),
        Pair::ResumedVsUninterrupted => check_resumed_vs_uninterrupted(case).or_else(fail),
    }
}

/// Freeze/thaw the runner through its checkpoint frame at one-third and
/// two-thirds of the script (and once at the end), exactly as a
/// twice-crashed, twice-resumed run would, and demand its final frame
/// match one uninterrupted run's byte for byte.
fn check_resumed_vs_uninterrupted(case: &CaseSpec) -> Result<(), String> {
    let final_frame = |cuts: &[usize]| -> Result<Vec<u8>, String> {
        let mut sys = System::new(case.config()).map_err(|e| e.to_string())?;
        sys.set_tracing(true);
        let mut runner = Runner::framed(sys);
        for &cut in cuts {
            runner.run(&case.ops[..cut], None, None)?;
            runner = Runner::decode(runner.encode()?)?;
        }
        runner.run(&case.ops, None, None)?;
        runner.audit(&case.ops)?;
        Ok(runner.encode()?.to_vec())
    };
    let n = case.ops.len();
    let clean = final_frame(&[])?;
    let resumed = final_frame(&[n / 3, 2 * n / 3, n])?;
    if resumed == clean {
        return Ok(());
    }
    let (clean, resumed) = (Runner::decode(&clean)?, Runner::decode(&resumed)?);
    let accumulators = |r: &Runner| {
        [
            ("ops", r.ops_done()),
            ("reads", r.reads()),
            ("writes", r.writes()),
            ("reads checksum", r.reads_checksum()),
            ("events", r.events()),
            ("trace checksum", r.trace_checksum().unwrap_or_default()),
        ]
    };
    for ((name, a), (_, b)) in accumulators(&clean).into_iter().zip(accumulators(&resumed)) {
        if a != b {
            return Err(format!(
                "final frame {name}: uninterrupted={a}, resumed={b}"
            ));
        }
    }
    let machine = |r: Runner| snapshot(&mut r.into_system(), &case.ops, Vec::new());
    diff_outcomes(
        &machine(clean),
        &machine(resumed),
        "uninterrupted",
        "resumed",
    )?;
    Err("the final frames' machine payloads differ in state no observable shows".into())
}

fn check_serial_vs_replay(case: &CaseSpec) -> Result<(), String> {
    let trace = tracecheck::capture(case.config(), |sys| apply_script(sys, &case.ops))?;
    tracecheck::check(&trace).map(|_| ())
}

fn check_faults_zero_vs_off(case: &CaseSpec) -> Result<(), String> {
    let plain = run_serial(case.config(), &case.ops, true)?;
    let zero_plan = case
        .config()
        .faults(FaultSpec::new(case.fault_seed).count(0));
    let with_plan = run_serial(zero_plan, &case.ops, true)?;
    diff_outcomes(&plain, &with_plan, "faults-off", "zero-plan")
}

/// Adaptive traffic may exceed the best fixed mode while its windows
/// learn, but never by more than this factor plus slack. Calibrated over
/// 4000 generated adaptive cases: the worst observed excess beyond
/// `2 × best` was ≈ 20k bits (short scripts never amortize the learning
/// window, so the absolute slack dominates on tiny cases).
const ADAPTIVE_FACTOR: f64 = 2.0;
/// Absolute slack for scripts too short to amortize learning.
const ADAPTIVE_SLACK_BITS: u64 = 64_000;

fn check_adaptive_vs_fixed(case: &CaseSpec) -> Result<(), String> {
    let adaptive = run_serial(case.config(), &case.ops, false)?;
    let dw = run_serial(
        case.config_with_policy(ModePolicy::Fixed(Mode::DistributedWrite)),
        &case.ops,
        false,
    )?;
    let gr = run_serial(
        case.config_with_policy(ModePolicy::Fixed(Mode::GlobalRead)),
        &case.ops,
        false,
    )?;
    // Value conformance is exact: mode choices never change what a read
    // returns under sequential consistency.
    if adaptive.read_values != dw.read_values {
        return Err("adaptive and fixed-DW runs disagree on a read value".into());
    }
    if adaptive.read_values != gr.read_values {
        return Err("adaptive and fixed-GR runs disagree on a read value".into());
    }
    if adaptive.memory != dw.memory || adaptive.memory != gr.memory {
        return Err("adaptive and fixed runs disagree on the final memory image".into());
    }
    // Cost bound: adaptive rides within a constant factor of the best
    // fixed mode (the §5 claim, loosened for unamortized short scripts).
    let best = dw.total_bits.min(gr.total_bits);
    let bound = (best as f64 * ADAPTIVE_FACTOR) as u64 + ADAPTIVE_SLACK_BITS;
    if adaptive.total_bits > bound {
        return Err(format!(
            "adaptive traffic {} bits exceeds {}x best-fixed ({} bits) + slack",
            adaptive.total_bits, ADAPTIVE_FACTOR, best
        ));
    }
    Ok(())
}

fn check_oracle_self(case: &CaseSpec) -> Result<(), String> {
    let cfg = case.config();
    let mut runner = Runner::new(System::new(cfg.clone()).map_err(|e| e.to_string())?);
    runner.run(&case.ops, None, None)?;
    runner.audit(&case.ops)?;
    // Same case twice must be bit-identical (no hidden global state).
    let a = run_serial(cfg.clone(), &case.ops, true)?;
    let b = run_serial(cfg, &case.ops, true)?;
    diff_outcomes(&a, &b, "run-1", "run-2")
}

/// Band the measured steady-state cost must share with the closed form.
/// Calibrated on an `N × n × w × scheme` grid: with the remote-read and
/// update-multicast costs computed in the simulator's own message sizing,
/// every observed measured/predicted ratio falls in `[0.92, 1.04]`; the
/// band adds margin for short, shrunk probes.
const ANALYTIC_BAND_LO: f64 = 0.8;
/// Upper edge of the measured/predicted band.
const ANALYTIC_BAND_HI: f64 = 1.25;
/// Ranking is only checked this far from the *size-corrected* crossover
/// (where eq. 11 with the real update multicast cost meets eq. 12 with
/// real request/datum costs). The paper's `w₁ = 2/(n+2)` assumes one
/// uniform message size `M` and sits up to ~0.15 of write fraction above
/// the real-size crossover, so guarding around `w₁` itself would either
/// mask the band near the true flip or fire spuriously between the two
/// thresholds (see `tests/analytic_crossover.rs`, which brackets both).
const RANKING_GUARD: f64 = 0.08;

fn check_sim_vs_analytic(case: &CaseSpec) -> Result<(), String> {
    let probe = match case.analytic {
        Some(p) => p,
        None => return Ok(()),
    };
    let n = probe.n_tasks.max(2);
    let big_n = case.n_caches;
    let sizing = MsgSizing::default();

    // Steady-state measurement under both fixed modes, default geometry
    // (capacity misses would void the model's assumptions).
    let trace = SharedBlockWorkload::new(n, 2 * n as u64, probe.w)
        .references(probe.warmup + probe.refs)
        .placement(Placement::Adjacent { base: 0 })
        .generate(big_n, &mut SimRng::seed_from(case.seed ^ 0xA11A));
    let script = from_trace(&trace);
    let measure = |mode: Mode| -> Result<f64, String> {
        let cfg = SystemConfig::new(big_n)
            .multicast(case.scheme)
            .mode_policy(ModePolicy::Fixed(mode));
        let mut sys = System::new(cfg).map_err(|e| e.to_string())?;
        let mut base = 0u64;
        for (i, op) in script.iter().enumerate() {
            if i == probe.warmup {
                base = sys.traffic().total_bits();
            }
            apply(&mut sys, op).map_err(|e| e.to_string())?;
        }
        Ok((sys.traffic().total_bits() - base) as f64 / probe.refs as f64)
    };
    let measured_dw = measure(Mode::DistributedWrite)?;
    let measured_gr = measure(Mode::GlobalRead)?;

    // Predictions use the *realized* write fraction of the measured window,
    // not the nominal probe w: the workload draws writes i.i.d., so at
    // w = 0.05 the write count over 4000 refs varies ±7% at one sigma, and
    // rare seeds would drift a correct engine out of any band tight enough
    // to catch real regressions. The model is about cost per operation mix,
    // so feed it the mix the trace actually contains.
    let writes = trace
        .iter()
        .skip(probe.warmup)
        .filter(|r| matches!(r.op, Op::Write))
        .count();
    let w_emp = writes as f64 / probe.refs as f64;

    // Closed-form predictions in the simulator's own message sizing.
    let net = Omega::with_ports(big_n).map_err(|e| e.to_string())?;
    let mut cc4_sum = 0u64;
    for writer in 0..n {
        let dests = DestSet::from_ports(big_n, (0..n).filter(|&p| p != writer))
            .map_err(|e| e.to_string())?;
        cc4_sum += net
            .multicast_cost(case.scheme, &dests, sizing.update_bits())
            .map_err(|e| e.to_string())?;
    }
    let cc4 = cc4_sum as f64 / n as f64;
    let predicted_dw = w_emp * cc4;
    let single = |bits: u64| -> Result<f64, String> {
        let dests = DestSet::from_ports(big_n, [1usize]).map_err(|e| e.to_string())?;
        Ok(net
            .multicast_cost(tmc_omeganet::SchemeKind::Replicated, &dests, bits)
            .map_err(|e| e.to_string())? as f64)
    };
    let remote_read = single(sizing.request_bits())? + single(sizing.datum_bits())?;
    let remote_fraction = (n - 1) as f64 / n as f64;
    let predicted_gr = (1.0 - w_emp) * remote_fraction * remote_read;

    let in_band = |measured: f64, predicted: f64| {
        predicted <= 0.0
            || (measured >= predicted * ANALYTIC_BAND_LO
                && measured <= predicted * ANALYTIC_BAND_HI)
    };
    if !in_band(measured_dw, predicted_dw) {
        return Err(format!(
            "DW bits/ref: measured {measured_dw:.1}, eq. 11 predicts {predicted_dw:.1} \
             (band [{ANALYTIC_BAND_LO}, {ANALYTIC_BAND_HI}]x, n={n}, N={big_n}, w={} \
             realized {w_emp:.3})",
            probe.w
        ));
    }
    if !in_band(measured_gr, predicted_gr) {
        return Err(format!(
            "GR bits/ref: measured {measured_gr:.1}, eq. 12 predicts {predicted_gr:.1} \
             (band [{ANALYTIC_BAND_LO}, {ANALYTIC_BAND_HI}]x, n={n}, N={big_n}, w={} \
             realized {w_emp:.3})",
            probe.w
        ));
    }

    // The sharp check: away from the crossover, the simulated mode ranking
    // must match the analytic prediction. The flip point used is the
    // size-corrected crossover of eq. 11 vs eq. 12 (the paper's
    // uniform-M `w1 = 2/(n+2)` is recovered when all message sizes are
    // equal — pinned separately in `tests/analytic_crossover.rs`).
    let q = remote_fraction * remote_read / cc4;
    let w_star = q / (1.0 + q);
    if (probe.w - w_star).abs() >= RANKING_GUARD {
        let model_prefers_dw = probe.w < w_star;
        let sim_prefers_dw = measured_dw < measured_gr;
        if model_prefers_dw != sim_prefers_dw {
            return Err(format!(
                "mode ranking: w={} vs corrected crossover {w_star:.3} (uniform-M w1 = 2/(n+2) \
                 = {:.3}): analytic prefers {}, simulator measures dw={measured_dw:.1} \
                 gr={measured_gr:.1} bits/ref",
                probe.w,
                2.0 / (n as f64 + 2.0),
                if model_prefers_dw { "DW" } else { "GR" },
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_case;

    #[test]
    fn pair_names_roundtrip() {
        for p in Pair::all() {
            assert_eq!(Pair::parse(p.name()), Some(p));
        }
        assert_eq!(Pair::parse("nonsense"), None);
    }

    #[test]
    fn oracle_and_replay_pairs_apply_everywhere() {
        let case = generate_case(1);
        assert!(Pair::OracleSelf.applies(&case));
        assert!(Pair::SerialVsReplay.applies(&case));
        assert!(Pair::FaultsZeroVsOff.applies(&case));
        assert!(Pair::ResumedVsUninterrupted.applies(&case));
    }

    #[test]
    fn resumed_pair_passes_on_generated_cases() {
        for seed in [2, 5, 19] {
            let case = generate_case(seed);
            check_pair(&case, Pair::ResumedVsUninterrupted)
                .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }

    #[test]
    fn a_small_case_passes_all_pairs() {
        let case = generate_case(11);
        let applied = check_case(&case).unwrap_or_else(|d| panic!("{d}"));
        assert!(applied >= 3, "expected several applicable pairs");
    }
}
