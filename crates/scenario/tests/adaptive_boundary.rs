//! Adaptive-policy boundary behavior at the conformance level: switch
//! storms must drive adaptive switches and replay from their capture, and the
//! adaptive-vs-fixed divergence the pair *tolerates* must actually
//! exist — otherwise the pair's documentation would be describing a
//! phantom.

use tmc_bench::script::{apply_script, ScriptOp};
use tmc_bench::tracecheck;
use tmc_core::{Mode, ModePolicy};
use tmc_memsys::WordAddr;
use tmc_scenario::outcome::run_serial;
use tmc_scenario::{check_pair, Faults, Machine, Pair, Scenario};

/// A switch storm: every processor hammers a handful of blocks with a
/// write-heavy mix under a tiny adaptive window, maximizing mid-stream
/// mode churn, plus explicit §2.2 directives layered on top.
fn storm_case(seed: u64) -> Scenario {
    let mut ops = Vec::new();
    for i in 0..240u64 {
        let proc = (i % 8) as usize;
        let addr = WordAddr::new((i * 5) % 24);
        match i % 6 {
            0 | 1 => ops.push(ScriptOp::Write {
                proc,
                addr,
                value: i + 1,
            }),
            5 => ops.push(ScriptOp::SetMode {
                proc,
                addr,
                mode: if i % 12 == 5 {
                    Mode::GlobalRead
                } else {
                    Mode::DistributedWrite
                },
            }),
            _ => ops.push(ScriptOp::Read { proc, addr }),
        }
    }
    let mut sc = Scenario::new("switch-storm");
    sc.seed = seed;
    sc.machine = Machine {
        n_caches: 8,
        sets: 4,
        ways: 2,
        words_log2: 2,
        scheme: tmc_omeganet::SchemeKind::Combined,
        policy: ModePolicy::Adaptive { window: 4 },
        owner_bypass: true,
    };
    sc.faults = Some(Faults {
        seed,
        count: 0,
        ..Faults::default()
    });
    sc.ops = ops;
    sc
}

/// The storm drives adaptive switches mid-run on the serial engine, and
/// its JSONL capture replays with every obligation while windows close
/// between directives.
#[test]
fn switch_storm_drives_adaptive_switches_and_replays() {
    let case = storm_case(77);
    let cfg = case.machine.config();
    let serial = run_serial(cfg.clone(), &case.ops, false).expect("serial run");
    let switches = serial.counters.get("adaptive_switches").copied();
    assert!(
        switches.unwrap_or(0) > 0,
        "the storm must actually drive adaptive switches"
    );
    let jsonl = tracecheck::capture(cfg, |sys| apply_script(sys, &case.ops)).expect("capturable");
    tracecheck::check(&jsonl).expect("the storm's capture replays");
}

/// The divergence `adaptive-vs-fixed` documents as *expected* is real:
/// there are cases where the adaptive run's fingerprint and traffic
/// differ from both fixed modes while the pair (checking read values and
/// the cost bound) still passes. If this test ever fails because no
/// divergence exists, the pair could be tightened to full bit-identity.
#[test]
fn adaptive_vs_fixed_divergence_is_real_and_tolerated() {
    let case = storm_case(78);
    check_pair(&case, Pair::AdaptiveVsFixed).expect("the pair's contract holds");

    let run = |policy| {
        let cfg = Machine {
            policy,
            ..case.machine
        }
        .config();
        run_serial(cfg, &case.ops, false)
    };
    let adaptive = run(case.machine.policy).expect("adaptive");
    let dw = run(ModePolicy::Fixed(Mode::DistributedWrite)).expect("fixed DW");
    let gr = run(ModePolicy::Fixed(Mode::GlobalRead)).expect("fixed GR");
    assert_eq!(
        adaptive.read_values, dw.read_values,
        "values are contractual"
    );
    assert_eq!(
        adaptive.read_values, gr.read_values,
        "values are contractual"
    );
    assert_ne!(
        adaptive.fingerprint, dw.fingerprint,
        "adaptive protocol state should diverge from fixed DW"
    );
    assert_ne!(
        adaptive.fingerprint, gr.fingerprint,
        "adaptive protocol state should diverge from fixed GR"
    );
    assert!(
        adaptive.total_bits != dw.total_bits || adaptive.total_bits != gr.total_bits,
        "adaptive traffic should differ from at least one fixed mode"
    );
}
