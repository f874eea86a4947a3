//! `tmc chaos`: seeded fault-injection campaigns over the two-mode
//! protocol engine, with correctness checked the whole way through.
//!
//! ```text
//! tmc chaos [--smoke]
//! ```
//!
//! Each campaign builds a [`System`] with a deterministic
//! [`tmc_core::FaultSpec`] plan — link outages, cache stalls, message
//! drops/duplicates/delays, bit flips, multicast NACKs — and drives a
//! seeded read/write workload across it. Every read is checked against a
//! software oracle, [`System::check_invariants`] runs at every quiescent
//! point (no outage active, no block degraded, no cache quarantined) and
//! again at the end, and the final memory image is compared to the oracle
//! word-for-word. Campaigns cycle through all four §3 multicast schemes
//! and all three mode policies, so recovery is exercised under every
//! protocol variant.
//!
//! The default run covers 12 seeds × 12 scheduled faults = 144 injected
//! faults; `--smoke` is the CI-sized version (4 seeds × 8 faults). Any
//! stale read, invariant violation, unfired fault, or unhealed
//! degradation stops the run as a failed check.

use tmc_core::{FaultSpec, Mode, ModePolicy, System, SystemConfig};
use tmc_memsys::WordAddr;
use tmc_omeganet::SchemeKind;
use tmc_simcore::SimRng;

use crate::args::{ensure, Args, CliError};
use crate::script::{Runner, ScriptOp};
use crate::tracecheck::{policy_str, scheme_kind_str};
use crate::Table;

const N_PROCS: usize = 8;
const WORDS: u64 = 48;

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

struct CampaignOutcome {
    injected: u64,
    retries: u64,
    recoveries: u64,
    degradations: u64,
    quiescent_checks: u64,
    crash_thaws: u64,
}

/// Runs one seeded campaign and verifies it end to end.
///
/// Fails on any stale read, invariant violation, unfired fault, or
/// unhealed degradation — chaos runs treat every deviation as fatal.
fn campaign(
    seed: u64,
    scheme: SchemeKind,
    policy: ModePolicy,
    faults: u64,
    horizon: u64,
    ops: usize,
) -> Result<CampaignOutcome, String> {
    let spec = FaultSpec::new(seed)
        .count(faults as usize)
        .horizon(horizon)
        .mean_outage(40);
    let cfg = SystemConfig::new(N_PROCS)
        .multicast(scheme)
        .mode_policy(policy)
        .faults(spec);
    let sys = System::new(cfg).map_err(|e| format!("seed {seed}: {e}"))?;
    let mut runner = Runner::framed(sys);

    let mut rng = SimRng::seed_from(seed ^ 0xc4a0_5eed);
    let script: Vec<ScriptOp> = (0..ops)
        .map(|_| {
            let proc = rng.gen_range(0..N_PROCS);
            let addr = WordAddr::new(rng.gen_range(0..WORDS));
            if rng.gen_bool(0.4) {
                let value = rng.next_u64();
                ScriptOp::Write { proc, addr, value }
            } else {
                ScriptOp::Read { proc, addr }
            }
        })
        .collect();
    let mut quiescent_checks = 0u64;
    let mut crash_thaws = 0u64;
    for (i, op) in script.iter().enumerate() {
        runner.step(op).map_err(|e| format!("seed {seed}: {e}"))?;
        if runner.sys().faults_quiescent() {
            runner
                .sys()
                .check_invariants()
                .map_err(|v| format!("seed {seed}: invariant at quiescent op {i}: {v}"))?;
            quiescent_checks += 1;
        }
        if i + 1 == ops / 3 || i + 1 == 2 * ops / 3 {
            // Crash sweep: freeze the runner (machine and oracle) through
            // its checkpoint frame and carry on from the thawed copy —
            // mid-outage, mid-plan, mid-adaptive-window. The rest of the
            // campaign (oracle reads, invariants, plan drain, final audit)
            // then proves the resumed machine indistinguishable from the
            // original.
            let frame = runner
                .encode()
                .map_err(|e| format!("seed {seed}: snapshot at op {i}: {e}"))?;
            runner =
                Runner::decode(frame).map_err(|e| format!("seed {seed}: thaw at op {i}: {e}"))?;
            crash_thaws += 1;
        }
    }

    let sys = runner.sys();
    ensure(sys.faults_injected() == faults, || {
        format!(
            "seed {seed}: {} of {faults} planned faults fired",
            sys.faults_injected()
        )
    })?;
    ensure(sys.faults_pending() == 0, || {
        format!("seed {seed}: plan not drained")
    })?;
    ensure(sys.faults_quiescent(), || {
        format!("seed {seed}: a fault is still unhealed at the end of the campaign")
    })?;
    runner
        .audit(&script)
        .map_err(|e| format!("seed {seed}: at the end of the campaign: {e}"))?;

    let c = runner.sys().counters();
    Ok(CampaignOutcome {
        injected: c.get("faults_injected"),
        retries: c.get("fault_retries"),
        recoveries: c.get("fault_recoveries"),
        degradations: c.get("fault_degraded_blocks") + c.get("fault_quarantined_caches"),
        quiescent_checks,
        crash_thaws,
    })
}

/// Runs `tmc chaos`.
///
/// # Errors
///
/// A usage error for any argument but `--smoke`; a failure for the first
/// campaign that deviates.
pub fn run(mut args: Args) -> Result<(), CliError> {
    let smoke = args.flag("--smoke");
    args.finish()?;
    let (seeds, faults_per, horizon, ops) = if smoke {
        (4u64, 8u64, 300u64, 800usize)
    } else {
        (12u64, 12u64, 900u64, 2_400usize)
    };

    let mut t = Table::new(vec![
        "seed".into(),
        "scheme".into(),
        "policy".into(),
        "injected".into(),
        "retries".into(),
        "recovered".into(),
        "degraded".into(),
        "quiescent checks".into(),
        "crash thaws".into(),
    ]);
    let mut total = CampaignOutcome {
        injected: 0,
        retries: 0,
        recoveries: 0,
        degradations: 0,
        quiescent_checks: 0,
        crash_thaws: 0,
    };
    for seed in 0..seeds {
        let scheme = SCHEMES[seed as usize % SCHEMES.len()];
        let policy = POLICIES[seed as usize % POLICIES.len()];
        let o = campaign(seed, scheme, policy, faults_per, horizon, ops)?;
        t.row(vec![
            seed.to_string(),
            scheme_kind_str(scheme).into(),
            policy_str(policy),
            o.injected.to_string(),
            o.retries.to_string(),
            o.recoveries.to_string(),
            o.degradations.to_string(),
            o.quiescent_checks.to_string(),
            o.crash_thaws.to_string(),
        ]);
        total.injected += o.injected;
        total.retries += o.retries;
        total.recoveries += o.recoveries;
        total.degradations += o.degradations;
        total.quiescent_checks += o.quiescent_checks;
        total.crash_thaws += o.crash_thaws;
    }
    t.print(if smoke {
        "chaos campaigns (smoke)"
    } else {
        "chaos campaigns"
    });

    ensure(total.injected == seeds * faults_per, || {
        "a campaign did not drain its plan".into()
    })?;
    ensure(total.quiescent_checks > 0, || {
        "invariants were never checked at a quiescent point".into()
    })?;
    ensure(total.recoveries <= total.degradations, || {
        "more recoveries than degradations".into()
    })?;
    ensure(total.crash_thaws == seeds * 2, || {
        "a campaign did not crash-thaw twice mid-plan".into()
    })?;
    println!(
        "chaos: OK — {} campaigns, {} faults injected, {} retries, {}/{} degradations healed, \
         {} invariant checks, {} crash thaws",
        seeds,
        total.injected,
        total.retries,
        total.recoveries,
        total.degradations,
        total.quiescent_checks,
        total.crash_thaws,
    );
    Ok(())
}
