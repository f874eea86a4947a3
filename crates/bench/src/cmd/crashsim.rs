//! `tmc crashsim`: kill a journaled run at an arbitrary op, restart,
//! resume from the journal, and prove the resumed run **bit-identical** to
//! an uninterrupted one.
//!
//! ```text
//! tmc crashsim [--smoke]
//! ```
//!
//! Each campaign drives a seeded workload through a framed
//! [`Runner`], so every read is checked against the sequential-consistency
//! oracle, with a runner frame (accumulators, oracle image and the
//! [`tmc_core::encode_system`] machine payload) appended to a [`Journal`]
//! periodically. For every kill point the run is aborted mid-script —
//! exactly what `kill -9` leaves behind, since the journal is atomically
//! rewritten per frame — then recovered ([`tmc_core::recover_journal`]),
//! thawed ([`Runner::decode`]), driven to completion and audited. Its
//! final frame must equal the uninterrupted reference's byte for byte,
//! which pins five observables among the rest:
//!
//! * the protocol fingerprint,
//! * every named counter,
//! * every nonzero per-link charge,
//! * the memory image,
//! * the FNV checksum of the canonical JSONL trace.
//!
//! A corruption sweep then damages the journal on disk — bit flips in
//! the newest frame, truncation at arbitrary byte offsets, garbage
//! headers — and demands recovery fall back to the newest *intact*
//! frame (never panicking, never trusting a corrupt byte) and still
//! converge to the same final frame.
//!
//! The default run covers 16 seeds; `--smoke` is the CI-sized version
//! (8 seeds x 4 kill points). Campaigns cycle through all four §3
//! multicast schemes and all three mode policies, and odd seeds carry a
//! live fault plan, so resume is exercised mid-outage and mid-backoff.

use std::path::{Path, PathBuf};

use tmc_core::{recover_journal, FaultSpec, Journal, Mode, ModePolicy, System, SystemConfig};
use tmc_omeganet::SchemeKind;
use tmc_simcore::SimRng;
use tmc_workload::{Placement, SharedBlockWorkload};

use crate::args::{ensure, Args, CliError};
use crate::script::{from_trace, Runner, ScriptOp};

const N_PROCS: usize = 8;
const CHECKPOINT_EVERY: u64 = 60;

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

/// A fresh run journaled to `path`, its op-0 frame already written.
fn start(cfg: &SystemConfig, path: &Path) -> Result<(Runner, Journal), String> {
    let mut journal = Journal::create(path).map_err(|e| e.to_string())?;
    let mut sys = System::new(cfg.clone()).map_err(|e| e.to_string())?;
    sys.set_tracing(true);
    let mut runner = Runner::framed(sys);
    journal
        .append(runner.encode()?)
        .map_err(|e| e.to_string())?;
    Ok((runner, journal))
}

/// Drives `runner` to the end of `script`, checkpointing every
/// [`CHECKPOINT_EVERY`] ops, audits it, and returns its final frame.
fn finish(
    mut runner: Runner,
    script: &[ScriptOp],
    journal: &mut Journal,
) -> Result<Vec<u8>, String> {
    runner.run(script, None, Some((journal, CHECKPOINT_EVERY)))?;
    runner.audit(script)?;
    Ok(runner.encode()?.to_vec())
}

/// Resumes from the newest intact frame of `path` and runs to the end.
fn resume(path: &Path, script: &[ScriptOp]) -> Result<Vec<u8>, String> {
    let recovery = recover_journal(path).map_err(|e| e.to_string())?;
    let newest = recovery
        .last()
        .ok_or("no frame survives, not even the op-0 frame")?;
    let runner = Runner::decode(newest)?;
    ensure(runner.ops_done().is_multiple_of(CHECKPOINT_EVERY), || {
        format!(
            "frame at op {} is off the checkpoint grid",
            runner.ops_done()
        )
    })?;
    let mut journal = Journal::create(path.with_extension("resumed")).map_err(|e| e.to_string())?;
    finish(runner, script, &mut journal)
}

fn campaign_config(seed: u64) -> SystemConfig {
    let scheme = SCHEMES[seed as usize % SCHEMES.len()];
    let policy = POLICIES[seed as usize % POLICIES.len()];
    let cfg = SystemConfig::new(N_PROCS)
        .multicast(scheme)
        .mode_policy(policy);
    if seed % 2 == 1 {
        cfg.faults(
            FaultSpec::new(seed ^ 0xc4a5)
                .count(8)
                .horizon(300)
                .mean_outage(40),
        )
    } else {
        cfg
    }
}

fn campaign_script(seed: u64, refs: usize) -> Vec<ScriptOp> {
    let trace = SharedBlockWorkload::new(4, 16, 0.35)
        .references(refs)
        .placement(Placement::Adjacent { base: 0 })
        .generate(N_PROCS, &mut SimRng::seed_from(seed ^ 0x5eed));
    from_trace(&trace)
}

/// One seed: uninterrupted reference, then kill + resume at every kill
/// point, then the corruption sweep on the last killed journal.
fn campaign(seed: u64, dir: &Path, refs: usize, kill_points: &[u64]) -> Result<(), String> {
    let cfg = campaign_config(seed);
    let script = campaign_script(seed, refs);

    let (runner, mut journal) = start(&cfg, &dir.join(format!("clean-{seed}.journal")))?;
    let clean = finish(runner, &script, &mut journal)?;

    let mut last_killed: Option<PathBuf> = None;
    for &kill_at in kill_points {
        let path = dir.join(format!("kill-{seed}-{kill_at}.journal"));
        let (mut runner, mut journal) = start(&cfg, &path)?;
        let done = runner.run(
            &script,
            Some(kill_at),
            Some((&mut journal, CHECKPOINT_EVERY)),
        )?;
        ensure(!done, || {
            format!("seed {seed}: kill at {kill_at} did not stop the run")
        })?;
        ensure(resume(&path, &script)? == clean, || {
            format!("seed {seed}: resume after kill at op {kill_at} diverged")
        })?;
        last_killed = Some(path);
    }

    // Corruption sweep on the last killed journal: bit flips in the tail
    // frame, truncations, and a garbage header.
    let victim = last_killed.ok_or("no kill points")?;
    let pristine = std::fs::read(&victim).map_err(|e| e.to_string())?;
    let n = pristine.len();
    for (what, bytes) in [
        ("bit flip near the tail", {
            let mut b = pristine.clone();
            b[n - 9] ^= 0x01; // inside the newest frame's checksum
            b
        }),
        ("bit flip mid-frame", {
            let mut b = pristine.clone();
            b[n / 2] ^= 0x80;
            b
        }),
        ("truncated mid-frame", pristine[..n - n / 3].to_vec()),
        ("truncated to a frame header", pristine[..16].to_vec()),
    ] {
        std::fs::write(&victim, &bytes).map_err(|e| e.to_string())?;
        let recovery = recover_journal(&victim).map_err(|e| format!("{what}: {e}"))?;
        ensure(
            recovery.damage.is_some()
                || recovery.frames.len() < 1 + (refs as u64 / CHECKPOINT_EVERY) as usize,
            || format!("seed {seed}: {what}: damage not detected"),
        )?;
        if recovery.last().is_some() {
            ensure(resume(&victim, &script)? == clean, || {
                format!("seed {seed}: {what}: resume from damaged journal diverged")
            })?;
        }
    }
    std::fs::write(&victim, b"garbage, not a journal").map_err(|e| e.to_string())?;
    ensure(recover_journal(&victim).is_err(), || {
        format!("seed {seed}: garbage header was salvaged, not rejected")
    })
}

/// Runs `tmc crashsim`.
///
/// # Errors
///
/// A usage error for any argument but `--smoke`; a failure for the first
/// resume that diverges or damage that goes undetected.
pub fn run(mut args: Args) -> Result<(), CliError> {
    let smoke = args.flag("--smoke");
    args.finish()?;
    let (seeds, refs) = if smoke {
        (8u64, 600usize)
    } else {
        (16u64, 1_200usize)
    };
    let kill_points: Vec<u64> = [
        1,
        CHECKPOINT_EVERY - 1,
        CHECKPOINT_EVERY + 1,
        (refs as u64 * 5) / 6,
    ]
    .to_vec();

    let dir = std::env::temp_dir().join(format!("tmc-crashsim-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let outcome = (0..seeds).try_for_each(|seed| {
        campaign(seed, &dir, refs, &kill_points)?;
        println!(
            "seed {seed:>2}: {} kill points resumed bit-identically, corruption sweep ok",
            kill_points.len()
        );
        Ok::<(), String>(())
    });
    let _ = std::fs::remove_dir_all(&dir);
    outcome?;

    println!(
        "crashsim: OK — {seeds} campaigns x {} kill points, every resume bit-identical \
         (fingerprint, counters, per-link charges, memory digest, JSONL trace), \
         every corruption detected",
        kill_points.len()
    );
    Ok(())
}
