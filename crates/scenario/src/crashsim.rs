//! `tmc crashsim`: kill a journaled run at an arbitrary op, restart,
//! resume from the journal, and prove the resumed run **bit-identical** to
//! an uninterrupted one.
//!
//! ```text
//! tmc crashsim [--smoke]
//! ```
//!
//! Each campaign is a [`Scenario`] — 8 processors, a shared-block
//! workload, a live fault plan on odd seeds — run through the one
//! journaled-run driver, [`run_journaled`]/[`resume_journaled`]: every
//! read is checked against the sequential-consistency oracle, and a runner
//! frame (accumulators, oracle image and the [`tmc_core::encode_system`]
//! machine payload) is appended to the journal every 60 ops. For every
//! kill point the run is aborted mid-script — exactly what `kill -9`
//! leaves behind, since the journal is atomically rewritten per frame —
//! then resumed from its newest intact frame, which must sit on the
//! checkpoint grid, driven to completion and audited. Its final frame
//! ([`JournalOutcome::frame`](crate::journal::JournalOutcome::frame))
//! must equal the uninterrupted reference's byte for byte, which pins five
//! observables among the rest:
//!
//! * the protocol fingerprint,
//! * every named counter,
//! * every nonzero per-link charge,
//! * the memory image,
//! * the FNV checksum of the canonical JSONL trace.
//!
//! A corruption sweep then damages the last killed journal on disk — bit
//! flips in the newest frame, truncation at arbitrary byte offsets,
//! garbage headers — and demands recovery fall back to the newest *intact*
//! frame (never panicking, never trusting a corrupt byte) and still
//! converge to the same final frame.
//!
//! The default run covers 16 seeds; `--smoke` is the CI-sized version
//! (8 seeds x 4 kill points). Campaigns cycle through all four §3
//! multicast schemes and all three mode policies, and odd seeds carry a
//! live fault plan, so resume is exercised mid-outage and mid-backoff.

use std::path::Path;

use tmc_bench::args::{Args, CliError};
use tmc_core::{recover_journal, Mode, ModePolicy};
use tmc_omeganet::SchemeKind;
use tmc_workload::Placement;

use crate::journal::{resume_journaled, run_journaled, JournalOptions};
use crate::spec::{Family, Faults, Scenario, Workload};

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

/// The campaign of `seed`: `refs` shared-block references on the default
/// 8-processor machine, with the seed's scheme and policy, and a fault
/// plan when the seed is odd.
fn campaign_scenario(seed: u64, refs: usize) -> Scenario {
    let mut sc = Scenario::new(&format!("crashsim-{seed}"));
    sc.machine.n_caches = 8;
    sc.machine.scheme = SCHEMES[seed as usize % SCHEMES.len()];
    sc.machine.policy = POLICIES[seed as usize % POLICIES.len()];
    sc.workload = Some(Workload {
        seed: seed ^ 0x5eed,
        tasks: 4,
        blocks: 16,
        write_fraction: 0.35,
        references: refs,
        placement: Placement::Adjacent { base: 0 },
        ..Workload::new(Family::SharedBlock)
    });
    if seed % 2 == 1 {
        sc.faults = Some(Faults {
            seed: seed ^ 0xc4a5,
            count: 8,
            horizon: 300,
            mean_outage: 40,
            ..Faults::default()
        });
    }
    sc
}

/// Resumes the journal at `path`, runs to the end and returns the final
/// frame; the frame it resumed from must lie on the checkpoint grid.
fn resume(sc: &Scenario, path: &Path) -> Result<Vec<u8>, String> {
    let report = resume_journaled(sc, &JournalOptions::new(path, CHECKPOINT_EVERY))?;
    let at = report.resumed_at.unwrap_or_default();
    if !at.is_multiple_of(CHECKPOINT_EVERY) {
        return Err(format!("frame at op {at} is off the checkpoint grid"));
    }
    let outcome = report.outcome.ok_or("the resumed run did not finish")?;
    Ok(outcome.frame)
}

/// One seed: uninterrupted reference, then kill + resume at every kill
/// point, then the corruption sweep on the last killed journal.
fn campaign(seed: u64, dir: &Path, refs: usize, kill_points: &[u64]) -> Result<(), String> {
    let sc = campaign_scenario(seed, refs);
    let clean_path = dir.join(format!("clean-{seed}.journal"));
    let clean = run_journaled(&sc, &JournalOptions::new(clean_path, CHECKPOINT_EVERY))?
        .outcome
        .ok_or("the uninterrupted run did not finish")?
        .frame;

    let victim = dir.join(format!("victim-{seed}.journal"));
    let mut pristine = Vec::new();
    for &kill_at in kill_points {
        let path = dir.join(format!("kill-{seed}-{kill_at}.journal"));
        let opts = JournalOptions::new(&path, CHECKPOINT_EVERY).kill_at(kill_at);
        if run_journaled(&sc, &opts)?.outcome.is_some() {
            return Err(format!(
                "seed {seed}: kill at {kill_at} did not stop the run"
            ));
        }
        // The resume rewrites the journal, so the sweep keeps the bytes
        // the kill left.
        pristine = std::fs::read(&path).map_err(|e| e.to_string())?;
        if resume(&sc, &path)? != clean {
            return Err(format!(
                "seed {seed}: resume after kill at op {kill_at} diverged"
            ));
        }
    }

    // Corruption sweep on the last killed journal: bit flips in the tail
    // frame, truncations, and a garbage header. Each is judged against what
    // the pristine killed journal recovers: a flip must be reported as
    // damage, a cut must lose frames or be reported.
    let n = pristine.len();
    if n == 0 {
        return Err("no kill points".into());
    }
    std::fs::write(&victim, &pristine).map_err(|e| e.to_string())?;
    let intact = recover_journal(&victim).map_err(|e| format!("pristine journal: {e}"))?;
    if let Some(damage) = intact.damage {
        return Err(format!(
            "seed {seed}: the pristine journal reports {damage}"
        ));
    }
    for (what, flip, bytes) in [
        ("bit flip near the tail", true, {
            let mut b = pristine.clone();
            // The newest frame's last payload byte: its checksum is the
            // final 8 bytes.
            b[n - 9] ^= 0x01;
            b
        }),
        ("bit flip mid-frame", true, {
            let mut b = pristine.clone();
            b[n / 2] ^= 0x80;
            b
        }),
        ("truncated mid-frame", false, pristine[..n - n / 3].to_vec()),
        (
            "truncated to a frame header",
            false,
            pristine[..16].to_vec(),
        ),
    ] {
        std::fs::write(&victim, &bytes).map_err(|e| e.to_string())?;
        let recovery = recover_journal(&victim).map_err(|e| format!("{what}: {e}"))?;
        let detected =
            recovery.damage.is_some() || (!flip && recovery.frames.len() < intact.frames.len());
        if !detected {
            return Err(format!("seed {seed}: {what}: damage not detected"));
        }
        if recovery.last().is_some() && resume(&sc, &victim)? != clean {
            return Err(format!(
                "seed {seed}: {what}: resume from damaged journal diverged"
            ));
        }
    }
    std::fs::write(&victim, b"garbage, not a journal").map_err(|e| e.to_string())?;
    if recover_journal(&victim).is_ok() {
        return Err(format!(
            "seed {seed}: garbage header was salvaged, not rejected"
        ));
    }
    Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use tmc_bench::script::from_trace;
    use tmc_core::{FaultSpec, SystemConfig};
    use tmc_simcore::SimRng;
    use tmc_workload::SharedBlockWorkload;

    use crate::ops::materialize;

    /// The campaign scenario builds the machine and script the campaign
    /// ran before it was a scenario: `SystemConfig::new(8)` with the seed's
    /// scheme and policy (plus the fault plan on odd seeds), and 4 tasks
    /// on 16 shared blocks at w = 0.35, seeded `seed ^ 0x5eed`.
    #[test]
    fn campaign_scenario_is_the_old_campaign() {
        let script = |seed: u64| {
            from_trace(
                &SharedBlockWorkload::new(4, 16, 0.35)
                    .references(600)
                    .placement(Placement::Adjacent { base: 0 })
                    .generate(8, &mut SimRng::seed_from(seed ^ 0x5eed)),
            )
        };

        let even = campaign_scenario(4, 600);
        let want = SystemConfig::new(8)
            .multicast(SchemeKind::Replicated)
            .mode_policy(ModePolicy::Fixed(Mode::GlobalRead));
        assert_eq!(even.config(), want);
        assert_eq!(materialize(&even), script(4));

        let odd = campaign_scenario(5, 600);
        let want = SystemConfig::new(8)
            .multicast(SchemeKind::BitVector)
            .mode_policy(ModePolicy::Adaptive { window: 8 })
            .faults(
                FaultSpec::new(5 ^ 0xc4a5)
                    .count(8)
                    .horizon(300)
                    .mean_outage(40),
            );
        assert_eq!(odd.config(), want);
        assert_eq!(materialize(&odd), script(5));
        assert_eq!(materialize(&odd).len(), 600);
    }
}
