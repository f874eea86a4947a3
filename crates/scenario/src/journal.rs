//! Journaled scenario runs: periodic whole-machine checkpoints, crash
//! injection, and bit-identical resume. This is the one journaled-run
//! driver: `tmc scenario run --checkpoint-every/--kill-at/--resume` and
//! `tmc crashsim` ([`crate::crashsim`]) both run through it.
//!
//! A journaled run steps the same script as [`crate::run::run_scenario`]
//! through a framed [`Runner`]: every `every` ops the runner freezes
//! itself into one frame — its accumulators, the oracle image and the
//! complete machine (protocol state, memory image, fault machinery, RNG
//! streams) — and appends it to an atomically-rewritten [`Journal`]. A
//! crash ([`JournalOptions::kill_at`]: the run stops as a killed process
//! would, leaving only its journal) loses at most the work since the last
//! frame; [`resume_journaled`] salvages the longest valid frame prefix,
//! thaws the runner, and replays the remaining script. The resumed run is
//! **bit-identical** to an uninterrupted one: its final runner frame
//! ([`JournalOutcome::frame`]) equals the uninterrupted run's byte for
//! byte, so the same [`ScenarioOutcome`], memory digest and JSONL trace
//! checksum follow, and the oracle keeps auditing every read after the
//! resume. The frame layout is documented in [`tmc_bench::script`].

use std::path::PathBuf;

use tmc_bench::script::Runner;
use tmc_core::{memory_digest, recover_journal, Journal};

use crate::ops::materialize;
use crate::run::{finish, traced_system, ScenarioOutcome};
use crate::spec::Scenario;

/// How to drive a journaled run.
#[derive(Debug, Clone)]
pub struct JournalOptions {
    /// Journal file to create (fresh runs) or continue (resumes).
    pub path: PathBuf,
    /// Checkpoint cadence on the op clock; `0` writes only the initial
    /// frame.
    pub every: u64,
    /// Crash injection: stop abruptly once this many ops are done (no
    /// final checks, no outcome — exactly what a killed process leaves
    /// behind).
    pub kill_at: Option<u64>,
}

impl JournalOptions {
    /// Checkpoint to `path` every `every` ops.
    pub fn new(path: impl Into<PathBuf>, every: u64) -> Self {
        JournalOptions {
            path: path.into(),
            every,
            kill_at: None,
        }
    }

    /// Kill the run after `op` ops.
    #[must_use]
    pub fn kill_at(mut self, op: u64) -> Self {
        self.kill_at = Some(op);
        self
    }
}

/// The extra observables a completed journaled run pins beyond
/// [`ScenarioOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalOutcome {
    /// The condensed observables, identical to a plain serial run.
    pub outcome: ScenarioOutcome,
    /// FNV-1a over the canonical JSONL line of every protocol event, in
    /// op order — the whole trace, one word.
    pub trace_checksum: u64,
    /// Digest of the final memory image (written footprint).
    pub memory_digest: u64,
    /// The final runner frame, encoded after the end-of-run audit: a
    /// resumed run must reproduce it byte for byte.
    pub frame: Vec<u8>,
}

/// What a journaled run left behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalReport {
    /// Completed outcome; `None` when crash injection killed the run.
    pub outcome: Option<JournalOutcome>,
    /// Ops executed by the time the run stopped.
    pub ops_done: u64,
    /// Frames in the journal when the run stopped.
    pub frames: usize,
    /// Op clock of the frame this run resumed from (resumes only).
    pub resumed_at: Option<u64>,
    /// Tail damage dropped during recovery, if any (resumes only).
    pub damage: Option<String>,
}

/// Runs the scenario from the top, journaling to `opts.path`.
///
/// The journal always gets an op-0 frame before the first op, so a crash
/// at *any* point — even before the first periodic checkpoint — leaves a
/// resumable journal behind.
///
/// # Errors
///
/// Returns a message on configuration rejection, oracle mismatch,
/// invariant violation, snapshot failure, or journal I/O failure.
pub fn run_journaled(sc: &Scenario, opts: &JournalOptions) -> Result<JournalReport, String> {
    let mut journal = Journal::create(&opts.path).map_err(|e| e.to_string())?;
    let mut runner = Runner::framed(traced_system(sc)?);
    journal
        .append(runner.encode()?)
        .map_err(|e| e.to_string())?;
    drive(sc, runner, &mut journal, opts, None, None)
}

/// Resumes from the newest intact frame of `opts.path` and runs the rest
/// of the script (journaling onward at the same cadence).
///
/// Damaged journal tails (torn write, truncation, bit corruption) are
/// dropped, reported in [`JournalReport::damage`], and the journal is
/// rewritten with only the valid prefix — recovery never panics and
/// never trusts a corrupt frame.
///
/// # Errors
///
/// Returns a message when the journal is unreadable, has no intact
/// frame, or disagrees with the scenario (more ops done than the script
/// has).
pub fn resume_journaled(sc: &Scenario, opts: &JournalOptions) -> Result<JournalReport, String> {
    let recovery = recover_journal(&opts.path).map_err(|e| e.to_string())?;
    let damage = recovery.damage.as_ref().map(ToString::to_string);
    let Some(newest) = recovery.last() else {
        return Err(format!(
            "journal {} has no intact frame to resume from{}",
            opts.path.display(),
            damage.map_or_else(String::new, |d| format!(" ({d})")),
        ));
    };
    let runner = Runner::decode(newest)?;
    // Rewrite the journal as its valid prefix: damage is dropped exactly
    // once, at recovery, and the resumed run appends to a clean file.
    let mut journal = Journal::create(&opts.path).map_err(|e| e.to_string())?;
    for frame in &recovery.frames {
        journal.append(frame).map_err(|e| e.to_string())?;
    }
    let resumed_at = runner.ops_done();
    drive(sc, runner, &mut journal, opts, Some(resumed_at), damage)
}

/// Steps `ops[runner.ops_done()..]`, checkpointing and (optionally)
/// dying on the way, and audits the run on completion.
fn drive(
    sc: &Scenario,
    mut runner: Runner,
    journal: &mut Journal,
    opts: &JournalOptions,
    resumed_at: Option<u64>,
    damage: Option<String>,
) -> Result<JournalReport, String> {
    let ops = materialize(sc);
    let done = runner.run(&ops, opts.kill_at, Some((&mut *journal, opts.every)))?;
    let outcome = if done {
        let outcome = finish(&mut runner, &ops)?;
        Some(JournalOutcome {
            outcome,
            trace_checksum: runner
                .trace_checksum()
                .expect("a journaled runner is framed"),
            memory_digest: memory_digest(runner.sys()),
            frame: runner.encode()?.to_vec(),
        })
    } else {
        None
    };
    Ok(JournalReport {
        outcome,
        ops_done: runner.ops_done(),
        frames: journal.frames(),
        resumed_at,
        damage,
    })
}

/// The checkpoint cadence a scenario asks for: the CLI override wins,
/// then the `[checkpoint]` section, then `0` (initial frame only).
pub fn cadence_for(sc: &Scenario, cli_every: Option<u64>) -> u64 {
    cli_every.unwrap_or_else(|| sc.checkpoint.map_or(0, |c| c.every))
}

/// Default journal path for a scenario: `<name>.journal` next to nothing
/// in particular — the current directory.
pub fn default_journal_path(sc: &Scenario) -> PathBuf {
    PathBuf::from(format!("{}.journal", sc.name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_scenario;
    use crate::spec::{Family, Faults, Workload};
    use std::path::Path;

    /// Runs `sc` uninterrupted and again killed at `kill_at` and resumed,
    /// and demands the resumed run's final frame equal the uninterrupted
    /// one's byte for byte.
    fn prove_crash_equivalence(
        sc: &Scenario,
        dir: &Path,
        every: u64,
        kill_at: u64,
    ) -> Result<(), String> {
        let opts = |name: &str| JournalOptions::new(dir.join(format!("{}-{name}", sc.name)), every);
        let clean = run_journaled(sc, &opts("clean.journal"))?
            .outcome
            .ok_or("uninterrupted run produced no outcome")?;
        let crash = opts("crash.journal");
        if run_journaled(sc, &crash.clone().kill_at(kill_at))?
            .outcome
            .is_some()
        {
            return Err(format!("kill at op {kill_at} did not stop the run"));
        }
        let resumed = resume_journaled(sc, &crash)?;
        let at = resumed.resumed_at;
        let resumed = resumed.outcome.ok_or("resumed run produced no outcome")?;
        if resumed == clean {
            return Ok(());
        }
        let observables =
            |o: &JournalOutcome| (o.outcome.clone(), o.trace_checksum, o.memory_digest);
        Err(format!(
            "killed at {kill_at}, resumed at {at:?}: same frame {}; resumed {:#?} != clean {:#?}",
            resumed.frame == clean.frame,
            observables(&resumed),
            observables(&clean)
        ))
    }

    fn small(faulty: bool) -> Scenario {
        let mut sc = Scenario::new(if faulty {
            "journal-faulty"
        } else {
            "journal-unit"
        });
        sc.machine.n_caches = 8;
        sc.machine.sets = 8;
        let mut w = Workload::new(Family::SharedBlock);
        w.tasks = 4;
        w.references = 240;
        sc.workload = Some(w);
        if faulty {
            sc.faults = Some(Faults {
                seed: 7,
                count: 8,
                horizon: 200,
                mean_outage: 20,
                max_retries: 3,
                backoff_base: 8,
            });
        }
        sc
    }

    #[test]
    fn journaled_run_matches_plain_run() {
        let dir = std::env::temp_dir().join("tmc-journal-match");
        std::fs::create_dir_all(&dir).unwrap();
        for faulty in [false, true] {
            let sc = small(faulty);
            let plain = run_scenario(&sc).unwrap();
            let path = dir.join(format!("match-{faulty}.journal"));
            let journaled = run_journaled(&sc, &JournalOptions::new(path, 50)).unwrap();
            assert_eq!(journaled.outcome.unwrap().outcome, plain, "faulty={faulty}");
            // op-0 frame + one every 50 ops
            assert_eq!(journaled.frames, 1 + 240 / 50);
        }
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let dir = std::env::temp_dir().join("tmc-journal-crash");
        std::fs::create_dir_all(&dir).unwrap();
        // Kill points straddling checkpoint boundaries and at the last
        // op, fault-free and faulty machines both.
        for faulty in [false, true] {
            let sc = small(faulty);
            for kill_at in [1, 49, 50, 51, 120, 239, 240] {
                prove_crash_equivalence(&sc, &dir, 50, kill_at)
                    .unwrap_or_else(|e| panic!("faulty={faulty} kill_at={kill_at}: {e}"));
            }
        }
    }

    #[test]
    fn resume_survives_a_damaged_tail() {
        let dir = std::env::temp_dir().join("tmc-journal-damage");
        std::fs::create_dir_all(&dir).unwrap();
        let sc = small(false);
        let path = dir.join("damaged.journal");
        let killed = run_journaled(&sc, &JournalOptions::new(&path, 40).kill_at(130)).unwrap();
        assert!(killed.outcome.is_none());
        // Corrupt one byte inside the newest frame's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 100] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let clean = run_journaled(
            &sc,
            &JournalOptions::new(dir.join("damage-ref.journal"), 40),
        )
        .unwrap();
        let resumed = resume_journaled(&sc, &JournalOptions::new(&path, 40)).unwrap();
        assert!(resumed.damage.is_some(), "tail damage must be reported");
        // Resume fell back to an *earlier* frame, yet the outcome is
        // still bit-identical.
        assert!(resumed.resumed_at.unwrap() < 120);
        assert_eq!(resumed.outcome, clean.outcome);
    }

    #[test]
    fn resume_refuses_an_empty_or_alien_journal() {
        let dir = std::env::temp_dir().join("tmc-journal-refuse");
        std::fs::create_dir_all(&dir).unwrap();
        let sc = small(false);
        let path = dir.join("alien.journal");
        std::fs::write(&path, b"not a journal at all").unwrap();
        let e = resume_journaled(&sc, &JournalOptions::new(&path, 0)).unwrap_err();
        assert!(e.contains("magic") || e.contains("journal"), "{e}");
    }

    #[test]
    fn cadence_prefers_cli_then_section() {
        let mut sc = small(false);
        assert_eq!(cadence_for(&sc, None), 0);
        sc.checkpoint = Some(crate::spec::Checkpoint { every: 77 });
        assert_eq!(cadence_for(&sc, None), 77);
        assert_eq!(cadence_for(&sc, Some(5)), 5);
    }
}
