//! Journaled scenario runs: periodic whole-machine checkpoints, crash
//! injection, and bit-identical resume.
//!
//! A journaled run drives the same serial engine as
//! [`crate::run::run_scenario`], but every `every` ops it freezes the
//! complete machine — protocol state, memory image, fault machinery, RNG
//! streams — through [`encode_system_into`], into buffers the runner
//! keeps, and appends the frame to an atomically-rewritten [`Journal`]. A
//! crash (simulated here by [`JournalOptions::kill_at`], real in the
//! `crashsim` harness by killing the process) loses at most the work
//! since the last frame;
//! [`resume_journaled`] salvages the longest valid frame prefix, rebuilds
//! the machine, and replays the remaining script. The resumed run is
//! **bit-identical** to an uninterrupted one: same [`ScenarioOutcome`],
//! same memory digest, same JSONL trace checksum.
//!
//! On top of the machine snapshot, each frame carries the runner's own
//! accumulators (ops done, read/write counts, streaming FNV states for
//! the reads checksum and the JSONL trace) and the sequential-consistency
//! oracle image, so the oracle keeps auditing every read after a resume.

use std::path::{Path, PathBuf};

use tmc_bench::shardsim::ShardOp;
use tmc_core::snapshot::encode_system_into;
use tmc_core::{decode_system, memory_digest, recover_journal, Journal, System};
use tmc_memsys::{ReferenceMemory, WordAddr};
use tmc_obs::jsonl::{encode_event_into, fnv1a64};

use crate::ops::materialize;
use crate::run::{counters_of, link_checksum, ScenarioOutcome};
use crate::spec::Scenario;
use tmc_bench::tracecheck::nonzero_links;

/// FNV-1a 64-bit offset basis — the empty-input state of the streaming
/// checksums, chosen so a finished stream equals
/// [`fnv1a64`] over the concatenated bytes.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Version tag of the runner frame layout (wraps the machine snapshot).
const FRAME_VERSION: u32 = 1;

fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// How to drive a journaled run.
#[derive(Debug, Clone)]
pub struct JournalOptions {
    /// Journal file to create (fresh runs) or continue (resumes).
    pub path: PathBuf,
    /// Checkpoint cadence on the op clock; `0` writes only the initial
    /// frame.
    pub every: u64,
    /// Crash injection: stop abruptly after this many ops (no final
    /// checks, no outcome — exactly what a killed process leaves behind).
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

/// The live state a frame freezes: the machine plus the runner's own
/// accumulators.
struct RunnerState {
    sys: System,
    oracle: ReferenceMemory,
    ops_done: u64,
    reads: u64,
    writes: u64,
    /// Streaming FNV over every read's returned value, op order.
    reads_fnv: u64,
    /// Protocol events drained so far.
    events: u64,
    /// Streaming FNV over each event's JSONL line + `\n`.
    trace_fnv: u64,
    /// The line buffer `drain` encodes each event into.
    line: Vec<u8>,
    /// The machine snapshot and the whole frame, reused from checkpoint
    /// to checkpoint.
    payload: Vec<u8>,
    frame: Vec<u8>,
}

impl RunnerState {
    fn fresh(sc: &Scenario) -> Result<RunnerState, String> {
        let mut sys = System::new(sc.config()).map_err(|e| e.to_string())?;
        sys.set_tracing(true);
        Ok(RunnerState {
            sys,
            oracle: ReferenceMemory::new(),
            ops_done: 0,
            reads: 0,
            writes: 0,
            reads_fnv: FNV_BASIS,
            events: 0,
            trace_fnv: FNV_BASIS,
            line: Vec::new(),
            payload: Vec::new(),
            frame: Vec::new(),
        })
    }

    /// Folds the tracer's pending events into the streaming accumulators
    /// (the machine snapshot requires a drained tracer).
    fn drain(&mut self) {
        for e in self.sys.drain_trace() {
            self.events += 1;
            self.line.clear();
            encode_event_into(&mut self.line, &e);
            self.line.push(b'\n');
            self.trace_fnv = fnv_fold(self.trace_fnv, &self.line);
        }
    }

    /// One checkpoint frame: runner accumulators, oracle image, machine
    /// snapshot.
    fn encode(&mut self) -> Result<&[u8], String> {
        self.drain();
        encode_system_into(&self.sys, &mut self.payload).map_err(|e| e.to_string())?;
        let buf = &mut self.frame;
        buf.clear();
        buf.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        for v in [
            self.ops_done,
            self.reads,
            self.writes,
            self.reads_fnv,
            self.events,
            self.trace_fnv,
        ] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let mut words: Vec<(u64, u64)> = self.oracle.iter().map(|(a, v)| (a.value(), v)).collect();
        words.sort_unstable();
        buf.extend_from_slice(&(words.len() as u64).to_le_bytes());
        for (a, v) in words {
            buf.extend_from_slice(&a.to_le_bytes());
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&self.payload);
        Ok(buf)
    }

    /// The inverse of [`RunnerState::encode`]; validates every length.
    fn decode(bytes: &[u8]) -> Result<RunnerState, String> {
        let mut r = FrameReader { bytes, pos: 0 };
        let version = r.u32()?;
        if version != FRAME_VERSION {
            return Err(format!("unsupported frame version {version}"));
        }
        let ops_done = r.u64()?;
        let reads = r.u64()?;
        let writes = r.u64()?;
        let reads_fnv = r.u64()?;
        let events = r.u64()?;
        let trace_fnv = r.u64()?;
        let n_words = r.u64()?;
        if n_words > (bytes.len() as u64) / 16 + 1 {
            return Err(format!("oracle word count {n_words} exceeds frame size"));
        }
        let mut oracle = ReferenceMemory::new();
        for _ in 0..n_words {
            let a = r.u64()?;
            let v = r.u64()?;
            oracle.write(WordAddr::new(a), v);
        }
        let sys_len = r.u64()? as usize;
        let sys_bytes = r.take(sys_len)?;
        let mut sys = decode_system(sys_bytes).map_err(|e| e.to_string())?;
        sys.set_tracing(true);
        r.finish()?;
        Ok(RunnerState {
            sys,
            oracle,
            ops_done,
            reads,
            writes,
            reads_fnv,
            events,
            trace_fnv,
            line: Vec::new(),
            payload: Vec::new(),
            frame: Vec::new(),
        })
    }
}

struct FrameReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err(format!("frame truncated at byte {}", self.pos));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(&self) -> Result<(), String> {
        if self.pos != self.bytes.len() {
            return Err(format!(
                "{} trailing bytes after frame payload",
                self.bytes.len() - self.pos
            ));
        }
        Ok(())
    }
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
    let mut state = RunnerState::fresh(sc)?;
    journal.append(state.encode()?).map_err(|e| e.to_string())?;
    drive(sc, state, &mut journal, opts, None, None)
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
    let state = RunnerState::decode(newest)?;
    // Rewrite the journal as its valid prefix: damage is dropped exactly
    // once, at recovery, and the resumed run appends to a clean file.
    let mut journal = Journal::create(&opts.path).map_err(|e| e.to_string())?;
    for frame in &recovery.frames {
        journal.append(frame).map_err(|e| e.to_string())?;
    }
    let resumed_at = state.ops_done;
    drive(sc, state, &mut journal, opts, Some(resumed_at), damage)
}

/// The shared op loop: applies `ops[state.ops_done..]`, checkpointing and
/// (optionally) dying on the way, and runs the full end-of-run audit on
/// completion.
fn drive(
    sc: &Scenario,
    mut state: RunnerState,
    journal: &mut Journal,
    opts: &JournalOptions,
    resumed_at: Option<u64>,
    damage: Option<String>,
) -> Result<JournalReport, String> {
    let ops = materialize(sc);
    let total = ops.len() as u64;
    if state.ops_done > total {
        return Err(format!(
            "journal is ahead of the scenario: frame at op {} but the script has {total} ops",
            state.ops_done
        ));
    }
    while state.ops_done < total {
        let i = state.ops_done as usize;
        match ops[i] {
            ShardOp::Read { proc, addr } => {
                let got = state.sys.read(proc, addr).map_err(|e| e.to_string())?;
                let want = state.oracle.read(addr);
                if got != want {
                    return Err(format!(
                        "op #{i}: P{proc} read {} = {got}, oracle says {want}",
                        addr.value()
                    ));
                }
                state.reads += 1;
                state.reads_fnv = fnv_fold(state.reads_fnv, &got.to_le_bytes());
            }
            ShardOp::Write { proc, addr, value } => {
                state
                    .sys
                    .write(proc, addr, value)
                    .map_err(|e| e.to_string())?;
                state.oracle.write(addr, value);
                state.writes += 1;
            }
            ShardOp::SetMode { proc, addr, mode } => {
                state
                    .sys
                    .set_mode(proc, addr, mode)
                    .map_err(|e| e.to_string())?;
            }
        }
        state.ops_done += 1;
        if opts.every > 0 && state.ops_done.is_multiple_of(opts.every) {
            journal.append(state.encode()?).map_err(|e| e.to_string())?;
        }
        if opts.kill_at == Some(state.ops_done) {
            return Ok(JournalReport {
                outcome: None,
                ops_done: state.ops_done,
                frames: journal.frames(),
                resumed_at,
                damage,
            });
        }
    }

    if state.sys.faults_quiescent() {
        state.sys.check_invariants().map_err(|e| e.to_string())?;
    }
    for (word, want) in state.oracle.iter() {
        let got = state.sys.peek_word(word);
        if got != want {
            return Err(format!(
                "final memory word {}: system has {got}, oracle has {want}",
                word.value()
            ));
        }
    }
    state.drain();
    let outcome = ScenarioOutcome {
        ops: total,
        reads: state.reads,
        writes: state.writes,
        events: state.events,
        fingerprint: fnv1a64(&state.sys.protocol_fingerprint()),
        total_bits: state.sys.traffic().total_bits(),
        link_checksum: link_checksum(&nonzero_links(state.sys.traffic())),
        reads_checksum: state.reads_fnv,
        counters: counters_of(&state.sys),
    };
    Ok(JournalReport {
        outcome: Some(JournalOutcome {
            outcome,
            trace_checksum: state.trace_fnv,
            memory_digest: memory_digest(&state.sys),
        }),
        ops_done: total,
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

/// Runs `sc` uninterrupted and again with a kill + resume at `kill_at`,
/// and proves the two bit-identical. The workhorse of the crash-recovery
/// harness and the conformance pair.
///
/// # Errors
///
/// Returns a message naming the first diverging observable.
pub fn prove_crash_equivalence(
    sc: &Scenario,
    dir: &Path,
    every: u64,
    kill_at: u64,
) -> Result<JournalOutcome, String> {
    let clean_path = dir.join(format!("{}-clean.journal", sc.name));
    let crash_path = dir.join(format!("{}-crash.journal", sc.name));

    let clean = run_journaled(sc, &JournalOptions::new(&clean_path, every))?;
    let clean = clean
        .outcome
        .ok_or_else(|| "uninterrupted run produced no outcome".to_string())?;

    let killed = run_journaled(
        sc,
        &JournalOptions::new(&crash_path, every).kill_at(kill_at),
    )?;
    if killed.outcome.is_some() {
        return Err(format!("kill at op {kill_at} did not stop the run"));
    }
    let resumed = resume_journaled(sc, &JournalOptions::new(&crash_path, every))?;
    let at = resumed.resumed_at;
    let resumed = resumed
        .outcome
        .ok_or_else(|| "resumed run produced no outcome".to_string())?;

    if resumed != clean {
        return Err(format!(
            "resumed run diverged from uninterrupted (killed at {kill_at}, resumed at {at:?}): \
             resumed {resumed:#?} != clean {clean:#?}"
        ));
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_scenario;
    use crate::spec::{Family, Faults, Workload};

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
        let sc = small(false);
        let plain = run_scenario(&sc).unwrap();
        let journaled =
            run_journaled(&sc, &JournalOptions::new(dir.join("match.journal"), 50)).unwrap();
        assert_eq!(journaled.outcome.unwrap().outcome, plain);
        // op-0 frame + one every 50 ops
        assert_eq!(journaled.frames, 1 + 240 / 50);
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let dir = std::env::temp_dir().join("tmc-journal-crash");
        std::fs::create_dir_all(&dir).unwrap();
        // Kill points straddling checkpoint boundaries, fault-free and
        // faulty machines both.
        for faulty in [false, true] {
            let sc = small(faulty);
            for kill_at in [1, 49, 50, 51, 120, 239] {
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
