//! `tmc crashsim`: kill a journaled run at an arbitrary op, restart,
//! resume from the journal, and prove the resumed run **bit-identical** to
//! an uninterrupted one.
//!
//! ```text
//! tmc crashsim [--smoke]
//! ```
//!
//! Each campaign drives a seeded workload through the serial engine with
//! periodic whole-machine checkpoints ([`tmc_core::encode_system`])
//! framed into a [`Journal`]. For every kill point the run is aborted
//! mid-script — exactly what `kill -9` leaves behind, since the journal
//! is atomically rewritten per frame — then recovered
//! ([`tmc_core::recover_journal`]), thawed
//! ([`tmc_core::decode_system`]), and driven to completion. Five
//! observables must match the uninterrupted reference bit for bit:
//!
//! * the protocol fingerprint,
//! * every named counter,
//! * every nonzero per-link charge,
//! * the memory image digest,
//! * the FNV checksum of the canonical JSONL trace.
//!
//! A corruption sweep then damages the journal on disk — bit flips in
//! the newest frame, truncation at arbitrary byte offsets, garbage
//! headers — and demands recovery fall back to the newest *intact*
//! frame (never panicking, never trusting a corrupt byte) and still
//! converge to the same five observables.
//!
//! The default run covers 16 seeds; `--smoke` is the CI-sized version
//! (8 seeds x 4 kill points). Campaigns cycle through all four §3
//! multicast schemes and all three mode policies, and odd seeds carry a
//! live fault plan, so resume is exercised mid-outage and mid-backoff.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use tmc_core::{
    decode_system, encode_system, memory_digest, recover_journal, FaultSpec, Journal, Mode,
    ModePolicy, System, SystemConfig,
};
use tmc_obs::jsonl::encode_event_into;
use tmc_obs::LinkCharge;
use tmc_omeganet::SchemeKind;
use tmc_simcore::SimRng;
use tmc_workload::{Placement, SharedBlockWorkload};

use crate::args::{ensure, Args, CliError};
use crate::shardsim::{script_from_trace, ShardOp};
use crate::tracecheck::nonzero_links;

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

/// FNV-1a 64-bit offset basis (streaming start state).
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The five observables a resumed run must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Observables {
    fingerprint: Vec<u8>,
    counters: BTreeMap<&'static str, u64>,
    links: Vec<LinkCharge>,
    memory: u64,
    trace: u64,
    events: u64,
}

/// Live run state; exactly what one journal frame freezes.
struct Runner {
    sys: System,
    ops_done: u64,
    events: u64,
    trace_fnv: u64,
    /// The line buffer `drain` encodes each event into.
    line: Vec<u8>,
}

impl Runner {
    fn fresh(cfg: &SystemConfig) -> Runner {
        let mut sys = System::new(cfg.clone()).expect("valid campaign config");
        sys.set_tracing(true);
        Runner {
            sys,
            ops_done: 0,
            events: 0,
            trace_fnv: FNV_BASIS,
            line: Vec::new(),
        }
    }

    fn drain(&mut self) {
        for e in self.sys.drain_trace() {
            self.events += 1;
            self.line.clear();
            encode_event_into(&mut self.line, &e);
            self.line.push(b'\n');
            self.trace_fnv = fnv_fold(self.trace_fnv, &self.line);
        }
    }

    fn frame(&mut self) -> Vec<u8> {
        self.drain();
        let mut buf = Vec::new();
        buf.extend_from_slice(&self.ops_done.to_le_bytes());
        buf.extend_from_slice(&self.events.to_le_bytes());
        buf.extend_from_slice(&self.trace_fnv.to_le_bytes());
        let sys = encode_system(&self.sys).expect("campaign machine snapshots cleanly");
        buf.extend_from_slice(&(sys.len() as u64).to_le_bytes());
        buf.extend_from_slice(&sys);
        buf
    }

    fn thaw(frame: &[u8]) -> Result<Runner, String> {
        let u64_at = |at: usize| -> Result<u64, String> {
            frame
                .get(at..at + 8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .ok_or_else(|| format!("frame truncated at byte {at}"))
        };
        let ops_done = u64_at(0)?;
        let events = u64_at(8)?;
        let trace_fnv = u64_at(16)?;
        let sys_len = u64_at(24)? as usize;
        let sys_bytes = frame
            .get(32..32 + sys_len)
            .ok_or_else(|| format!("frame claims {sys_len} machine bytes, has fewer"))?;
        let mut sys = decode_system(sys_bytes).map_err(|e| e.to_string())?;
        sys.set_tracing(true);
        Ok(Runner {
            sys,
            ops_done,
            events,
            trace_fnv,
            line: Vec::new(),
        })
    }

    fn observe(&mut self) -> Observables {
        self.drain();
        Observables {
            fingerprint: self.sys.protocol_fingerprint(),
            counters: self.sys.counters().iter().collect(),
            links: nonzero_links(self.sys.traffic()),
            memory: memory_digest(&self.sys),
            trace: self.trace_fnv,
            events: self.events,
        }
    }
}

/// Drives `script[runner.ops_done..]`, checkpointing every
/// [`CHECKPOINT_EVERY`] ops; stops early after `kill_at` ops when given.
/// Returns the final observables, or `None` if killed.
fn drive(
    mut runner: Runner,
    script: &[ShardOp],
    journal: &mut Journal,
    kill_at: Option<u64>,
) -> Result<Option<Observables>, String> {
    while (runner.ops_done as usize) < script.len() {
        match script[runner.ops_done as usize] {
            ShardOp::Read { proc, addr } => {
                let _ = runner.sys.read(proc, addr).expect("valid proc");
            }
            ShardOp::Write { proc, addr, value } => {
                runner.sys.write(proc, addr, value).expect("valid proc");
            }
            ShardOp::SetMode { proc, addr, mode } => {
                runner.sys.set_mode(proc, addr, mode).expect("valid proc");
            }
        }
        runner.ops_done += 1;
        if runner.ops_done.is_multiple_of(CHECKPOINT_EVERY) {
            let frame = runner.frame();
            journal.append(&frame).map_err(|e| e.to_string())?;
        }
        if kill_at == Some(runner.ops_done) {
            return Ok(None);
        }
    }
    Ok(Some(runner.observe()))
}

/// A fresh run journaled to `path`, its op-0 frame already written.
fn start(cfg: &SystemConfig, path: &Path) -> Result<(Runner, Journal), String> {
    let mut journal = Journal::create(path).map_err(|e| e.to_string())?;
    let mut runner = Runner::fresh(cfg);
    journal.append(&runner.frame()).map_err(|e| e.to_string())?;
    Ok((runner, journal))
}

/// Resumes from the newest intact frame of `path` and runs to the end.
fn resume(path: &Path, script: &[ShardOp]) -> Result<Observables, String> {
    let recovery = recover_journal(path).map_err(|e| e.to_string())?;
    let newest = recovery
        .last()
        .ok_or("no frame survives, not even the op-0 frame")?;
    let runner = Runner::thaw(newest)?;
    ensure(runner.ops_done.is_multiple_of(CHECKPOINT_EVERY), || {
        format!("frame at op {} is off the checkpoint grid", runner.ops_done)
    })?;
    let mut journal = Journal::create(path.with_extension("resumed")).map_err(|e| e.to_string())?;
    drive(runner, script, &mut journal, None)?.ok_or_else(|| "resumed run stopped early".into())
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

fn campaign_script(seed: u64, refs: usize) -> Vec<ShardOp> {
    let trace = SharedBlockWorkload::new(4, 16, 0.35)
        .references(refs)
        .placement(Placement::Adjacent { base: 0 })
        .generate(N_PROCS, &mut SimRng::seed_from(seed ^ 0x5eed));
    script_from_trace(&trace)
}

/// One seed: uninterrupted reference, then kill + resume at every kill
/// point, then the corruption sweep on the last killed journal.
fn campaign(seed: u64, dir: &Path, refs: usize, kill_points: &[u64]) -> Result<(), String> {
    let cfg = campaign_config(seed);
    let script = campaign_script(seed, refs);

    let (runner, mut journal) = start(&cfg, &dir.join(format!("clean-{seed}.journal")))?;
    let clean =
        drive(runner, &script, &mut journal, None)?.ok_or("the uninterrupted run stopped early")?;

    let mut last_killed: Option<PathBuf> = None;
    for &kill_at in kill_points {
        let path = dir.join(format!("kill-{seed}-{kill_at}.journal"));
        let (runner, mut journal) = start(&cfg, &path)?;
        let killed = drive(runner, &script, &mut journal, Some(kill_at))?;
        ensure(killed.is_none(), || {
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
