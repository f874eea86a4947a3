//! Op scripts and the one oracle-checked runner every command shares.
//!
//! A script is a list of [`ScriptOp`]s with every operand precomputed:
//! the issuing processor, the word address and, for writes, the value.
//! [`apply`] is the only place a script op becomes a
//! [`System::read`]/[`System::write`]/[`System::set_mode`] call. [`Runner`]
//! drives a script through a machine next to the sequential-consistency
//! oracle ([`ReferenceMemory`]) and owns what every caller needs:
//! the per-read oracle check, the end-of-run audit, the running
//! observables, and the checkpoint frame a journal stores.
//!
//! # Runner frame
//!
//! A frame is what [`Runner::encode`] writes and [`Runner::decode`] reads
//! back, all integers little-endian:
//!
//! ```text
//! frame  := version=1:u32 ops reads writes reads_fnv events trace_fnv
//!           n:u64 (addr:u64 value:u64){n} len:u64 machine[len]
//! ```
//!
//! The six accumulators are `u64`s, the oracle image is every written word
//! in ascending address order, and `machine` is the
//! [`tmc_core::encode_system`] payload. The decoder accepts exactly the
//! bytes the encoder writes, so a decoded frame encodes back to itself.
//!
//! # Example
//!
//! ```
//! use tmc_bench::script::{from_trace, Runner};
//! use tmc_core::{System, SystemConfig};
//! use tmc_simcore::SimRng;
//! use tmc_workload::SharedBlockWorkload;
//!
//! let trace = SharedBlockWorkload::new(2, 8, 0.3)
//!     .references(200)
//!     .generate(4, &mut SimRng::seed_from(9));
//! let script = from_trace(&trace);
//! let mut runner = Runner::framed(System::new(SystemConfig::new(4)).unwrap());
//! assert!(!runner.run(&script, Some(100), None).unwrap());
//! let frame = runner.encode().unwrap().to_vec();
//! let mut resumed = Runner::decode(&frame).unwrap();
//! assert!(resumed.run(&script, None, None).unwrap());
//! resumed.audit(&script).unwrap();
//! assert_eq!(resumed.ops_done(), 200);
//! ```

use tmc_core::snapshot::encode_system_into;
use tmc_core::{decode_system, CoreError, Journal, Mode, System, SystemConfig};
use tmc_memsys::{BlockAddr, ReferenceMemory, WordAddr};
use tmc_obs::jsonl::{encode_event_into, fnv1a64_fold, FNV1A64_OFFSET};
use tmc_workload::{Op, Trace};

/// Version tag of the runner frame layout (wraps the machine payload).
const FRAME_VERSION: u32 = 1;

/// One scripted reference with every operand precomputed — the issuing
/// processor, the word address, and (for writes) the value — so a run
/// resumed from any frame replays it without seeing the ops before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptOp {
    /// Processor `proc` reads `addr`.
    Read {
        /// Issuing processor.
        proc: usize,
        /// Word address.
        addr: WordAddr,
    },
    /// Processor `proc` writes `value` to `addr`.
    Write {
        /// Issuing processor.
        proc: usize,
        /// Word address.
        addr: WordAddr,
        /// The value to write; [`from_trace`] stamps writes `1, 2, 3, …`.
        value: u64,
    },
    /// Software mode directive for `addr`'s block.
    SetMode {
        /// Issuing processor.
        proc: usize,
        /// Word address naming the block.
        addr: WordAddr,
        /// Target mode.
        mode: Mode,
    },
}

impl ScriptOp {
    /// The word address this op touches.
    pub fn addr(&self) -> WordAddr {
        match *self {
            ScriptOp::Read { addr, .. }
            | ScriptOp::Write { addr, .. }
            | ScriptOp::SetMode { addr, .. } => addr,
        }
    }
}

/// Converts a workload trace into a script, stamping writes with the
/// global sequence `1, 2, 3, …` that [`crate::drive`] and
/// [`crate::drive_steady_state`] use, so every engine writes bit-identical
/// data.
pub fn from_trace(trace: &Trace) -> Vec<ScriptOp> {
    let mut stamp = 0u64;
    trace
        .iter()
        .map(|r| match r.op {
            Op::Read => ScriptOp::Read {
                proc: r.proc,
                addr: r.addr,
            },
            Op::Write => {
                stamp += 1;
                ScriptOp::Write {
                    proc: r.proc,
                    addr: r.addr,
                    value: stamp,
                }
            }
        })
        .collect()
}

/// Executes one op on `sys`; returns the value a read got.
///
/// # Errors
///
/// Whatever the [`System`] call rejects (an unknown processor).
pub fn apply(sys: &mut System, op: &ScriptOp) -> Result<Option<u64>, CoreError> {
    match *op {
        ScriptOp::Read { proc, addr } => sys.read(proc, addr).map(Some),
        ScriptOp::Write { proc, addr, value } => sys.write(proc, addr, value).map(|()| None),
        ScriptOp::SetMode { proc, addr, mode } => sys.set_mode(proc, addr, mode).map(|()| None),
    }
}

/// Executes `script` on `sys` one op at a time, unchecked.
///
/// # Panics
///
/// Panics if an op names a processor `sys` does not have.
pub fn apply_script(sys: &mut System, script: &[ScriptOp]) {
    for op in script {
        apply(sys, op).expect("valid processor");
    }
}

/// Every word of every block `ops` touches, in address order.
pub fn touched_words(cfg: &SystemConfig, ops: &[ScriptOp]) -> Vec<u64> {
    let spec = cfg.spec;
    let mut blocks: Vec<u64> = ops
        .iter()
        .map(|op| spec.block_of(op.addr()).index())
        .collect();
    blocks.sort_unstable();
    blocks.dedup();
    let mut words = Vec::with_capacity(blocks.len() * spec.words_per_block());
    for b in blocks {
        for off in 0..spec.words_per_block() {
            words.push(spec.word_at(BlockAddr::new(b), off).value());
        }
    }
    words
}

/// A machine driven through a script next to the oracle, with the running
/// observables a frame freezes.
///
/// Every read is checked against the oracle as it happens ([`step`]);
/// [`audit`] checks the end state. A plain runner counts protocol events;
/// a [`framed`] one also folds each event's canonical JSONL line into the
/// trace checksum a frame carries, and only it can [`encode`].
///
/// [`step`]: Runner::step
/// [`audit`]: Runner::audit
/// [`framed`]: Runner::framed
/// [`encode`]: Runner::encode
#[derive(Debug)]
pub struct Runner {
    sys: System,
    oracle: ReferenceMemory,
    ops_done: u64,
    reads: u64,
    writes: u64,
    /// Streaming FNV-1a over every read's returned value, op order.
    reads_fnv: u64,
    /// Protocol events drained so far.
    events: u64,
    /// Streaming FNV-1a over each event's JSONL line + `\n`; framed
    /// runners only.
    trace_fnv: Option<u64>,
    /// The line buffer `drain` encodes each event into.
    line: Vec<u8>,
    /// The machine payload and the whole frame, reused from checkpoint
    /// to checkpoint.
    payload: Vec<u8>,
    frame: Vec<u8>,
}

impl Runner {
    /// A runner at op 0 over `sys`, with an empty oracle.
    pub fn new(sys: System) -> Runner {
        Runner::at_start(sys, None)
    }

    /// A runner at op 0 over `sys` that also keeps the JSONL trace
    /// checksum, so it can [`encode`](Runner::encode) frames.
    pub fn framed(sys: System) -> Runner {
        Runner::at_start(sys, Some(FNV1A64_OFFSET))
    }

    fn at_start(sys: System, trace_fnv: Option<u64>) -> Runner {
        Runner {
            sys,
            oracle: ReferenceMemory::new(),
            ops_done: 0,
            reads: 0,
            writes: 0,
            reads_fnv: FNV1A64_OFFSET,
            events: 0,
            trace_fnv,
            line: Vec::new(),
            payload: Vec::new(),
            frame: Vec::new(),
        }
    }

    /// The machine under test.
    pub fn sys(&self) -> &System {
        &self.sys
    }

    /// Gives the machine back (pending trace events included).
    pub fn into_system(self) -> System {
        self.sys
    }

    /// Ops executed so far.
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// Reads executed so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes executed so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// FNV-1a over every read's returned value (little-endian), op order.
    pub fn reads_checksum(&self) -> u64 {
        self.reads_fnv
    }

    /// Protocol events drained so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// FNV-1a over the canonical JSONL line of every drained event, in op
    /// order; `None` unless the runner is framed.
    pub fn trace_checksum(&self) -> Option<u64> {
        self.trace_fnv
    }

    /// Executes one op, checking a read against the oracle.
    ///
    /// # Errors
    ///
    /// A rejected op, or a read that disagrees with the oracle.
    pub fn step(&mut self, op: &ScriptOp) -> Result<(), String> {
        let got = apply(&mut self.sys, op).map_err(|e| e.to_string())?;
        match (*op, got) {
            (ScriptOp::Read { proc, addr }, Some(got)) => {
                let want = self.oracle.read(addr);
                if got != want {
                    return Err(format!(
                        "op #{}: P{proc} read {} = {got}, oracle says {want}",
                        self.ops_done,
                        addr.value()
                    ));
                }
                self.reads += 1;
                self.reads_fnv = fnv1a64_fold(self.reads_fnv, &got.to_le_bytes());
            }
            (ScriptOp::Write { addr, value, .. }, _) => {
                self.oracle.write(addr, value);
                self.writes += 1;
            }
            _ => {}
        }
        self.ops_done += 1;
        Ok(())
    }

    /// Steps `script` from the runner's op clock to its end. With a
    /// journal, every `every` ops (`0`: never) a frame is appended. When a
    /// step brings the op clock to `stop_at` the run stops there, as a
    /// killed process would, even at the script's last op. Returns whether
    /// the script ended without such a stop.
    ///
    /// # Errors
    ///
    /// A [`step`](Runner::step) failure, a frame that cannot be encoded or
    /// appended, or a runner already past the script's end.
    pub fn run(
        &mut self,
        script: &[ScriptOp],
        stop_at: Option<u64>,
        mut journal: Option<(&mut Journal, u64)>,
    ) -> Result<bool, String> {
        let total = script.len() as u64;
        if self.ops_done > total {
            return Err(format!(
                "runner is ahead of the script: frame at op {} but the script has {total} ops",
                self.ops_done
            ));
        }
        while self.ops_done < total {
            self.step(&script[self.ops_done as usize])?;
            if let Some((journal, every)) = journal.as_mut() {
                if *every > 0 && self.ops_done.is_multiple_of(*every) {
                    journal.append(self.encode()?).map_err(|e| e.to_string())?;
                }
            }
            if stop_at == Some(self.ops_done) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The end-of-run audit of a run of `script`: the protocol invariants
    /// when no fault is in flight, then every word of every block the
    /// script touched against the oracle, so a word never written must
    /// still read 0. Drains the tracer into the event count afterwards.
    ///
    /// # Errors
    ///
    /// The first invariant violation or memory word that disagrees.
    pub fn audit(&mut self, script: &[ScriptOp]) -> Result<(), String> {
        if self.sys.faults_quiescent() {
            self.sys.check_invariants().map_err(|e| e.to_string())?;
        }
        for word in touched_words(self.sys.config(), script) {
            let word = WordAddr::new(word);
            let (got, want) = (self.sys.peek_word(word), self.oracle.read(word));
            if got != want {
                return Err(format!(
                    "final memory word {}: system has {got}, oracle has {want}",
                    word.value()
                ));
            }
        }
        self.drain();
        Ok(())
    }

    /// Folds the tracer's pending events into the event count (and the
    /// trace checksum of a framed runner).
    fn drain(&mut self) {
        let events = self.sys.drain_trace();
        self.events += events.len() as u64;
        if let Some(h) = self.trace_fnv.as_mut() {
            for e in &events {
                self.line.clear();
                encode_event_into(&mut self.line, e);
                self.line.push(b'\n');
                *h = fnv1a64_fold(*h, &self.line);
            }
        }
    }

    /// The runner as one frame (see the module docs), in a buffer the
    /// runner reuses. Drains the tracer first: a machine payload requires
    /// it.
    ///
    /// # Errors
    ///
    /// A plain runner (it keeps no trace checksum), or a machine the
    /// payload codec rejects.
    pub fn encode(&mut self) -> Result<&[u8], String> {
        self.drain();
        let Some(trace_fnv) = self.trace_fnv else {
            return Err("a plain runner keeps no trace checksum to freeze".into());
        };
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
            trace_fnv,
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

    /// The inverse of [`encode`](Runner::encode): a framed runner. Checks
    /// every length and the oracle image's address order; never panics.
    ///
    /// # Errors
    ///
    /// Any byte string [`encode`](Runner::encode) cannot have written.
    pub fn decode(bytes: &[u8]) -> Result<Runner, String> {
        let mut r = FrameReader { bytes, pos: 0 };
        let version = u32::from_le_bytes(r.take(4)?.try_into().expect("four bytes"));
        if version != FRAME_VERSION {
            return Err(format!("unsupported frame version {version}"));
        }
        let [ops_done, reads, writes, reads_fnv, events, trace_fnv] =
            [r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let n_words = r.u64()?;
        if n_words > (bytes.len() as u64) / 16 {
            return Err(format!("oracle word count {n_words} exceeds frame size"));
        }
        let mut oracle = ReferenceMemory::new();
        let mut prev = None;
        for _ in 0..n_words {
            let a = r.u64()?;
            if prev.is_some_and(|p| a <= p) {
                return Err(format!("oracle word {a} out of ascending order"));
            }
            prev = Some(a);
            oracle.write(WordAddr::new(a), r.u64()?);
        }
        let sys_len = r.u64()?;
        let sys_bytes = r.take(usize::try_from(sys_len).unwrap_or(usize::MAX))?;
        let sys = decode_system(sys_bytes).map_err(|e| e.to_string())?;
        if r.pos != bytes.len() {
            return Err(format!(
                "{} trailing bytes after the machine payload",
                bytes.len() - r.pos
            ));
        }
        Ok(Runner {
            oracle,
            ops_done,
            reads,
            writes,
            reads_fnv,
            events,
            ..Runner::at_start(sys, Some(trace_fnv))
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

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("eight bytes"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmc_simcore::SimRng;
    use tmc_workload::{Placement, SharedBlockWorkload};

    fn script(refs: usize, seed: u64) -> Vec<ScriptOp> {
        from_trace(
            &SharedBlockWorkload::new(4, 16, 0.3)
                .references(refs)
                .placement(Placement::Adjacent { base: 0 })
                .generate(8, &mut SimRng::seed_from(seed)),
        )
    }

    #[test]
    fn script_reproduces_drive_stamps() {
        let trace = SharedBlockWorkload::new(4, 16, 0.3)
            .references(200)
            .placement(Placement::Adjacent { base: 0 })
            .generate(8, &mut SimRng::seed_from(3));
        let mut scripted = System::new(SystemConfig::new(8)).unwrap();
        apply_script(&mut scripted, &from_trace(&trace));
        let mut adapter = tmc_baselines::two_mode_fixed(8, Mode::GlobalRead);
        crate::drive(&mut adapter, &trace);
        assert_eq!(
            scripted.protocol_fingerprint(),
            adapter.inner().protocol_fingerprint()
        );
        assert_eq!(scripted.traffic(), adapter.inner().traffic());
    }

    #[test]
    fn a_stale_read_names_the_op_and_both_values() {
        let mut sys = System::new(SystemConfig::new(4)).unwrap();
        let a = WordAddr::new(0);
        // The machine holds a value the oracle never saw written.
        sys.write(0, a, 9).unwrap();
        let mut runner = Runner::new(sys);
        let e = runner
            .step(&ScriptOp::Read { proc: 1, addr: a })
            .unwrap_err();
        assert_eq!(e, "op #0: P1 read 0 = 9, oracle says 0");
    }

    #[test]
    fn the_audit_reads_unwritten_words_of_touched_blocks() {
        let mut sys = System::new(SystemConfig::new(4)).unwrap();
        let (a, b) = (WordAddr::new(0), WordAddr::new(1));
        assert_eq!(sys.config().spec.block_of(a), sys.config().spec.block_of(b));
        // A stray value in a word the script never names, beside one it
        // writes.
        sys.write(0, b, 9).unwrap();
        let ops = [ScriptOp::Write {
            proc: 1,
            addr: a,
            value: 5,
        }];
        let mut runner = Runner::new(sys);
        assert!(runner.run(&ops, None, None).unwrap());
        let e = runner.audit(&ops).unwrap_err();
        assert_eq!(e, "final memory word 1: system has 9, oracle has 0");
    }

    #[test]
    fn a_runner_past_the_script_is_refused() {
        let ops = script(50, 2);
        let mut r = Runner::new(System::new(SystemConfig::new(8)).unwrap());
        r.run(&ops, None, None).unwrap();
        let e = r.run(&ops[..10], None, None).unwrap_err();
        assert!(e.contains("ahead of the script"), "{e}");
    }
}
