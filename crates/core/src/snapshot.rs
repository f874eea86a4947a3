//! Journaled checkpoints of a whole [`System`], with torn-write-safe
//! recovery.
//!
//! A checkpoint serializes the complete machine — configuration, paged
//! memory image (written blocks only), every cache's SoA slots with exact
//! LRU stamps, the block store, hybrid present-flag sets, counters,
//! per-link charge ledgers, adaptive-mode windows and live fault-injection
//! state — into one self-contained binary payload. Payloads are framed
//! into a **journal**:
//!
//! ```text
//! file   := "TMCJ0002" frame*
//! frame  := "TMCF" len:u64le payload:[u8; len] digest(payload):u64le
//! ```
//!
//! `digest` is four FNV-1a-64 lanes folded over interleaved 8-byte
//! little-endian words and FNV-combined at the end (tail bytes one at a
//! time) — same torn-write and bit-flip detection as the byte-wise FNV
//! used for JSONL trailers, but an order of magnitude faster over the
//! multi-megabyte frames a 1024-processor machine checkpoints, where the
//! byte-at-a-time dependent chain dominated append cost.
//!
//! The header is created **atomically** (temp file in the same directory +
//! rename, on any POSIX filesystem where `rename(2)` is atomic); after
//! that, every checkpoint is a single O(frame) append — never a rewrite of
//! the bytes already on disk. Crash safety comes from the frame format,
//! not from rewriting: a torn tail frame fails its length or FNV-1a
//! trailer check, and recovery walks the frames, keeps the longest valid
//! prefix, and reports (rather than panics on) torn writes, truncation
//! and bit corruption; the caller resumes from the last good frame.
//!
//! Checkpoints are taken *between* transactions, which is why the codec
//! can skip all per-transaction scratch (the multicast memo buffers): a
//! freshly decoded [`System`] re-derives them, and because they are pure
//! caches the continuation is bit-identical to a run that never stopped —
//! `tmc-bench/src/bin/crashsim` proves exactly that.
//!
//! # Example
//!
//! ```
//! use tmc_core::snapshot::{decode_system, encode_system};
//! use tmc_core::{System, SystemConfig};
//! use tmc_memsys::WordAddr;
//!
//! let mut sys = System::new(SystemConfig::new(4))?;
//! sys.write(0, WordAddr::new(7), 41)?;
//! let bytes = encode_system(&sys).unwrap();
//! let mut back = decode_system(&bytes).unwrap();
//! assert_eq!(back.protocol_fingerprint(), sys.protocol_fingerprint());
//! assert_eq!(back.read(1, WordAddr::new(7))?, 41);
//! # Ok::<(), tmc_core::CoreError>(())
//! ```

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use tmc_faults::{FaultInjector, FaultPlan, FaultSpec, InjectorState, MsgFault, RetryPolicy};
use tmc_memsys::{BlockAddr, BlockData, BlockSpec, CacheGeometry, CacheId, MsgSizing};
use tmc_obs::jsonl::fnv1a64;
use tmc_omeganet::{DestSet, LinkId, SchemeKind};
use tmc_simcore::SimTime;

use crate::config::{ModePolicy, SystemConfig};
use crate::state::{CacheLine, Mode, Validity};
use crate::system::{FaultState, System};

/// Magic bytes opening a journal file. The version tail changes whenever
/// the frame format (including the digest function) changes, so stale
/// journals are rejected at the header instead of failing frame by frame.
pub const JOURNAL_MAGIC: [u8; 8] = *b"TMCJ0002";

/// Magic bytes opening each frame.
pub const FRAME_MAGIC: [u8; 4] = *b"TMCF";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The frame digest: four independent FNV-1a-64 lanes folded over
/// interleaved 8-byte little-endian words, combined (and tail bytes
/// absorbed) at the end. A single FNV chain is a dependent
/// xor-multiply sequence, so it runs at multiply *latency*; four lanes
/// run at multiply *throughput*, which matters because the digest walks
/// every appended frame and at N=1024 a frame is several megabytes. A
/// flipped bit flips exactly one lane, and the lanes are FNV-combined
/// into the result, so torn-write and bit-flip detection is as strong as
/// the byte-wise FNV used for JSONL trailers.
///
/// Incremental so [`Journal::append`] can digest each chunk while it is
/// cache-hot between `write` calls: feed any number of 32-byte-multiple
/// slices to [`FrameDigest::fold32`], then the final `< 32`-byte tail to
/// [`FrameDigest::finish`].
struct FrameDigest {
    lanes: [u64; 4],
}

impl FrameDigest {
    fn new() -> Self {
        FrameDigest {
            lanes: [FNV_OFFSET; 4],
        }
    }

    /// Folds `bytes` into the lanes; the length must be a multiple of 32.
    fn fold32(&mut self, bytes: &[u8]) {
        debug_assert_eq!(bytes.len() % 32, 0);
        for group in bytes.chunks_exact(32) {
            for (j, lane) in self.lanes.iter_mut().enumerate() {
                let word = u64::from_le_bytes(
                    group[8 * j..8 * j + 8]
                        .try_into()
                        .expect("exact 8-byte word"),
                );
                *lane ^= word;
                *lane = lane.wrapping_mul(FNV_PRIME);
            }
        }
    }

    /// Combines the lanes, absorbs the final sub-32-byte `tail`, and
    /// returns the digest.
    fn finish(self, tail: &[u8]) -> u64 {
        debug_assert!(tail.len() < 32);
        let mut hash = FNV_OFFSET;
        for lane in self.lanes {
            hash ^= lane;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        for &b in tail {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }
}

/// [`FrameDigest`] over a complete in-memory payload, as recovery uses it.
fn frame_digest(bytes: &[u8]) -> u64 {
    let full = bytes.len() - bytes.len() % 32;
    let mut digest = FrameDigest::new();
    digest.fold32(&bytes[..full]);
    digest.finish(&bytes[full..])
}

/// Payload format version, first field of every system payload.
const PAYLOAD_VERSION: u32 = 1;

// ----------------------------------------------------------------------
// Errors.
// ----------------------------------------------------------------------

/// Everything that can go wrong writing, reading or decoding a checkpoint.
///
/// Recovery never panics: every malformed input — torn write, truncation,
/// bit flip, impossible state — surfaces as one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// An underlying filesystem error.
    Io(String),
    /// The file or a frame does not start with its magic bytes.
    BadMagic {
        /// Byte offset of the bad magic.
        at: usize,
    },
    /// The file ends mid-frame (torn write or truncation).
    Truncated {
        /// Byte offset at which data ran out.
        at: usize,
    },
    /// A frame's FNV-1a trailer does not match its payload (bit corruption).
    ChecksumMismatch {
        /// Zero-based index of the damaged frame.
        frame: usize,
    },
    /// A payload decoded to an impossible machine state.
    Corrupt(String),
    /// The configuration cannot be checkpointed (timing model or
    /// transaction log enabled, or an undrained tracer).
    Unsupported(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "journal I/O error: {e}"),
            SnapshotError::BadMagic { at } => {
                write!(f, "bad magic at byte {at}: not a checkpoint journal frame")
            }
            SnapshotError::Truncated { at } => {
                write!(f, "journal truncated at byte {at} (torn or partial write)")
            }
            SnapshotError::ChecksumMismatch { frame } => {
                write!(f, "checksum mismatch in frame {frame} (bit corruption)")
            }
            SnapshotError::Corrupt(why) => write!(f, "corrupt checkpoint payload: {why}"),
            SnapshotError::Unsupported(why) => write!(f, "cannot checkpoint: {why}"),
        }
    }
}

impl Error for SnapshotError {}

// ----------------------------------------------------------------------
// Little-endian byte codec.
// ----------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader; every overrun is a typed error,
/// never a panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Corrupt(format!(
                "payload truncated at byte {} (needed {n} more)",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(self.bytes(16)?.try_into().unwrap()))
    }

    /// A element count whose elements take at least `min_elem` bytes each;
    /// rejects counts the remaining bytes cannot possibly hold, so a
    /// corrupt length can never drive an absurd allocation.
    fn count(&mut self, min_elem: usize, what: &str) -> Result<usize, SnapshotError> {
        let n = self.u64()? as usize;
        if n.checked_mul(min_elem.max(1))
            .is_none_or(|need| need > self.remaining())
        {
            return Err(SnapshotError::Corrupt(format!(
                "{what} count {n} exceeds remaining payload"
            )));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after payload end",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Interns a decoded counter name so it can re-enter the `&'static str`
/// keyed [`tmc_simcore::CounterSet`]. Leakage is bounded by the set of
/// distinct names ever decoded — in practice the fixed counter vocabulary
/// of the engine.
fn intern(name: String) -> &'static str {
    static NAMES: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = NAMES
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .expect("interner poisoned");
    if let Some(&s) = set.get(name.as_str()) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    set.insert(leaked);
    leaked
}

// ----------------------------------------------------------------------
// System payload codec.
// ----------------------------------------------------------------------

/// Serializes the complete machine state into one self-contained payload.
///
/// # Errors
///
/// [`SnapshotError::Unsupported`] when the configuration enables the
/// timing model or transaction log (their state is deliberately outside
/// the checkpoint contract, mirroring `merge_shard`), or when the tracer
/// holds undrained events.
pub fn encode_system(sys: &System) -> Result<Vec<u8>, SnapshotError> {
    let mut buf = Vec::new();
    encode_system_into(sys, &mut buf)?;
    Ok(buf)
}

/// [`encode_system`], but writing into a caller-owned buffer that is
/// cleared and reused. Steady-cadence checkpointing should prefer this: a
/// multi-megabyte payload allocated fresh per checkpoint is served by
/// `mmap` and unmapped again on free, so every encode would re-fault its
/// pages in; a reused buffer keeps them mapped.
///
/// # Errors
///
/// As [`encode_system`]. On error the buffer contents are unspecified.
pub fn encode_system_into(sys: &System, out: &mut Vec<u8>) -> Result<(), SnapshotError> {
    if sys.cfg.timing.is_some() {
        return Err(SnapshotError::Unsupported(
            "timing-model state is not checkpointable; disable timing",
        ));
    }
    if sys.cfg.log_transactions {
        return Err(SnapshotError::Unsupported(
            "transaction-log state is not checkpointable; disable logging",
        ));
    }
    if !sys.tracer.is_empty() {
        return Err(SnapshotError::Unsupported(
            "tracer holds undrained events; drain_trace() before snapshotting",
        ));
    }

    // A big machine's payload is multi-megabyte; reserving a close
    // estimate up front avoids the realloc-copy chain while it grows.
    // (Per-line present sets are estimated small; heavily shared blocks
    // at most cost one further doubling.)
    let wpb = sys.cfg.spec.words_per_block();
    let resident: usize = sys.caches.iter().map(|c| c.len()).sum();
    let estimate = 4096
        + resident * (64 + 8 * wpb)
        + sys.memory.dirty_blocks() * (8 + 8 * wpb)
        + sys.store.owned_blocks() * 10;
    let mut buf = std::mem::take(out);
    buf.clear();
    buf.reserve(estimate);
    put_u32(&mut buf, PAYLOAD_VERSION);
    encode_config(&mut buf, &sys.cfg);

    // Dynamic scalar state.
    put_u64(&mut buf, sys.now.cycles());
    put_u64(&mut buf, sys.nak_budget as u64);
    put_u8(&mut buf, sys.tracer.is_enabled() as u8);

    // Latency histogram (exact raw parts).
    let (buckets, count, total) = sys.latencies.to_raw_parts();
    put_u64(&mut buf, buckets.len() as u64);
    for &b in buckets {
        put_u64(&mut buf, b);
    }
    put_u64(&mut buf, count);
    put_u128(&mut buf, total);

    // Counters, in CounterSet's canonical name order.
    let counters: Vec<(&'static str, u64)> = sys.counters.iter().collect();
    put_u64(&mut buf, counters.len() as u64);
    for (name, value) in counters {
        put_u64(&mut buf, name.len() as u64);
        buf.extend_from_slice(name.as_bytes());
        put_u64(&mut buf, value);
    }

    // Per-link charge ledger: nonzero cells in (layer, line) order.
    let layers = sys.traffic.layers();
    let lines = sys.traffic.n_ports();
    put_u64(&mut buf, layers as u64);
    put_u64(&mut buf, lines as u64);
    let mut cells = Vec::new();
    for layer in 0..layers as u32 {
        for line in 0..lines {
            let bits = sys.traffic.link_bits(LinkId { layer, line });
            if bits > 0 {
                cells.push((layer, line, bits));
            }
        }
    }
    put_u64(&mut buf, cells.len() as u64);
    for (layer, line, bits) in cells {
        put_u32(&mut buf, layer);
        put_u64(&mut buf, line as u64);
        put_u64(&mut buf, bits);
    }

    // Every cache's SoA image: exact slots, stamps and LRU clock. This is
    // the bulk of a big machine's payload (every resident line of every
    // cache), so each entry is written with one `resize` plus indexed
    // stores into the fresh region — a single capacity check per line
    // instead of one per field, which is what dominated encode time at
    // N=1024 (~1.3M capacity-checked extends for a ~9 MB frame).
    for cache in &sys.caches {
        put_u64(&mut buf, cache.tick());
        put_u64(&mut buf, cache.len() as u64);
        for (slot, tag, stamp, line) in cache.slots() {
            let sz = 57 + 2 * line.present.len() + 8 * line.data.len();
            let start = buf.len();
            buf.resize(start + sz, 0);
            let out = &mut buf[start..];
            out[0..8].copy_from_slice(&(slot as u64).to_le_bytes());
            out[8..16].copy_from_slice(&tag.to_le_bytes());
            out[16..24].copy_from_slice(&stamp.to_le_bytes());
            out[24] = match line.validity {
                Validity::Invalid => 0,
                Validity::UnOwned => 1,
                Validity::Owned => 2,
            };
            out[25] = line.mode.dw_bit() as u8;
            out[26] = line.modified as u8;
            out[27..35].copy_from_slice(&(line.present.len() as u64).to_le_bytes());
            let mut at = 35;
            for port in line.present.iter() {
                out[at..at + 2].copy_from_slice(&(port as u16).to_le_bytes());
                at += 2;
            }
            out[at..at + 2]
                .copy_from_slice(&line.owner_hint.map_or(u16::MAX, |c| c.0).to_le_bytes());
            out[at + 2..at + 10].copy_from_slice(&(line.data.len() as u64).to_le_bytes());
            at += 10;
            for &w in line.data.words() {
                out[at..at + 8].copy_from_slice(&w.to_le_bytes());
                at += 8;
            }
            out[at..at + 4].copy_from_slice(&line.window_refs.to_le_bytes());
            out[at + 4..at + 8].copy_from_slice(&line.window_remote_reads.to_le_bytes());
            out[at + 8..at + 12].copy_from_slice(&line.window_writes.to_le_bytes());
        }
    }

    // Main memory: written blocks only, ascending.
    put_u64(&mut buf, sys.memory.dirty_blocks() as u64);
    for (block, words) in sys.memory.iter() {
        put_u64(&mut buf, block.index());
        for &w in words {
            put_u64(&mut buf, w);
        }
    }

    // Block store: (block, owner) entries, ascending.
    put_u64(&mut buf, sys.store.owned_blocks() as u64);
    for (block, owner) in sys.store.iter() {
        put_u64(&mut buf, block.index());
        put_u16(&mut buf, owner.0);
    }

    // Live fault-injection state (the plan itself is regenerated from the
    // config's FaultSpec on decode).
    match &sys.faults {
        None => put_u8(&mut buf, 0),
        Some(fs) => {
            put_u8(&mut buf, 1);
            put_u64(&mut buf, fs.op);
            put_u64(&mut buf, fs.degraded.len() as u64);
            for (&block, &(heal, since)) in &fs.degraded {
                put_u64(&mut buf, block.index());
                put_u64(&mut buf, heal);
                put_u64(&mut buf, since);
            }
            put_u64(&mut buf, fs.quarantined.len() as u64);
            for (&cache, &(heal, since)) in &fs.quarantined {
                put_u64(&mut buf, cache as u64);
                put_u64(&mut buf, heal);
                put_u64(&mut buf, since);
            }
            encode_injector(&mut buf, &fs.injector.state());
        }
    }

    *out = buf;
    Ok(())
}

fn encode_config(buf: &mut Vec<u8>, cfg: &SystemConfig) {
    put_u64(buf, cfg.n_caches as u64);
    put_u64(buf, cfg.geometry.sets() as u64);
    put_u64(buf, cfg.geometry.ways() as u64);
    put_u32(buf, cfg.spec.words_per_block().trailing_zeros());
    put_u64(buf, cfg.sizing.addr_bits);
    put_u64(buf, cfg.sizing.word_bits);
    put_u64(buf, cfg.sizing.block_words as u64);
    put_u64(buf, cfg.sizing.control_bits);
    put_u8(
        buf,
        match cfg.multicast {
            SchemeKind::Replicated => 0,
            SchemeKind::BitVector => 1,
            SchemeKind::BroadcastTag => 2,
            SchemeKind::Combined => 3,
        },
    );
    match cfg.mode_policy {
        ModePolicy::Fixed(Mode::GlobalRead) => put_u8(buf, 0),
        ModePolicy::Fixed(Mode::DistributedWrite) => put_u8(buf, 1),
        ModePolicy::Adaptive { window } => {
            put_u8(buf, 2);
            put_u32(buf, window);
        }
    }
    put_u8(buf, cfg.owner_bypass as u8);
    match &cfg.faults {
        None => put_u8(buf, 0),
        Some(spec) => {
            put_u8(buf, 1);
            put_u64(buf, spec.seed);
            put_u64(buf, spec.count as u64);
            put_u64(buf, spec.horizon);
            put_u64(buf, spec.mean_outage);
            put_u32(buf, spec.retry.max_retries);
            put_u64(buf, spec.retry.backoff_base);
        }
    }
}

fn encode_injector(buf: &mut Vec<u8>, st: &InjectorState) {
    put_u64(buf, st.cursor as u64);
    put_u64(buf, st.op);
    put_u64(buf, st.down_links.len() as u64);
    for &(link, heal) in &st.down_links {
        put_u32(buf, link.layer);
        put_u64(buf, link.line as u64);
        put_u64(buf, heal);
    }
    put_u64(buf, st.stalled.len() as u64);
    for &(cache, heal) in &st.stalled {
        put_u64(buf, cache as u64);
        put_u64(buf, heal);
    }
    put_u64(buf, st.pending_msgs.len() as u64);
    for &m in &st.pending_msgs {
        match m {
            MsgFault::Drop => put_u8(buf, 0),
            MsgFault::Duplicate => put_u8(buf, 1),
            MsgFault::Delay(cycles) => {
                put_u8(buf, 2);
                put_u64(buf, cycles);
            }
        }
    }
    put_u64(buf, st.injected);
}

/// Rebuilds a complete machine from a payload produced by
/// [`encode_system`].
///
/// Every malformed input is rejected with a typed [`SnapshotError`]; this
/// function never panics, whatever the bytes. The decoded system is
/// *exactly* the snapshotted one: same protocol fingerprint, counters,
/// charge ledgers, LRU order and fault state, so continuing it is
/// bit-identical to continuing the original.
pub fn decode_system(bytes: &[u8]) -> Result<System, SnapshotError> {
    let corrupt = |why: String| SnapshotError::Corrupt(why);
    let mut r = Reader::new(bytes);
    let version = r.u32()?;
    if version != PAYLOAD_VERSION {
        return Err(corrupt(format!("unknown payload version {version}")));
    }
    let cfg = decode_config(&mut r)?;
    let mut sys = System::new(cfg).map_err(|e| corrupt(format!("config rejected: {e}")))?;

    sys.now = SimTime::new(r.u64()?);
    sys.nak_budget = r.u64()? as usize;
    let tracing = r.u8()?;
    if tracing > 1 {
        return Err(corrupt(format!("tracer flag {tracing} is not a bool")));
    }
    sys.tracer.set_enabled(tracing == 1);

    // Latency histogram.
    let n_buckets = r.count(8, "histogram bucket")?;
    if n_buckets > 1024 {
        return Err(corrupt(format!("histogram bucket count {n_buckets}")));
    }
    let mut buckets = Vec::with_capacity(n_buckets);
    for _ in 0..n_buckets {
        buckets.push(r.u64()?);
    }
    let count = r.u64()?;
    let total = r.u128()?;
    sys.latencies = tmc_simcore::Histogram::from_raw_parts(buckets, count, total);

    // Counters.
    let n_counters = r.count(16, "counter")?;
    for _ in 0..n_counters {
        let name_len = r.count(1, "counter name byte")?;
        if name_len > 256 {
            return Err(corrupt(format!("counter name length {name_len}")));
        }
        let name = std::str::from_utf8(r.bytes(name_len)?)
            .map_err(|_| corrupt("counter name is not UTF-8".into()))?
            .to_owned();
        let value = r.u64()?;
        sys.counters.add(intern(name), value);
    }

    // Traffic ledger.
    let layers = r.u64()? as usize;
    let lines = r.u64()? as usize;
    if layers != sys.traffic.layers() || lines != sys.traffic.n_ports() {
        return Err(corrupt(format!(
            "traffic shape {layers}x{lines} does not match the {}x{} network",
            sys.traffic.layers(),
            sys.traffic.n_ports()
        )));
    }
    let n_cells = r.count(20, "traffic cell")?;
    for _ in 0..n_cells {
        let layer = r.u32()?;
        let line = r.u64()? as usize;
        let bits = r.u64()?;
        if (layer as usize) >= layers || line >= lines {
            return Err(corrupt(format!(
                "traffic cell ({layer}, {line}) out of shape"
            )));
        }
        if bits == 0 {
            return Err(corrupt("zero traffic cell breaks canonical form".into()));
        }
        sys.traffic.add(LinkId { layer, line }, bits);
    }

    // Caches.
    let n_caches = sys.cfg.n_caches;
    let geometry = sys.cfg.geometry;
    let wpb = sys.cfg.spec.words_per_block();
    for ci in 0..n_caches {
        let tick = r.u64()?;
        let n_slots = r.count(24, "cache slot")?;
        if n_slots > geometry.capacity_blocks() {
            return Err(corrupt(format!(
                "cache {ci} claims {n_slots} resident slots over capacity {}",
                geometry.capacity_blocks()
            )));
        }
        let mut prev_slot = None;
        for _ in 0..n_slots {
            let slot = r.u64()? as usize;
            let tag = r.u64()?;
            let stamp = r.u64()?;
            if prev_slot.is_some_and(|p| slot <= p) || slot >= geometry.capacity_blocks() {
                return Err(corrupt(format!(
                    "cache {ci} slot {slot} out of order or range"
                )));
            }
            prev_slot = Some(slot);
            if stamp == 0 || stamp > tick {
                return Err(corrupt(format!(
                    "cache {ci} slot {slot} stamp {stamp} outside 1..={tick}"
                )));
            }
            if geometry.set_of(BlockAddr::new(tag)) != slot / geometry.ways() {
                return Err(corrupt(format!(
                    "cache {ci} tag {tag:#x} does not map to slot {slot}'s set"
                )));
            }
            let line = decode_line(&mut r, n_caches, wpb)?;
            sys.caches[ci].restore_slot(slot, tag, stamp, line);
        }
        sys.caches[ci].restore_tick(tick);
    }

    // Main memory.
    let n_written = r.count(8 + 8 * wpb, "memory block")?;
    let mut prev_block = None;
    for _ in 0..n_written {
        let block = r.u64()?;
        if prev_block.is_some_and(|p| block <= p) {
            return Err(corrupt(format!("memory block {block:#x} out of order")));
        }
        prev_block = Some(block);
        let mut words = Vec::with_capacity(wpb);
        for _ in 0..wpb {
            words.push(r.u64()?);
        }
        sys.memory
            .write_block(BlockAddr::new(block), &BlockData::from_words(words));
    }

    // Block store.
    let n_owned = r.count(10, "store entry")?;
    let mut prev_block = None;
    for _ in 0..n_owned {
        let block = r.u64()?;
        let owner = r.u16()?;
        if prev_block.is_some_and(|p| block <= p) {
            return Err(corrupt(format!("store entry {block:#x} out of order")));
        }
        prev_block = Some(block);
        if owner as usize >= n_caches {
            return Err(corrupt(format!("store owner C{owner} out of range")));
        }
        sys.store.set_owner(BlockAddr::new(block), CacheId(owner));
    }

    // Fault state.
    let has_faults = r.u8()?;
    match (has_faults, sys.cfg.faults) {
        (0, None) => {}
        (1, Some(spec)) => {
            let op = r.u64()?;
            let n_degraded = r.count(24, "degraded block")?;
            let mut degraded = std::collections::BTreeMap::new();
            for _ in 0..n_degraded {
                let block = r.u64()?;
                let heal = r.u64()?;
                let since = r.u64()?;
                degraded.insert(BlockAddr::new(block), (heal, since));
            }
            let n_quarantined = r.count(24, "quarantined cache")?;
            let mut quarantined = std::collections::BTreeMap::new();
            for _ in 0..n_quarantined {
                let cache = r.u64()? as usize;
                let heal = r.u64()?;
                let since = r.u64()?;
                if cache >= n_caches {
                    return Err(corrupt(format!("quarantined cache {cache} out of range")));
                }
                quarantined.insert(cache, (heal, since));
            }
            let state = decode_injector(&mut r)?;
            let plan = FaultPlan::generate(&spec, n_caches, sys.net.stages())
                .map_err(|e| corrupt(format!("fault plan regeneration failed: {e}")))?;
            let injector = FaultInjector::restore(plan, state)
                .ok_or_else(|| corrupt("injector cursor runs past the regenerated plan".into()))?;
            sys.faults = Some(Box::new(FaultState {
                injector,
                op,
                degraded,
                quarantined,
            }));
        }
        _ => {
            return Err(corrupt(
                "fault-state presence disagrees with the configuration".into(),
            ));
        }
    }

    r.finish()?;
    Ok(sys)
}

fn decode_config(r: &mut Reader<'_>) -> Result<SystemConfig, SnapshotError> {
    let corrupt = |why: String| SnapshotError::Corrupt(why);
    let n_caches = r.u64()? as usize;
    if !n_caches.is_power_of_two() || !(2..=65536).contains(&n_caches) {
        return Err(corrupt(format!("cache count {n_caches} invalid")));
    }
    let sets = r.u64()? as usize;
    let ways = r.u64()? as usize;
    if !sets.is_power_of_two() || sets > 1 << 24 || ways == 0 || ways > 1 << 10 {
        return Err(corrupt(format!("cache geometry {sets}x{ways} invalid")));
    }
    let offset_bits = r.u32()?;
    if offset_bits > 16 {
        return Err(corrupt(format!("block offset bits {offset_bits} invalid")));
    }
    let addr_bits = r.u64()?;
    let word_bits = r.u64()?;
    let block_words = r.u64()? as usize;
    let control_bits = r.u64()?;
    let multicast = match r.u8()? {
        0 => SchemeKind::Replicated,
        1 => SchemeKind::BitVector,
        2 => SchemeKind::BroadcastTag,
        3 => SchemeKind::Combined,
        k => return Err(corrupt(format!("multicast scheme tag {k}"))),
    };
    let mode_policy = match r.u8()? {
        0 => ModePolicy::Fixed(Mode::GlobalRead),
        1 => ModePolicy::Fixed(Mode::DistributedWrite),
        2 => ModePolicy::Adaptive { window: r.u32()? },
        k => return Err(corrupt(format!("mode policy tag {k}"))),
    };
    let owner_bypass = match r.u8()? {
        0 => false,
        1 => true,
        k => return Err(corrupt(format!("owner bypass flag {k}"))),
    };
    let faults = match r.u8()? {
        0 => None,
        1 => {
            let seed = r.u64()?;
            let count = r.u64()? as usize;
            let horizon = r.u64()?;
            let mean_outage = r.u64()?;
            let max_retries = r.u32()?;
            let backoff_base = r.u64()?;
            Some(
                FaultSpec::new(seed)
                    .count(count)
                    .horizon(horizon)
                    .mean_outage(mean_outage)
                    .retry(RetryPolicy {
                        max_retries,
                        backoff_base,
                    }),
            )
        }
        k => return Err(corrupt(format!("fault spec flag {k}"))),
    };
    Ok(SystemConfig {
        n_caches,
        geometry: CacheGeometry::new(sets, ways),
        spec: BlockSpec::new(offset_bits),
        sizing: MsgSizing {
            addr_bits,
            word_bits,
            block_words,
            control_bits,
        },
        multicast,
        mode_policy,
        owner_bypass,
        timing: None,
        log_transactions: false,
        faults,
    })
}

fn decode_line(
    r: &mut Reader<'_>,
    n_caches: usize,
    wpb: usize,
) -> Result<CacheLine, SnapshotError> {
    let corrupt = |why: String| SnapshotError::Corrupt(why);
    let validity = match r.u8()? {
        0 => Validity::Invalid,
        1 => Validity::UnOwned,
        2 => Validity::Owned,
        v => return Err(corrupt(format!("validity tag {v}"))),
    };
    let mode = match r.u8()? {
        0 => Mode::GlobalRead,
        1 => Mode::DistributedWrite,
        m => return Err(corrupt(format!("mode tag {m}"))),
    };
    let modified = match r.u8()? {
        0 => false,
        1 => true,
        m => return Err(corrupt(format!("modified flag {m}"))),
    };
    let n_present = r.count(2, "present port")?;
    if n_present > n_caches {
        return Err(corrupt(format!(
            "present set of {n_present} over {n_caches} ports"
        )));
    }
    let mut present = DestSet::empty(n_caches);
    let mut prev_port = None;
    for _ in 0..n_present {
        let port = r.u16()? as usize;
        if port >= n_caches || prev_port.is_some_and(|p| port <= p) {
            return Err(corrupt(format!(
                "present port {port} out of order or range"
            )));
        }
        prev_port = Some(port);
        present.insert(port);
    }
    let hint = r.u16()?;
    let owner_hint = if hint == u16::MAX {
        None
    } else if (hint as usize) < n_caches {
        Some(CacheId(hint))
    } else {
        return Err(corrupt(format!("owner hint C{hint} out of range")));
    };
    let n_words = r.count(8, "line word")?;
    if n_words != wpb {
        return Err(corrupt(format!(
            "line holds {n_words} words, spec says {wpb}"
        )));
    }
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(r.u64()?);
    }
    Ok(CacheLine {
        validity,
        mode,
        modified,
        present,
        owner_hint,
        data: BlockData::from_words(words),
        window_refs: r.u32()?,
        window_remote_reads: r.u32()?,
        window_writes: r.u32()?,
    })
}

fn decode_injector(r: &mut Reader<'_>) -> Result<InjectorState, SnapshotError> {
    let cursor = r.u64()? as usize;
    let op = r.u64()?;
    let n_down = r.count(20, "down link")?;
    let mut down_links = Vec::with_capacity(n_down);
    for _ in 0..n_down {
        let layer = r.u32()?;
        let line = r.u64()? as usize;
        let heal = r.u64()?;
        down_links.push((LinkId { layer, line }, heal));
    }
    let n_stalled = r.count(16, "stalled cache")?;
    let mut stalled = Vec::with_capacity(n_stalled);
    for _ in 0..n_stalled {
        let cache = r.u64()? as usize;
        let heal = r.u64()?;
        stalled.push((cache, heal));
    }
    let n_pending = r.count(1, "pending message fault")?;
    let mut pending_msgs = Vec::with_capacity(n_pending);
    for _ in 0..n_pending {
        pending_msgs.push(match r.u8()? {
            0 => MsgFault::Drop,
            1 => MsgFault::Duplicate,
            2 => MsgFault::Delay(r.u64()?),
            k => return Err(SnapshotError::Corrupt(format!("message fault tag {k}"))),
        });
    }
    let injected = r.u64()?;
    Ok(InjectorState {
        cursor,
        op,
        down_links,
        stalled,
        pending_msgs,
        injected,
    })
}

/// FNV-1a digest of the written-block memory image — a compact witness for
/// the crash harness's "memory images equal" assertion.
pub fn memory_digest(sys: &System) -> u64 {
    let mut buf = Vec::new();
    for (block, words) in sys.memory.iter() {
        put_u64(&mut buf, block.index());
        for &w in words {
            put_u64(&mut buf, w);
        }
    }
    fnv1a64(&buf)
}

// ----------------------------------------------------------------------
// The journal: framed, checksummed, atomically replaced.
// ----------------------------------------------------------------------

/// An append-only checkpoint journal: the header is written atomically
/// once (temp file in the same directory + rename), then every checkpoint
/// is a single O(frame) append to the held-open file. A crash mid-append
/// leaves at worst one torn tail frame, which fails its length or FNV-1a
/// trailer check and is dropped by [`recover_journal`] — the valid prefix
/// on disk is never rewritten and never at risk.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: fs::File,
    frames: usize,
    appended_bytes: u64,
}

impl Journal {
    /// Creates (or truncates) the journal at `path`: writes the header via
    /// a sibling temp file + rename (the only atomic-replace in the
    /// scheme), then opens the file in append mode for the frames.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        let path = path.into();
        let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
        let tmp = path.with_extension("journal.tmp");
        fs::write(&tmp, JOURNAL_MAGIC).map_err(io)?;
        fs::rename(&tmp, &path).map_err(io)?;
        let file = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(io)?;
        Ok(Journal {
            path,
            file,
            frames: 0,
            appended_bytes: 0,
        })
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frames written so far.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Bytes of frame data this journal has written since `create` —
    /// exactly Σ (frame overhead + payload) over all appends. The journal
    /// has a single write path, so this is its true I/O cost: O(sum of
    /// frame sizes), not O(frames · journal length).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Appends one framed, checksummed payload and flushes it. Writes only
    /// the new frame's bytes; the existing file contents are untouched.
    /// The payload goes to the file directly — no whole-frame staging copy
    /// — digested and written in cache-sized chunks so a multi-megabyte
    /// frame streams from memory once, not once for the digest and again
    /// for the write.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), SnapshotError> {
        // Any multiple of 32 works; 256 KiB fits comfortably in L2, so the
        // write behind each digest fold reads cache-hot bytes.
        const CHUNK: usize = 256 * 1024;
        let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
        let mut header = [0u8; 12];
        header[..4].copy_from_slice(&FRAME_MAGIC);
        header[4..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        self.file.write_all(&header).map_err(io)?;
        let full = payload.len() - payload.len() % 32;
        let mut digest = FrameDigest::new();
        for chunk in payload[..full].chunks(CHUNK) {
            digest.fold32(chunk);
            self.file.write_all(chunk).map_err(io)?;
        }
        let tail = &payload[full..];
        let digest = digest.finish(tail);
        self.file.write_all(tail).map_err(io)?;
        self.file.write_all(&digest.to_le_bytes()).map_err(io)?;
        self.file.flush().map_err(io)?;
        self.frames += 1;
        self.appended_bytes += (header.len() + payload.len() + 8) as u64;
        Ok(())
    }
}

/// What recovery salvaged from a journal: every frame of the longest valid
/// prefix, plus the damage (if any) that ended the walk.
#[derive(Debug)]
pub struct Recovery {
    /// Payloads of the valid frames, in write order.
    pub frames: Vec<Vec<u8>>,
    /// Why the walk stopped early, or `None` for a clean journal.
    pub damage: Option<SnapshotError>,
}

impl Recovery {
    /// The newest intact payload — the frame a resume starts from.
    pub fn last(&self) -> Option<&[u8]> {
        self.frames.last().map(Vec::as_slice)
    }
}

/// Reads a journal from disk, salvaging the longest valid frame prefix.
///
/// # Errors
///
/// [`SnapshotError::Io`] if the file cannot be read at all, or
/// [`SnapshotError::BadMagic`] if it does not even start with the journal
/// header (nothing salvageable). Damage *after* a valid prefix is not an
/// error: it is reported in [`Recovery::damage`] while the prefix is
/// returned — never a panic.
pub fn recover_journal(path: impl AsRef<Path>) -> Result<Recovery, SnapshotError> {
    let bytes = fs::read(path.as_ref()).map_err(|e| SnapshotError::Io(e.to_string()))?;
    if bytes.len() < JOURNAL_MAGIC.len() || bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        return Err(SnapshotError::BadMagic { at: 0 });
    }
    let mut frames = Vec::new();
    let mut damage = None;
    let mut pos = JOURNAL_MAGIC.len();
    let mut index = 0usize;
    while pos < bytes.len() {
        let header = FRAME_MAGIC.len() + 8;
        if bytes.len() - pos < header {
            damage = Some(SnapshotError::Truncated { at: pos });
            break;
        }
        if bytes[pos..pos + FRAME_MAGIC.len()] != FRAME_MAGIC {
            damage = Some(SnapshotError::BadMagic { at: pos });
            break;
        }
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let body = pos + header;
        if bytes.len() - body < len.saturating_add(8) || len > bytes.len() {
            damage = Some(SnapshotError::Truncated { at: pos });
            break;
        }
        let payload = &bytes[body..body + len];
        let stored = u64::from_le_bytes(bytes[body + len..body + len + 8].try_into().unwrap());
        if frame_digest(payload) != stored {
            damage = Some(SnapshotError::ChecksumMismatch { frame: index });
            break;
        }
        frames.push(payload.to_vec());
        pos = body + len + 8;
        index += 1;
    }
    Ok(Recovery { frames, damage })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmc_memsys::WordAddr;

    fn scratch(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tmc-snapshot-test-{name}-{}", std::process::id()));
        p
    }

    fn busy_system() -> System {
        let cfg = SystemConfig::new(8)
            .mode_policy(ModePolicy::Adaptive { window: 4 })
            .faults(FaultSpec::new(9).count(12).horizon(64));
        let mut sys = System::new(cfg).unwrap();
        for i in 0..200u64 {
            let p = (i % 8) as usize;
            sys.write(p, WordAddr::new(i % 64), i).unwrap();
            sys.read((i as usize + 3) % 8, WordAddr::new((i * 7) % 64))
                .unwrap();
        }
        sys
    }

    #[test]
    fn encode_decode_encode_is_a_byte_fixed_point() {
        let sys = busy_system();
        let once = encode_system(&sys).unwrap();
        let back = decode_system(&once).unwrap();
        let twice = encode_system(&back).unwrap();
        assert_eq!(once, twice);
        assert_eq!(back.protocol_fingerprint(), sys.protocol_fingerprint());
        assert_eq!(back.traffic(), sys.traffic());
        assert_eq!(memory_digest(&back), memory_digest(&sys));
    }

    /// The codec writes a cache in slot order, so two machines whose
    /// caches reached the same contents through different histories (sets
    /// first used in a different order, so line rows in a different order)
    /// encode to the same bytes.
    #[test]
    fn snapshot_bytes_ignore_cache_history() {
        let line = |tag: u64| CacheLine::invalid_hint(CacheId(tag as u16 % 8), 8, 4);
        let b = BlockAddr::new;
        let mut plain = System::new(SystemConfig::new(8)).unwrap();
        let mut churned = System::new(SystemConfig::new(8)).unwrap();
        // Blocks 0 and `far` share set 0; block 1 lives in set 1.
        let far = plain.cfg.geometry.sets() as u64;

        let a = &mut plain.caches[5];
        for tag in [0, 1, far] {
            a.insert(b(tag), line(tag));
        }
        a.get(b(0));
        a.get(b(0)); // clock at 5
        let c = &mut churned.caches[5];
        c.insert(b(1), line(1)); // set 1 first
        c.insert(b(0), line(0));
        c.insert(b(far), line(far));
        c.remove(b(0));
        c.insert(b(0), line(0)); // back into the freed way
        c.get(b(1)); // clock at 5
        for sys in [&mut plain, &mut churned] {
            for tag in [0, 1, far] {
                sys.caches[5].get(b(tag));
            }
        }

        let order =
            |sys: &System| -> Vec<u64> { sys.caches[5].iter().map(|(bl, _)| bl.index()).collect() };
        assert_ne!(order(&plain), order(&churned), "the histories must differ");
        assert_eq!(plain.caches[5], churned.caches[5]);
        assert_eq!(
            encode_system(&plain).unwrap(),
            encode_system(&churned).unwrap()
        );
    }

    #[test]
    fn resumed_system_continues_bit_identically() {
        let mut live = busy_system();
        let bytes = encode_system(&live).unwrap();
        let mut resumed = decode_system(&bytes).unwrap();
        for i in 200..400u64 {
            let p = (i % 8) as usize;
            live.write(p, WordAddr::new(i % 64), i).unwrap();
            resumed.write(p, WordAddr::new(i % 64), i).unwrap();
            assert_eq!(
                live.read((i as usize + 5) % 8, WordAddr::new(i % 64))
                    .unwrap(),
                resumed
                    .read((i as usize + 5) % 8, WordAddr::new(i % 64))
                    .unwrap()
            );
        }
        assert_eq!(live.protocol_fingerprint(), resumed.protocol_fingerprint());
        assert_eq!(live.traffic(), resumed.traffic());
        assert_eq!(
            live.counters().iter().collect::<Vec<_>>(),
            resumed.counters().iter().collect::<Vec<_>>()
        );
        assert_eq!(memory_digest(&live), memory_digest(&resumed));
    }

    #[test]
    fn unsupported_configs_are_rejected_with_typed_errors() {
        let sys =
            System::new(SystemConfig::new(4).timing(tmc_omeganet::TimingModel::default())).unwrap();
        assert!(matches!(
            encode_system(&sys),
            Err(SnapshotError::Unsupported(_))
        ));
        let sys = System::new(SystemConfig::new(4).log_transactions(true)).unwrap();
        assert!(matches!(
            encode_system(&sys),
            Err(SnapshotError::Unsupported(_))
        ));
        let mut sys = System::new(SystemConfig::new(4)).unwrap();
        sys.set_tracing(true);
        sys.write(0, WordAddr::new(1), 1).unwrap();
        assert!(matches!(
            encode_system(&sys),
            Err(SnapshotError::Unsupported(_))
        ));
        // Drained, the same system snapshots fine and keeps tracing on.
        sys.drain_trace();
        let bytes = encode_system(&sys).unwrap();
        assert!(decode_system(&bytes).unwrap().tracing_enabled());
    }

    #[test]
    fn journal_roundtrip_and_damage_detection() {
        let path = scratch("journal");
        let mut j = Journal::create(&path).unwrap();
        let payloads: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 40 + i as usize]).collect();
        for p in &payloads {
            j.append(p).unwrap();
        }
        assert_eq!(j.frames(), 3);
        let rec = recover_journal(&path).unwrap();
        assert!(rec.damage.is_none());
        assert_eq!(rec.frames, payloads);
        assert_eq!(rec.last().unwrap(), payloads[2].as_slice());

        let clean = fs::read(&path).unwrap();
        // Truncation at every byte boundary: never a panic, always either a
        // shorter valid prefix or typed damage.
        for cut in 8..clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            let rec = recover_journal(&path).unwrap();
            assert!(rec.frames.len() <= payloads.len());
            if cut < clean.len() {
                assert!(rec.damage.is_some() || rec.frames.len() < payloads.len());
            }
            for (got, want) in rec.frames.iter().zip(&payloads) {
                assert_eq!(got, want);
            }
        }
        // A flipped bit in the last frame's payload is caught by checksum;
        // the first two frames survive.
        let mut flipped = clean.clone();
        let last_payload_start = flipped.len() - 8 - payloads[2].len();
        flipped[last_payload_start] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        let rec = recover_journal(&path).unwrap();
        assert_eq!(rec.frames.len(), 2);
        assert_eq!(
            rec.damage,
            Some(SnapshotError::ChecksumMismatch { frame: 2 })
        );

        // A wrong file header is unrecoverable and typed.
        fs::write(&path, b"NOTAJRNL").unwrap();
        match recover_journal(&path) {
            Err(SnapshotError::BadMagic { at: 0 }) => {}
            other => panic!("expected BadMagic at 0, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn error_display_names_the_damage() {
        assert!(SnapshotError::Truncated { at: 9 }
            .to_string()
            .contains("byte 9"));
        assert!(SnapshotError::ChecksumMismatch { frame: 2 }
            .to_string()
            .contains("frame 2"));
        assert!(SnapshotError::BadMagic { at: 0 }
            .to_string()
            .contains("magic"));
        let boxed: Box<dyn Error> = Box::new(SnapshotError::Io("denied".into()));
        assert!(boxed.to_string().contains("denied"));
    }
}
