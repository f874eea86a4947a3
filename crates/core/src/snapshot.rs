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
//! file   := "TMCJ0003" frame*
//! frame  := "TMCF" len:u64le payload:[u8; len] digest(payload):u64le
//! ```
//!
//! A payload costs what the machine holds, not what its fields could hold
//! (payload version 2). Scalars and counts are LEB128 varints; ascending
//! keys (ledger cells, slots, ports, blocks) are written as the gap after
//! the previous key (`key − previous − 1`); a block's words are one width
//! byte (the widest word's byte count) and then every word at that width:
//!
//! ```text
//! payload := version=2 config clock=0 nak_budget tracing histogram counters
//!            ledger cache{n_caches} memory store faults
//! histogram := 65 0{65} count=0 total_low=0 total_high=0
//! ledger  := layers lines n (cell_delta bits)*        cell = layer·lines + line
//! cache   := tick n (line)*                           lines in slot order
//! line    := control flags slot_delta tag_high age [hint] present block [window]
//! present := n (port_delta)* | bitmap[⌈N/8⌉]          whichever is shorter
//! block   := width (word[width]){words per block}
//! memory  := n (block_delta block)*
//! store   := n (block_delta owner)*
//! ```
//!
//! `control` holds four 2-bit width codes (1, 2, 4 or 8 bytes) for the
//! slot delta, the tag with its set bits dropped (the slot implies the
//! set), the stamp's age `tick − stamp` and the owner hint; `flags` holds
//! the validity (2 bits), DW, M, hint-present, window-present and
//! present-as-bitmap bits, top bit clear. The three adaptive counters are
//! written only when one is nonzero. The decoder accepts the canonical
//! form only — narrowest widths, minimal varints of at most 10 bytes,
//! in-range checked deltas, no flag without its field and no field without
//! its flag, the shorter present-set form — so encode∘decode is a byte
//! fixed point, and a payload of another version is a typed
//! [`SnapshotError::Corrupt`].
//!
//! `clock` and `histogram` are reserved slots: the machine keeps no
//! simulated time and records no latencies, so they always hold the
//! constants shown, and the decoder rejects any other value.
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
//! `tmc crashsim` proves exactly that.
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

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use tmc_faults::{FaultInjector, FaultPlan, FaultSpec, InjectorState, MsgFault, RetryPolicy};
use tmc_memsys::{BlockAddr, BlockData, CacheId, MsgSizing};
use tmc_omeganet::{DestSet, LinkId, SchemeKind};

use crate::config::{ModePolicy, SystemConfig};
use crate::state::{CacheLine, Mode, OwnerState, OwnerTable, Validity, NO_ENTRY};
use crate::system::{FaultState, System};

/// Magic bytes opening a journal file. The version tail changes whenever
/// the frame format (including the digest function) or the payload format
/// changes, so stale journals are rejected at the header instead of
/// failing frame by frame.
const JOURNAL_MAGIC: [u8; 8] = *b"TMCJ0003";

/// Magic bytes opening each frame.
const FRAME_MAGIC: [u8; 4] = *b"TMCF";

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

/// Payload format version, the first field of every system payload.
const PAYLOAD_VERSION: u64 = 2;

/// Buckets of the reserved, always-empty latency-histogram slot.
const RESERVED_BUCKETS: u64 = 65;

/// Line flags byte: validity in the low two bits, then one bit each.
const FLAG_DW: u8 = 1 << 2;
const FLAG_MODIFIED: u8 = 1 << 3;
const FLAG_HINT: u8 = 1 << 4;
const FLAG_WINDOW: u8 = 1 << 5;
const FLAG_BITMAP: u8 = 1 << 6;
const FLAG_RESERVED: u8 = 1 << 7;

/// Fewest bytes a cache line takes: control, flags, three one-byte coded
/// fields, an empty present list and a zero block's width byte.
const MIN_LINE: usize = 7;

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
    /// A payload decoded to an impossible machine state, or is not in the
    /// canonical form the encoder writes.
    Corrupt(String),
    /// The machine cannot be checkpointed (an undrained tracer, or a block
    /// beyond the codec's limit).
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
// Byte codec: LEB128 varints, width-coded integers, width-packed blocks.
// ----------------------------------------------------------------------

/// Bytes the LEB128 encoding of `v` takes (1..=10).
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Writes `v` as LEB128 at `out[at..]`; returns the offset after it.
#[inline]
fn put_varint(out: &mut [u8], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        out[at] = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    out[at] = v as u8;
    at + 1
}

/// The 2-bit code of the narrowest of 1, 2, 4 and 8 bytes that holds `v`.
#[inline]
fn width_code(v: u64) -> u8 {
    const BY_TOP_BYTE: [u8; 8] = [0, 1, 2, 2, 3, 3, 3, 3];
    BY_TOP_BYTE[(63 - (v | 1).leading_zeros() as usize) >> 3]
}

/// Stores the low `1 << code` bytes of `v` at `out[at..]`; returns the
/// offset after them. The store is one whole 8-byte write, so `out` needs
/// 8 bytes of room whatever the width.
#[inline]
fn put_coded(out: &mut [u8], at: usize, v: u64, code: u8) -> usize {
    out[at..at + 8].copy_from_slice(&v.to_le_bytes());
    at + (1 << (code & 3))
}

/// Bytes the widest of `words` needs: 0 when every word is 0.
#[inline]
fn data_width(words: &[u64]) -> usize {
    let widest = words.iter().fold(0, |acc, &w| acc | w);
    (64 - widest.leading_zeros() as usize).div_ceil(8)
}

/// Writes a block as one width byte and every word at that width; needs
/// `1 + 8 * words.len()` bytes of room.
#[inline]
fn put_data(out: &mut [u8], at: usize, words: &[u64]) -> usize {
    let width = data_width(words);
    out[at] = width as u8;
    let mut at = at + 1;
    if width == 0 {
        return at; // an invalid entry's zeroed block: most lines
    }
    for &w in words {
        out[at..at + 8].copy_from_slice(&w.to_le_bytes());
        at += width;
    }
    at
}

/// Bytes a present set takes as a count plus ascending port deltas.
fn present_list_len(present: &DestSet) -> usize {
    let mut next = 0;
    let mut len = varint_len(present.len() as u64);
    for port in present.iter() {
        len += varint_len((port - next) as u64);
        next = port + 1;
    }
    len
}

/// The payload under construction: `buf[..pos]` is written and the bytes
/// past `pos` are working room, so a field can be stored with one whole
/// 8-byte write and then advanced by its real width. A cache line asks for
/// its worst-case room once and is written with plain indexed stores —
/// per-field `Vec` pushes, each a capacity check and a length update, cost
/// more than the bytes they save.
struct Writer {
    buf: Vec<u8>,
    pos: usize,
}

impl Writer {
    /// The room from `pos` on: at least `n` bytes.
    #[inline]
    fn room(&mut self, n: usize) -> &mut [u8] {
        if self.buf.len() - self.pos < n {
            self.grow(n);
        }
        &mut self.buf[self.pos..]
    }

    #[cold]
    fn grow(&mut self, n: usize) {
        let len = (self.pos + n).max(2 * self.buf.len());
        self.buf.resize(len, 0);
    }

    fn u8(&mut self, v: u8) {
        self.room(1)[0] = v;
        self.pos += 1;
    }

    fn varint(&mut self, v: u64) {
        let n = put_varint(self.room(10), 0, v);
        self.pos += n;
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.room(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.pos += bytes.len();
    }

    /// An ascending key as its distance from `*next`, which then moves
    /// past it.
    fn delta(&mut self, key: u64, next: &mut u64) {
        self.varint(key - *next);
        *next = key + 1;
    }

    fn data(&mut self, words: &[u64]) {
        let n = put_data(self.room(1 + 8 * words.len()), 0, words);
        self.pos += n;
    }

    fn finish(mut self) -> Vec<u8> {
        self.buf.truncate(self.pos);
        self.buf
    }
}

/// A borrowing, bounds-checked payload reader. Every overrun and every
/// encoding the writer would not have produced is a typed error, never a
/// panic, so a payload that decodes re-encodes to the same bytes.
///
/// The field readers are `inline(always)` and their error paths cold: a
/// line is a dozen fields, and as calls each returning a `Result` they
/// made decoding 15–20 % slower.
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

    #[cold]
    #[inline(never)]
    fn corrupt(&self, why: impl fmt::Display) -> SnapshotError {
        SnapshotError::Corrupt(format!("byte {}: {why}", self.pos))
    }

    #[inline(always)]
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(self.corrupt(format_args!("payload truncated (needed {n} more)")));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline(always)]
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    #[inline(always)]
    fn flag(&mut self, what: &str) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.corrupt(format_args!("{what} flag {v} is not a bool"))),
        }
    }

    /// A LEB128 varint: at most 10 bytes, the tenth carrying only bit 63,
    /// and no redundant trailing zero byte.
    #[inline(always)]
    fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.u8()?;
            if i == 9 && b > 1 {
                return Err(self.corrupt("varint overflows 64 bits"));
            }
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err(self.corrupt("varint has a redundant zero byte"));
                }
                return Ok(v);
            }
        }
        Err(self.corrupt("varint longer than 10 bytes"))
    }

    #[inline(always)]
    fn u32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| self.corrupt(format_args!("{what} {v} exceeds 32 bits")))
    }

    #[inline(always)]
    fn usize(&mut self, what: &str) -> Result<usize, SnapshotError> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| self.corrupt(format_args!("{what} {v} exceeds usize")))
    }

    /// An element count whose elements take at least `min_elem` bytes
    /// each; a count the remaining bytes cannot hold is rejected before
    /// anything is allocated for it.
    #[inline(always)]
    fn count(&mut self, min_elem: usize, what: &str) -> Result<usize, SnapshotError> {
        let n = self.varint()?;
        if n > (self.remaining() / min_elem) as u64 {
            return Err(self.corrupt(format_args!("{what} count {n} exceeds the payload")));
        }
        Ok(n as usize)
    }

    /// The ascending key after `*next`, stored as its distance from it.
    #[inline(always)]
    fn delta(&mut self, next: &mut u64, limit: u64, what: &str) -> Result<u64, SnapshotError> {
        let d = self.varint()?;
        match next.checked_add(d) {
            Some(key) if key < limit => {
                *next = key + 1;
                Ok(key)
            }
            _ => Err(self.corrupt(format_args!("{what} {next}+{d} out of range"))),
        }
    }

    /// A little-endian integer of `width` (0..=8) bytes.
    #[inline(always)]
    fn uint(&mut self, width: usize) -> Result<u64, SnapshotError> {
        if let Some(word) = self.buf.get(self.pos..self.pos + 8) {
            let v = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
            self.pos += width;
            Ok(if width == 8 {
                v
            } else {
                v & ((1 << (8 * width)) - 1)
            })
        } else {
            let bytes = self.bytes(width)?;
            Ok(bytes
                .iter()
                .rev()
                .fold(0, |acc, &b| acc << 8 | u64::from(b)))
        }
    }

    /// A width-coded field, which must sit at its narrowest width.
    #[inline(always)]
    fn coded(&mut self, code: u8, what: &str) -> Result<u64, SnapshotError> {
        let v = self.uint(1 << code)?;
        if width_code(v) != code {
            return Err(self.corrupt(format_args!("{what} {v} is wider than it needs")));
        }
        Ok(v)
    }

    /// A block written by [`put_data`], into `words`.
    #[inline(always)]
    fn data(&mut self, wpb: usize, words: &mut Vec<u64>) -> Result<(), SnapshotError> {
        let width = self.u8()? as usize;
        if width > 8 {
            return Err(self.corrupt(format_args!("word width {width}")));
        }
        words.clear();
        for _ in 0..wpb {
            words.push(self.uint(width)?);
        }
        if data_width(words) != width {
            return Err(self.corrupt(format_args!("word width {width} is not the widest word's")));
        }
        Ok(())
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format_args!(
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
fn intern(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = NAMES
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .expect("interner poisoned");
    if let Some(&s) = set.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
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
/// [`SnapshotError::Unsupported`] for a baseline machine, when the tracer
/// holds undrained events, or when memory, the block store or the fault state names a block at or
/// beyond 2³².
pub fn encode_system(sys: &System) -> Result<Vec<u8>, SnapshotError> {
    let mut buf = Vec::new();
    encode_system_into(sys, &mut buf)?;
    Ok(buf)
}

/// [`encode_system`], but writing into a caller-owned buffer that is
/// reused. Steady-cadence checkpointing should prefer this: the buffer's
/// pages stay mapped and its length from the last payload is the working
/// room for the next, so nothing is allocated or zero-filled again unless
/// the machine grew.
///
/// # Errors
///
/// As [`encode_system`]. On error the buffer contents are unspecified.
pub fn encode_system_into(sys: &System, out: &mut Vec<u8>) -> Result<(), SnapshotError> {
    if sys.home.is_some() {
        return Err(SnapshotError::Unsupported(
            "a baseline machine is not checkpointed",
        ));
    }
    if !sys.tracer.is_empty() {
        return Err(SnapshotError::Unsupported(
            "tracer holds undrained events; drain_trace() before snapshotting",
        ));
    }

    let n_caches = sys.cfg.n_caches;
    let wpb = sys.cfg.spec.words_per_block();
    let mut w = Writer {
        buf: std::mem::take(out),
        pos: 0,
    };
    if w.buf.is_empty() {
        // A first payload starts from a close estimate instead of doubling
        // up from nothing.
        let resident: usize = sys.caches.iter().map(|c| c.len()).sum();
        let estimate = 4096 + resident * (16 + 2 * wpb) + sys.memory.dirty_blocks() * (4 + 4 * wpb);
        w.buf.resize(estimate, 0);
    }
    w.varint(PAYLOAD_VERSION);
    encode_config(&mut w, &sys.cfg);

    w.varint(0); // reserved clock
    w.varint(sys.nak_budget as u64);
    w.u8(u8::from(sys.tracer.is_enabled()));

    // Reserved latency histogram, always empty: the bucket count, then
    // every bucket, the sample count and the two halves of the total.
    w.varint(RESERVED_BUCKETS);
    for _ in 0..RESERVED_BUCKETS + 3 {
        w.varint(0);
    }

    // Counters, in CounterSet's name order.
    w.varint(sys.counters.iter().count() as u64);
    for (name, value) in sys.counters.iter() {
        w.varint(name.len() as u64);
        w.bytes(name.as_bytes());
        w.varint(value);
    }

    // Per-link ledger: nonzero cells as deltas of their flat index
    // `layer · lines + line`, each with its bits.
    let layers = sys.traffic.layers();
    let lines = sys.traffic.n_ports();
    w.varint(layers as u64);
    w.varint(lines as u64);
    w.varint(sys.traffic.links_used() as u64);
    let mut next = 0;
    for layer in 0..layers {
        for line in 0..lines {
            let bits = sys.traffic.link_bits(LinkId {
                layer: layer as u32,
                line,
            });
            if bits > 0 {
                w.delta((layer * lines + line) as u64, &mut next);
                w.varint(bits);
            }
        }
    }

    // Every cache in slot order: its clock, then each resident line.
    let set_bits = sys.cfg.geometry.sets().trailing_zeros();
    let bitmap_len = n_caches.div_ceil(8);
    // Control and flags, four coded fields, present set, block, counters.
    let line_room = 2 + 4 * 8 + bitmap_len + 1 + 8 * wpb + 3 * 5;
    // Present sets up to this size are never longer as a list than as a
    // bitmap: a port delta takes at most `varint_len(n_caches - 1)` bytes.
    let list_bound = (bitmap_len - 1) / varint_len(n_caches as u64 - 1);
    // What a line that owns nothing writes: no present flags, no window.
    let owns_nothing = OwnerState {
        present: DestSet::empty(n_caches),
        window_refs: 0,
        window_remote_reads: 0,
        window_writes: 0,
    };
    for cache in &sys.caches {
        let tick = cache.tick();
        w.varint(tick);
        w.varint(cache.len() as u64);
        let mut next = 0;
        for (slot, tag, stamp, line) in cache.slots() {
            let head = LineHead {
                slot_delta: (slot - next) as u64,
                tag_high: tag >> set_bits,
                age: tick - stamp,
            };
            let owner = sys.owner_state(line).unwrap_or(&owns_nothing);
            let n = put_line(
                w.room(line_room),
                &head,
                line,
                owner,
                bitmap_len,
                list_bound,
            );
            w.pos += n;
            next = slot + 1;
        }
    }

    // Main memory: written blocks only, ascending.
    w.varint(sys.memory.dirty_blocks() as u64);
    // `for_each` rather than `for`: the paged iterators are nested
    // flat-maps, which iterate far faster from the inside. A machine holds
    // blocks only below `BlockAddr::LIMIT` (`System::read` refuses the
    // rest), the bound the decoder checks.
    let mut next = 0;
    sys.memory.iter().for_each(|(block, words)| {
        w.delta(block.index(), &mut next);
        w.data(words);
    });

    // Block store: (block, owner) entries, ascending.
    w.varint(sys.store.owned_blocks() as u64);
    let mut next = 0;
    sys.store.iter().for_each(|(block, owner)| {
        w.delta(block.index(), &mut next);
        w.varint(u64::from(owner.0));
    });

    // Live fault-injection state (the plan itself is regenerated from the
    // config's FaultSpec on decode).
    match &sys.faults {
        None => w.u8(0),
        Some(fs) => {
            w.u8(1);
            w.varint(fs.op);
            w.varint(fs.degraded.len() as u64);
            let mut next = 0;
            for (&block, &(heal, since)) in &fs.degraded {
                w.delta(block.index(), &mut next);
                w.varint(heal);
                w.varint(since);
            }
            w.varint(fs.quarantined.len() as u64);
            let mut next = 0;
            for (&cache, &(heal, since)) in &fs.quarantined {
                w.delta(cache as u64, &mut next);
                w.varint(heal);
                w.varint(since);
            }
            encode_injector(&mut w, &fs.injector.state());
        }
    }

    *out = w.finish();
    Ok(())
}

/// The fields of a line header that come from its slot rather than the
/// line: the distance from the previous occupied slot, the tag with its
/// set bits dropped (the slot implies the set), and the LRU stamp as its
/// age on the cache's clock.
struct LineHead {
    slot_delta: u64,
    tag_high: u64,
    age: u64,
}

/// Writes one cache line into `out` (which has the worst-case room) and
/// returns its length:
///
/// ```text
/// line := control flags slot_delta tag_high age [hint] present block [window]
/// ```
///
/// `control` holds the 2-bit width codes of the four coded fields (hint
/// code 0 when the line has no hint); `flags` the validity, DW, M, hint,
/// window and bitmap bits; `present` is a count plus ascending port deltas
/// or, when strictly shorter, a `bitmap_len`-byte bitmap; `window` the
/// three adaptive counters, present only when one is nonzero. Both come
/// from `owner`, the line's owner state (an empty one for a line that owns
/// nothing).
#[inline(always)]
fn put_line(
    out: &mut [u8],
    head: &LineHead,
    line: &CacheLine,
    owner: &OwnerState,
    bitmap_len: usize,
    list_bound: usize,
) -> usize {
    let hint = line.owner_hint.map(|c| u64::from(c.0));
    let window = [
        owner.window_refs,
        owner.window_remote_reads,
        owner.window_writes,
    ];
    // Only sets between the two size bounds need their list measured.
    let members = owner.present.len();
    let bitmap = members > list_bound
        && (members >= bitmap_len || bitmap_len < present_list_len(&owner.present));
    let codes = [
        width_code(head.slot_delta),
        width_code(head.tag_high),
        width_code(head.age),
        width_code(hint.unwrap_or(0)),
    ];
    // Every code is at most 3, so the head ends by byte 34; checking that
    // once spares the coded stores their own bounds checks.
    assert!(out.len() >= 34, "room for the line head");
    out[0] = codes[0] | codes[1] << 2 | codes[2] << 4 | codes[3] << 6;
    let flag = |on: bool, bit: u8| if on { bit } else { 0 };
    out[1] = match line.validity {
        Validity::Invalid => 0,
        Validity::UnOwned => 1,
        Validity::Owned => 2,
    } | flag(line.mode.dw_bit(), FLAG_DW)
        | flag(line.modified, FLAG_MODIFIED)
        | flag(hint.is_some(), FLAG_HINT)
        | flag(window != [0; 3], FLAG_WINDOW)
        | flag(bitmap, FLAG_BITMAP);
    let mut at = put_coded(out, 2, head.slot_delta, codes[0]);
    at = put_coded(out, at, head.tag_high, codes[1]);
    at = put_coded(out, at, head.age, codes[2]);
    if let Some(hint) = hint {
        at = put_coded(out, at, hint, codes[3]);
    }
    if bitmap {
        let map = &mut out[at..at + bitmap_len];
        map.fill(0);
        for port in owner.present.iter() {
            map[port / 8] |= 1 << (port % 8);
        }
        at += bitmap_len;
    } else {
        at = put_varint(out, at, members as u64);
        if members > 0 {
            // Most present sets are empty; this skips making an iterator.
            let mut next = 0;
            for port in owner.present.iter() {
                at = put_varint(out, at, (port - next) as u64);
                next = port + 1;
            }
        }
    }
    at = put_data(out, at, line.data.words());
    if window != [0; 3] {
        for v in window {
            at = put_varint(out, at, u64::from(v));
        }
    }
    at
}

fn encode_config(w: &mut Writer, cfg: &SystemConfig) {
    w.varint(cfg.n_caches as u64);
    w.varint(cfg.geometry.sets() as u64);
    w.varint(cfg.geometry.ways() as u64);
    w.varint(u64::from(cfg.spec.words_per_block().trailing_zeros()));
    w.varint(cfg.sizing.addr_bits);
    w.varint(cfg.sizing.word_bits);
    w.varint(cfg.sizing.block_words as u64);
    w.varint(cfg.sizing.control_bits);
    w.u8(match cfg.multicast {
        SchemeKind::Replicated => 0,
        SchemeKind::BitVector => 1,
        SchemeKind::BroadcastTag => 2,
        SchemeKind::Combined => 3,
    });
    match cfg.mode_policy {
        ModePolicy::Fixed(Mode::GlobalRead) => w.u8(0),
        ModePolicy::Fixed(Mode::DistributedWrite) => w.u8(1),
        ModePolicy::Adaptive { window } => {
            w.u8(2);
            w.varint(u64::from(window));
        }
    }
    w.u8(u8::from(cfg.owner_bypass));
    match &cfg.faults {
        None => w.u8(0),
        Some(spec) => {
            w.u8(1);
            w.varint(spec.seed);
            w.varint(spec.count as u64);
            w.varint(spec.horizon);
            w.varint(spec.mean_outage);
            w.varint(u64::from(spec.retry.max_retries));
            w.varint(spec.retry.backoff_base);
        }
    }
}

fn encode_injector(w: &mut Writer, st: &InjectorState) {
    w.varint(st.cursor as u64);
    w.varint(st.op);
    w.varint(st.down_links.len() as u64);
    for &(link, heal) in &st.down_links {
        w.varint(u64::from(link.layer));
        w.varint(link.line as u64);
        w.varint(heal);
    }
    w.varint(st.stalled.len() as u64);
    for &(cache, heal) in &st.stalled {
        w.varint(cache as u64);
        w.varint(heal);
    }
    w.varint(st.pending_msgs.len() as u64);
    for &m in &st.pending_msgs {
        match m {
            MsgFault::Drop => w.u8(0),
            MsgFault::Duplicate => w.u8(1),
            MsgFault::Delay(cycles) => {
                w.u8(2);
                w.varint(cycles);
            }
        }
    }
    w.varint(st.injected);
}

/// Rebuilds a complete machine from a payload produced by
/// [`encode_system`].
///
/// Every malformed input is rejected with a typed [`SnapshotError`]; this
/// function never panics, whatever the bytes. Only the canonical encoding
/// is accepted (narrowest widths, minimal varints, ascending keys, the
/// shorter present-set form), so a payload that decodes re-encodes to the
/// same bytes. The decoded system is *exactly* the snapshotted one: same
/// protocol fingerprint, counters, charge ledgers, LRU order and fault
/// state, so continuing it is bit-identical to continuing the original.
pub fn decode_system(bytes: &[u8]) -> Result<System, SnapshotError> {
    let mut r = Reader::new(bytes);
    let version = r.varint()?;
    if version != PAYLOAD_VERSION {
        return Err(r.corrupt(format_args!(
            "payload version {version}, this build reads {PAYLOAD_VERSION}"
        )));
    }
    let cfg = decode_config(&mut r)?;
    let mut sys = System::new(cfg).map_err(|e| r.corrupt(format_args!("config rejected: {e}")))?;

    let clock = r.varint()?;
    if clock != 0 {
        return Err(r.corrupt(format_args!("reserved clock slot holds {clock}")));
    }
    sys.nak_budget = r.usize("NAK budget")?;
    sys.tracer.set_enabled(r.flag("tracer")?);

    // Reserved latency histogram: always empty.
    let n_buckets = r.varint()?;
    if n_buckets != RESERVED_BUCKETS {
        return Err(r.corrupt(format_args!("histogram of {n_buckets} buckets")));
    }
    for _ in 0..RESERVED_BUCKETS + 3 {
        if r.varint()? != 0 {
            return Err(r.corrupt("reserved latency histogram is not empty"));
        }
    }

    // Counters, strictly ascending by name.
    let n_counters = r.count(2, "counter")?;
    let mut prev: Option<&str> = None;
    for _ in 0..n_counters {
        let name_len = r.count(1, "counter name byte")?;
        if name_len > 256 {
            return Err(r.corrupt(format_args!("counter name length {name_len}")));
        }
        let name = std::str::from_utf8(r.bytes(name_len)?)
            .map_err(|_| r.corrupt("counter name is not UTF-8"))?;
        if prev.is_some_and(|p| p >= name) {
            return Err(r.corrupt(format_args!("counter {name:?} out of order")));
        }
        prev = Some(name);
        let value = r.varint()?;
        sys.counters.add(intern(name), value);
    }

    // Traffic ledger.
    let layers = r.usize("ledger layers")?;
    let lines = r.usize("ledger lines")?;
    if layers != sys.traffic.layers() || lines != sys.traffic.n_ports() {
        return Err(r.corrupt(format_args!(
            "traffic shape {layers}x{lines} does not match the {}x{} network",
            sys.traffic.layers(),
            sys.traffic.n_ports()
        )));
    }
    let n_cells = r.count(2, "traffic cell")?;
    let mut next = 0;
    for _ in 0..n_cells {
        let cell = r.delta(&mut next, (layers * lines) as u64, "traffic cell")? as usize;
        let bits = r.varint()?;
        if bits == 0 {
            return Err(r.corrupt("zero traffic cell breaks canonical form"));
        }
        let link = LinkId {
            layer: (cell / lines) as u32,
            line: cell % lines,
        };
        sys.traffic.add(link, bits);
    }

    // Caches.
    let n_caches = sys.cfg.n_caches;
    let geometry = sys.cfg.geometry;
    let mut shape = LineShape {
        n_caches,
        ways: geometry.ways(),
        set_bits: geometry.sets().trailing_zeros(),
        capacity: geometry.capacity_blocks() as u64,
        bitmap_len: n_caches.div_ceil(8),
        wpb: sys.cfg.spec.words_per_block(),
        tick: 0,
    };
    let mut words = Vec::with_capacity(shape.wpb);
    for ci in 0..n_caches {
        shape.tick = r.varint()?;
        let n_lines = r.count(MIN_LINE, "cache line")?;
        let mut next = 0;
        for _ in 0..n_lines {
            let (slot, tag, stamp, line) =
                decode_line(&mut r, &shape, &mut next, &mut words, &mut sys.owners)?;
            sys.caches[ci].restore_slot(slot, tag, stamp, line);
        }
        sys.caches[ci].restore_tick(shape.tick);
    }

    // Main memory.
    let n_written = r.count(2, "memory block")?;
    let mut next = 0;
    for _ in 0..n_written {
        let block = r.delta(&mut next, BlockAddr::LIMIT, "memory block")?;
        r.data(shape.wpb, &mut words)?;
        sys.memory
            .write_block(BlockAddr::new(block), &BlockData::from_slice(&words));
    }

    // Block store.
    let n_owned = r.count(2, "store entry")?;
    let mut next = 0;
    for _ in 0..n_owned {
        let block = r.delta(&mut next, BlockAddr::LIMIT, "store block")?;
        let owner = r.varint()?;
        if owner >= n_caches as u64 {
            return Err(r.corrupt(format_args!("store owner C{owner} out of range")));
        }
        sys.store
            .set_owner(BlockAddr::new(block), CacheId(owner as u16));
    }

    // Fault state.
    let has_faults = r.flag("fault state")?;
    match (has_faults, sys.cfg.faults) {
        (false, None) => {}
        (true, Some(spec)) => {
            let op = r.varint()?;
            let n_degraded = r.count(3, "degraded block")?;
            let mut degraded = BTreeMap::new();
            let mut next = 0;
            for _ in 0..n_degraded {
                let block = r.delta(&mut next, BlockAddr::LIMIT, "degraded block")?;
                degraded.insert(BlockAddr::new(block), (r.varint()?, r.varint()?));
            }
            let n_quarantined = r.count(3, "quarantined cache")?;
            let mut quarantined = BTreeMap::new();
            let mut next = 0;
            for _ in 0..n_quarantined {
                let cache = r.delta(&mut next, n_caches as u64, "quarantined cache")?;
                quarantined.insert(cache as usize, (r.varint()?, r.varint()?));
            }
            let state = decode_injector(&mut r, n_caches, sys.net.stages())?;
            let plan = FaultPlan::generate(&spec, n_caches, sys.net.stages())
                .map_err(|e| r.corrupt(format_args!("fault plan regeneration failed: {e}")))?;
            let injector = FaultInjector::restore(plan, state)
                .ok_or_else(|| r.corrupt("injector cursor runs past the regenerated plan"))?;
            sys.faults = Some(Box::new(FaultState {
                injector,
                op,
                degraded,
                quarantined,
            }));
        }
        _ => {
            return Err(r.corrupt("fault-state presence disagrees with the configuration"));
        }
    }

    r.finish()?;
    Ok(sys)
}

fn decode_config(r: &mut Reader<'_>) -> Result<SystemConfig, SnapshotError> {
    let n_caches = r.usize("cache count")?;
    if !n_caches.is_power_of_two() || !(2..=65536).contains(&n_caches) {
        return Err(r.corrupt(format_args!("cache count {n_caches} invalid")));
    }
    let sets = r.usize("set count")?;
    let ways = r.usize("way count")?;
    let offset_bits = r.u32("block offset bits")?;
    let (geometry, spec) =
        SystemConfig::checked_shape(sets, ways, offset_bits).map_err(|why| r.corrupt(why))?;
    let sizing = MsgSizing {
        addr_bits: r.varint()?,
        word_bits: r.varint()?,
        block_words: r.usize("sizing block words")?,
        control_bits: r.varint()?,
    };
    let multicast = match r.u8()? {
        0 => SchemeKind::Replicated,
        1 => SchemeKind::BitVector,
        2 => SchemeKind::BroadcastTag,
        3 => SchemeKind::Combined,
        k => return Err(r.corrupt(format_args!("multicast scheme tag {k}"))),
    };
    let mode_policy = match r.u8()? {
        0 => ModePolicy::Fixed(Mode::GlobalRead),
        1 => ModePolicy::Fixed(Mode::DistributedWrite),
        2 => ModePolicy::Adaptive {
            window: r.u32("adaptive window")?,
        },
        k => return Err(r.corrupt(format_args!("mode policy tag {k}"))),
    };
    let owner_bypass = r.flag("owner bypass")?;
    let faults = if r.flag("fault spec")? {
        let seed = r.varint()?;
        let count = r.usize("fault count")?;
        let horizon = r.varint()?;
        let mean_outage = r.varint()?;
        let retry = RetryPolicy {
            max_retries: r.u32("max retries")?,
            backoff_base: r.varint()?,
        };
        Some(
            FaultSpec::new(seed)
                .count(count)
                .horizon(horizon)
                .mean_outage(mean_outage)
                .retry(retry),
        )
    } else {
        None
    };
    Ok(SystemConfig {
        n_caches,
        geometry,
        spec,
        sizing,
        multicast,
        mode_policy,
        owner_bypass,
        faults,
    })
}

/// What decoding a cache's lines needs to know about the machine.
struct LineShape {
    n_caches: usize,
    ways: usize,
    set_bits: u32,
    capacity: u64,
    bitmap_len: usize,
    wpb: usize,
    /// The clock of the cache being decoded.
    tick: u64,
}

/// Reads one line written by [`put_line`]: its slot (after `*next`, which
/// moves past it), tag, stamp and the line itself. An owned line's present
/// set and window go to a new entry of `owners`; a line that owns nothing
/// must carry an empty present set and no window.
fn decode_line(
    r: &mut Reader<'_>,
    shape: &LineShape,
    next: &mut u64,
    words: &mut Vec<u64>,
    owners: &mut OwnerTable,
) -> Result<(usize, u64, u64, CacheLine), SnapshotError> {
    let control = r.u8()?;
    let flags = r.u8()?;
    if flags & FLAG_RESERVED != 0 {
        return Err(r.corrupt("reserved line flag set"));
    }
    let validity = match flags & 3 {
        0 => Validity::Invalid,
        1 => Validity::UnOwned,
        2 => Validity::Owned,
        _ => return Err(r.corrupt("validity code 3")),
    };
    let slot_delta = r.coded(control & 3, "slot delta")?;
    let slot = match next.checked_add(slot_delta) {
        Some(slot) if slot < shape.capacity => slot,
        _ => return Err(r.corrupt(format_args!("slot {next}+{slot_delta} out of range"))),
    };
    *next = slot + 1;
    let slot = slot as usize;
    let tag_high = r.coded(control >> 2 & 3, "tag")?;
    if shape.set_bits > 0 && tag_high >> (64 - shape.set_bits) != 0 {
        return Err(r.corrupt(format_args!("tag {tag_high:#x} overflows 64 bits")));
    }
    let tag = tag_high << shape.set_bits | (slot / shape.ways) as u64;
    if tag >= BlockAddr::LIMIT {
        return Err(r.corrupt(format_args!("tag {tag:#x} beyond the machine's blocks")));
    }
    let age = r.coded(control >> 4 & 3, "stamp age")?;
    if age >= shape.tick {
        return Err(r.corrupt(format_args!(
            "stamp age {age} reaches past clock {}",
            shape.tick
        )));
    }
    let hint_code = control >> 6;
    let owner_hint = if flags & FLAG_HINT != 0 {
        let hint = r.coded(hint_code, "owner hint")?;
        if hint >= shape.n_caches as u64 {
            return Err(r.corrupt(format_args!("owner hint C{hint} out of range")));
        }
        Some(CacheId(hint as u16))
    } else if hint_code != 0 {
        return Err(r.corrupt("hint width without a hint"));
    } else {
        None
    };

    let n = shape.n_caches;
    let mut present = DestSet::empty(n);
    if flags & FLAG_BITMAP != 0 {
        for (i, &byte) in r.bytes(shape.bitmap_len)?.iter().enumerate() {
            let mut rest = byte;
            while rest != 0 {
                let port = 8 * i + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if port >= n {
                    return Err(r.corrupt(format_args!("present bit {port} of {n} ports")));
                }
                present.insert(port);
            }
        }
        if present_list_len(&present) <= shape.bitmap_len {
            return Err(r.corrupt("present bitmap where the list is no longer"));
        }
    } else {
        let start = r.pos;
        let members = r.count(1, "present port")?;
        if members > n {
            return Err(r.corrupt(format_args!("present set of {members} over {n} ports")));
        }
        let mut next = 0;
        for _ in 0..members {
            present.insert(r.delta(&mut next, n as u64, "present port")? as usize);
        }
        if r.pos - start > shape.bitmap_len {
            return Err(r.corrupt("present list longer than its bitmap"));
        }
    }

    r.data(shape.wpb, words)?;
    let window = if flags & FLAG_WINDOW != 0 {
        let window = [
            r.u32("window refs")?,
            r.u32("window remote reads")?,
            r.u32("window writes")?,
        ];
        if window == [0; 3] {
            return Err(r.corrupt("window counters flagged but all zero"));
        }
        window
    } else {
        [0; 3]
    };
    let entry = if validity == Validity::Owned {
        owners.take(OwnerState {
            present,
            window_refs: window[0],
            window_remote_reads: window[1],
            window_writes: window[2],
        })
    } else if !present.is_empty() || window != [0; 3] {
        return Err(r.corrupt("owner state on a line that is not owned"));
    } else {
        NO_ENTRY
    };
    let line = CacheLine {
        validity,
        mode: if flags & FLAG_DW != 0 {
            Mode::DistributedWrite
        } else {
            Mode::GlobalRead
        },
        modified: flags & FLAG_MODIFIED != 0,
        owner_hint,
        entry,
        data: BlockData::from_slice(words),
    };
    Ok((slot, tag, shape.tick - age, line))
}

fn decode_injector(
    r: &mut Reader<'_>,
    n_caches: usize,
    stages: u32,
) -> Result<InjectorState, SnapshotError> {
    let cursor = r.usize("injector cursor")?;
    let op = r.varint()?;
    let n_down = r.count(3, "down link")?;
    let mut down_links = Vec::with_capacity(n_down);
    for _ in 0..n_down {
        let layer = r.u32("down link layer")?;
        let line = r.usize("down link line")?;
        if layer > stages || line >= n_caches {
            return Err(r.corrupt(format_args!("down link ({layer}, {line}) out of shape")));
        }
        down_links.push((LinkId { layer, line }, r.varint()?));
    }
    let n_stalled = r.count(2, "stalled cache")?;
    let mut stalled = Vec::with_capacity(n_stalled);
    for _ in 0..n_stalled {
        let cache = r.usize("stalled cache")?;
        if cache >= n_caches {
            return Err(r.corrupt(format_args!("stalled cache {cache} out of range")));
        }
        stalled.push((cache, r.varint()?));
    }
    let n_pending = r.count(1, "pending message fault")?;
    let mut pending_msgs = Vec::with_capacity(n_pending);
    for _ in 0..n_pending {
        pending_msgs.push(match r.u8()? {
            0 => MsgFault::Drop,
            1 => MsgFault::Duplicate,
            2 => MsgFault::Delay(r.varint()?),
            k => return Err(r.corrupt(format_args!("message fault tag {k}"))),
        });
    }
    let injected = r.varint()?;
    Ok(InjectorState {
        cursor,
        op,
        down_links,
        stalled,
        pending_msgs,
        injected,
    })
}

/// FNV-1a digest of the written-block memory image (each block's index and
/// words as little-endian `u64`s, ascending) — a compact witness for the
/// crash harness's "memory images equal" assertion.
pub fn memory_digest(sys: &System) -> u64 {
    let mut hash = FNV_OFFSET;
    for (block, words) in sys.memory.iter() {
        for word in std::iter::once(block.index()).chain(words.iter().copied()) {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
    }
    hash
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
        // The decoder hands out owner-table entries in slot order, the
        // machine in the order blocks became owned: the lines are equal
        // all the same, and every owner state reads through its handle.
        assert!(back.caches == sys.caches);
        assert_eq!(back.owners.live(), sys.store.owned_blocks());
        back.check_invariants().unwrap();
    }

    /// Owner state belongs to owned lines: a payload that gives a present
    /// set or window counters to a copy or an invalid entry is corrupt.
    #[test]
    fn owner_state_off_an_owner_is_corrupt() {
        let mut sys = System::new(SystemConfig::new(4)).unwrap();
        sys.write(0, WordAddr::new(0), 1).unwrap();
        sys.read(1, WordAddr::new(0)).unwrap(); // C1: invalid entry (GR)
        let payload = encode_system(&sys).unwrap();
        let mut back = decode_system(&payload).unwrap();
        // Give C1's invalid entry an owner's state by hand and encode it.
        let at = back.caches[1].find(BlockAddr::new(0)).unwrap();
        let mut line = back.caches[1].line(at).clone();
        line.validity = Validity::Owned;
        line.entry = back.owners.take(OwnerState::exclusive(CacheId(1), 4));
        *back.caches[1].line_mut(at) = line;
        let forged = encode_system(&back).unwrap();
        // Flip the validity code of C1's line back to Invalid: its flags
        // byte is the only byte that differs between the two validities.
        let diff: Vec<usize> = (0..forged.len().min(payload.len()))
            .filter(|&i| forged[i] != payload[i])
            .collect();
        let flags = diff[0];
        assert_eq!(
            forged[flags] & 3,
            2,
            "C1's flags byte is the first to differ"
        );
        let mut damaged = forged.clone();
        damaged[flags] &= !3;
        match decode_system(&damaged) {
            Err(SnapshotError::Corrupt(why)) => {
                assert!(
                    why.contains("owner state on a line that is not owned"),
                    "{why}"
                )
            }
            other => panic!("decoded {:?}", other.map(|_| ())),
        }
    }

    /// The codec writes a cache in slot order, so two machines whose
    /// caches reached the same contents through different histories (sets
    /// first used in a different order, so line rows in a different order)
    /// encode to the same bytes.
    #[test]
    fn snapshot_bytes_ignore_cache_history() {
        let line = |tag: u64| CacheLine::invalid_hint(CacheId(tag as u16 % 8), 4);
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
        // A baseline machine is never checkpointed.
        let baseline = System::baseline(SystemConfig::new(4), crate::Baseline::NoCache).unwrap();
        assert_eq!(
            encode_system(&baseline),
            Err(SnapshotError::Unsupported(
                "a baseline machine is not checkpointed"
            ))
        );
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

    /// The digest folds FNV-1a word by word; the value is the one the
    /// earlier build-the-image-then-hash version gave, so crash-harness
    /// witnesses recorded before the change still compare.
    #[test]
    fn memory_digest_is_pinned() {
        let sys = busy_system();
        assert!(sys.memory.dirty_blocks() > 0);
        assert_eq!(memory_digest(&sys), 0x759e_1a3d_933e_e188);
        let empty = System::new(SystemConfig::new(4)).unwrap();
        assert_eq!(memory_digest(&empty), FNV_OFFSET);
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
