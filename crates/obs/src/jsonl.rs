//! The replayable JSONL trace format.
//!
//! A trace is a text file with one JSON object per line:
//!
//! ```text
//! {"type":"header","version":1,"n_procs":4,...}   <- run configuration
//! {"type":"read","proc":0,"addr":64,...}          <- one line per event
//! ...
//! {"type":"trailer","events":912,"fingerprint":...,"total_bits":...,"links":[...]}
//! ```
//!
//! The header carries enough configuration to rebuild an identical
//! `System`; the trailer pins three independent checks — the FNV-1a hash of
//! the protocol fingerprint, the total bits charged, and every nonzero
//! per-link bit charge — so a replay harness can re-execute the `Read` /
//! `Write` / `SetMode` events and assert the run reproduces exactly.
//!
//! There is one codec, and it works on bytes. [`encode_event_into`]
//! appends a line to a reused buffer: `type` first, then the variant's
//! fields in a fixed order, keys as literal bytes, integers through
//! `json::write_u64`, a cast's links straight from its
//! [`LinkCharge`] slice. Event vocabulary strings (kinds, modes, schemes,
//! fault labels) are written unescaped because none of them can need
//! escaping; the header's free-form `scheme` and `policy` are escaped.
//! [`TraceWriter`] writes each line with one `write_all` and never clones
//! an event. Those bytes are a contract: replay checks, journal checksums
//! and golden digests hash them.
//!
//! Reading is a borrowing scan. [`TraceReader`] reads each line into one
//! reused buffer, and one pass over it fills a fixed slot per known key:
//! integers and booleans decoded in place, strings and link arrays by
//! offset (unknown keys are checked and dropped, keys may come in any
//! order, the last of a repeated key wins). The record's `type` then reads
//! just the slots it needs, with the JSON type it needs there. Nothing is
//! allocated per field except an escaped string and a cast's link vector.
//! Every other input — malformed JSON, a missing or mistyped field, a value
//! out of range, records out of order — is a [`TraceError`] naming the
//! line, never a panic.

use std::borrow::Cow;
use std::fmt;
use std::io::{self, BufRead, Write};

use crate::event::{
    parse_scheme_choice, scheme_choice_str, FaultLabel, LinkCharge, ProtocolEvent, TraceMode,
};
use crate::json::{write_str, write_u64, Scanner, SyntaxError, Value};
use tmc_memsys::{BlockAddr, WordAddr};

/// Current trace-format version; bumped on incompatible encoding changes.
pub const TRACE_VERSION: u64 = 1;

/// The FNV-1a 64-bit offset basis: the hash of no bytes, where a
/// streaming [`fnv1a64_fold`] starts.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the running FNV-1a state `h`; folding chunks in turn
/// from [`FNV1A64_OFFSET`] equals [`fnv1a64`] of their concatenation.
pub fn fnv1a64_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a hash of `bytes`, used to pin protocol fingerprints in trailers.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV1A64_OFFSET, bytes)
}

/// The first record of a trace: the run configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Trace-format version ([`TRACE_VERSION`]).
    pub version: u64,
    /// Number of processors/caches (power of two).
    pub n_procs: usize,
    /// Cache sets.
    pub sets: usize,
    /// Cache ways.
    pub ways: usize,
    /// log2 words per block.
    pub words_log2: u32,
    /// Multicast scheme: `replicated`, `bitvector`, `broadcast-tag`,
    /// `combined`.
    pub scheme: String,
    /// Mode policy: `fixed-dw`, `fixed-gr`, or `adaptive:<window>`.
    pub policy: String,
    /// Whether the OWNER-hint bypass is on.
    pub owner_bypass: bool,
}

/// The last record of a trace: the replay-check obligations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTrailer {
    /// Number of event records between header and trailer.
    pub events: u64,
    /// [`fnv1a64`] of the system's protocol fingerprint bytes.
    pub fingerprint: u64,
    /// Total bits charged across all network links.
    pub total_bits: u64,
    /// Every nonzero per-link charge, as `(layer, line, bits)`.
    pub links: Vec<LinkCharge>,
}

/// One parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// The configuration record.
    Header(TraceHeader),
    /// A protocol event.
    Event(ProtocolEvent),
    /// The closing check record.
    Trailer(TraceTrailer),
}

/// What was wrong with a trace line or with the trace as a whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// Reading the input failed.
    Io(String),
    /// The line is not a flat JSON object of the trace subset.
    Syntax(SyntaxError),
    /// A field the record's type requires is absent.
    Missing(&'static str),
    /// A field holds a value of the wrong JSON type.
    WrongType {
        /// The field.
        field: &'static str,
        /// What the record's type needs there.
        expected: &'static str,
    },
    /// A field holds a value outside its vocabulary or range.
    BadValue {
        /// The field.
        field: &'static str,
        /// The rejected value as written.
        value: String,
    },
    /// `type` names no record kind.
    UnknownType(String),
    /// The records are not one header, events, one trailer.
    Shape(&'static str),
    /// The trailer's event count disagrees with the events read.
    EventCount {
        /// Count the trailer states.
        trailer: u64,
        /// Event records actually read.
        read: u64,
    },
}

impl fmt::Display for TraceErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceErrorKind::Io(e) => write!(f, "read failed: {e}"),
            TraceErrorKind::Syntax(e) => write!(f, "{e}"),
            TraceErrorKind::Missing(field) => write!(f, "missing field '{field}'"),
            TraceErrorKind::WrongType { field, expected } => {
                write!(f, "field '{field}' is not {expected}")
            }
            TraceErrorKind::BadValue { field, value } => write!(f, "bad {field} '{value}'"),
            TraceErrorKind::UnknownType(t) => write!(f, "unknown record type '{t}'"),
            TraceErrorKind::Shape(what) => f.write_str(what),
            TraceErrorKind::EventCount { trailer, read } => {
                write!(f, "trailer says {trailer} events but trace has {read}")
            }
        }
    }
}

/// A rejected trace: what was wrong and on which line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number; for a fault of the whole trace (no trailer, a
    /// wrong event count) the last line read.
    pub line: usize,
    /// What was wrong.
    pub kind: TraceErrorKind,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl std::error::Error for TraceError {}

impl From<TraceError> for String {
    fn from(e: TraceError) -> String {
        e.to_string()
    }
}

macro_rules! keys {
    ($($key:ident = $name:literal,)*) => {
        /// Every key a trace record can carry.
        #[derive(Clone, Copy)]
        enum Key {
            $($key,)*
        }

        impl Key {
            const COUNT: usize = [$($name),*].len();
            const NAMES: [&'static str; Key::COUNT] = [$($name),*];
            /// `,"key":` for each key — how a field after the first begins.
            const FIELDS: [&'static [u8]; Key::COUNT] =
                [$(concat!(",\"", $name, "\":").as_bytes()),*];

            fn of(name: &[u8]) -> Option<Key> {
                $(if name == $name.as_bytes() {
                    return Some(Key::$key);
                })*
                None
            }
        }
    };
}

keys! {
    // Most frequent first: a line's keys are looked up in this order.
    Type = "type", Proc = "proc", Block = "block", Addr = "addr", Value = "value", Hit = "hit",
    CostBits = "cost_bits", Mode = "mode", Write = "write", Cold = "cold",
    From = "from", To = "to", Handoff = "handoff", WroteBack = "wrote_back", Scheme = "scheme",
    PayloadBits = "payload_bits", Links = "links", Owner = "owner", Adaptive = "adaptive",
    Label = "label", Op = "op", Layer = "layer", Line = "line", Cache = "cache",
    HealOp = "heal_op", Dest = "dest", Attempt = "attempt", BackoffCycles = "backoff_cycles",
    AfterOps = "after_ops", Version = "version", NProcs = "n_procs", Sets = "sets", Ways = "ways",
    WordsLog2 = "words_log2", Policy = "policy", OwnerBypass = "owner_bypass", Events = "events",
    Fingerprint = "fingerprint", TotalBits = "total_bits",
}

/// One line being appended: `{"type":"<kind>"`, then `,"key":value`
/// fields, then `}` from [`Line::close`].
struct Line<'a>(&'a mut Vec<u8>);

impl<'a> Line<'a> {
    fn open(out: &'a mut Vec<u8>, kind: &str) -> Self {
        out.extend_from_slice(b"{\"type\":\"");
        out.extend_from_slice(kind.as_bytes());
        out.push(b'"');
        Line(out)
    }

    fn key(&mut self, key: Key) -> &mut Vec<u8> {
        self.0.extend_from_slice(Key::FIELDS[key as usize]);
        self.0
    }

    fn int(&mut self, key: Key, v: u64) -> &mut Self {
        write_u64(self.key(key), v);
        self
    }

    fn opt(&mut self, key: Key, v: Option<u64>) -> &mut Self {
        if let Some(v) = v {
            self.int(key, v);
        }
        self
    }

    fn flag(&mut self, key: Key, v: bool) -> &mut Self {
        let bytes: &[u8] = if v { b"true" } else { b"false" };
        self.key(key).extend_from_slice(bytes);
        self
    }

    /// A string from the event vocabularies, which never needs escaping
    /// (`event_labels_never_need_escaping` pins that).
    fn label(&mut self, key: Key, v: &str) -> &mut Self {
        let out = self.key(key);
        out.push(b'"');
        out.extend_from_slice(v.as_bytes());
        out.push(b'"');
        self
    }

    fn text(&mut self, key: Key, v: &str) -> &mut Self {
        write_str(self.key(key), v);
        self
    }

    fn links(&mut self, key: Key, links: &[LinkCharge]) -> &mut Self {
        let out = self.key(key);
        out.push(b'[');
        for (i, l) in links.iter().enumerate() {
            out.extend_from_slice(if i == 0 { b"[" } else { b",[" });
            write_u64(out, u64::from(l.layer));
            out.push(b',');
            write_u64(out, l.line as u64);
            out.push(b',');
            write_u64(out, l.bits);
            out.push(b']');
        }
        out.push(b']');
        self
    }

    fn close(&mut self) {
        self.0.push(b'}');
    }
}

fn encode_header_into(out: &mut Vec<u8>, h: &TraceHeader) {
    Line::open(out, "header")
        .int(Key::Version, h.version)
        .int(Key::NProcs, h.n_procs as u64)
        .int(Key::Sets, h.sets as u64)
        .int(Key::Ways, h.ways as u64)
        .int(Key::WordsLog2, u64::from(h.words_log2))
        .text(Key::Scheme, &h.scheme)
        .text(Key::Policy, &h.policy)
        .flag(Key::OwnerBypass, h.owner_bypass)
        .close();
}

fn encode_trailer_into(out: &mut Vec<u8>, t: &TraceTrailer) {
    Line::open(out, "trailer")
        .int(Key::Events, t.events)
        .int(Key::Fingerprint, t.fingerprint)
        .int(Key::TotalBits, t.total_bits)
        .links(Key::Links, &t.links)
        .close();
}

/// Appends `event`'s line (no trailing newline) to `out`: the bytes of
/// [`encode_record`] of [`TraceRecord::Event`], without cloning the event.
pub fn encode_event_into(out: &mut Vec<u8>, event: &ProtocolEvent) {
    let mut w = Line::open(out, event.kind());
    match *event {
        ProtocolEvent::Read {
            proc,
            addr,
            value,
            hit,
            cost_bits,
            mode,
        }
        | ProtocolEvent::Write {
            proc,
            addr,
            value,
            hit,
            cost_bits,
            mode,
        } => {
            w.int(Key::Proc, proc as u64)
                .int(Key::Addr, addr.value())
                .int(Key::Value, value)
                .flag(Key::Hit, hit)
                .int(Key::CostBits, cost_bits);
            if let Some(m) = mode {
                w.label(Key::Mode, m.as_str());
            }
        }
        ProtocolEvent::SetMode { proc, addr, mode } => {
            w.int(Key::Proc, proc as u64)
                .int(Key::Addr, addr.value())
                .label(Key::Mode, mode.as_str());
        }
        ProtocolEvent::Miss {
            proc,
            block,
            write,
            cold,
        } => {
            w.int(Key::Proc, proc as u64)
                .int(Key::Block, block.index())
                .flag(Key::Write, write)
                .flag(Key::Cold, cold);
        }
        ProtocolEvent::ModeSwitch {
            owner,
            block,
            to,
            adaptive,
        } => {
            w.int(Key::Owner, owner as u64)
                .int(Key::Block, block.index())
                .label(Key::To, to.as_str())
                .flag(Key::Adaptive, adaptive);
        }
        ProtocolEvent::OwnershipTransfer {
            block,
            from,
            to,
            handoff,
        } => {
            w.int(Key::Block, block.index())
                .int(Key::From, from as u64)
                .int(Key::To, to as u64)
                .flag(Key::Handoff, handoff);
        }
        ProtocolEvent::Replacement {
            proc,
            block,
            wrote_back,
        } => {
            w.int(Key::Proc, proc as u64)
                .int(Key::Block, block.index())
                .flag(Key::WroteBack, wrote_back);
        }
        ProtocolEvent::Cast {
            from,
            scheme,
            payload_bits,
            cost_bits,
            ref links,
        } => {
            w.int(Key::From, from as u64)
                .label(Key::Scheme, scheme_choice_str(scheme))
                .int(Key::PayloadBits, payload_bits)
                .int(Key::CostBits, cost_bits)
                .links(Key::Links, links);
        }
        ProtocolEvent::FaultInjected {
            label,
            op,
            layer,
            line,
            cache,
            heal_op,
        } => {
            w.label(Key::Label, label.as_str())
                .int(Key::Op, op)
                .opt(Key::Layer, layer.map(u64::from))
                .opt(Key::Line, line.map(|l| l as u64))
                .opt(Key::Cache, cache.map(|c| c as u64))
                .opt(Key::HealOp, heal_op);
        }
        ProtocolEvent::RetryAttempt {
            op,
            proc,
            dest,
            attempt,
            backoff_cycles,
        } => {
            w.int(Key::Op, op)
                .int(Key::Proc, proc as u64)
                .int(Key::Dest, dest as u64)
                .int(Key::Attempt, u64::from(attempt))
                .int(Key::BackoffCycles, backoff_cycles);
        }
        ProtocolEvent::Degraded {
            op,
            block,
            cache,
            heal_op,
        } => {
            w.int(Key::Op, op)
                .opt(Key::Block, block.map(BlockAddr::index))
                .opt(Key::Cache, cache.map(|c| c as u64))
                .int(Key::HealOp, heal_op);
        }
        ProtocolEvent::Recovered {
            op,
            block,
            cache,
            after_ops,
        } => {
            w.int(Key::Op, op)
                .opt(Key::Block, block.map(BlockAddr::index))
                .opt(Key::Cache, cache.map(|c| c as u64))
                .int(Key::AfterOps, after_ops);
        }
    }
    w.close();
}

/// Encodes one record as a single JSON line (no trailing newline).
pub fn encode_record(record: &TraceRecord) -> String {
    let mut out = Vec::new();
    match record {
        TraceRecord::Header(h) => encode_header_into(&mut out, h),
        TraceRecord::Event(e) => encode_event_into(&mut out, e),
        TraceRecord::Trailer(t) => encode_trailer_into(&mut out, t),
    }
    String::from_utf8(out).expect("the encoder writes ASCII and whole UTF-8 strings")
}

/// The value of each known key in one line, as `Scanner::value` left
/// it; the record's `type` decides which ones are read, and as what.
struct Slots<'a> {
    line: &'a [u8],
    values: [Option<Value>; Key::COUNT],
}

impl<'a> Slots<'a> {
    fn scan(line: &'a [u8]) -> Result<Self, TraceErrorKind> {
        let mut values = [None; Key::COUNT];
        Scanner::at(line, 0)
            .object(|s, key| {
                let v = s.value()?;
                if let Some(k) = Key::of(key) {
                    values[k as usize] = Some(v);
                }
                Ok(())
            })
            .map_err(TraceErrorKind::Syntax)?;
        Ok(Slots { line, values })
    }

    fn opt_num<T: TryFrom<u64>>(&self, key: Key) -> Result<Option<T>, TraceErrorKind> {
        match self.values[key as usize] {
            None => Ok(None),
            Some(Value::Int(v)) => T::try_from(v).map(Some).map_err(|_| bad(key, v)),
            Some(_) => Err(wrong(key, "an unsigned integer")),
        }
    }

    fn num<T: TryFrom<u64>>(&self, key: Key) -> Result<T, TraceErrorKind> {
        self.opt_num(key)?.ok_or_else(|| missing(key))
    }

    fn flag(&self, key: Key) -> Result<bool, TraceErrorKind> {
        match self.values[key as usize] {
            None => Err(missing(key)),
            Some(Value::Bool(b)) => Ok(b),
            Some(_) => Err(wrong(key, "a boolean")),
        }
    }

    fn opt_text(&self, key: Key) -> Result<Option<Cow<'a, str>>, TraceErrorKind> {
        match self.values[key as usize] {
            None => Ok(None),
            Some(Value::Str(at)) => Scanner::at(self.line, at)
                .string()
                .map(Some)
                .map_err(TraceErrorKind::Syntax),
            Some(_) => Err(wrong(key, "a string")),
        }
    }

    fn text(&self, key: Key) -> Result<Cow<'a, str>, TraceErrorKind> {
        self.opt_text(key)?.ok_or_else(|| missing(key))
    }

    fn label<T>(
        &self,
        key: Key,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, TraceErrorKind> {
        let s = self.text(key)?;
        parse(&s).ok_or_else(|| bad(key, s))
    }

    fn links(&self, key: Key) -> Result<Vec<LinkCharge>, TraceErrorKind> {
        let at = match self.values[key as usize] {
            None => return Err(missing(key)),
            Some(Value::Rows(at)) => at,
            Some(_) => return Err(wrong(key, "an array of integer arrays")),
        };
        let mut links = Vec::new();
        Scanner::at(self.line, at)
            .int_rows(|len, [layer, line, bits]| {
                match (len, u32::try_from(layer), usize::try_from(line)) {
                    (3, Ok(layer), Ok(line)) => {
                        links.push(LinkCharge { layer, line, bits });
                        true
                    }
                    _ => false,
                }
            })
            .map_err(TraceErrorKind::Syntax)?;
        Ok(links)
    }
}

fn missing(key: Key) -> TraceErrorKind {
    TraceErrorKind::Missing(Key::NAMES[key as usize])
}

fn wrong(key: Key, expected: &'static str) -> TraceErrorKind {
    TraceErrorKind::WrongType {
        field: Key::NAMES[key as usize],
        expected,
    }
}

fn bad(key: Key, value: impl fmt::Display) -> TraceErrorKind {
    TraceErrorKind::BadValue {
        field: Key::NAMES[key as usize],
        value: value.to_string(),
    }
}

fn parse_line(line: &[u8]) -> Result<TraceRecord, TraceErrorKind> {
    let f = Slots::scan(line)?;
    let kind = match f.values[Key::Type as usize] {
        Some(Value::Str(at)) => Scanner::at(line, at).bytes(),
        Some(_) => return Err(wrong(Key::Type, "a string")),
        None => return Err(missing(Key::Type)),
    };
    let kind = kind.map_err(TraceErrorKind::Syntax)?;
    let event = match &*kind {
        b"header" => {
            return Ok(TraceRecord::Header(TraceHeader {
                version: f.num(Key::Version)?,
                n_procs: f.num(Key::NProcs)?,
                sets: f.num(Key::Sets)?,
                ways: f.num(Key::Ways)?,
                words_log2: f.num(Key::WordsLog2)?,
                scheme: f.text(Key::Scheme)?.into_owned(),
                policy: f.text(Key::Policy)?.into_owned(),
                owner_bypass: f.flag(Key::OwnerBypass)?,
            }))
        }
        b"trailer" => {
            return Ok(TraceRecord::Trailer(TraceTrailer {
                events: f.num(Key::Events)?,
                fingerprint: f.num(Key::Fingerprint)?,
                total_bits: f.num(Key::TotalBits)?,
                links: f.links(Key::Links)?,
            }))
        }
        b"read" | b"write" => {
            let proc = f.num(Key::Proc)?;
            let addr = WordAddr::new(f.num(Key::Addr)?);
            let value = f.num(Key::Value)?;
            let hit = f.flag(Key::Hit)?;
            let cost_bits = f.num(Key::CostBits)?;
            let mode = match f.opt_text(Key::Mode)? {
                Some(s) => Some(TraceMode::parse(&s).ok_or_else(|| bad(Key::Mode, s))?),
                None => None,
            };
            if &*kind == b"read" {
                ProtocolEvent::Read {
                    proc,
                    addr,
                    value,
                    hit,
                    cost_bits,
                    mode,
                }
            } else {
                ProtocolEvent::Write {
                    proc,
                    addr,
                    value,
                    hit,
                    cost_bits,
                    mode,
                }
            }
        }
        b"set_mode" => ProtocolEvent::SetMode {
            proc: f.num(Key::Proc)?,
            addr: WordAddr::new(f.num(Key::Addr)?),
            mode: f.label(Key::Mode, TraceMode::parse)?,
        },
        b"miss" => ProtocolEvent::Miss {
            proc: f.num(Key::Proc)?,
            block: BlockAddr::new(f.num(Key::Block)?),
            write: f.flag(Key::Write)?,
            cold: f.flag(Key::Cold)?,
        },
        b"mode_switch" => ProtocolEvent::ModeSwitch {
            owner: f.num(Key::Owner)?,
            block: BlockAddr::new(f.num(Key::Block)?),
            to: f.label(Key::To, TraceMode::parse)?,
            adaptive: f.flag(Key::Adaptive)?,
        },
        b"ownership_transfer" => ProtocolEvent::OwnershipTransfer {
            block: BlockAddr::new(f.num(Key::Block)?),
            from: f.num(Key::From)?,
            to: f.num(Key::To)?,
            handoff: f.flag(Key::Handoff)?,
        },
        b"replacement" => ProtocolEvent::Replacement {
            proc: f.num(Key::Proc)?,
            block: BlockAddr::new(f.num(Key::Block)?),
            wrote_back: f.flag(Key::WroteBack)?,
        },
        b"cast" => ProtocolEvent::Cast {
            from: f.num(Key::From)?,
            scheme: f.label(Key::Scheme, parse_scheme_choice)?,
            payload_bits: f.num(Key::PayloadBits)?,
            cost_bits: f.num(Key::CostBits)?,
            links: f.links(Key::Links)?,
        },
        b"fault" => ProtocolEvent::FaultInjected {
            label: f.label(Key::Label, FaultLabel::parse)?,
            op: f.num(Key::Op)?,
            layer: f.opt_num(Key::Layer)?,
            line: f.opt_num(Key::Line)?,
            cache: f.opt_num(Key::Cache)?,
            heal_op: f.opt_num(Key::HealOp)?,
        },
        b"retry" => ProtocolEvent::RetryAttempt {
            op: f.num(Key::Op)?,
            proc: f.num(Key::Proc)?,
            dest: f.num(Key::Dest)?,
            attempt: f.num(Key::Attempt)?,
            backoff_cycles: f.num(Key::BackoffCycles)?,
        },
        b"degraded" => ProtocolEvent::Degraded {
            op: f.num(Key::Op)?,
            block: f.opt_num(Key::Block)?.map(BlockAddr::new),
            cache: f.opt_num(Key::Cache)?,
            heal_op: f.num(Key::HealOp)?,
        },
        b"recovered" => ProtocolEvent::Recovered {
            op: f.num(Key::Op)?,
            block: f.opt_num(Key::Block)?.map(BlockAddr::new),
            cache: f.opt_num(Key::Cache)?,
            after_ops: f.num(Key::AfterOps)?,
        },
        _ => {
            let kind = String::from_utf8_lossy(&kind).into_owned();
            return Err(TraceErrorKind::UnknownType(kind));
        }
    };
    Ok(TraceRecord::Event(event))
}

/// Parses one JSON line back into a [`TraceRecord`].
pub fn parse_record(line: &str) -> Result<TraceRecord, TraceErrorKind> {
    parse_line(line.as_bytes())
}

/// Writes trace records to any [`Write`] sink, one JSON line each.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    line: Vec<u8>,
    events: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `out` and writes the header line.
    pub fn new(out: W, header: &TraceHeader) -> io::Result<Self> {
        let mut w = TraceWriter {
            out,
            line: Vec::with_capacity(256),
            events: 0,
        };
        w.put(|line| encode_header_into(line, header))?;
        Ok(w)
    }

    /// Encodes one line into the reused buffer and writes it whole.
    fn put(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        self.line.clear();
        encode(&mut self.line);
        self.line.push(b'\n');
        self.out.write_all(&self.line)
    }

    /// Writes one event line.
    pub fn event(&mut self, event: &ProtocolEvent) -> io::Result<()> {
        self.put(|line| encode_event_into(line, event))?;
        self.events += 1;
        Ok(())
    }

    /// Writes the trailer line and returns the underlying sink.
    ///
    /// `trailer.events` is overwritten with the actual count written.
    pub fn finish(mut self, mut trailer: TraceTrailer) -> io::Result<W> {
        trailer.events = self.events;
        self.put(|line| encode_trailer_into(line, &trailer))?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Reads trace records from any [`BufRead`] source, skipping blank lines.
#[derive(Debug)]
pub struct TraceReader<R: BufRead> {
    input: R,
    line: Vec<u8>,
    line_no: usize,
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps `input`.
    pub fn new(input: R) -> Self {
        TraceReader {
            input,
            line: Vec::with_capacity(256),
            line_no: 0,
        }
    }

    fn error(&self, kind: TraceErrorKind) -> TraceError {
        TraceError {
            line: self.line_no,
            kind,
        }
    }

    /// Reads the next record, or `None` at end of input.
    #[allow(clippy::should_implement_trait)] // fallible next; Iterator is derived below
    pub fn next(&mut self) -> Option<Result<TraceRecord, TraceError>> {
        loop {
            self.line.clear();
            let read = self.input.read_until(b'\n', &mut self.line);
            if matches!(read, Ok(0)) {
                return None;
            }
            self.line_no += 1;
            match read {
                Ok(_) if self.line.iter().all(u8::is_ascii_whitespace) => continue,
                Ok(_) => return Some(parse_line(&self.line).map_err(|kind| self.error(kind))),
                Err(e) => return Some(Err(self.error(TraceErrorKind::Io(e.to_string())))),
            }
        }
    }

    /// Reads the whole trace, checking the shape: one header first, events,
    /// one trailer last, and a trailer event count matching the events read.
    pub fn read_all(
        mut self,
    ) -> Result<(TraceHeader, Vec<ProtocolEvent>, TraceTrailer), TraceError> {
        let shape = |r: &Self, what| Err(r.error(TraceErrorKind::Shape(what)));
        let header = match self.next().transpose()? {
            Some(TraceRecord::Header(h)) => h,
            Some(_) => return shape(&self, "first record must be a header"),
            None => return shape(&self, "empty trace"),
        };
        if header.version != TRACE_VERSION {
            return Err(self.error(bad(Key::Version, header.version)));
        }
        let mut events = Vec::new();
        let mut trailer = None;
        while let Some(record) = self.next() {
            match record? {
                TraceRecord::Header(_) => return shape(&self, "duplicate header record"),
                TraceRecord::Event(e) if trailer.is_none() => events.push(e),
                TraceRecord::Event(_) => return shape(&self, "event record after trailer"),
                TraceRecord::Trailer(t) if trailer.is_none() => trailer = Some(t),
                TraceRecord::Trailer(_) => return shape(&self, "duplicate trailer record"),
            }
        }
        let Some(trailer) = trailer else {
            return shape(&self, "trace has no trailer record");
        };
        if trailer.events != events.len() as u64 {
            return Err(self.error(TraceErrorKind::EventCount {
                trailer: trailer.events,
                read: events.len() as u64,
            }));
        }
        Ok((header, events, trailer))
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        TraceReader::next(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmc_omeganet::SchemeChoice;

    fn header() -> TraceHeader {
        TraceHeader {
            version: TRACE_VERSION,
            n_procs: 4,
            sets: 2,
            ways: 2,
            words_log2: 2,
            scheme: "combined".into(),
            policy: "adaptive:0.25".into(),
            owner_bypass: true,
        }
    }

    fn sample_events() -> Vec<ProtocolEvent> {
        vec![
            ProtocolEvent::Read {
                proc: 1,
                addr: WordAddr::new(64),
                value: 7,
                hit: false,
                cost_bits: 120,
                mode: Some(TraceMode::GlobalRead),
            },
            ProtocolEvent::Write {
                proc: 2,
                addr: WordAddr::new(64),
                value: 9,
                hit: true,
                cost_bits: 96,
                mode: None,
            },
            ProtocolEvent::SetMode {
                proc: 0,
                addr: WordAddr::new(0),
                mode: TraceMode::DistributedWrite,
            },
            ProtocolEvent::Miss {
                proc: 1,
                block: BlockAddr::new(4),
                write: false,
                cold: true,
            },
            ProtocolEvent::ModeSwitch {
                owner: 2,
                block: BlockAddr::new(4),
                to: TraceMode::DistributedWrite,
                adaptive: true,
            },
            ProtocolEvent::OwnershipTransfer {
                block: BlockAddr::new(4),
                from: 1,
                to: 2,
                handoff: false,
            },
            ProtocolEvent::Replacement {
                proc: 3,
                block: BlockAddr::new(9),
                wrote_back: true,
            },
            ProtocolEvent::Cast {
                from: 2,
                scheme: SchemeChoice::BroadcastTag,
                payload_bits: 32,
                cost_bits: 144,
                links: vec![
                    LinkCharge {
                        layer: 0,
                        line: 2,
                        bits: 48,
                    },
                    LinkCharge {
                        layer: 1,
                        line: 0,
                        bits: 96,
                    },
                ],
            },
            ProtocolEvent::FaultInjected {
                label: FaultLabel::LinkDown,
                op: 12,
                layer: Some(1),
                line: Some(3),
                cache: None,
                heal_op: Some(40),
            },
            ProtocolEvent::FaultInjected {
                label: FaultLabel::MsgDrop,
                op: 13,
                layer: None,
                line: None,
                cache: None,
                heal_op: None,
            },
            ProtocolEvent::FaultInjected {
                label: FaultLabel::BitFlip,
                op: 14,
                layer: None,
                line: None,
                cache: Some(2),
                heal_op: None,
            },
            ProtocolEvent::RetryAttempt {
                op: 15,
                proc: 1,
                dest: 6,
                attempt: 2,
                backoff_cycles: 32,
            },
            ProtocolEvent::Degraded {
                op: 16,
                block: Some(BlockAddr::new(9)),
                cache: None,
                heal_op: 40,
            },
            ProtocolEvent::Degraded {
                op: 17,
                block: None,
                cache: Some(3),
                heal_op: 44,
            },
            ProtocolEvent::Recovered {
                op: 41,
                block: Some(BlockAddr::new(9)),
                cache: None,
                after_ops: 25,
            },
        ]
    }

    /// The exact line of `header()`.
    const GOLDEN_HEADER: &str = r#"{"type":"header","version":1,"n_procs":4,"sets":2,"ways":2,"words_log2":2,"scheme":"combined","policy":"adaptive:0.25","owner_bypass":true}"#;

    /// The exact line of every `sample_events()` entry, in order.
    const GOLDEN_EVENT_LINES: [&str; 15] = [
        r#"{"type":"read","proc":1,"addr":64,"value":7,"hit":false,"cost_bits":120,"mode":"gr"}"#,
        r#"{"type":"write","proc":2,"addr":64,"value":9,"hit":true,"cost_bits":96}"#,
        r#"{"type":"set_mode","proc":0,"addr":0,"mode":"dw"}"#,
        r#"{"type":"miss","proc":1,"block":4,"write":false,"cold":true}"#,
        r#"{"type":"mode_switch","owner":2,"block":4,"to":"dw","adaptive":true}"#,
        r#"{"type":"ownership_transfer","block":4,"from":1,"to":2,"handoff":false}"#,
        r#"{"type":"replacement","proc":3,"block":9,"wrote_back":true}"#,
        r#"{"type":"cast","from":2,"scheme":"broadcast-tag","payload_bits":32,"cost_bits":144,"links":[[0,2,48],[1,0,96]]}"#,
        r#"{"type":"fault","label":"link_down","op":12,"layer":1,"line":3,"heal_op":40}"#,
        r#"{"type":"fault","label":"msg_drop","op":13}"#,
        r#"{"type":"fault","label":"bit_flip","op":14,"cache":2}"#,
        r#"{"type":"retry","op":15,"proc":1,"dest":6,"attempt":2,"backoff_cycles":32}"#,
        r#"{"type":"degraded","op":16,"block":9,"heal_op":40}"#,
        r#"{"type":"degraded","op":17,"cache":3,"heal_op":44}"#,
        r#"{"type":"recovered","op":41,"block":9,"after_ops":25}"#,
    ];

    #[test]
    fn every_record_encodes_to_its_pinned_bytes() {
        for (e, want) in sample_events().iter().zip(GOLDEN_EVENT_LINES) {
            assert_eq!(encode_record(&TraceRecord::Event(e.clone())), want);
        }
        assert_eq!(encode_record(&TraceRecord::Header(header())), GOLDEN_HEADER);
        let extremes = TraceTrailer {
            events: 0,
            fingerprint: u64::MAX,
            total_bits: 10_000_000_000,
            links: vec![],
        };
        assert_eq!(
            encode_record(&TraceRecord::Trailer(extremes)),
            r#"{"type":"trailer","events":0,"fingerprint":18446744073709551615,"total_bits":10000000000,"links":[]}"#
        );

        // The whole file the writer produces: header, events, trailer.
        let mut w = TraceWriter::new(Vec::new(), &header()).unwrap();
        for e in sample_events() {
            w.event(&e).unwrap();
        }
        let bytes = w.finish(sample_trailer()).unwrap();
        let mut want = format!("{GOLDEN_HEADER}\n");
        for line in GOLDEN_EVENT_LINES {
            want.push_str(line);
            want.push('\n');
        }
        want.push_str(r#"{"type":"trailer","events":15,"fingerprint":17177761064896540950,"total_bits":360,"links":[[2,1,360],[3,15,9]]}"#);
        want.push('\n');
        assert_eq!(String::from_utf8(bytes).unwrap(), want);
    }

    #[test]
    fn every_event_variant_roundtrips() {
        for e in sample_events() {
            let line = encode_record(&TraceRecord::Event(e.clone()));
            let parsed = parse_record(&line).unwrap();
            assert_eq!(parsed, TraceRecord::Event(e), "line: {line}");
        }
    }

    fn sample_trailer() -> TraceTrailer {
        TraceTrailer {
            events: 0, // overwritten by finish()
            fingerprint: fnv1a64(b"state"),
            total_bits: 360,
            links: vec![
                LinkCharge {
                    layer: 2,
                    line: 1,
                    bits: 360,
                },
                LinkCharge {
                    layer: 3,
                    line: 15,
                    bits: 9,
                },
            ],
        }
    }

    #[test]
    fn full_trace_roundtrips_through_writer_and_reader() {
        let mut w = TraceWriter::new(Vec::new(), &header()).unwrap();
        for e in sample_events() {
            w.event(&e).unwrap();
        }
        let trailer = sample_trailer();
        let bytes = w.finish(trailer.clone()).unwrap();

        let reader = TraceReader::new(&bytes[..]);
        let (h, events, t) = reader.read_all().unwrap();
        assert_eq!(h, header());
        assert_eq!(events, sample_events());
        assert_eq!(t.events, events.len() as u64);
        assert_eq!(t.fingerprint, trailer.fingerprint);
        assert_eq!(t.links, trailer.links);
    }

    fn read_err(text: &str) -> (usize, TraceErrorKind) {
        let e = TraceReader::new(text.as_bytes()).read_all().unwrap_err();
        (e.line, e.kind)
    }

    #[test]
    fn read_all_rejects_malformed_traces() {
        use TraceErrorKind::{BadValue, EventCount, Shape};
        let body = GOLDEN_EVENT_LINES[8];
        assert_eq!(read_err(""), (0, Shape("empty trace")));
        assert_eq!(read_err(body), (1, Shape("first record must be a header")));
        assert_eq!(
            read_err(GOLDEN_HEADER),
            (1, Shape("trace has no trailer record"))
        );
        let trailer = r#"{"type":"trailer","events":5,"fingerprint":0,"total_bits":0,"links":[]}"#;
        let text = format!("{GOLDEN_HEADER}\n\n{body}\n{trailer}\n");
        let count = EventCount {
            trailer: 5,
            read: 1,
        };
        assert_eq!(read_err(&text), (4, count));
        let text = format!("{GOLDEN_HEADER}\n{trailer}\n{body}\n");
        assert_eq!(read_err(&text), (3, Shape("event record after trailer")));
        let text = format!("{GOLDEN_HEADER}\n{GOLDEN_HEADER}\n");
        assert_eq!(read_err(&text), (2, Shape("duplicate header record")));
        let old = GOLDEN_HEADER.replace("\"version\":1", "\"version\":99");
        let version = BadValue {
            field: "version",
            value: "99".into(),
        };
        assert_eq!(read_err(&old), (1, version));
        let err = TraceReader::new(text.as_bytes()).read_all().unwrap_err();
        assert_eq!(err.to_string(), "line 2: duplicate header record");
    }

    #[test]
    fn records_are_checked_field_by_field() {
        use TraceErrorKind::{BadValue, Missing, Syntax, UnknownType, WrongType};
        let parse = |line: &str| parse_record(line).unwrap_err();
        // A boolean is `true` or `false` in full: `tXyZ` is not `true`.
        let hit = GOLDEN_EVENT_LINES[1].replace("\"hit\":true", "\"hit\":tXyZ");
        assert!(matches!(parse(&hit), Syntax(e) if e.expected == "'true' or 'false'"));
        let hit = GOLDEN_EVENT_LINES[1].replace("\"hit\":true", "\"hit\":truest");
        assert!(matches!(parse(&hit), Syntax(_)));
        assert_eq!(parse(r#"{"proc":1}"#), Missing("type"));
        assert_eq!(parse(r#"{"type":"miss","proc":1}"#), Missing("block"));
        assert_eq!(
            parse(r#"{"type":"teleport"}"#),
            UnknownType("teleport".into())
        );
        let mode = GOLDEN_EVENT_LINES[2].replace("\"dw\"", "\"sideways\"");
        let want = BadValue {
            field: "mode",
            value: "sideways".into(),
        };
        assert_eq!(parse(&mode), want);
        let attempt = GOLDEN_EVENT_LINES[11].replace("\"attempt\":2", "\"attempt\":4294967296");
        assert!(matches!(
            parse(&attempt),
            BadValue {
                field: "attempt",
                ..
            }
        ));
        let row = GOLDEN_EVENT_LINES[7].replace("[1,0,96]", "[1,0]");
        assert!(matches!(parse(&row), Syntax(e) if e.expected == "a [layer,line,bits] row"));
        // A field of the wrong type is an error, not an absent field.
        let heal_op = GOLDEN_EVENT_LINES[8].replace("\"heal_op\":40", "\"heal_op\":\"40\"");
        let want = WrongType {
            field: "heal_op",
            expected: "an unsigned integer",
        };
        assert_eq!(parse(&heal_op), want);
    }

    #[test]
    fn any_key_order_parses_and_unknown_keys_are_ignored() {
        for (line, e) in GOLDEN_EVENT_LINES.iter().zip(sample_events()) {
            // Keys begin `,"` and no value contains that pair.
            let body = &line[1..line.len() - 1];
            let mut fields: Vec<String> = body
                .split(",\"")
                .map(|f| format!("\"{}", f.trim_start_matches('"')).replacen("\":", "\" : ", 1))
                .collect();
            fields.reverse();
            fields.insert(1, r#""note":"xA","rows":[[1,2,3,4],[]],"ok":false"#.into());
            // A key known to other record kinds is ignored too.
            fields.push(r#""policy":7"#.into());
            let shuffled = format!(" {{ {} }} ", fields.join(" , "));
            assert_eq!(
                parse_record(&shuffled),
                Ok(TraceRecord::Event(e)),
                "{shuffled}"
            );
        }
        // Older traces carry a `latency` key on reads and writes; it is
        // ignored like any other unknown key.
        let old = GOLDEN_EVENT_LINES[0].replace("\"mode\"", "\"latency\":14,\"mode\"");
        assert_eq!(
            parse_record(&old),
            Ok(TraceRecord::Event(sample_events()[0].clone()))
        );
    }

    #[test]
    fn event_labels_never_need_escaping() {
        use tmc_omeganet::SchemeChoice as S;
        let kinds: std::collections::BTreeSet<_> =
            sample_events().iter().map(ProtocolEvent::kind).collect();
        assert_eq!(kinds.len(), 12, "sample_events() covers every variant");
        let modes = [TraceMode::DistributedWrite, TraceMode::GlobalRead].map(TraceMode::as_str);
        let schemes = [S::Replicated, S::BitVector, S::BroadcastTag].map(scheme_choice_str);
        let faults = [
            FaultLabel::LinkDown,
            FaultLabel::CacheStall,
            FaultLabel::MsgDrop,
            FaultLabel::MsgDup,
            FaultLabel::MsgDelay,
            FaultLabel::BitFlip,
            FaultLabel::HandoffNak,
        ]
        .map(FaultLabel::as_str);
        let labels = kinds.into_iter().chain(modes).chain(schemes).chain(faults);
        for s in labels.chain(["header", "trailer"]) {
            let mut escaped = Vec::new();
            write_str(&mut escaped, s);
            assert_eq!(
                escaped,
                format!("\"{s}\"").into_bytes(),
                "{s:?} needs escaping"
            );
            assert!(s.bytes().all(|b| b.is_ascii_graphic()), "{s:?}");
        }
    }

    #[test]
    fn header_strings_with_quotes_backslashes_and_controls_roundtrip() {
        let mut h = header();
        h.scheme = "tab\there \"quoted\" \\ ü→".into();
        h.policy = "line\nbreak\r\u{1}\u{1f}\u{7f}".into();
        let mut w = TraceWriter::new(Vec::new(), &h).unwrap();
        w.event(&sample_events()[0]).unwrap();
        let bytes = w.finish(sample_trailer()).unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(text.starts_with(
            r#"{"type":"header","version":1,"n_procs":4,"sets":2,"ways":2,"words_log2":2,"scheme":"tab\there \"quoted\" \\ ü→","policy":"line\nbreak\r\u0001\u001f"#
        ));
        assert_eq!(text.lines().count(), 3, "escapes keep one record per line");
        let (back, events, _) = TraceReader::new(&bytes[..]).read_all().unwrap();
        assert_eq!(back, h);
        assert_eq!(events, sample_events()[..1]);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a64_fold(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }
}
