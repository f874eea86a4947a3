//! Trace capture and replay checking for the two-mode protocol.
//!
//! [`capture`] drives a fresh [`System`] with tracing on and serialises the
//! event stream as a JSONL trace (header, events, trailer — see
//! [`tmc_obs::jsonl`]) through [`write_trace`], the one trace writer.
//! [`check`] does the inverse: [`parse`] reads the trace and the machine
//! its header describes, and [`replay`] rebuilds that `System`,
//! re-executes the replayable events (`read`, `write`, `set_mode`) in
//! order with the [`ReferenceMemory`] oracle alongside, and asserts that
//!
//! 1. every read returns both the recorded value and the oracle's value;
//! 2. the regenerated event stream equals the recorded one exactly —
//!    including misses, mode switches, ownership movement, replacements and
//!    per-link cast charges;
//! 3. the trailer obligations hold: FNV-1a of the protocol fingerprint,
//!    the total link-bit charge, and every nonzero per-link charge;
//! 4. the replayed system passes `check_invariants`, and its memory image
//!    agrees with the oracle word-for-word.
//!
//! Because the protocol is deterministic given the reference stream, any
//! divergence pins the exact event where behaviour changed — this is the
//! top layer of the test pyramid (`docs/TESTING.md`).

use std::fmt;

use tmc_core::{Mode, ModePolicy, System, SystemConfig};
use tmc_memsys::{MsgSizing, ReferenceMemory};
use tmc_obs::jsonl::{fnv1a64, TraceHeader, TraceReader, TraceTrailer, TraceWriter, TRACE_VERSION};
use tmc_obs::{LinkCharge, ProtocolEvent};
use tmc_omeganet::{SchemeKind, TrafficMatrix};
use tmc_simcore::CounterSet;

/// Stable header string for a [`SchemeKind`].
pub fn scheme_kind_str(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::Replicated => "replicated",
        SchemeKind::BitVector => "bitvector",
        SchemeKind::BroadcastTag => "broadcast-tag",
        SchemeKind::Combined => "combined",
    }
}

/// Parses [`scheme_kind_str`] output.
pub fn parse_scheme_kind(s: &str) -> Option<SchemeKind> {
    match s {
        "replicated" => Some(SchemeKind::Replicated),
        "bitvector" => Some(SchemeKind::BitVector),
        "broadcast-tag" => Some(SchemeKind::BroadcastTag),
        "combined" => Some(SchemeKind::Combined),
        _ => None,
    }
}

/// Stable header string for a [`ModePolicy`]: `fixed-dw`, `fixed-gr` or
/// `adaptive:<window>`.
pub fn policy_str(policy: ModePolicy) -> String {
    match policy {
        ModePolicy::Fixed(Mode::DistributedWrite) => "fixed-dw".into(),
        ModePolicy::Fixed(Mode::GlobalRead) => "fixed-gr".into(),
        ModePolicy::Adaptive { window } => format!("adaptive:{window}"),
    }
}

/// Parses [`policy_str`] output.
pub fn parse_policy(s: &str) -> Option<ModePolicy> {
    match s {
        "fixed-dw" => Some(ModePolicy::Fixed(Mode::DistributedWrite)),
        "fixed-gr" => Some(ModePolicy::Fixed(Mode::GlobalRead)),
        _ => {
            let window = s.strip_prefix("adaptive:")?.parse().ok()?;
            Some(ModePolicy::Adaptive { window })
        }
    }
}

/// Builds the trace header describing `sys`'s configuration.
///
/// Fails for configurations the header cannot represent: non-default
/// message sizing or a fault plan (replay
/// rebuilds the system from the header alone, so anything unrepresented
/// would silently change the replayed machine).
pub fn header_for(sys: &System) -> Result<TraceHeader, String> {
    let cfg = sys.config();
    if cfg.sizing != MsgSizing::default() {
        return Err("traces only encode the default message sizing".into());
    }
    if cfg.faults.is_some() {
        return Err("traces do not encode fault plans; disable faults to capture".into());
    }
    Ok(TraceHeader {
        version: TRACE_VERSION,
        n_procs: cfg.n_caches,
        sets: cfg.geometry.sets(),
        ways: cfg.geometry.ways(),
        words_log2: cfg.spec.words_per_block().trailing_zeros(),
        scheme: scheme_kind_str(cfg.multicast).into(),
        policy: policy_str(cfg.mode_policy),
        owner_bypass: cfg.owner_bypass,
    })
}

/// Rebuilds the [`SystemConfig`] a trace header describes.
pub fn config_from(header: &TraceHeader) -> Result<SystemConfig, String> {
    let scheme = parse_scheme_kind(&header.scheme)
        .ok_or_else(|| format!("unknown multicast scheme '{}'", header.scheme))?;
    let policy = parse_policy(&header.policy)
        .ok_or_else(|| format!("unknown mode policy '{}'", header.policy))?;
    if !header.n_procs.is_power_of_two() || !(2..=65536).contains(&header.n_procs) {
        return Err(format!("bad processor count {}", header.n_procs));
    }
    let (geometry, spec) =
        SystemConfig::checked_shape(header.sets, header.ways, header.words_log2)?;
    Ok(SystemConfig::new(header.n_procs)
        .geometry(geometry)
        .block_spec(spec)
        .multicast(scheme)
        .mode_policy(policy)
        .owner_bypass(header.owner_bypass))
}

/// Every nonzero per-link charge in `traffic`, sorted by `(layer, line)`.
pub fn nonzero_links(traffic: &TrafficMatrix) -> Vec<LinkCharge> {
    let mut out = Vec::new();
    for layer in 0..traffic.layers() as u32 {
        for line in 0..traffic.n_ports() {
            let bits = traffic.link_bits(tmc_omeganet::LinkId { layer, line });
            if bits > 0 {
                out.push(LinkCharge { layer, line, bits });
            }
        }
    }
    out
}

/// The trailer pinning `sys`'s end-of-run obligations.
pub fn trailer_for(sys: &System) -> TraceTrailer {
    TraceTrailer {
        events: 0, // overwritten by TraceWriter::finish
        fingerprint: fnv1a64(&sys.protocol_fingerprint()),
        total_bits: sys.traffic().total_bits(),
        links: nonzero_links(sys.traffic()),
    }
}

/// The JSONL trace of a run on `sys`: the header from [`header_for`],
/// `events` in order, then the trailer from [`trailer_for`]. This is the
/// one writer of a whole trace; [`capture`] and a checked scenario run
/// both call it.
///
/// # Errors
///
/// Fails if `sys` cannot be represented in a trace header (see
/// [`header_for`]).
pub fn write_trace(sys: &System, events: &[ProtocolEvent]) -> Result<String, String> {
    let mut w = TraceWriter::new(Vec::new(), &header_for(sys)?).map_err(|e| e.to_string())?;
    for e in events {
        w.event(e).map_err(|e| e.to_string())?;
    }
    let bytes = w.finish(trailer_for(sys)).map_err(|e| e.to_string())?;
    String::from_utf8(bytes).map_err(|e| e.to_string())
}

/// Builds a system from `cfg`, enables tracing, runs `drive` against it,
/// and returns the full JSONL trace text.
///
/// # Errors
///
/// Fails if `cfg` is rejected by [`System::new`] or cannot be represented
/// in a trace header (see [`header_for`]).
pub fn capture<F>(cfg: SystemConfig, drive: F) -> Result<String, String>
where
    F: FnOnce(&mut System),
{
    let mut sys = System::new(cfg).map_err(|e| e.to_string())?;
    sys.set_tracing(true);
    drive(&mut sys);
    let events = sys.drain_trace();
    write_trace(&sys, &events)
}

/// A trace read back, with the machine its header describes.
#[derive(Debug, Clone)]
pub struct ParsedTrace {
    /// The header record.
    pub header: TraceHeader,
    /// The configuration the header describes ([`config_from`]).
    pub config: SystemConfig,
    /// Every event record, in order.
    pub events: Vec<ProtocolEvent>,
    /// The trailer record.
    pub trailer: TraceTrailer,
}

/// Reads a JSONL trace and rebuilds its header's configuration.
///
/// # Errors
///
/// A [`TraceReader::read_all`] error, or a header [`config_from`]
/// rejects.
pub fn parse(trace: &str) -> Result<ParsedTrace, String> {
    let (header, events, trailer) = TraceReader::new(trace.as_bytes()).read_all()?;
    let config = config_from(&header)?;
    Ok(ParsedTrace {
        header,
        config,
        events,
        trailer,
    })
}

/// What a successful replay verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Events in the trace (and regenerated by the replay).
    pub events: usize,
    /// Replayable transactions re-executed (`read`/`write`/`set_mode`).
    pub replayed: usize,
    /// Reads whose value matched both the trace and the oracle.
    pub reads_checked: usize,
    /// Words compared between the replayed machine and the oracle at end.
    pub words_checked: usize,
    /// The verified FNV-1a fingerprint hash.
    pub fingerprint: u64,
    /// The verified total link-bit charge.
    pub total_bits: u64,
    /// The replayed machine's counters.
    pub counters: CounterSet,
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replayed {} of {} events ({} reads value-checked, {} words \
             oracle-checked); fingerprint {:#018x}, {} link bits — all verified",
            self.replayed,
            self.events,
            self.reads_checked,
            self.words_checked,
            self.fingerprint,
            self.total_bits
        )
    }
}

fn mismatch(i: usize, what: &str, got: impl fmt::Debug, want: impl fmt::Debug) -> String {
    format!("event {i}: {what}: replay produced {got:?}, trace recorded {want:?}")
}

/// [`parse`]s `trace` and [`replay`]s it.
///
/// # Errors
///
/// The first parse error or divergence.
pub fn check(trace: &str) -> Result<ReplayReport, String> {
    replay(&parse(trace)?)
}

/// Replays a parsed trace against a fresh system and verifies every
/// obligation.
///
/// See the module docs for the full checklist. Returns a [`ReplayReport`]
/// on success and a message naming the first divergence otherwise.
pub fn replay(trace: &ParsedTrace) -> Result<ReplayReport, String> {
    let ParsedTrace {
        config,
        events,
        trailer,
        ..
    } = trace;
    let mut sys = System::new(config.clone()).map_err(|e| e.to_string())?;
    sys.set_tracing(true);
    let mut oracle = ReferenceMemory::new();
    let mut replayed = 0usize;
    let mut reads_checked = 0usize;

    for (i, event) in events.iter().enumerate() {
        match *event {
            ProtocolEvent::Read {
                proc, addr, value, ..
            } => {
                let got = sys
                    .read(proc, addr)
                    .map_err(|e| format!("event {i}: {e}"))?;
                if got != value {
                    return Err(mismatch(i, "read value", got, value));
                }
                if got != oracle.read(addr) {
                    return Err(mismatch(i, "oracle read value", got, oracle.read(addr)));
                }
                replayed += 1;
                reads_checked += 1;
            }
            ProtocolEvent::Write {
                proc, addr, value, ..
            } => {
                sys.write(proc, addr, value)
                    .map_err(|e| format!("event {i}: {e}"))?;
                oracle.write(addr, value);
                replayed += 1;
            }
            ProtocolEvent::SetMode { proc, addr, mode } => {
                sys.set_mode(proc, addr, mode.into())
                    .map_err(|e| format!("event {i}: {e}"))?;
                replayed += 1;
            }
            _ => {} // regenerated below and compared wholesale
        }
    }

    // The replayable subset must regenerate the *entire* stream.
    let regenerated = sys.drain_trace();
    if regenerated.len() != events.len() {
        return Err(format!(
            "replay regenerated {} events, trace has {}",
            regenerated.len(),
            events.len()
        ));
    }
    for (i, (got, want)) in regenerated.iter().zip(events).enumerate() {
        if got != want {
            return Err(mismatch(i, "regenerated event", got, want));
        }
    }

    // Trailer obligations.
    let fingerprint = fnv1a64(&sys.protocol_fingerprint());
    if fingerprint != trailer.fingerprint {
        return Err(format!(
            "fingerprint hash {fingerprint:#018x} != trailer {:#018x}",
            trailer.fingerprint
        ));
    }
    let total_bits = sys.traffic().total_bits();
    if total_bits != trailer.total_bits {
        return Err(format!(
            "total link bits {total_bits} != trailer {}",
            trailer.total_bits
        ));
    }
    let links = nonzero_links(sys.traffic());
    if links != trailer.links {
        return Err(format!(
            "per-link charges diverge: replay has {} nonzero links, trailer {}",
            links.len(),
            trailer.links.len()
        ));
    }

    // Protocol invariants and the full oracle memory image.
    sys.check_invariants().map_err(|e| e.to_string())?;
    let mut words_checked = 0usize;
    for (addr, value) in oracle.iter() {
        let got = sys.peek_word(addr);
        if got != value {
            return Err(format!(
                "memory image diverges at {addr:?}: replay {got}, oracle {value}"
            ));
        }
        words_checked += 1;
    }

    Ok(ReplayReport {
        events: events.len(),
        replayed,
        reads_checked,
        words_checked,
        fingerprint,
        total_bits,
        counters: sys.counters().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmc_memsys::{BlockSpec, CacheGeometry, WordAddr};

    #[test]
    fn scheme_and_policy_strings_roundtrip() {
        for k in [
            SchemeKind::Replicated,
            SchemeKind::BitVector,
            SchemeKind::BroadcastTag,
            SchemeKind::Combined,
        ] {
            assert_eq!(parse_scheme_kind(scheme_kind_str(k)), Some(k));
        }
        assert_eq!(parse_scheme_kind("morse"), None);
        for p in [
            ModePolicy::Fixed(Mode::DistributedWrite),
            ModePolicy::Fixed(Mode::GlobalRead),
            ModePolicy::Adaptive { window: 48 },
        ] {
            assert_eq!(parse_policy(&policy_str(p)), Some(p));
        }
        assert_eq!(parse_policy("adaptive:"), None);
        assert_eq!(parse_policy("sometimes"), None);
    }

    #[test]
    fn header_roundtrips_through_config() {
        let cfg = SystemConfig::new(8)
            .geometry(CacheGeometry::new(16, 2))
            .block_spec(BlockSpec::new(1))
            .multicast(SchemeKind::BitVector)
            .mode_policy(ModePolicy::Adaptive { window: 12 })
            .owner_bypass(false);
        let sys = System::new(cfg.clone()).unwrap();
        let header = header_for(&sys).unwrap();
        assert_eq!(config_from(&header).unwrap(), cfg);
    }

    #[test]
    fn unrepresentable_configs_are_rejected() {
        let mut sizing = MsgSizing::default();
        sizing.block_words *= 2;
        let sys = System::new(
            SystemConfig::new(4)
                .sizing(sizing)
                .block_spec(BlockSpec::new(3)),
        )
        .unwrap();
        assert!(header_for(&sys).unwrap_err().contains("sizing"));

        let faulty = System::new(SystemConfig::new(4).faults(tmc_core::FaultSpec::new(3))).unwrap();
        assert!(header_for(&faulty).unwrap_err().contains("fault plans"));
    }

    #[test]
    fn capture_then_check_verifies_a_small_run() {
        let trace = capture(SystemConfig::new(4), |sys| {
            let a = WordAddr::new(0);
            let b = WordAddr::new(64);
            sys.set_mode(0, a, Mode::DistributedWrite).unwrap();
            for i in 0..8u64 {
                sys.write((i % 4) as usize, a, i + 1).unwrap();
                sys.read(((i + 1) % 4) as usize, a).unwrap();
                sys.write(0, b, 100 + i).unwrap();
                sys.read(3, b).unwrap();
            }
        })
        .unwrap();
        let report = check(&trace).unwrap();
        assert!(report.events > 0);
        assert!(report.replayed > 0);
        assert!(report.reads_checked >= 16);
        assert_eq!(report.words_checked, 2);
        assert!(report.to_string().contains("all verified"));
    }

    #[test]
    fn check_catches_a_corrupted_value() {
        let trace = capture(SystemConfig::new(4), |sys| {
            sys.write(0, WordAddr::new(0), 7).unwrap();
            sys.read(1, WordAddr::new(0)).unwrap();
        })
        .unwrap();
        // Flip the recorded read value: replay must flag the divergence.
        let bad = trace.replace(
            "\"type\":\"read\",\"proc\":1,\"addr\":0,\"value\":7",
            "\"type\":\"read\",\"proc\":1,\"addr\":0,\"value\":8",
        );
        assert_ne!(trace, bad, "corruption must hit a line");
        let err = check(&bad).unwrap_err();
        assert!(err.contains("read value"), "unexpected error: {err}");
    }
}
