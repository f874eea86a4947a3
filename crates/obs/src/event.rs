//! Typed protocol events.
//!
//! One [`ProtocolEvent`] is emitted per protocol-visible action. The
//! variants mirror the paper's §2.2 operation taxonomy: processor accesses
//! (with their outcome and billed cost), misses, mode switches (software
//! directives and §5 adaptive decisions separately flagged), ownership
//! movement (request-driven transfer vs. replacement handoff), replacement,
//! and consistency multicasts with the scheme actually chosen and the exact
//! per-link bit charges.

use tmc_memsys::{BlockAddr, WordAddr};
use tmc_omeganet::SchemeChoice;

/// A block's consistency mode, as seen by the trace layer.
///
/// This is a structural twin of `tmc_core::Mode`; it lives here so the
/// observability crate does not depend on the protocol engine (which would
/// be a dependency cycle — the engine emits the events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceMode {
    /// Writes are multicast to all copy holders.
    DistributedWrite,
    /// Only the owner holds a copy; remote reads fetch one datum.
    GlobalRead,
}

impl TraceMode {
    /// Stable short name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceMode::DistributedWrite => "dw",
            TraceMode::GlobalRead => "gr",
        }
    }

    /// Parses [`TraceMode::as_str`] output.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dw" => Some(TraceMode::DistributedWrite),
            "gr" => Some(TraceMode::GlobalRead),
            _ => None,
        }
    }
}

impl std::fmt::Display for TraceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What kind of fault an injection event reports.
///
/// Structural twin of `tmc_faults::FaultKind`'s discriminant (kept here so
/// the observability crate does not depend on the fault crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultLabel {
    /// A network link went out of service.
    LinkDown,
    /// A cache stopped answering.
    CacheStall,
    /// A protocol message was lost and retransmitted.
    MsgDrop,
    /// A protocol message was duplicated in flight.
    MsgDup,
    /// A protocol message was delayed.
    MsgDelay,
    /// A resident cache line took a single-bit flip.
    BitFlip,
    /// Ownership offers were negatively acknowledged.
    HandoffNak,
}

impl FaultLabel {
    /// Stable short name used in the JSONL encoding and metrics keys.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultLabel::LinkDown => "link_down",
            FaultLabel::CacheStall => "cache_stall",
            FaultLabel::MsgDrop => "msg_drop",
            FaultLabel::MsgDup => "msg_dup",
            FaultLabel::MsgDelay => "msg_delay",
            FaultLabel::BitFlip => "bit_flip",
            FaultLabel::HandoffNak => "handoff_nak",
        }
    }

    /// Parses [`FaultLabel::as_str`] output.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "link_down" => Some(FaultLabel::LinkDown),
            "cache_stall" => Some(FaultLabel::CacheStall),
            "msg_drop" => Some(FaultLabel::MsgDrop),
            "msg_dup" => Some(FaultLabel::MsgDup),
            "msg_delay" => Some(FaultLabel::MsgDelay),
            "bit_flip" => Some(FaultLabel::BitFlip),
            "handoff_nak" => Some(FaultLabel::HandoffNak),
            _ => None,
        }
    }
}

impl std::fmt::Display for FaultLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Bits charged to one physical network link by one cast.
///
/// A flattened `tmc_omeganet::LinkId` plus the charge, so trace consumers
/// need no network handle to interpret it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkCharge {
    /// Link layer, `0..=m`.
    pub layer: u32,
    /// Line within the layer, `0..N`.
    pub line: usize,
    /// Bits charged.
    pub bits: u64,
}

/// One protocol-visible action.
///
/// `Read`, `Write` and `SetMode` are the *replayable* subset: re-executing
/// them in order against a fresh system reproduces the entire run, so every
/// other variant is regenerated and can be cross-checked (see the
/// `tmc trace` harness in `tmc-bench`).
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolEvent {
    /// A processor read completed.
    Read {
        /// Issuing processor.
        proc: usize,
        /// Word address.
        addr: WordAddr,
        /// Value returned.
        value: u64,
        /// Whether it was served from the local cache without a miss.
        hit: bool,
        /// Bits the transaction pushed across network links.
        cost_bits: u64,
        /// The block's mode after the access, if the block is owned.
        mode: Option<TraceMode>,
    },
    /// A processor write completed.
    Write {
        /// Issuing processor.
        proc: usize,
        /// Word address.
        addr: WordAddr,
        /// Value written.
        value: u64,
        /// Whether the writer already held a valid copy.
        hit: bool,
        /// Bits the transaction pushed across network links.
        cost_bits: u64,
        /// The block's mode after the access, if the block is owned.
        mode: Option<TraceMode>,
    },
    /// A software mode directive (§2.2 operations 6 and 7) was executed.
    SetMode {
        /// Issuing processor (becomes the owner).
        proc: usize,
        /// Word address naming the block.
        addr: WordAddr,
        /// Requested mode.
        mode: TraceMode,
    },
    /// A cache miss occurred inside a read or write transaction.
    Miss {
        /// Missing processor.
        proc: usize,
        /// The block.
        block: BlockAddr,
        /// Whether the missing access was a write.
        write: bool,
        /// `true` for a cold miss (no entry at all); `false` for a miss on
        /// an invalid entry.
        cold: bool,
    },
    /// The owner switched a block's consistency mode.
    ModeSwitch {
        /// The owning cache.
        owner: usize,
        /// The block.
        block: BlockAddr,
        /// The mode switched to.
        to: TraceMode,
        /// `true` when the §5 adaptive controller decided the switch;
        /// `false` for a software directive.
        adaptive: bool,
    },
    /// Ownership moved between caches.
    OwnershipTransfer {
        /// The block.
        block: BlockAddr,
        /// Previous owner.
        from: usize,
        /// New owner.
        to: usize,
        /// `true` when the move was a replacement handoff (§2.2 case 5b);
        /// `false` for a request-driven transfer.
        handoff: bool,
    },
    /// A cache line was replaced (§2.2 case 5).
    Replacement {
        /// Replacing cache.
        proc: usize,
        /// Evicted block.
        block: BlockAddr,
        /// Whether the replacement wrote modified data back to memory.
        wrote_back: bool,
    },
    /// A consistency multicast ran (update, invalidate or owner announce).
    Cast {
        /// Source port.
        from: usize,
        /// The multicast scheme that actually ran (resolves Combined).
        scheme: SchemeChoice,
        /// Payload bits requested per destination.
        payload_bits: u64,
        /// Total bits charged across all links.
        cost_bits: u64,
        /// The exact per-link charges, nonzero links only.
        links: Vec<LinkCharge>,
    },
    /// A scheduled fault fired (see `tmc-faults`).
    FaultInjected {
        /// What fired.
        label: FaultLabel,
        /// Simulated op index (1-based public-transaction count).
        op: u64,
        /// Dead link's layer, for link outages.
        layer: Option<u32>,
        /// Dead link's line, for link outages.
        line: Option<usize>,
        /// Affected cache, for stalls and bit flips.
        cache: Option<usize>,
        /// Op at which the outage heals, for link/cache outages.
        heal_op: Option<u64>,
    },
    /// A transaction's message path was blocked; it timed out and retried
    /// after exponential backoff (or retransmitted a dropped message).
    RetryAttempt {
        /// Simulated op index.
        op: u64,
        /// Retrying processor.
        proc: usize,
        /// The unreachable (or retransmitted-to) port.
        dest: usize,
        /// Zero-based retry attempt number.
        attempt: u32,
        /// Backoff waited before this attempt, in simulated cycles.
        backoff_cycles: u64,
    },
    /// Service was gracefully degraded: a block was force-demoted to
    /// memory-direct service (`block` set) or a cache was quarantined via
    /// flush + present-vector scrub (`cache` set).
    Degraded {
        /// Simulated op index.
        op: u64,
        /// The demoted block, for block degradations.
        block: Option<BlockAddr>,
        /// The quarantined cache, for cache quarantines.
        cache: Option<usize>,
        /// Op at which normal service resumes.
        heal_op: u64,
    },
    /// A degradation window closed: the block is cacheable again, or the
    /// quarantined cache rejoined.
    Recovered {
        /// Simulated op index.
        op: u64,
        /// The re-promoted block, for block recoveries.
        block: Option<BlockAddr>,
        /// The released cache, for cache recoveries.
        cache: Option<usize>,
        /// Ops spent degraded (recovery latency in op units).
        after_ops: u64,
    },
}

impl ProtocolEvent {
    /// Stable kind tag used in the JSONL encoding and in metrics keys.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolEvent::Read { .. } => "read",
            ProtocolEvent::Write { .. } => "write",
            ProtocolEvent::SetMode { .. } => "set_mode",
            ProtocolEvent::Miss { .. } => "miss",
            ProtocolEvent::ModeSwitch { .. } => "mode_switch",
            ProtocolEvent::OwnershipTransfer { .. } => "ownership_transfer",
            ProtocolEvent::Replacement { .. } => "replacement",
            ProtocolEvent::Cast { .. } => "cast",
            ProtocolEvent::FaultInjected { .. } => "fault",
            ProtocolEvent::RetryAttempt { .. } => "retry",
            ProtocolEvent::Degraded { .. } => "degraded",
            ProtocolEvent::Recovered { .. } => "recovered",
        }
    }

    /// Whether replaying this event re-executes a transaction (`Read`,
    /// `Write`, `SetMode`); every other variant is a regenerated
    /// side-effect record.
    pub fn is_replayable(&self) -> bool {
        matches!(
            self,
            ProtocolEvent::Read { .. }
                | ProtocolEvent::Write { .. }
                | ProtocolEvent::SetMode { .. }
        )
    }
}

/// Stable short name for a [`SchemeChoice`] in the JSONL encoding.
pub fn scheme_choice_str(scheme: SchemeChoice) -> &'static str {
    match scheme {
        SchemeChoice::Replicated => "replicated",
        SchemeChoice::BitVector => "bitvector",
        SchemeChoice::BroadcastTag => "broadcast-tag",
    }
}

/// Parses [`scheme_choice_str`] output.
pub fn parse_scheme_choice(s: &str) -> Option<SchemeChoice> {
    match s {
        "replicated" => Some(SchemeChoice::Replicated),
        "bitvector" => Some(SchemeChoice::BitVector),
        "broadcast-tag" => Some(SchemeChoice::BroadcastTag),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_strings_roundtrip() {
        for m in [TraceMode::DistributedWrite, TraceMode::GlobalRead] {
            assert_eq!(TraceMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(TraceMode::parse("x"), None);
    }

    #[test]
    fn fault_labels_roundtrip() {
        for l in [
            FaultLabel::LinkDown,
            FaultLabel::CacheStall,
            FaultLabel::MsgDrop,
            FaultLabel::MsgDup,
            FaultLabel::MsgDelay,
            FaultLabel::BitFlip,
            FaultLabel::HandoffNak,
        ] {
            assert_eq!(FaultLabel::parse(l.as_str()), Some(l));
            assert_eq!(l.to_string(), l.as_str());
        }
        assert_eq!(FaultLabel::parse("meteor_strike"), None);
    }

    #[test]
    fn fault_events_are_not_replayable() {
        let e = ProtocolEvent::FaultInjected {
            label: FaultLabel::LinkDown,
            op: 3,
            layer: Some(1),
            line: Some(2),
            cache: None,
            heal_op: Some(9),
        };
        assert!(!e.is_replayable());
        assert_eq!(e.kind(), "fault");
        let e = ProtocolEvent::Degraded {
            op: 4,
            block: Some(BlockAddr::new(7)),
            cache: None,
            heal_op: 12,
        };
        assert!(!e.is_replayable());
        assert_eq!(e.kind(), "degraded");
        let e = ProtocolEvent::RetryAttempt {
            op: 4,
            proc: 0,
            dest: 3,
            attempt: 1,
            backoff_cycles: 16,
        };
        assert_eq!(e.kind(), "retry");
        let e = ProtocolEvent::Recovered {
            op: 20,
            block: None,
            cache: Some(2),
            after_ops: 16,
        };
        assert_eq!(e.kind(), "recovered");
    }

    #[test]
    fn scheme_strings_roundtrip() {
        for s in [
            SchemeChoice::Replicated,
            SchemeChoice::BitVector,
            SchemeChoice::BroadcastTag,
        ] {
            assert_eq!(parse_scheme_choice(scheme_choice_str(s)), Some(s));
        }
        assert_eq!(parse_scheme_choice("combined"), None);
    }

    #[test]
    fn replayable_subset_is_exactly_the_transactions() {
        let read = ProtocolEvent::Read {
            proc: 0,
            addr: WordAddr::new(0),
            value: 0,
            hit: false,
            cost_bits: 0,
            mode: None,
        };
        assert!(read.is_replayable());
        assert_eq!(read.kind(), "read");
        let miss = ProtocolEvent::Miss {
            proc: 0,
            block: BlockAddr::new(0),
            write: false,
            cold: true,
        };
        assert!(!miss.is_replayable());
    }
}
