//! Protocol messages and the per-transaction trace log.

use tmc_memsys::BlockAddr;
use tmc_omeganet::SchemeChoice;

use crate::state::StateName;

/// Every message family the protocol sends. The names follow §2.2 of the
/// paper; `Fwd*` variants are the memory module retransmitting a request to
/// the owner it found in the block store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Cache → memory: load request (read miss).
    LoadReq,
    /// Cache → memory: load with ownership request (write miss).
    LoadOwnReq,
    /// Cache → owner (via OWNER bypass): load request.
    DirectLoadReq,
    /// Memory → owner: forwarded load request.
    FwdLoad,
    /// Memory → owner: forwarded load-with-ownership request.
    FwdLoadOwn,
    /// Owner or memory → cache: a whole block.
    BlockReply,
    /// Owner → cache: a single datum (global-read mode).
    DatumReply,
    /// Cache → memory: ownership request (write hit on UnOwned).
    OwnershipReq,
    /// Memory → owner: forwarded ownership request.
    FwdOwnership,
    /// Old owner → new owner: the state field (and data when needed).
    OwnershipXfer,
    /// Owner → copy holders: one distributed write (update).
    UpdateWrite,
    /// Old owner → invalid-copy holders: the new owner identification.
    NewOwnerAnnounce,
    /// Owner → copy holders: invalidation (mode switch DW→GR).
    Invalidate,
    /// Cache → memory: write-back of a modified block.
    WriteBack,
    /// Cache → memory: drop notice (exclusive owner replaced a clean copy).
    ReplaceNotice,
    /// Memory → owner: clear the requester's present flag.
    FwdPresenceClear,
    /// Replacing owner → candidate: take over ownership?
    OwnershipOffer,
    /// Candidate → replacing owner: yes.
    OfferAck,
    /// Candidate → replacing owner: no (it no longer has the copy).
    OfferNak,
    /// Misdirected direct load bounced to the memory module for re-routing
    /// (stale OWNER hint after a GR→DW mode switch; see DESIGN.md).
    Redirect,
}

impl MsgKind {
    /// A stable counter name for per-kind traffic breakdowns:
    /// `bits[<kind>]` in the system's [`CounterSet`](tmc_simcore::CounterSet).
    pub fn bits_counter(self) -> &'static str {
        match self {
            MsgKind::LoadReq => "bits[LoadReq]",
            MsgKind::LoadOwnReq => "bits[LoadOwnReq]",
            MsgKind::DirectLoadReq => "bits[DirectLoadReq]",
            MsgKind::FwdLoad => "bits[FwdLoad]",
            MsgKind::FwdLoadOwn => "bits[FwdLoadOwn]",
            MsgKind::BlockReply => "bits[BlockReply]",
            MsgKind::DatumReply => "bits[DatumReply]",
            MsgKind::OwnershipReq => "bits[OwnershipReq]",
            MsgKind::FwdOwnership => "bits[FwdOwnership]",
            MsgKind::OwnershipXfer => "bits[OwnershipXfer]",
            MsgKind::UpdateWrite => "bits[UpdateWrite]",
            MsgKind::NewOwnerAnnounce => "bits[NewOwnerAnnounce]",
            MsgKind::Invalidate => "bits[Invalidate]",
            MsgKind::WriteBack => "bits[WriteBack]",
            MsgKind::ReplaceNotice => "bits[ReplaceNotice]",
            MsgKind::FwdPresenceClear => "bits[FwdPresenceClear]",
            MsgKind::OwnershipOffer => "bits[OwnershipOffer]",
            MsgKind::OfferAck => "bits[OfferAck]",
            MsgKind::OfferNak => "bits[OfferNak]",
            MsgKind::Redirect => "bits[Redirect]",
        }
    }
}

/// Where a message went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Destination {
    /// One port.
    Unicast(usize),
    /// A multicast to several ports with the scheme that carried it.
    Multicast {
        /// Receiving ports, ascending.
        ports: Vec<usize>,
        /// Concrete scheme used.
        scheme: SchemeChoice,
    },
}

/// One entry of a transaction trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message crossed the network.
    Msg {
        /// Message family.
        kind: MsgKind,
        /// Sending port.
        from: usize,
        /// Receiver(s).
        to: Destination,
        /// Payload bits (excluding routing tags).
        payload_bits: u64,
        /// Total bits charged across all links, tags included.
        cost_bits: u64,
    },
    /// A cache line changed state.
    StateChange {
        /// The cache whose line changed.
        cache: usize,
        /// The block.
        block: BlockAddr,
        /// State before (`None` = no entry).
        from: Option<StateName>,
        /// State after (`None` = entry dropped).
        to: Option<StateName>,
    },
    /// A note (mode switches, replacements, redirections).
    Note(String),
}

/// The accumulated trace of one or more transactions.
///
/// Logging is off by default ([`crate::SystemConfig::log_transactions`]);
/// when on, every message and state change lands here until drained by
/// [`TransactionLog::drain`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransactionLog {
    events: Vec<TraceEvent>,
}

impl TransactionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        TransactionLog::default()
    }

    /// Appends an event.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// Number of events logged.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over events in order.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Removes and returns all events.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Messages only, in order.
    pub fn messages(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Msg { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_accumulates_and_drains() {
        let mut log = TransactionLog::new();
        assert!(log.is_empty());
        log.push(TraceEvent::Note("hello".into()));
        log.push(TraceEvent::Msg {
            kind: MsgKind::LoadReq,
            from: 0,
            to: Destination::Unicast(3),
            payload_bits: 36,
            cost_bits: 150,
        });
        assert_eq!(log.len(), 2);
        assert_eq!(log.messages().count(), 1);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert!(log.is_empty());
    }
}
