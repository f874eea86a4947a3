//! Protocol messages.

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
