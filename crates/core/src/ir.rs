//! Every protocol the machine runs, as **data**: each §2.2 transition of
//! the two-mode protocol, and each transition of the paper's §4 baselines,
//! as a guarded action — the only definition of any protocol in this
//! crate.
//!
//! The paper defines the protocol once — six line states, DW/GR modes,
//! ownership migration, replacement, mode switches — and so does the
//! code: tables of [`Rule`]s, each a conjunction of [`Guard`] predicates
//! plus an ordered list of [`Step`] effects. [`crate::System`] executes
//! every reference by selecting one rule and running its steps
//! (`ir_exec.rs`); the bounded model checker explores through the same
//! entry points, so its pinned visited-state counts are properties of
//! these tables (the approach of guarded-action protocol languages; see
//! PAPERS.md on Meunier et al.'s GAL).
//!
//! # From request to rule
//!
//! * A request is decoded into a [`Facts`] word, one bit per [`Guard`],
//!   gathered a [`FactGroup`] at a time: the requester's tag-lookup class
//!   (or the victim's / the switching owner's state) is known at entry;
//!   the OWNER-hint probe, the block-store/owner probe and a baseline's
//!   home probe happen only when a rule still in the running tests them.
//! * Each rule's `when` list — the readable source — is folded into a bit
//!   mask when the table is built (a `const fn` over the list), so
//!   [`select`] is one compare per rule. The tables are written so exactly
//!   one rule matches any well-formed context; the tests below check that,
//!   and that [`select`] agrees with the declarative reading of `when`.
//! * **Message emissions** are explicit [`Step::Send`] entries carrying
//!   the message kind, the logical endpoints, and a [`SizeClass`] — the
//!   §2.3 payload-size annotation. Link-by-link costs follow from the
//!   omega-network route between the resolved endpoints, exactly as the
//!   paper charges them; multicast steps ([`Step::UpdateCast`],
//!   [`Step::AnnounceCast`], [`Step::InvalidateCast`], …) bill through
//!   the §3 multicast schemes.
//! * **State effects** are named micro-operations (probe the owner,
//!   install a line, demote the old owner, …), one `System` method each.
//!   What a step may assume — which endpoint a guard has resolved, which
//!   earlier step has run — is linted over every table in the tests
//!   below, so a misplaced step fails `cargo test`, not a run.
//!
//! Five tables, 37 rules, cover the two-mode protocol: [`READ_RULES`],
//! [`WRITE_RULES`], [`SET_MODE_RULES`], [`REPLACE_RULES`] (§2.2 case 5,
//! reached from the install steps when a way must be freed) and
//! [`MODE_RULES`] (§2.2 cases 6/7, reached from [`Step::SwitchMode`] and
//! from the §5 adaptive policy). Six more, 10 rules, are fault recovery
//! (docs/ROBUSTNESS.md) and the end-of-run flush: uncached service
//! ([`UNCACHED_READ_RULES`], [`UNCACHED_WRITE_RULES`],
//! [`UNCACHED_SET_MODE_RULES`]), the scrub ([`SCRUB_RULES`]), bit-flip
//! repair ([`BITFLIP_RULES`]) and [`FLUSH_RULES`]. The fault layer decides
//! *when* these fire, the tables what they send and change. Only its three
//! transport re-bills (a dropped or duplicated unicast, a multicast NACK,
//! a retry probe) bill outside them: each bills again a step that ran.
//!
//! Eight more tables, 16 rules, are the baselines a
//! [`System::baseline`](crate::System::baseline) machine runs instead:
//! directory-invalidate ([`DIR_READ_RULES`], [`DIR_WRITE_RULES`]) and
//! update-only ([`UPD_READ_RULES`], [`UPD_WRITE_RULES`]), which share their
//! read hit, their clean read miss, [`HOME_REPLACE_RULES`] and
//! [`HOME_FLUSH_RULES`], and no-cache ([`NC_READ_RULES`],
//! [`NC_WRITE_RULES`]). Their lines are plain copies; the home facts and
//! the home-side steps ([`Step::Bill`] onwards) read and change the home
//! directory's sharers and writer instead.

use crate::msg::MsgKind;
use crate::state::Mode;
use crate::system::{System, Txn};

/// The requester's tag-lookup outcome — the primary dispatch axis of
/// §2.2 (Table 1's V/O/DW bits collapse to these four classes plus the
/// owner-mode guards).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupClass {
    /// No entry for the block at all (cold).
    Missing,
    /// An entry exists but V = 0 (invalid entry, OWNER hint may help).
    InvalidEntry,
    /// Valid unowned copy (DW mode sharer).
    UnOwnedHit,
    /// Valid and owned — the requester is the block's owner.
    OwnedHit,
}

/// Decision-relevant victim state for the replacement table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VictimCtx {
    /// The victim line is owned by the replacing cache.
    pub owned: bool,
    /// The present vector names the replacer alone.
    pub exclusive: bool,
    /// The M bit — memory is stale.
    pub modified: bool,
    /// The victim line's mode.
    pub mode: Mode,
}

/// Decision-relevant state for the mode-switch table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModeCtx {
    /// The block's mode at its owner before the directive.
    pub current: Mode,
    /// The requested mode.
    pub target: Mode,
    /// The owner's present vector names caches besides the owner.
    pub other_copies: bool,
}

/// A single predicate over the protocol state at transaction start. A
/// rule fires when *all* its guards hold. Each guard is one bit of
/// [`Facts`]; the variants are declared group by group ([`FactGroup`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Guard {
    /// Lookup is a valid hit (owned or unowned).
    Hit,
    /// Lookup found no entry.
    Missing,
    /// Lookup found an invalid entry.
    InvalidEntry,
    /// Lookup missed (no entry, or an invalid one).
    Miss,
    /// Lookup hit the requester's own owned line.
    OwnedHit,
    /// Lookup hit a valid unowned copy.
    UnOwnedHit,
    /// The block store names an owner.
    BlockOwned,
    /// The block store names no owner (memory is current).
    BlockUnowned,
    /// The block-store owner's line is in distributed-write mode.
    OwnerIsDw,
    /// The block-store owner's line is in global-read mode.
    OwnerIsGr,
    /// The invalid entry has an OWNER hint and bypass is enabled.
    UsableHint,
    /// No usable OWNER hint (absent, or bypass disabled).
    NoUsableHint,
    /// The OWNER hint is fresh: the hinted cache owns the block.
    HintOwns,
    /// The OWNER hint is stale: the hinted cache does not own the block.
    HintStale,
    /// The hint target's line is in distributed-write mode.
    HintIsDw,
    /// The hint target's line is in global-read mode.
    HintIsGr,
    /// Replacement: the victim line is owned.
    VictimOwned,
    /// Replacement: the victim is an unowned or invalid entry.
    VictimCopy,
    /// Replacement: the owned victim's present vector is the replacer
    /// alone.
    Exclusive,
    /// Replacement: other caches appear in the victim's present vector.
    NotExclusive,
    /// Replacement: the victim's M bit is set (memory is stale).
    Dirty,
    /// Replacement: the victim is unmodified.
    Clean,
    /// Replacement: the owned victim is in distributed-write mode.
    VictimDw,
    /// Replacement: the owned victim is in global-read mode.
    VictimGr,
    /// Mode switch: the block is already in the requested mode.
    SameMode,
    /// Mode switch: the requested mode differs from the current one.
    ModeChanges,
    /// Mode switch: the directive requests distributed write.
    ToDw,
    /// Mode switch: the directive requests global read.
    ToGr,
    /// Mode switch: the owner holds the only copy.
    LoneCopy,
    /// Mode switch: other caches appear in the present vector.
    SharedCopies,
    /// Baseline home: no cache's copy is newer than memory.
    Unwritten,
    /// Baseline home: one cache's copy is newer than memory (its writer).
    Written,
    /// Baseline home: the writer is the requester (or the replacer).
    WriterIsReq,
    /// Baseline home: the requester is not the writer (there is none, or
    /// another cache is).
    WriterNotReq,
    /// The fault layer serves the block uncached: it is degraded or the
    /// requester's cache quarantined (or a scrub makes it so).
    Uncached,
}

/// The facts that are established together, by one probe of the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FactGroup {
    /// The requester's tag lookup ([`Facts::lookup`]).
    Lookup,
    /// The line a replacement evicts ([`Facts::victim`]).
    Victim,
    /// A mode directive against the owner's line ([`Facts::switch`]).
    Switch,
    /// The requester's OWNER hint and the hinted cache ([`Facts::hint`]).
    Hint,
    /// The block store and the owner's line ([`Facts::owner`]).
    Owner,
    /// A baseline machine's home directory entry ([`Facts::home`]).
    Home,
    /// What the fault layer decided before the transaction
    /// ([`Facts::UNCACHED`]).
    Fault,
}

impl FactGroup {
    /// The groups [`select`] may ask a probe for, each with its fact bits,
    /// in probe order: what the requester's own cache knows is asked before
    /// the block store. Only the baseline tables test the home, so a
    /// two-mode request never reaches its row. The other groups are known
    /// at entry or not at all.
    const ON_DEMAND: [(FactGroup, u64); 3] = [
        (FactGroup::Hint, FactGroup::Hint.mask()),
        (FactGroup::Owner, FactGroup::Owner.mask()),
        (FactGroup::Home, FactGroup::Home.mask()),
    ];

    /// The fact bits this group establishes: a contiguous run of
    /// [`Guard`] variants.
    const fn mask(self) -> u64 {
        let (first, last) = match self {
            FactGroup::Lookup => (G::Hit, G::UnOwnedHit),
            FactGroup::Owner => (G::BlockOwned, G::OwnerIsGr),
            FactGroup::Hint => (G::UsableHint, G::HintIsGr),
            FactGroup::Victim => (G::VictimOwned, G::VictimGr),
            FactGroup::Switch => (G::SameMode, G::SharedCopies),
            FactGroup::Home => (G::Unwritten, G::WriterNotReq),
            FactGroup::Fault => (G::Uncached, G::Uncached),
        };
        (2 << last as u64) - (1 << first as u64)
    }
}

/// The decision-relevant protocol state of one request: bit `g` of `bits`
/// is set when [`Guard`] `g` holds, and `known` covers the groups probed
/// so far (an unset bit of a known group is a guard that does *not*
/// hold). Built a [`FactGroup`] at a time by the constructors below —
/// they are the whole encoding of machine state into guards — and
/// combined with `|`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Facts {
    bits: u64,
    known: u64,
}

/// `guards` as fact bits.
const fn fold(guards: &[Guard]) -> u64 {
    let mut bits = 0;
    let mut i = 0;
    while i < guards.len() {
        bits |= 1 << guards[i] as u64;
        i += 1;
    }
    bits
}

impl Facts {
    /// Nothing probed.
    pub const NONE: Facts = Facts { bits: 0, known: 0 };

    /// The fault layer serves the block uncached.
    pub const UNCACHED: Facts = Facts::new(FactGroup::Fault, &[G::Uncached]);

    const fn new(group: FactGroup, guards: &[Guard]) -> Facts {
        Facts {
            bits: fold(guards),
            known: group.mask(),
        }
    }

    /// What the requester's tag lookup found.
    #[must_use]
    pub fn lookup(class: LookupClass) -> Facts {
        const fn of(guards: &[Guard]) -> Facts {
            Facts::new(FactGroup::Lookup, guards)
        }
        match class {
            LookupClass::Missing => const { of(&[G::Missing, G::Miss]) },
            LookupClass::InvalidEntry => const { of(&[G::InvalidEntry, G::Miss]) },
            LookupClass::UnOwnedHit => const { of(&[G::UnOwnedHit, G::Hit]) },
            LookupClass::OwnedHit => const { of(&[G::OwnedHit, G::Hit]) },
        }
    }

    /// Whether the block store names an owner, and the mode at that
    /// owner's line.
    #[must_use]
    pub fn owner(block_owned: bool, owner_mode: Option<Mode>) -> Facts {
        const fn of(guards: &[Guard]) -> Facts {
            Facts::new(FactGroup::Owner, guards)
        }
        match (block_owned, owner_mode) {
            (false, _) => const { of(&[G::BlockUnowned]) },
            (true, None) => const { of(&[G::BlockOwned]) },
            (true, Some(Mode::DistributedWrite)) => const { of(&[G::BlockOwned, G::OwnerIsDw]) },
            (true, Some(Mode::GlobalRead)) => const { of(&[G::BlockOwned, G::OwnerIsGr]) },
        }
    }

    /// Whether the requester's invalid entry carries an OWNER hint it may
    /// use, and the mode at the hinted cache when that cache owns the
    /// block (`None`: the hint is stale).
    #[must_use]
    pub fn hint(usable: bool, mode_at_owning_target: Option<Mode>) -> Facts {
        const fn of(guards: &[Guard]) -> Facts {
            Facts::new(FactGroup::Hint, guards)
        }
        match (usable, mode_at_owning_target) {
            (false, _) => const { of(&[G::NoUsableHint]) },
            (true, None) => const { of(&[G::UsableHint, G::HintStale]) },
            (true, Some(Mode::DistributedWrite)) => {
                const { of(&[G::UsableHint, G::HintOwns, G::HintIsDw]) }
            }
            (true, Some(Mode::GlobalRead)) => {
                const { of(&[G::UsableHint, G::HintOwns, G::HintIsGr]) }
            }
        }
    }

    /// The line a replacement is about to evict, or a recovery or the
    /// flush acts on.
    #[must_use]
    pub fn victim(v: VictimCtx) -> Facts {
        let dw = v.mode == Mode::DistributedWrite;
        Facts::new(
            FactGroup::Victim,
            &[
                if v.owned {
                    G::VictimOwned
                } else {
                    G::VictimCopy
                },
                if v.exclusive {
                    G::Exclusive
                } else {
                    G::NotExclusive
                },
                if v.modified { G::Dirty } else { G::Clean },
                if dw { G::VictimDw } else { G::VictimGr },
            ],
        )
    }

    /// What a baseline machine's home knows of the block: its `writer`, if
    /// any, and whether that is `req`, the requester or replacer.
    #[must_use]
    pub fn home(writer: Option<usize>, req: usize) -> Facts {
        const fn of(guards: &[Guard]) -> Facts {
            Facts::new(FactGroup::Home, guards)
        }
        match writer {
            None => const { of(&[G::Unwritten, G::WriterNotReq]) },
            Some(w) if w == req => const { of(&[G::Written, G::WriterIsReq]) },
            Some(_) => const { of(&[G::Written, G::WriterNotReq]) },
        }
    }

    /// A mode directive arriving at the block's owner.
    #[must_use]
    pub fn switch(m: ModeCtx) -> Facts {
        let to_dw = m.target == Mode::DistributedWrite;
        Facts::new(
            FactGroup::Switch,
            &[
                if m.current == m.target {
                    G::SameMode
                } else {
                    G::ModeChanges
                },
                if to_dw { G::ToDw } else { G::ToGr },
                if m.other_copies {
                    G::SharedCopies
                } else {
                    G::LoneCopy
                },
            ],
        )
    }
}

impl std::ops::BitOr for Facts {
    type Output = Facts;
    fn bitor(self, rhs: Facts) -> Facts {
        Facts {
            bits: self.bits | rhs.bits,
            known: self.known | rhs.known,
        }
    }
}

/// A logical message endpoint, resolved to a network port when the rule
/// runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ep {
    /// The cache issuing the transaction (or replacing the victim).
    Requester,
    /// The memory module the block interleaves to.
    Home,
    /// The block-store owner at transaction start.
    Owner,
    /// The cache named by the requester's OWNER hint.
    Hint,
    /// The handoff candidate that accepted ownership.
    Candidate,
    /// The cache a baseline machine's home names as the block's writer.
    Writer,
}

/// The §2.3 message-size classes — the IR's link-cost annotations. Each
/// resolves against [`crate::SystemConfig`]'s sizing model; the per-link
/// charge is this payload routed over the omega network between the
/// emission's endpoints (unicast) or through the configured §3 multicast
/// scheme (cast steps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeClass {
    /// A bare request header.
    Request,
    /// A full block transfer.
    BlockTransfer,
    /// One datum (GR remote read service to a known requester entry).
    Datum,
    /// One datum plus the owner id (GR service installing a fresh hint).
    DatumPlusOwnerId,
    /// A distributed-write update (datum + addressing).
    Update,
    /// An invalidation notice.
    Invalidate,
    /// A new-owner announcement (log₂N owner id).
    NewOwnerId,
    /// Ownership state without data (present vector + bits).
    StateTransfer,
    /// Ownership state plus the block contents.
    BlockAndState,
    /// A single-bit acknowledgement / NAK.
    Ack,
}

/// One effect of a fired rule. `Send`/cast steps emit (and bill) traffic;
/// the rest are the named state micro-operations, applied in listed
/// order. Each is one `System` method of the same name in `ir_exec.rs`;
/// docs/PROTOCOL.md has the prose mapping back to §2.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Increment a named protocol counter.
    Count(&'static str),
    /// Emit the structured miss event (tracing only).
    Miss {
        /// Write miss (vs read miss).
        write: bool,
        /// Cold miss: no entry at all (vs an invalid entry).
        cold: bool,
    },
    /// Emit one unicast message and bill its route link-by-link.
    Send {
        /// Message kind (drives the per-kind bit counters).
        kind: MsgKind,
        /// Sending endpoint.
        from: Ep,
        /// Receiving endpoint.
        to: Ep,
        /// Payload-size annotation (§2.3).
        size: SizeClass,
    },
    /// Serve a read hit with the word the requester's tag probe found
    /// (a probe that finds a valid line is what refreshes its recency).
    ReadHitWord,
    /// Install the block the memory module holds at the requester as the
    /// exclusive owner in the policy's initial mode, and point the block
    /// store at it.
    InstallOwnedExclusive,
    /// DW service probe at the serving owner: register the requester in
    /// the present vector; a copy of the block will follow.
    OwnerProbeDw(Ep),
    /// GR service probe at the serving owner: register the requester and
    /// count the remote read in the §5 window (one datum will move).
    OwnerProbeGr(Ep),
    /// Install the serving owner's block at the requester as an unowned
    /// copy.
    InstallUnownedCopy,
    /// Refresh the OWNER hint on the requester's existing invalid entry.
    SetHintAtReq,
    /// Install a fresh invalid entry at the requester holding only the
    /// OWNER hint.
    InstallInvalidHint,
    /// Point the block store at the requester (ownership moves).
    SetOwnerReq,
    /// Begin an ownership transfer: count it, trace it, register the
    /// requester at the old owner and read the mode and M bit that travel
    /// with ownership.
    XferProbe,
    /// Demote the old owner's copy to UnOwned (DW transfer).
    DemoteOldDw,
    /// Announce the new owner to the other invalid-entry holders (GR
    /// transfer), updating their hints.
    AnnounceCast,
    /// Invalidate the old owner's own copy (GR transfer).
    InvalidateOldGr,
    /// Install the owned line at the new owner; the present vector leaves
    /// the old owner's line with it.
    InstallXfer {
        /// The block contents crossed the network with the state (false:
        /// the requester's own valid copy is promoted in place).
        send_data: bool,
    },
    /// Apply the write at the owning requester (set word, M bit).
    WriteAtOwner,
    /// §2.2 case 3(b): multicast [`MsgKind::UpdateWrite`] at
    /// [`SizeClass::Update`] to the other copy holders, when the block is
    /// in DW mode and copies exist.
    UpdateCast,
    /// Run the [`MODE_RULES`] table for the requested mode.
    SwitchMode,
    /// Write the dirty victim's block back to memory.
    MemWriteBackVictim,
    /// Clear the victim's block-store entry (memory becomes owner).
    ClearStoreVictim,
    /// Clear the replacer's present flag at the victim's owner.
    ClearPresenceAtOwner,
    /// §2.2 case 5(b) offer loop: offer ownership
    /// ([`MsgKind::OwnershipOffer`], [`SizeClass::Request`]) to present
    /// vector candidates until one acks ([`MsgKind::OfferAck`] /
    /// [`MsgKind::OfferNak`], [`SizeClass::Ack`]).
    HandoffOffers,
    /// Point the block store at the accepted handoff candidate.
    SetOwnerCand,
    /// Promote the candidate's valid copy to owner (DW handoff).
    PromoteCandDw,
    /// Promote the candidate's invalid entry to owner with the
    /// transferred data (GR handoff).
    PromoteCandGr,
    /// Announce the promoted candidate to the remaining invalid entries
    /// (GR handoff).
    AnnounceCastHandoff,
    /// §2.2 case 6: set DW mode; the present vector collapses to the
    /// owner alone.
    ModeToDw,
    /// §2.2 case 7: set GR mode; the present vector is retained (it now
    /// marks invalid-entry holders).
    ModeToGr,
    /// §2.2 case 7: multicast [`MsgKind::Invalidate`] at
    /// [`SizeClass::Invalidate`] to the other copy holders.
    InvalidateCast,

    // The fault-recovery and flush steps.
    /// Serve a read with the word at the owner's line (uncached service).
    ReadOwnerWord,
    /// The owner takes the requester's place for the steps that follow:
    /// an uncached requester's write is performed at the owner.
    ServeAtOwner,
    /// The requester's copy takes the owner's data (a flipped bit is
    /// repaired by refetching).
    RefetchFromOwner,
    /// Clear the M bit of the requester's line (its block went home).
    ClearModified,

    // The home-side steps of the baseline tables.
    /// Emit one unicast message and bill its route link by link, tallying
    /// only `bits_total` and `msgs_total`: a baseline machine keeps no
    /// per-kind counters.
    Bill {
        /// Message kind (what the message is; not tallied).
        kind: MsgKind,
        /// Sending endpoint.
        from: Ep,
        /// Receiving endpoint.
        to: Ep,
        /// Payload-size annotation (§2.3).
        size: SizeClass,
    },
    /// Install the block at the requester as a plain copy and enroll it
    /// at the home, taking the data from the endpoint that supplied it:
    /// [`Ep::Home`] (memory) or [`Ep::Writer`] (the writer's copy). A full
    /// set first runs [`HOME_REPLACE_RULES`] for its victim.
    InstallCopy(Ep),
    /// Set the word in the requester's own copy.
    WriteWord,
    /// The writer's copy goes home: memory takes it and the home names no
    /// writer. With `drop` the writer also loses its copy.
    RecallWriter {
        /// The writer's copy is dropped too (a write is taking the block).
        drop: bool,
    },
    /// Multicast [`MsgKind::Invalidate`] at [`SizeClass::Invalidate`] from
    /// the home to every sharer but the requester, dropping their copies.
    InvalidateCopies,
    /// Multicast [`MsgKind::UpdateWrite`] at [`SizeClass::Update`] from
    /// the requester to every other sharer, setting the word in each copy.
    UpdateCopies,
    /// The home names the requester as the block's writer.
    SetWriterReq,
    /// The home names no writer (the replaced writer's copy went home).
    ClearWriter,
    /// The home forgets the replacer's copy.
    DropSharer,
    /// Serve a read with memory's word (no cache holds anything).
    ReadMemoryWord,
    /// Write the word straight into memory.
    WriteMemoryWord,
}

/// One guarded action: `name` for diagnostics, `when` the guard
/// conjunction, `steps` the ordered effects.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Stable diagnostic name (also the docs' reference key).
    pub name: &'static str,
    /// All guards must hold for the rule to fire. The engine selects on
    /// `mask`; the table tests read this list.
    #[cfg_attr(not(test), allow(dead_code))]
    pub when: &'static [Guard],
    /// Effects, applied in order.
    pub steps: &'static [Step],
    /// `when` as fact bits, folded once when the table is built.
    mask: u64,
    /// Applies `steps` to the machine.
    pub(crate) run: fn(&mut System, &mut Txn),
}

/// Builds one [`Rule`] of a table. The step list is emitted twice from the
/// same tokens: as data, and as the function that applies it — a straight
/// line of [`System::step`] calls, each on a constant, so the step
/// dispatch is resolved when the table is compiled rather than once per
/// step per reference.
macro_rules! rule {
    ($name:literal, [$($when:expr),+ $(,)?], [$($step:expr),* $(,)?] $(,)?) => {
        Rule {
            name: $name,
            when: &[$($when),+],
            steps: &[$($step),*],
            mask: fold(&[$($when),+]),
            run: |_sys, _t| {
                $(_sys.step(&$step, _t);)*
            },
        }
    };
}

/// The rule of `rules` that fires: the first whose guards are all among
/// the facts. `entry` holds what is known when the request arrives;
/// `probe` is asked for a further [`FactGroup`] only when a rule that the
/// facts so far have not ruled out tests one of its bits, so a request
/// the lookup class alone decides probes nothing. `None` means the table
/// has no rule for this context.
#[inline]
pub fn select(
    rules: &'static [Rule],
    entry: Facts,
    mut probe: impl FnMut(FactGroup) -> Facts,
) -> Option<&'static Rule> {
    let Facts {
        mut bits,
        mut known,
    } = entry;
    let mut rules = rules.iter();
    let mut rule = rules.next()?;
    loop {
        let missing = rule.mask & !bits;
        if missing == 0 {
            return Some(rule);
        }
        if missing & known != 0 {
            // A fact of a probed group is absent: this rule is out.
            rule = rules.next()?;
            continue;
        }
        let (group, mask) = FactGroup::ON_DEMAND
            .into_iter()
            .find(|(_, mask)| missing & mask != 0)?;
        bits |= probe(group).bits;
        known |= mask;
    }
}

use Ep::{Candidate, Hint, Home, Owner, Requester, Writer};
use Guard as G;
use MsgKind as K;
use SizeClass as Z;
use Step as S;

/// Shorthand for the ubiquitous unicast step.
macro_rules! send {
    ($kind:ident, $from:ident -> $to:ident, $size:ident) => {
        S::Send {
            kind: K::$kind,
            from: $from,
            to: $to,
            size: Z::$size,
        }
    };
}

/// Shorthand for a baseline's unicast step.
macro_rules! bill {
    ($kind:ident, $from:ident -> $to:ident, $size:ident) => {
        S::Bill {
            kind: K::$kind,
            from: $from,
            to: $to,
            size: Z::$size,
        }
    };
}

/// Processor read (§2.2 cases 1 and 2): hit, invalid-entry miss with
/// fresh/stale/no OWNER hint, cold miss, each split by the serving
/// owner's mode. Exactly one rule matches any context, so the order is
/// free; the commonest come first because [`select`] scans in order.
pub static READ_RULES: &[Rule] = &[
    rule!("read-hit", [G::Hit], [S::Count("read_hit"), S::ReadHitWord],),
    rule!(
        "read-inv-hint-dw",
        [G::InvalidEntry, G::UsableHint, G::HintOwns, G::HintIsDw],
        [
            S::Count("read_miss_invalid"),
            S::Miss {
                write: false,
                cold: false,
            },
            send!(DirectLoadReq, Requester -> Hint, Request),
            S::OwnerProbeDw(Hint),
            send!(BlockReply, Hint -> Requester, BlockTransfer),
            S::InstallUnownedCopy,
        ],
    ),
    rule!(
        "read-inv-hint-gr",
        [G::InvalidEntry, G::UsableHint, G::HintOwns, G::HintIsGr],
        [
            S::Count("read_miss_invalid"),
            S::Miss {
                write: false,
                cold: false,
            },
            send!(DirectLoadReq, Requester -> Hint, Request),
            S::OwnerProbeGr(Hint),
            S::Count("read_remote_gr"),
            send!(DatumReply, Hint -> Requester, Datum),
            S::SetHintAtReq,
        ],
    ),
    rule!(
        "read-inv-stale-unowned",
        [
            G::InvalidEntry,
            G::UsableHint,
            G::HintStale,
            G::BlockUnowned,
        ],
        [
            S::Count("read_miss_invalid"),
            S::Miss {
                write: false,
                cold: false,
            },
            send!(DirectLoadReq, Requester -> Hint, Request),
            S::Count("redirects"),
            send!(Redirect, Hint -> Home, Request),
            send!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallOwnedExclusive,
        ],
    ),
    rule!(
        "read-inv-stale-owned-dw",
        [
            G::InvalidEntry,
            G::UsableHint,
            G::HintStale,
            G::BlockOwned,
            G::OwnerIsDw,
        ],
        [
            S::Count("read_miss_invalid"),
            S::Miss {
                write: false,
                cold: false,
            },
            send!(DirectLoadReq, Requester -> Hint, Request),
            S::Count("redirects"),
            send!(Redirect, Hint -> Home, Request),
            send!(FwdLoad, Home -> Owner, Request),
            S::OwnerProbeDw(Owner),
            send!(BlockReply, Owner -> Requester, BlockTransfer),
            S::InstallUnownedCopy,
        ],
    ),
    rule!(
        "read-inv-stale-owned-gr",
        [
            G::InvalidEntry,
            G::UsableHint,
            G::HintStale,
            G::BlockOwned,
            G::OwnerIsGr,
        ],
        [
            S::Count("read_miss_invalid"),
            S::Miss {
                write: false,
                cold: false,
            },
            send!(DirectLoadReq, Requester -> Hint, Request),
            S::Count("redirects"),
            send!(Redirect, Hint -> Home, Request),
            send!(FwdLoad, Home -> Owner, Request),
            S::OwnerProbeGr(Owner),
            S::Count("read_remote_gr"),
            send!(DatumReply, Owner -> Requester, Datum),
            S::SetHintAtReq,
        ],
    ),
    rule!(
        "read-inv-nohint-unowned",
        [G::InvalidEntry, G::NoUsableHint, G::BlockUnowned],
        [
            S::Count("read_miss_invalid"),
            S::Miss {
                write: false,
                cold: false,
            },
            send!(LoadReq, Requester -> Home, Request),
            send!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallOwnedExclusive,
        ],
    ),
    rule!(
        "read-inv-nohint-owned-dw",
        [
            G::InvalidEntry,
            G::NoUsableHint,
            G::BlockOwned,
            G::OwnerIsDw,
        ],
        [
            S::Count("read_miss_invalid"),
            S::Miss {
                write: false,
                cold: false,
            },
            send!(LoadReq, Requester -> Home, Request),
            send!(FwdLoad, Home -> Owner, Request),
            S::OwnerProbeDw(Owner),
            send!(BlockReply, Owner -> Requester, BlockTransfer),
            S::InstallUnownedCopy,
        ],
    ),
    rule!(
        "read-inv-nohint-owned-gr",
        [
            G::InvalidEntry,
            G::NoUsableHint,
            G::BlockOwned,
            G::OwnerIsGr,
        ],
        [
            S::Count("read_miss_invalid"),
            S::Miss {
                write: false,
                cold: false,
            },
            send!(LoadReq, Requester -> Home, Request),
            send!(FwdLoad, Home -> Owner, Request),
            S::OwnerProbeGr(Owner),
            S::Count("read_remote_gr"),
            send!(DatumReply, Owner -> Requester, Datum),
            S::SetHintAtReq,
        ],
    ),
    rule!(
        "read-cold-unowned",
        [G::Missing, G::BlockUnowned],
        [
            S::Count("read_miss_cold"),
            S::Miss {
                write: false,
                cold: true,
            },
            send!(LoadReq, Requester -> Home, Request),
            send!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallOwnedExclusive,
        ],
    ),
    rule!(
        "read-cold-owned-dw",
        [G::Missing, G::BlockOwned, G::OwnerIsDw],
        [
            S::Count("read_miss_cold"),
            S::Miss {
                write: false,
                cold: true,
            },
            send!(LoadReq, Requester -> Home, Request),
            send!(FwdLoad, Home -> Owner, Request),
            S::OwnerProbeDw(Owner),
            send!(BlockReply, Owner -> Requester, BlockTransfer),
            S::InstallUnownedCopy,
        ],
    ),
    rule!(
        "read-cold-owned-gr",
        [G::Missing, G::BlockOwned, G::OwnerIsGr],
        [
            S::Count("read_miss_cold"),
            S::Miss {
                write: false,
                cold: true,
            },
            send!(LoadReq, Requester -> Home, Request),
            send!(FwdLoad, Home -> Owner, Request),
            S::OwnerProbeGr(Owner),
            S::Count("read_remote_gr"),
            send!(DatumReply, Owner -> Requester, DatumPlusOwnerId),
            S::InstallInvalidHint,
        ],
    ),
];

/// Processor write (§2.2 cases 3 and 4): every rule ends with the owned
/// write and its conditional update cast.
pub static WRITE_RULES: &[Rule] = &[
    rule!(
        "write-hit-owner",
        [G::OwnedHit],
        [S::Count("write_hit_owner"), S::WriteAtOwner, S::UpdateCast],
    ),
    rule!(
        "write-hit-unowned-dw",
        [G::UnOwnedHit, G::OwnerIsDw],
        [
            S::Count("write_hit_unowned"),
            send!(OwnershipReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdOwnership, Home -> Owner, Request),
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, StateTransfer),
            S::DemoteOldDw,
            S::InstallXfer { send_data: false },
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    ),
    rule!(
        "write-hit-unowned-gr",
        [G::UnOwnedHit, G::OwnerIsGr],
        [
            S::Count("write_hit_unowned"),
            send!(OwnershipReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdOwnership, Home -> Owner, Request),
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::AnnounceCast,
            S::InvalidateOldGr,
            S::InstallXfer { send_data: true },
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    ),
    rule!(
        "write-miss-cold-unowned",
        [G::Missing, G::BlockUnowned],
        [
            S::Count("write_miss"),
            S::Miss {
                write: true,
                cold: true,
            },
            send!(LoadOwnReq, Requester -> Home, Request),
            send!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallOwnedExclusive,
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    ),
    rule!(
        "write-miss-inv-unowned",
        [G::InvalidEntry, G::BlockUnowned],
        [
            S::Count("write_miss"),
            S::Miss {
                write: true,
                cold: false,
            },
            send!(LoadOwnReq, Requester -> Home, Request),
            send!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallOwnedExclusive,
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    ),
    rule!(
        "write-miss-cold-owned-dw",
        [G::Missing, G::BlockOwned, G::OwnerIsDw],
        [
            S::Count("write_miss"),
            S::Miss {
                write: true,
                cold: true,
            },
            send!(LoadOwnReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdLoadOwn, Home -> Owner, Request),
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::DemoteOldDw,
            S::InstallXfer { send_data: true },
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    ),
    rule!(
        "write-miss-inv-owned-dw",
        [G::InvalidEntry, G::BlockOwned, G::OwnerIsDw],
        [
            S::Count("write_miss"),
            S::Miss {
                write: true,
                cold: false,
            },
            send!(LoadOwnReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdLoadOwn, Home -> Owner, Request),
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::DemoteOldDw,
            S::InstallXfer { send_data: true },
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    ),
    rule!(
        "write-miss-cold-owned-gr",
        [G::Missing, G::BlockOwned, G::OwnerIsGr],
        [
            S::Count("write_miss"),
            S::Miss {
                write: true,
                cold: true,
            },
            send!(LoadOwnReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdLoadOwn, Home -> Owner, Request),
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::AnnounceCast,
            S::InvalidateOldGr,
            S::InstallXfer { send_data: true },
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    ),
    rule!(
        "write-miss-inv-owned-gr",
        [G::InvalidEntry, G::BlockOwned, G::OwnerIsGr],
        [
            S::Count("write_miss"),
            S::Miss {
                write: true,
                cold: false,
            },
            send!(LoadOwnReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdLoadOwn, Home -> Owner, Request),
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::AnnounceCast,
            S::InvalidateOldGr,
            S::InstallXfer { send_data: true },
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    ),
];

/// Software mode directive (§2.2 cases 6/7 entry): acquire ownership like
/// a write (but with no miss accounting — directives are not misses),
/// then switch in place via [`MODE_RULES`].
pub static SET_MODE_RULES: &[Rule] = &[
    rule!("setmode-hit-owner", [G::OwnedHit], [S::SwitchMode],),
    rule!(
        "setmode-hit-unowned-dw",
        [G::UnOwnedHit, G::OwnerIsDw],
        [
            send!(OwnershipReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdOwnership, Home -> Owner, Request),
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, StateTransfer),
            S::DemoteOldDw,
            S::InstallXfer { send_data: false },
            S::SwitchMode,
        ],
    ),
    rule!(
        "setmode-hit-unowned-gr",
        [G::UnOwnedHit, G::OwnerIsGr],
        [
            send!(OwnershipReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdOwnership, Home -> Owner, Request),
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::AnnounceCast,
            S::InvalidateOldGr,
            S::InstallXfer { send_data: true },
            S::SwitchMode,
        ],
    ),
    rule!(
        "setmode-miss-unowned",
        [G::Miss, G::BlockUnowned],
        [
            send!(LoadOwnReq, Requester -> Home, Request),
            send!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallOwnedExclusive,
            S::SwitchMode,
        ],
    ),
    rule!(
        "setmode-miss-owned-dw",
        [G::Miss, G::BlockOwned, G::OwnerIsDw],
        [
            send!(LoadOwnReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdLoadOwn, Home -> Owner, Request),
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::DemoteOldDw,
            S::InstallXfer { send_data: true },
            S::SwitchMode,
        ],
    ),
    rule!(
        "setmode-miss-owned-gr",
        [G::Miss, G::BlockOwned, G::OwnerIsGr],
        [
            send!(LoadOwnReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdLoadOwn, Home -> Owner, Request),
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::AnnounceCast,
            S::InvalidateOldGr,
            S::InstallXfer { send_data: true },
            S::SwitchMode,
        ],
    ),
];

/// Replacement (§2.2 case 5). `System::replace` brackets every rule with
/// the shared prelude (replacement counter, trace event) and postlude
/// (drop the entry); the rules carry what differs per victim class. A
/// scrub and a quarantine fire it, unbracketed, for each copy they drop.
pub static REPLACE_RULES: &[Rule] = &[
    rule!(
        "replace-owned-exclusive-dirty",
        [G::VictimOwned, G::Exclusive, G::Dirty],
        [
            send!(WriteBack, Requester -> Home, BlockTransfer),
            S::Count("writebacks"),
            S::MemWriteBackVictim,
            S::ClearStoreVictim,
        ],
    ),
    rule!(
        "replace-owned-exclusive-clean",
        [G::VictimOwned, G::Exclusive, G::Clean],
        [
            send!(ReplaceNotice, Requester -> Home, Request),
            S::ClearStoreVictim,
        ],
    ),
    rule!(
        "replace-handoff-dw",
        [G::VictimOwned, G::NotExclusive, G::VictimDw],
        [
            S::HandoffOffers,
            send!(OwnershipReq, Candidate -> Home, Request),
            S::SetOwnerCand,
            send!(FwdOwnership, Home -> Requester, Request),
            send!(OwnershipXfer, Requester -> Candidate, StateTransfer),
            S::PromoteCandDw,
            S::Count("ownership_transfers"),
        ],
    ),
    rule!(
        "replace-handoff-gr",
        [G::VictimOwned, G::NotExclusive, G::VictimGr],
        [
            S::HandoffOffers,
            send!(OwnershipReq, Candidate -> Home, Request),
            S::SetOwnerCand,
            send!(FwdOwnership, Home -> Requester, Request),
            send!(OwnershipXfer, Requester -> Candidate, BlockAndState),
            S::PromoteCandGr,
            S::AnnounceCastHandoff,
            S::Count("ownership_transfers"),
        ],
    ),
    rule!(
        "replace-copy-owned",
        [G::VictimCopy, G::BlockOwned],
        [
            send!(ReplaceNotice, Requester -> Home, Request),
            send!(FwdPresenceClear, Home -> Owner, Request),
            S::ClearPresenceAtOwner,
        ],
    ),
    rule!(
        "replace-copy-orphan",
        [G::VictimCopy, G::BlockUnowned],
        [send!(ReplaceNotice, Requester -> Home, Request)],
    ),
];

/// In-place mode switch at the owner (§2.2 cases 6 and 7; also the §5
/// adaptive policy's actuator). `System::switch_mode_at_owner` emits the
/// mode-switch trace event and state-change log entry around the fired
/// rule's steps; a `switch-noop` fire is fully silent.
pub static MODE_RULES: &[Rule] = &[
    rule!("switch-noop", [G::SameMode], [],),
    rule!(
        "switch-to-dw",
        [G::ModeChanges, G::ToDw],
        [S::Count("mode_switch_to_dw"), S::ModeToDw],
    ),
    rule!(
        "switch-to-gr-lone",
        [G::ModeChanges, G::ToGr, G::LoneCopy],
        [S::Count("mode_switch_to_gr"), S::ModeToGr],
    ),
    rule!(
        "switch-to-gr-shared",
        [G::ModeChanges, G::ToGr, G::SharedCopies],
        [
            S::Count("mode_switch_to_gr"),
            S::ModeToGr,
            S::InvalidateCast,
        ],
    ),
];

// ----------------------------------------------------------------------
// Fault recovery (docs/ROBUSTNESS.md) and the end-of-run flush.
// ----------------------------------------------------------------------

/// Uncached read of a degraded block, or by a quarantined cache's
/// processor: one datum, from the owner's line if the block has an owner,
/// else from memory. No line is installed or changed.
pub static UNCACHED_READ_RULES: &[Rule] = &[
    rule!(
        "uncached-read-owner",
        [G::Uncached, G::BlockOwned],
        [
            S::Count("fault_uncached_reads"),
            send!(DirectLoadReq, Requester -> Owner, Request),
            send!(DatumReply, Owner -> Requester, Datum),
            S::ReadOwnerWord,
        ],
    ),
    rule!(
        "uncached-read-home",
        [G::Uncached, G::BlockUnowned],
        [
            S::Count("fault_uncached_reads"),
            send!(LoadReq, Requester -> Home, Request),
            send!(DatumReply, Home -> Requester, Datum),
            S::ReadMemoryWord,
        ],
    ),
];

/// Uncached write: a posted write-through. An owner performs it, keeping
/// its distributed-write copies coherent with its update cast; without
/// one, memory takes the word.
pub static UNCACHED_WRITE_RULES: &[Rule] = &[
    rule!(
        "uncached-write-owner",
        [G::Uncached, G::BlockOwned],
        [
            S::Count("fault_uncached_writes"),
            send!(UpdateWrite, Requester -> Owner, Update),
            S::ServeAtOwner,
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    ),
    rule!(
        "uncached-write-home",
        [G::Uncached, G::BlockUnowned],
        [
            S::Count("fault_uncached_writes"),
            send!(UpdateWrite, Requester -> Home, Update),
            S::WriteMemoryWord,
        ],
    ),
];

/// Uncached mode directive: a block served uncached has no mode worth
/// setting until it heals, so the directive is dropped (not queued).
pub static UNCACHED_SET_MODE_RULES: &[Rule] = &[rule!(
    "uncached-setmode",
    [G::Uncached],
    [S::Count("fault_uncached_setmodes")],
)];

/// Scrub: a block about to be degraded, or owned by a cache about to be
/// quarantined, goes home from its owner's line. `System::scrub_block`
/// then drops every other entry through [`REPLACE_RULES`].
pub static SCRUB_RULES: &[Rule] = &[
    rule!(
        "scrub-owner-dirty",
        [G::Uncached, G::VictimOwned, G::Dirty],
        [
            send!(WriteBack, Requester -> Home, BlockTransfer),
            S::Count("writebacks"),
            S::MemWriteBackVictim,
            S::ClearStoreVictim,
        ],
    ),
    rule!(
        "scrub-owner-clean",
        [G::Uncached, G::VictimOwned, G::Clean],
        [
            send!(ReplaceNotice, Requester -> Home, Request),
            S::ClearStoreVictim,
        ],
    ),
];

/// Bit-flip repair, entered with the victim facts of the valid line the
/// flip hit: ECC corrects an owned line in place; a copy is refetched from
/// the owner.
pub static BITFLIP_RULES: &[Rule] = &[
    rule!(
        "bitflip-owned",
        [G::VictimOwned],
        [S::Count("fault_ecc_corrected")],
    ),
    rule!(
        "bitflip-copy",
        [G::VictimCopy, G::BlockOwned],
        [
            send!(DirectLoadReq, Requester -> Owner, Request),
            send!(BlockReply, Owner -> Requester, BlockTransfer),
            S::RefetchFromOwner,
            S::Count("fault_bitflip_refetch"),
        ],
    ),
];

/// End-of-run flush of one modified owned line: its block goes home and
/// the line stays, clean.
pub static FLUSH_RULES: &[Rule] = &[rule!(
    "flush-owner-dirty",
    [G::VictimOwned, G::Dirty],
    [
        send!(WriteBack, Requester -> Home, BlockTransfer),
        S::Count("writebacks"),
        S::MemWriteBackVictim,
        S::ClearModified,
    ],
)];

// ----------------------------------------------------------------------
// The baselines of §4, on the same machine: a line is a plain copy, and
// the home directory (`home.rs`) holds the sharers and the writer.
// ----------------------------------------------------------------------

/// A read hit under either directory baseline.
const HOME_READ_HIT: Rule = rule!(
    "home-read-hit",
    [G::Hit],
    [S::Count("read_hit"), S::ReadHitWord],
);

/// A read miss memory serves, under either directory baseline.
const HOME_READ_MISS_CLEAN: Rule = rule!(
    "home-read-miss-clean",
    [G::Miss, G::Unwritten],
    [
        S::Count("read_miss"),
        bill!(LoadReq, Requester -> Home, Request),
        bill!(BlockReply, Home -> Requester, BlockTransfer),
        S::InstallCopy(Home),
    ],
);

/// Directory-invalidate read: a miss is served by memory, once the home
/// has recalled a dirty copy.
pub static DIR_READ_RULES: &[Rule] = &[
    HOME_READ_HIT,
    HOME_READ_MISS_CLEAN,
    rule!(
        "dir-read-miss-dirty",
        [G::Miss, G::Written],
        [
            S::Count("read_miss"),
            bill!(LoadReq, Requester -> Home, Request),
            S::Count("dirty_recalls"),
            bill!(FwdLoad, Home -> Writer, Request),
            bill!(WriteBack, Writer -> Home, BlockTransfer),
            S::RecallWriter { drop: false },
            bill!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallCopy(Home),
        ],
    ),
];

/// Directory-invalidate write: a hit on the exclusive copy is local, a
/// hit on a shared copy invalidates the others, and a miss takes the block
/// from memory once every other copy is gone.
pub static DIR_WRITE_RULES: &[Rule] = &[
    rule!(
        "dir-write-hit-exclusive",
        [G::Hit, G::WriterIsReq],
        [S::Count("write_hit_exclusive"), S::WriteWord],
    ),
    rule!(
        "dir-write-upgrade",
        [G::Hit, G::WriterNotReq],
        [
            S::Count("write_upgrade"),
            S::WriteWord,
            bill!(OwnershipReq, Requester -> Home, Request),
            S::InvalidateCopies,
            S::SetWriterReq,
        ],
    ),
    rule!(
        "dir-write-miss-clean",
        [G::Miss, G::Unwritten],
        [
            S::Count("write_miss"),
            bill!(LoadOwnReq, Requester -> Home, Request),
            S::InvalidateCopies,
            bill!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallCopy(Home),
            S::WriteWord,
            S::SetWriterReq,
        ],
    ),
    rule!(
        "dir-write-miss-dirty",
        [G::Miss, G::Written],
        [
            S::Count("write_miss"),
            bill!(LoadOwnReq, Requester -> Home, Request),
            S::Count("dirty_recalls"),
            bill!(FwdLoadOwn, Home -> Writer, Request),
            bill!(WriteBack, Writer -> Home, BlockTransfer),
            S::RecallWriter { drop: true },
            bill!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallCopy(Home),
            S::WriteWord,
            S::SetWriterReq,
        ],
    ),
];

/// Update-only read: a miss is served by memory, or by the last writer
/// while memory is stale.
pub static UPD_READ_RULES: &[Rule] = &[
    HOME_READ_HIT,
    HOME_READ_MISS_CLEAN,
    rule!(
        "upd-read-miss-written",
        [G::Miss, G::Written],
        [
            S::Count("read_miss"),
            bill!(LoadReq, Requester -> Home, Request),
            S::Count("writer_supplies"),
            bill!(FwdLoad, Home -> Writer, Request),
            bill!(BlockReply, Writer -> Requester, BlockTransfer),
            S::InstallCopy(Writer),
        ],
    ),
];

/// Update-only write: the writer takes a copy if it has none, multicasts
/// the word to every other holder and becomes the block's writer.
pub static UPD_WRITE_RULES: &[Rule] = &[
    rule!(
        "upd-write-hit",
        [G::Hit],
        [S::WriteWord, S::UpdateCopies, S::SetWriterReq],
    ),
    rule!(
        "upd-write-miss-clean",
        [G::Miss, G::Unwritten],
        [
            S::Count("write_miss"),
            bill!(LoadOwnReq, Requester -> Home, Request),
            bill!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallCopy(Home),
            S::WriteWord,
            S::UpdateCopies,
            S::SetWriterReq,
        ],
    ),
    rule!(
        "upd-write-miss-written",
        [G::Miss, G::Written],
        [
            S::Count("write_miss"),
            bill!(LoadOwnReq, Requester -> Home, Request),
            S::Count("writer_supplies"),
            bill!(FwdLoadOwn, Home -> Writer, Request),
            bill!(BlockReply, Writer -> Requester, BlockTransfer),
            S::InstallCopy(Writer),
            S::WriteWord,
            S::UpdateCopies,
            S::SetWriterReq,
        ],
    ),
];

/// Replacement under both directory baselines, entered with the home's
/// facts about the victim: the writer's copy goes home, any other copy
/// only notifies. `System::home_replace` brackets it with the replacement
/// counter and drops the entry.
pub static HOME_REPLACE_RULES: &[Rule] = &[
    rule!(
        "home-replace-writer",
        [G::WriterIsReq],
        [
            bill!(WriteBack, Requester -> Home, BlockTransfer),
            S::Count("writebacks"),
            S::MemWriteBackVictim,
            S::ClearWriter,
            S::DropSharer,
        ],
    ),
    rule!(
        "home-replace-copy",
        [G::WriterNotReq],
        [
            bill!(ReplaceNotice, Requester -> Home, Request),
            S::DropSharer
        ],
    ),
];

/// End-of-run flush under both directory baselines, at the copy the home
/// names as the block's writer: the copy goes home and stays, and the home
/// names no writer.
pub static HOME_FLUSH_RULES: &[Rule] = &[rule!(
    "home-flush-writer",
    [G::WriterIsReq],
    [
        bill!(WriteBack, Requester -> Home, BlockTransfer),
        S::Count("writebacks"),
        S::MemWriteBackVictim,
        S::ClearWriter,
    ],
)];

/// No-cache read (eq. 9): a request and a datum reply. Nothing is ever
/// cached, so every reference is a miss.
pub static NC_READ_RULES: &[Rule] = &[rule!(
    "nc-read",
    [G::Missing],
    [
        bill!(LoadReq, Requester -> Home, Request),
        bill!(DatumReply, Home -> Requester, Datum),
        S::Count("reads"),
        S::ReadMemoryWord,
    ],
)];

/// No-cache write (eq. 9): one datum-bearing message.
pub static NC_WRITE_RULES: &[Rule] = &[rule!(
    "nc-write",
    [G::Missing],
    [
        bill!(UpdateWrite, Requester -> Home, Update),
        S::Count("writes"),
        S::WriteMemoryWord,
    ],
)];

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::discriminant;

    /// Everything a guard may test, as plain values: the declarative
    /// reading of the `when` lists that [`select`] is checked against.
    /// Fields irrelevant to the transaction kind stay `None`/`false`.
    #[derive(Clone, Copy, Debug, Default)]
    struct RuleCtx {
        lookup: Option<LookupClass>,
        block_owned: bool,
        owner_mode: Option<Mode>,
        usable_hint: bool,
        hint_owns: bool,
        hint_mode: Option<Mode>,
        victim: Option<VictimCtx>,
        mode_switch: Option<ModeCtx>,
        /// A baseline home names a writer.
        written: bool,
        /// That writer is the requester.
        writer_is_req: bool,
        /// The fault layer serves the block uncached.
        uncached: bool,
    }

    impl Guard {
        /// Whether this predicate holds for `ctx`.
        fn holds(self, ctx: &RuleCtx) -> bool {
            use LookupClass as L;
            match self {
                Guard::Hit => matches!(ctx.lookup, Some(L::UnOwnedHit | L::OwnedHit)),
                Guard::Missing => ctx.lookup == Some(L::Missing),
                Guard::InvalidEntry => ctx.lookup == Some(L::InvalidEntry),
                Guard::Miss => matches!(ctx.lookup, Some(L::Missing | L::InvalidEntry)),
                Guard::OwnedHit => ctx.lookup == Some(L::OwnedHit),
                Guard::UnOwnedHit => ctx.lookup == Some(L::UnOwnedHit),
                Guard::BlockOwned => ctx.block_owned,
                Guard::BlockUnowned => !ctx.block_owned,
                Guard::OwnerIsDw => ctx.owner_mode == Some(Mode::DistributedWrite),
                Guard::OwnerIsGr => ctx.owner_mode == Some(Mode::GlobalRead),
                Guard::UsableHint => ctx.usable_hint,
                Guard::NoUsableHint => !ctx.usable_hint,
                Guard::HintOwns => ctx.hint_owns,
                Guard::HintStale => ctx.usable_hint && !ctx.hint_owns,
                Guard::HintIsDw => ctx.hint_mode == Some(Mode::DistributedWrite),
                Guard::HintIsGr => ctx.hint_mode == Some(Mode::GlobalRead),
                Guard::VictimOwned => ctx.victim.is_some_and(|v| v.owned),
                Guard::VictimCopy => ctx.victim.is_some_and(|v| !v.owned),
                Guard::Exclusive => ctx.victim.is_some_and(|v| v.exclusive),
                Guard::NotExclusive => ctx.victim.is_some_and(|v| !v.exclusive),
                Guard::Dirty => ctx.victim.is_some_and(|v| v.modified),
                Guard::Clean => ctx.victim.is_some_and(|v| !v.modified),
                Guard::VictimDw => ctx.victim.is_some_and(|v| v.mode == Mode::DistributedWrite),
                Guard::VictimGr => ctx.victim.is_some_and(|v| v.mode == Mode::GlobalRead),
                Guard::SameMode => ctx.mode_switch.is_some_and(|m| m.current == m.target),
                Guard::ModeChanges => ctx.mode_switch.is_some_and(|m| m.current != m.target),
                Guard::ToDw => ctx
                    .mode_switch
                    .is_some_and(|m| m.target == Mode::DistributedWrite),
                Guard::ToGr => ctx
                    .mode_switch
                    .is_some_and(|m| m.target == Mode::GlobalRead),
                Guard::LoneCopy => ctx.mode_switch.is_some_and(|m| !m.other_copies),
                Guard::SharedCopies => ctx.mode_switch.is_some_and(|m| m.other_copies),
                Guard::Unwritten => !ctx.written,
                Guard::Written => ctx.written,
                Guard::WriterIsReq => ctx.writer_is_req,
                Guard::WriterNotReq => !ctx.writer_is_req,
                Guard::Uncached => ctx.uncached,
            }
        }
    }

    impl RuleCtx {
        /// One group of this context through the engine's own encoders.
        fn probe(&self, group: FactGroup) -> Facts {
            match group {
                FactGroup::Lookup => self.lookup.map_or(Facts::NONE, Facts::lookup),
                FactGroup::Owner => Facts::owner(self.block_owned, self.owner_mode),
                FactGroup::Hint => {
                    Facts::hint(self.usable_hint, self.hint_mode.filter(|_| self.hint_owns))
                }
                FactGroup::Victim => self.victim.map_or(Facts::NONE, Facts::victim),
                FactGroup::Switch => self.mode_switch.map_or(Facts::NONE, Facts::switch),
                FactGroup::Home => {
                    // The requester is port 0; another writer is port 1.
                    let writer = self.written.then_some(usize::from(!self.writer_is_req));
                    Facts::home(writer, 0)
                }
                FactGroup::Fault => {
                    let uncached: &[Guard] = if self.uncached { &[G::Uncached] } else { &[] };
                    Facts::new(FactGroup::Fault, uncached)
                }
            }
        }
    }

    /// Asserts that exactly one rule's `when` list holds for `ctx` and
    /// that [`select`], entering with the `entry` groups and probing the
    /// rest on demand, picks that rule. Returns it with the groups probed.
    fn fired(
        table: &str,
        rules: &'static [Rule],
        entry: &[FactGroup],
        ctx: &RuleCtx,
    ) -> (&'static Rule, Vec<FactGroup>) {
        let declared: Vec<_> = rules
            .iter()
            .filter(|r| r.when.iter().all(|g| g.holds(ctx)))
            .map(|r| r.name)
            .collect();
        assert_eq!(
            declared.len(),
            1,
            "{table} table fired {declared:?} for {ctx:?}"
        );
        let mut probed = Vec::new();
        let known = entry.iter().fold(Facts::NONE, |f, &g| f | ctx.probe(g));
        let selected = select(rules, known, |group| {
            probed.push(group);
            ctx.probe(group)
        })
        .unwrap_or_else(|| panic!("{table}: select found no rule for {ctx:?}"));
        assert_eq!(
            selected.name, declared[0],
            "{table}: select vs `when` for {ctx:?}"
        );
        (selected, probed)
    }

    fn lookup_classes() -> [LookupClass; 4] {
        [
            LookupClass::Missing,
            LookupClass::InvalidEntry,
            LookupClass::UnOwnedHit,
            LookupClass::OwnedHit,
        ]
    }

    /// Every well-formed access context selects exactly one rule in each
    /// of the read/write/set-mode tables — the guard structure is total
    /// and deterministic, not just first-match-wins — [`select`] finds it,
    /// and it probes no more of the machine than the decision needs.
    #[test]
    fn access_tables_are_total_and_unambiguous() {
        let modes = [Mode::DistributedWrite, Mode::GlobalRead];
        for lookup in lookup_classes() {
            for block_owned in [false, true] {
                for owner_mode in [None, Some(modes[0]), Some(modes[1])] {
                    if block_owned != owner_mode.is_some() {
                        continue; // an owner always has a moded line
                    }
                    // A hit means the requester itself holds a line; for
                    // OwnedHit the requester is the owner, so the block
                    // must be owned.
                    if lookup == LookupClass::OwnedHit && !block_owned {
                        continue;
                    }
                    if lookup == LookupClass::UnOwnedHit && !block_owned {
                        continue; // an UnOwned copy implies an owner
                    }
                    for usable_hint in [false, true] {
                        if usable_hint && lookup != LookupClass::InvalidEntry {
                            continue; // hints live on invalid entries
                        }
                        for hint_owns in [false, true] {
                            if hint_owns && !usable_hint {
                                continue;
                            }
                            let hint_mode = if hint_owns { owner_mode } else { None };
                            if hint_owns && !block_owned {
                                continue;
                            }
                            let ctx = RuleCtx {
                                lookup: Some(lookup),
                                block_owned,
                                owner_mode,
                                usable_hint,
                                hint_owns,
                                hint_mode,
                                ..RuleCtx::default()
                            };
                            for (table, rules) in [
                                ("read", READ_RULES),
                                ("write", WRITE_RULES),
                                ("set_mode", SET_MODE_RULES),
                            ] {
                                let (_, probed) = fired(table, rules, &[FactGroup::Lookup], &ctx);
                                let read_hit = table == "read"
                                    && lookup != LookupClass::Missing
                                    && lookup != LookupClass::InvalidEntry;
                                if read_hit || lookup == LookupClass::OwnedHit {
                                    assert_eq!(probed, [], "{table}: a hit probes nothing");
                                }
                                let may_hint =
                                    table == "read" && lookup == LookupClass::InvalidEntry;
                                assert_eq!(
                                    probed.contains(&FactGroup::Hint),
                                    may_hint,
                                    "{table}: hint probe for {ctx:?}"
                                );
                                if may_hint && hint_owns {
                                    assert_eq!(
                                        probed,
                                        [FactGroup::Hint],
                                        "a fresh hint answers without the block store"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every context a line's table or an uncached access can meet
    /// selects exactly one rule — replacement for any line, bit-flip
    /// repair for a valid one, scrub for the owner's, flush for a dirty
    /// owner's, uncached service for any block — and only a rule that
    /// tests the block store probes it.
    #[test]
    fn line_and_fault_tables_are_total_and_unambiguous() {
        for owned in [false, true] {
            for exclusive in [false, true] {
                for modified in [false, true] {
                    for mode in [Mode::DistributedWrite, Mode::GlobalRead] {
                        for block_owned in [false, true] {
                            if owned && !block_owned {
                                continue; // the replacer owning it implies the store says so
                            }
                            let victim = VictimCtx {
                                owned,
                                exclusive,
                                modified,
                                mode,
                            };
                            let ctx = RuleCtx {
                                victim: Some(victim),
                                block_owned,
                                uncached: true,
                                ..RuleCtx::default()
                            };
                            for (table, rules, entry, _) in tables() {
                                let meets = match table {
                                    "replace" => true,
                                    "bitflip" => block_owned, // a valid copy implies an owner
                                    "scrub" => owned,
                                    "flush" => owned && modified,
                                    _ => table.starts_with("uncached"),
                                };
                                if meets {
                                    let (rule, probed) = fired(table, rules, entry, &ctx);
                                    let store = rule.mask & FactGroup::Owner.mask() != 0;
                                    let expect: &[FactGroup] =
                                        if store { &[FactGroup::Owner] } else { &[] };
                                    assert_eq!(probed, expect, "{table} probes for {ctx:?}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every (current, target, copies) combination selects exactly one
    /// mode-switch rule.
    #[test]
    fn mode_table_is_total_and_unambiguous() {
        for current in [Mode::DistributedWrite, Mode::GlobalRead] {
            for target in [Mode::DistributedWrite, Mode::GlobalRead] {
                for other_copies in [false, true] {
                    let ctx = RuleCtx {
                        mode_switch: Some(ModeCtx {
                            current,
                            target,
                            other_copies,
                        }),
                        ..RuleCtx::default()
                    };
                    let (_, probed) = fired("mode", MODE_RULES, &[FactGroup::Switch], &ctx);
                    assert_eq!(probed, []);
                }
            }
        }
    }

    /// Every context a baseline machine can reach selects exactly one rule
    /// of each of its tables, and [`select`] probes the home only when the
    /// lookup alone does not decide.
    #[test]
    fn baseline_tables_are_total_and_unambiguous() {
        for (table, rules, _, _) in &tables()[TWO_MODE_TABLES..] {
            let (entry, lookups): (FactGroup, &[LookupClass]) = match *table {
                "home-replace" | "home-flush" => (FactGroup::Home, &[LookupClass::UnOwnedHit]),
                "nc-read" | "nc-write" => (FactGroup::Lookup, &[LookupClass::Missing]),
                _ => (
                    FactGroup::Lookup,
                    &[LookupClass::Missing, LookupClass::UnOwnedHit],
                ),
            };
            for &lookup in lookups {
                for (written, writer_is_req) in [(false, false), (true, false), (true, true)] {
                    let miss = lookup == LookupClass::Missing;
                    if (miss && writer_is_req) || (table.starts_with("nc") && written) {
                        continue; // a writer holds a copy; no-cache never writes one
                    }
                    if table.starts_with("dir") && !miss && written && !writer_is_req {
                        continue; // a write-invalidate writer is the only holder
                    }
                    if *table == "home-flush" && !writer_is_req {
                        continue; // a flush visits the writers alone
                    }
                    let ctx = RuleCtx {
                        lookup: (entry == FactGroup::Lookup).then_some(lookup),
                        written,
                        writer_is_req,
                        ..RuleCtx::default()
                    };
                    let (rule, probed) = fired(table, rules, &[entry], &ctx);
                    let decided = rule.mask & FactGroup::Home.mask() == 0;
                    let expect: &[FactGroup] = if decided || entry == FactGroup::Home {
                        &[]
                    } else {
                        &[FactGroup::Home]
                    };
                    assert_eq!(probed, expect, "{table}: probes for {ctx:?}");
                }
            }
        }
    }

    /// How many of [`tables`] the two-mode machine runs; the baselines'
    /// follow.
    const TWO_MODE_TABLES: usize = 11;

    /// Every table with the groups known at its entry and the groups its
    /// requests may probe: the eleven two-mode tables (the five of §2.2,
    /// then fault recovery and the flush), then the baselines'.
    fn tables() -> [(&'static str, &'static [Rule], &'static [FactGroup], u64); 19] {
        use FactGroup::{
            Fault as F, Hint as H, Home as M, Lookup as L, Owner as O, Switch, Victim as V,
        };
        let access = L.mask() | H.mask() | O.mask();
        let uncached = F.mask() | O.mask();
        let baseline = L.mask() | M.mask();
        [
            ("read", READ_RULES, &[L], access),
            ("write", WRITE_RULES, &[L], access),
            ("set_mode", SET_MODE_RULES, &[L], access),
            ("replace", REPLACE_RULES, &[V], V.mask() | O.mask()),
            ("mode", MODE_RULES, &[Switch], Switch.mask()),
            ("uncached-read", UNCACHED_READ_RULES, &[F], uncached),
            ("uncached-write", UNCACHED_WRITE_RULES, &[F], uncached),
            ("uncached-set_mode", UNCACHED_SET_MODE_RULES, &[F], uncached),
            ("scrub", SCRUB_RULES, &[F, V], F.mask() | V.mask()),
            ("bitflip", BITFLIP_RULES, &[V], V.mask() | O.mask()),
            ("flush", FLUSH_RULES, &[V], V.mask()),
            ("dir-read", DIR_READ_RULES, &[L], baseline),
            ("dir-write", DIR_WRITE_RULES, &[L], baseline),
            ("upd-read", UPD_READ_RULES, &[L], baseline),
            ("upd-write", UPD_WRITE_RULES, &[L], baseline),
            ("home-replace", HOME_REPLACE_RULES, &[M], M.mask()),
            ("home-flush", HOME_FLUSH_RULES, &[M], M.mask()),
            ("nc-read", NC_READ_RULES, &[L], baseline),
            ("nc-write", NC_WRITE_RULES, &[L], baseline),
        ]
    }

    /// Rule names are unique across the whole protocol — they key
    /// diagnostics and the docs. A rule two baseline tables share is one
    /// rule, listed in both.
    #[test]
    fn rule_names_are_unique() {
        let mut seen = std::collections::BTreeMap::new();
        for (i, (_, rules, _, _)) in tables().into_iter().enumerate() {
            for r in rules {
                if let Some(first) = seen.insert(r.name, r) {
                    let same = first.when == r.when && first.steps == r.steps;
                    assert!(same, "duplicate rule name {}", r.name);
                }
            }
            if i + 1 == TWO_MODE_TABLES {
                assert_eq!(
                    seen.len(),
                    47,
                    "two-mode rule census drifted — update the docs"
                );
            }
        }
        assert_eq!(
            seen.len(),
            47 + 16,
            "baseline rule census drifted — update the docs"
        );
    }

    /// What a step takes for granted when it runs.
    enum Need {
        /// The rule guards on one of these facts.
        Guarded(&'static [Guard]),
        /// A step of one of these kinds comes earlier in the rule.
        After(&'static [Step]),
        /// One of the two above.
        AfterOrGuarded(&'static [Step], &'static [Guard]),
        /// Nothing provides it: the step is wrong wherever it stands.
        Never,
    }
    use Need::{After, AfterOrGuarded, Guarded, Never};

    /// Facts under which the block-store owner is resolved.
    const OWNED: &[Guard] = &[G::BlockOwned, G::OwnerIsDw, G::OwnerIsGr];
    /// Facts under which the OWNER-hint target is resolved.
    const HINTED: &[Guard] = &[G::UsableHint, G::HintOwns, G::HintStale];

    fn endpoint(ep: Ep) -> Vec<Need> {
        match ep {
            Requester | Home => vec![],
            Owner => vec![Guarded(OWNED)],
            Hint => vec![Guarded(HINTED)],
            Candidate => vec![After(&[S::HandoffOffers])],
            Writer => vec![Guarded(&[G::Written, G::WriterIsReq])],
        }
    }

    /// A load is served by the owner or the hint target, in the mode the
    /// probe step assumes.
    fn serving(ep: Ep, owner: &'static [Guard], hint: &'static [Guard]) -> Vec<Need> {
        match ep {
            Owner => vec![Guarded(owner)],
            Hint => vec![Guarded(hint)],
            Requester | Home | Candidate | Writer => vec![Never],
        }
    }

    fn needs(step: &Step) -> Vec<Need> {
        const XFER: &[Step] = &[S::XferProbe];
        const OFFERS: &[Step] = &[S::HandoffOffers];
        // The steps that leave the requester owning the block, or the
        // owner in the requester's place.
        const ACQUIRES: &[Step] = &[
            S::InstallOwnedExclusive,
            S::InstallXfer { send_data: true },
            S::ServeAtOwner,
        ];
        match *step {
            S::Count(_) | S::SetOwnerReq | S::InstallOwnedExclusive => vec![],
            S::Miss { cold: true, .. } => vec![Guarded(&[G::Missing])],
            S::Miss { cold: false, .. } => vec![Guarded(&[G::InvalidEntry])],
            S::Send { from, to, .. } => endpoint(from).into_iter().chain(endpoint(to)).collect(),
            S::ReadHitWord => vec![Guarded(&[G::Hit])],
            S::OwnerProbeDw(ep) => serving(ep, &[G::OwnerIsDw], &[G::HintIsDw]),
            S::OwnerProbeGr(ep) => serving(ep, &[G::OwnerIsGr], &[G::HintIsGr]),
            S::InstallUnownedCopy => vec![After(&[S::OwnerProbeDw(Owner)])],
            S::SetHintAtReq => vec![
                After(&[S::OwnerProbeGr(Owner)]),
                Guarded(&[G::InvalidEntry]),
            ],
            S::InstallInvalidHint => vec![After(&[S::OwnerProbeGr(Owner)]), Guarded(&[G::Missing])],
            S::XferProbe => vec![Guarded(OWNED)],
            S::DemoteOldDw => vec![After(XFER), Guarded(&[G::OwnerIsDw])],
            S::AnnounceCast | S::InvalidateOldGr => vec![After(XFER), Guarded(&[G::OwnerIsGr])],
            S::InstallXfer { send_data: true } => vec![After(XFER)],
            // Only a distributed-write sharer holds data worth keeping.
            S::InstallXfer { send_data: false } => vec![
                After(XFER),
                Guarded(&[G::UnOwnedHit]),
                Guarded(&[G::OwnerIsDw]),
            ],
            S::WriteAtOwner | S::SwitchMode => vec![AfterOrGuarded(ACQUIRES, &[G::OwnedHit])],
            S::UpdateCast => vec![After(&[S::WriteAtOwner])],
            // A two-mode victim's M bit, or a baseline home naming the
            // replacer as writer, says memory is stale.
            S::MemWriteBackVictim => vec![
                Guarded(&[G::VictimOwned, G::WriterIsReq]),
                Guarded(&[G::Dirty, G::WriterIsReq]),
            ],
            // Memory becomes owner only where no copy needs the owner: an
            // exclusive victim, or a block whose every entry a scrub drops.
            S::ClearStoreVictim => vec![
                Guarded(&[G::VictimOwned]),
                Guarded(&[G::Exclusive, G::Uncached]),
            ],
            S::ClearPresenceAtOwner => vec![Guarded(&[G::VictimCopy]), Guarded(OWNED)],
            S::HandoffOffers => vec![Guarded(&[G::VictimOwned]), Guarded(&[G::NotExclusive])],
            S::SetOwnerCand => vec![After(OFFERS)],
            S::PromoteCandDw => vec![After(OFFERS), Guarded(&[G::VictimDw])],
            S::PromoteCandGr => vec![After(OFFERS), Guarded(&[G::VictimGr])],
            S::AnnounceCastHandoff => vec![After(&[S::PromoteCandGr])],
            S::ModeToDw => vec![Guarded(&[G::ModeChanges]), Guarded(&[G::ToDw])],
            S::ModeToGr => vec![Guarded(&[G::ModeChanges]), Guarded(&[G::ToGr])],
            S::InvalidateCast => vec![After(&[S::ModeToGr]), Guarded(&[G::SharedCopies])],
            S::ReadOwnerWord | S::ServeAtOwner => vec![Guarded(OWNED)],
            S::RefetchFromOwner => vec![Guarded(OWNED), Guarded(&[G::VictimCopy])],
            S::ClearModified => vec![Guarded(&[G::Dirty])],
            S::Bill { from, to, .. } => endpoint(from).into_iter().chain(endpoint(to)).collect(),
            // Memory supplies the block only while it is current: nothing
            // written, or the writer recalled first.
            S::InstallCopy(Home) => vec![
                Guarded(&[G::Miss, G::Missing]),
                AfterOrGuarded(&[S::RecallWriter { drop: false }], &[G::Unwritten]),
            ],
            S::InstallCopy(Writer) => vec![Guarded(&[G::Miss, G::Missing]), Guarded(&[G::Written])],
            S::InstallCopy(_) => vec![Never],
            S::WriteWord | S::SetWriterReq => {
                vec![AfterOrGuarded(&[S::InstallCopy(Home)], &[G::Hit])]
            }
            S::RecallWriter { .. } => vec![Guarded(&[G::Written])],
            S::UpdateCopies => vec![After(&[S::WriteWord])],
            S::ClearWriter => vec![Guarded(&[G::WriterIsReq])],
            S::InvalidateCopies | S::DropSharer | S::ReadMemoryWord | S::WriteMemoryWord => {
                vec![]
            }
        }
    }

    /// The table lint: a rule guards only on facts its table's entry point
    /// can establish, and every step finds what it assumes — each
    /// endpoint resolved by a guard or named by an earlier step, each
    /// value it consumes produced earlier in the same rule. What would be
    /// a panic in the middle of a run is a failure here instead.
    #[test]
    fn every_step_finds_what_it_assumes() {
        for (table, rules, entry, probes) in tables() {
            let entry = entry.iter().fold(0, |known, g| known | g.mask());
            for rule in rules {
                let name = rule.name;
                assert_ne!(rule.mask & entry, 0, "{name} ignores its entry group");
                assert_eq!(
                    rule.mask & !probes,
                    0,
                    "{name} guards on a fact {table} never probes"
                );
                for (i, step) in rule.steps.iter().enumerate() {
                    let after = |kinds: &[Step]| {
                        rule.steps[..i]
                            .iter()
                            .any(|s| kinds.iter().any(|k| discriminant(s) == discriminant(k)))
                    };
                    let guarded = |facts: &[Guard]| facts.iter().any(|g| rule.when.contains(g));
                    for need in needs(step) {
                        let met = match need {
                            Guarded(facts) => guarded(facts),
                            After(kinds) => after(kinds),
                            AfterOrGuarded(kinds, facts) => after(kinds) || guarded(facts),
                            Never => false,
                        };
                        assert!(
                            met,
                            "{table}/{name}: step {i} ({step:?}) runs without what it assumes"
                        );
                    }
                }
            }
        }
    }
}
