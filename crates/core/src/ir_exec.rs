//! The protocol engine proper: runs the rule tables of [`crate::ir`] on
//! the live machine. This is the only code that moves a block, an owner
//! or a mode — `system.rs` holds the entry points and the plumbing
//! (`send`, `mcast`, `install_line`, faults) that the
//! steps below share.
//!
//! One transaction is: encode the request into [`Facts`] (probing the
//! machine only as far as the decision needs), [`select`] the one rule
//! that fires, and apply its [`Step`]s in order — one `System` method per
//! step, named by the single `match` in [`System::step`], which each
//! rule's `run` function resolves at compile time. The few values that
//! pass from step to step (resolved endpoints, the word read, the mode and
//! M bit of a migrating owner) live in a [`Txn`] on the stack — plain
//! words, nothing to drop; blocks and present vectors move from line to
//! line directly. Rules therefore re-enter cleanly: an install step may
//! trigger a replacement, whose rule may hand ownership off, each with its
//! own `Txn`.
//!
//! This file is compiled as a child module of [`crate::system`] (via
//! `#[path]`) so the steps work directly on `System`'s private state.

use super::*;
use crate::ir::{
    select, Ep, FactGroup, Facts, LookupClass, ModeCtx, Rule, SizeClass, Step, VictimCtx,
    MODE_RULES, READ_RULES, REPLACE_RULES, SET_MODE_RULES, WRITE_RULES,
};

/// The working state of one rule firing.
pub(crate) struct Txn {
    /// The cache the rule runs at: the requester of an access, the
    /// replacer of a victim, the owner switching a block's mode.
    proc: usize,
    /// The block accessed, evicted or switched.
    block: BlockAddr,
    offset: usize,
    /// The word the requester's tag probe found (reads).
    hit_word: u64,
    /// The value being written (writes).
    value_in: u64,
    /// The value produced for the processor (reads).
    value_out: u64,
    /// Requested mode (directives).
    target_mode: Mode,
    /// Block-store owner at transaction start, once a guard has probed
    /// for it.
    owner: Option<usize>,
    /// OWNER-hint target, once a guard has probed for it.
    hint: Option<usize>,
    /// The endpoint that served the load (set by the probe steps).
    serve: usize,
    /// The handoff candidate that accepted ownership.
    cand: usize,
    /// Mode and M bit of the old owner's line: with the present vector,
    /// the state field that travels in an ownership transfer.
    xfer: (Mode, bool),
}

impl Txn {
    fn new(proc: usize, block: BlockAddr) -> Self {
        Txn {
            proc,
            block,
            offset: 0,
            hit_word: 0,
            value_in: 0,
            value_out: 0,
            target_mode: Mode::DistributedWrite,
            owner: None,
            hint: None,
            serve: usize::MAX,
            cand: usize::MAX,
            xfer: (Mode::DistributedWrite, false),
        }
    }
}

/// A table without a rule for a context is incomplete — which the
/// exhaustiveness tests in [`crate::ir`] rule out for well-formed protocol
/// states.
#[cold]
#[inline(never)]
fn no_rule(rules: &[Rule], entry: Facts, t: &Txn) -> ! {
    panic!(
        "no rule matches {entry:?} at C{} for {} (table of `{}`)",
        t.proc, t.block, rules[0].name
    )
}

impl System {
    // ------------------------------------------------------------------
    // Entry points: one per table.
    // ------------------------------------------------------------------

    /// Processor read through [`READ_RULES`]. `hit_word` is the word the
    /// tag probe found, meaningful for a hit. Returns the value read.
    pub(super) fn rule_read(
        &mut self,
        proc: usize,
        block: BlockAddr,
        offset: usize,
        lookup: LookupClass,
        hit_word: u64,
    ) -> u64 {
        let mut t = Txn::new(proc, block);
        t.offset = offset;
        t.hit_word = hit_word;
        self.fire(READ_RULES, Facts::lookup(lookup), &mut t);
        t.value_out
    }

    /// Processor write through [`WRITE_RULES`].
    pub(super) fn rule_write(
        &mut self,
        proc: usize,
        block: BlockAddr,
        offset: usize,
        value: u64,
        lookup: LookupClass,
    ) {
        let mut t = Txn::new(proc, block);
        t.offset = offset;
        t.value_in = value;
        self.fire(WRITE_RULES, Facts::lookup(lookup), &mut t);
    }

    /// Software mode directive through [`SET_MODE_RULES`].
    pub(super) fn rule_set_mode(
        &mut self,
        proc: usize,
        block: BlockAddr,
        mode: Mode,
        lookup: LookupClass,
    ) {
        let mut t = Txn::new(proc, block);
        t.target_mode = mode;
        self.fire(SET_MODE_RULES, Facts::lookup(lookup), &mut t);
    }

    /// The write itself at a cache that already owns the block, outside
    /// any table: the fault layer's write-through to a degraded block's
    /// owner.
    pub(super) fn write_through_owner(
        &mut self,
        owner: usize,
        block: BlockAddr,
        offset: usize,
        value: u64,
    ) {
        let mut t = Txn::new(owner, block);
        t.offset = offset;
        t.value_in = value;
        self.write_at_owner(&mut t);
        self.update_cast(&mut t);
    }

    /// Runs the §2.2 case-5 actions for `victim` at `proc` through
    /// [`REPLACE_RULES`] and drops the entry. The replacement counter and
    /// trace event bracket every rule; the rules carry what differs per
    /// victim class.
    pub(super) fn replace(&mut self, proc: usize, victim: BlockAddr) {
        self.counters.incr("replacements");
        let me = CacheId(proc as u16);
        let line = self.caches[proc].peek(victim).expect("victim exists");
        let ctx = VictimCtx {
            owned: line.validity == Validity::Owned,
            exclusive: line.is_exclusive(me),
            modified: line.modified,
            mode: line.mode,
        };
        self.tracer.push(ProtocolEvent::Replacement {
            proc,
            block: victim,
            wrote_back: ctx.owned && ctx.exclusive && ctx.modified,
        });
        self.fire(
            REPLACE_RULES,
            Facts::victim(ctx),
            &mut Txn::new(proc, victim),
        );
        self.caches[proc].remove(victim);
    }

    /// Switches the mode of an already-owned block in place through
    /// [`MODE_RULES`] (§2.2 cases 6 and 7). `adaptive` only labels the
    /// trace event: `true` for §5 window decisions, `false` for software
    /// directives. A rule without steps (the block is already in the
    /// requested mode) is silent: no trace event.
    pub(super) fn switch_mode_at_owner(
        &mut self,
        owner: usize,
        block: BlockAddr,
        target: Mode,
        adaptive: bool,
    ) {
        let line = self.caches[owner].peek(block).expect("owner line");
        let ctx = ModeCtx {
            current: line.mode,
            target,
            other_copies: line.present.len() > usize::from(line.present.contains(owner)),
        };
        let mut t = Txn::new(owner, block);
        let rule = self.decide(MODE_RULES, Facts::switch(ctx), &mut t);
        if rule.steps.is_empty() {
            return;
        }
        self.tracer.push(ProtocolEvent::ModeSwitch {
            owner,
            block,
            to: target.into(),
            adaptive,
        });
        (rule.run)(self, &mut t);
    }

    // ------------------------------------------------------------------
    // Decode, select, apply.
    // ------------------------------------------------------------------

    /// Selects the rule of `rules` that fires for `t`, probing the machine
    /// for further facts only as [`select`] asks.
    #[inline]
    fn decide(&self, rules: &'static [Rule], entry: Facts, t: &mut Txn) -> &'static Rule {
        match select(rules, entry, |group| self.probe(t, group)) {
            Some(rule) => rule,
            None => no_rule(rules, entry, t),
        }
    }

    /// Establishes one further group of facts about `t`'s block and
    /// records in `t` the endpoint the probe resolves. Out of line: a hit
    /// never gets here.
    #[inline(never)]
    fn probe(&self, t: &mut Txn, group: FactGroup) -> Facts {
        match group {
            FactGroup::Owner => {
                t.owner = self.store.owner(t.block).map(|o| o.port());
                let line = t.owner.and_then(|o| self.caches[o].peek(t.block));
                Facts::owner(t.owner.is_some(), line.map(|l| l.mode))
            }
            FactGroup::Hint => {
                let entry = self.caches[t.proc].peek(t.block);
                t.hint = entry
                    .and_then(|l| l.owner_hint)
                    .filter(|_| self.cfg.owner_bypass)
                    .map(|h| h.port());
                let line = t.hint.and_then(|h| self.caches[h].peek(t.block));
                Facts::hint(
                    t.hint.is_some(),
                    line.filter(|l| l.is_owned()).map(|l| l.mode),
                )
            }
            // Known at entry or not at all.
            FactGroup::Lookup | FactGroup::Victim | FactGroup::Switch => Facts::NONE,
        }
    }

    #[inline]
    fn fire(&mut self, rules: &'static [Rule], entry: Facts, t: &mut Txn) {
        let rule = self.decide(rules, entry, t);
        (rule.run)(self, t);
    }

    /// The one dispatch site of the protocol: every state change of every
    /// transaction passes through here. Always inlined: each rule calls it
    /// on constants, which leaves the one arm.
    #[inline(always)]
    pub(crate) fn step(&mut self, step: &Step, t: &mut Txn) {
        match *step {
            Step::Count(counter) => self.counters.incr(counter),
            Step::Miss { write, cold } => self.tracer.push(ProtocolEvent::Miss {
                proc: t.proc,
                block: t.block,
                write,
                cold,
            }),
            Step::Send {
                kind,
                from,
                to,
                size,
            } => {
                let bits = self.size_bits(size);
                self.send(kind, self.ep(t, from), self.ep(t, to), bits);
            }
            Step::ReadHitWord => t.value_out = t.hit_word,
            Step::InstallOwnedExclusive => self.install_owned_exclusive(t),
            Step::OwnerProbeDw(ep) => self.owner_probe(t, ep, Mode::DistributedWrite),
            Step::OwnerProbeGr(ep) => self.owner_probe(t, ep, Mode::GlobalRead),
            Step::InstallUnownedCopy => self.install_unowned_copy(t),
            Step::SetHintAtReq => self.set_hint_at_req(t),
            Step::InstallInvalidHint => self.install_invalid_hint(t),
            Step::SetOwnerReq => self.store.set_owner(t.block, CacheId(t.proc as u16)),
            Step::XferProbe => self.xfer_probe(t),
            Step::DemoteOldDw => self.retire_old_owner(t, Validity::UnOwned),
            Step::AnnounceCast => self.announce_cast(t),
            Step::InvalidateOldGr => self.retire_old_owner(t, Validity::Invalid),
            Step::InstallXfer { send_data } => self.install_xfer(t, send_data),
            Step::WriteAtOwner => self.write_at_owner(t),
            Step::UpdateCast => self.update_cast(t),
            Step::SwitchMode => {
                self.switch_mode_at_owner(
                    t.proc,
                    t.block,
                    t.target_mode,
                    /* adaptive */ false,
                );
            }
            Step::MemWriteBackVictim => {
                let line = self.caches[t.proc].peek(t.block).expect("victim exists");
                self.memory.write_block(t.block, &line.data);
            }
            Step::ClearStoreVictim => self.store.clear(t.block),
            Step::ClearPresenceAtOwner => {
                let owner = self.ep(t, Ep::Owner);
                if let Some(oline) = self.caches[owner].peek_mut(t.block) {
                    oline.present.remove(t.proc);
                }
            }
            Step::HandoffOffers => self.handoff_offers(t),
            Step::SetOwnerCand => self.store.set_owner(t.block, CacheId(t.cand as u16)),
            Step::PromoteCandDw => self.promote_cand(t, Mode::DistributedWrite),
            Step::PromoteCandGr => self.promote_cand(t, Mode::GlobalRead),
            Step::AnnounceCastHandoff => self.announce_cast_handoff(t),
            Step::ModeToDw => self.mode_to_dw(t),
            Step::ModeToGr => {
                let line = self.caches[t.proc].peek_mut(t.block).expect("owner line");
                line.mode = Mode::GlobalRead;
                line.reset_window();
            }
            Step::InvalidateCast => self.invalidate_cast(t),
        }
    }

    /// The network port of a logical endpoint. A guard resolved the
    /// owner and hint endpoints and `handoff_offers` the candidate before
    /// any step may name them (linted over every table in [`crate::ir`]).
    fn ep(&self, t: &Txn, ep: Ep) -> usize {
        match ep {
            Ep::Requester => t.proc,
            Ep::Home => self.home_port(t.block),
            Ep::Owner => t.owner.expect("rule guards on an owned block"),
            Ep::Hint => t.hint.expect("rule guards on a usable hint"),
            Ep::Candidate => t.cand,
        }
    }

    /// Payload bits for a [`SizeClass`] under this machine's §2.3 sizing.
    fn size_bits(&self, size: SizeClass) -> u64 {
        let s = &self.cfg.sizing;
        let n = self.cfg.n_caches;
        match size {
            SizeClass::Request => s.request_bits(),
            SizeClass::BlockTransfer => s.block_transfer_bits(),
            SizeClass::Datum => s.datum_bits(),
            SizeClass::DatumPlusOwnerId => s.datum_bits() + u64::from(n.trailing_zeros()),
            SizeClass::Update => s.update_bits(),
            SizeClass::Invalidate => s.invalidate_bits(),
            SizeClass::NewOwnerId => s.new_owner_bits(n),
            SizeClass::StateTransfer => s.state_transfer_bits(n),
            SizeClass::BlockAndState => s.block_and_state_bits(n),
            SizeClass::Ack => s.ack_bits(),
        }
    }

    // ------------------------------------------------------------------
    // Loads (§2.2 cases 1 and 2).
    // ------------------------------------------------------------------

    /// Memory serves the block; the requester becomes the exclusive owner
    /// in the policy's initial mode.
    fn install_owned_exclusive(&mut self, t: &mut Txn) {
        let (proc, block) = (t.proc, t.block);
        let data = self.memory.block_data(block);
        t.value_out = data.word(t.offset);
        let line = CacheLine::owned_exclusive(
            data,
            CacheId(proc as u16),
            self.cfg.mode_policy.initial_mode(),
            self.cfg.n_caches,
        );
        self.install_line(proc, block, line);
        self.store.set_owner(block, CacheId(proc as u16));
    }

    /// The serving owner registers the requester and reads the word. In
    /// distributed write the whole block will follow (`install_unowned_copy`);
    /// in global read one datum moves and the §5 window counts a remote
    /// read.
    fn owner_probe(&mut self, t: &mut Txn, ep: Ep, mode: Mode) {
        t.serve = self.ep(t, ep);
        let line = self.caches[t.serve]
            .peek_mut(t.block)
            .expect("block store names an owner without a line");
        debug_assert!(line.is_owned() && line.mode == mode);
        line.present.insert(t.proc);
        t.value_out = line.data.word(t.offset);
        if mode == Mode::GlobalRead {
            line.window_remote_reads += 1;
        }
    }

    /// 2(b)i: the requester holds the owner's copy UnOwned.
    fn install_unowned_copy(&mut self, t: &mut Txn) {
        let owner = self.caches[t.serve].peek(t.block).expect("probed above");
        let line = CacheLine::unowned(
            owner.data.clone(),
            CacheId(t.serve as u16),
            self.cfg.n_caches,
        );
        self.install_line(t.proc, t.block, line);
    }

    /// 2(b)ii with an entry: only the OWNER hint is refreshed.
    fn set_hint_at_req(&mut self, t: &mut Txn) {
        let entry = self.caches[t.proc]
            .peek_mut(t.block)
            .expect("entry present");
        entry.owner_hint = Some(CacheId(t.serve as u16));
    }

    /// 2(b)ii without one: reserve an invalid entry holding the hint.
    fn install_invalid_hint(&mut self, t: &mut Txn) {
        let line = CacheLine::invalid_hint(
            CacheId(t.serve as u16),
            self.cfg.n_caches,
            self.cfg.spec.words_per_block(),
        );
        self.install_line(t.proc, t.block, line);
    }

    // ------------------------------------------------------------------
    // Ownership transfer and the write (§2.2 cases 3 and 4).
    // ------------------------------------------------------------------

    /// An ownership transfer begins: the old owner registers the requester
    /// and reads out the mode and M bit that will travel.
    fn xfer_probe(&mut self, t: &mut Txn) {
        let (proc, block) = (t.proc, t.block);
        let old = self.ep(t, Ep::Owner);
        debug_assert_ne!(old, proc, "owner never re-acquires ownership");
        self.counters.incr("ownership_transfers");
        self.tracer.push(ProtocolEvent::OwnershipTransfer {
            block,
            from: old,
            to: proc,
            handoff: false,
        });
        let line = self.caches[old].peek_mut(block).expect("old owner line");
        debug_assert!(line.is_owned());
        line.present.insert(proc);
        t.xfer = (line.mode, line.modified);
    }

    /// The old owner steps down: its copy stays valid as UnOwned
    /// (distributed write) or is invalidated (global read). The M bit —
    /// the write-back responsibility — travels with ownership; the present
    /// vector stays behind until `install_xfer` collects it.
    fn retire_old_owner(&mut self, t: &mut Txn, validity: Validity) {
        let old = self.ep(t, Ep::Owner);
        let line = self.caches[old].peek_mut(t.block).expect("old owner line");
        line.validity = validity;
        line.modified = false;
        line.owner_hint = Some(CacheId(t.proc as u16));
        line.reset_window();
    }

    /// 3(d)ii / 4(b)ii: the old owner distributes the new owner's id to
    /// the invalid-entry holders.
    fn announce_cast(&mut self, t: &mut Txn) {
        let old = self.ep(t, Ep::Owner);
        let line = self.caches[old].peek(t.block).expect("old owner line");
        let mut announce = line.present.clone();
        announce.remove(old);
        announce.remove(t.proc);
        self.announce_owner(old, &announce, t.block, t.proc);
    }

    /// Multicasts `new_owner`'s id from `from` to `holders` (when any) and
    /// points the OWNER hint of every invalid entry reached at it.
    fn announce_owner(
        &mut self,
        from: usize,
        holders: &DestSet,
        block: BlockAddr,
        new_owner: usize,
    ) {
        if holders.is_empty() {
            return;
        }
        self.counters.incr("owner_announce_multicast");
        let bits = self.size_bits(SizeClass::NewOwnerId);
        let delivered = self.mcast(MsgKind::NewOwnerAnnounce, from, holders, bits);
        for &dest in &delivered {
            if let Some(line) = self.caches[dest].peek_mut(block) {
                if !line.is_valid() {
                    line.owner_hint = Some(CacheId(new_owner as u16));
                }
            }
        }
        self.recycle_delivered(delivered);
    }

    /// Installs the owned line at the new owner, collecting the present
    /// vector the old owner still holds. With `send_data` the block crossed
    /// the network with the state (the old owner's entry still has the
    /// bytes); without, the requester's own valid copy is promoted.
    fn install_xfer(&mut self, t: &mut Txn, send_data: bool) {
        let (proc, block) = (t.proc, t.block);
        let old = self.ep(t, Ep::Owner);
        let empty = DestSet::empty(self.cfg.n_caches);
        let old_line = self.caches[old].peek_mut(block).expect("old owner line");
        let present = std::mem::replace(&mut old_line.present, empty);
        let data = if send_data {
            old_line.data.clone()
        } else {
            let own = self.caches[proc].peek(block);
            own.expect("a sharer has a line").data.clone()
        };
        let (mode, modified) = t.xfer;
        let line = CacheLine {
            validity: Validity::Owned,
            mode,
            modified,
            present,
            owner_hint: Some(CacheId(proc as u16)),
            data,
            window_refs: 0,
            window_remote_reads: 0,
            window_writes: 0,
        };
        self.install_line(proc, block, line);
    }

    /// The write itself, once the requester owns the block (§2.2 cases
    /// 3(a)–(c)): set the word and the M bit.
    fn write_at_owner(&mut self, t: &mut Txn) {
        let line = self.caches[t.proc]
            .peek_mut(t.block)
            .expect("owner has a line");
        debug_assert!(line.is_owned());
        line.data.set_word(t.offset, t.value_in);
        line.modified = true;
    }

    /// 3(b): distribute the write to all caches with a copy. A write in
    /// global read, or by an exclusive owner, stays local.
    fn update_cast(&mut self, t: &mut Txn) {
        let line = self.caches[t.proc].peek(t.block).expect("owner has a line");
        if line.mode != Mode::DistributedWrite || line.is_exclusive(CacheId(t.proc as u16)) {
            return;
        }
        let mut others = line.present.clone();
        others.remove(t.proc);
        if others.is_empty() {
            return;
        }
        self.counters.incr("updates_multicast");
        let bits = self.size_bits(SizeClass::Update);
        let delivered = self.mcast(MsgKind::UpdateWrite, t.proc, &others, bits);
        for &dest in &delivered {
            if dest == t.proc {
                continue;
            }
            if let Some(line) = self.caches[dest].peek_mut(t.block) {
                if line.is_valid() {
                    line.data.set_word(t.offset, t.value_in);
                }
            }
            others.remove(dest);
        }
        self.recycle_delivered(delivered);
        debug_assert!(others.is_empty(), "scheme must cover all copy holders");
    }

    // ------------------------------------------------------------------
    // Replacement with handoff (§2.2 case 5(b)).
    // ------------------------------------------------------------------

    /// The replacing owner offers ownership to the caches in its present
    /// vector, in ascending port order, until one accepts.
    fn handoff_offers(&mut self, t: &mut Txn) {
        let (proc, victim) = (t.proc, t.block);
        // The vector leaves the line for the walk, which sends as it goes.
        let empty = DestSet::empty(self.cfg.n_caches);
        let line = self.caches[proc].peek_mut(victim).expect("victim exists");
        let present = std::mem::replace(&mut line.present, empty);
        let n_candidates = present.len() - usize::from(present.contains(proc));
        debug_assert!(n_candidates > 0, "nonexclusive implies other copies");
        let request = self.size_bits(SizeClass::Request);
        let ack = self.size_bits(SizeClass::Ack);
        let mut offered = 0;
        for cand in present.iter().filter(|&c| c != proc) {
            offered += 1;
            self.send(MsgKind::OwnershipOffer, proc, cand, request);
            // The last remaining candidate always accepts, so handoff
            // terminates whatever the NAK budget.
            if self.nak_budget > 0 && offered < n_candidates {
                self.nak_budget -= 1;
                self.counters.incr("offer_nak");
                self.send(MsgKind::OfferNak, cand, proc, ack);
                continue;
            }
            self.send(MsgKind::OfferAck, cand, proc, ack);
            t.cand = cand;
            break;
        }
        self.caches[proc]
            .peek_mut(victim)
            .expect("victim exists")
            .present = present;
        self.tracer.push(ProtocolEvent::OwnershipTransfer {
            block: victim,
            from: proc,
            to: t.cand,
            handoff: true,
        });
    }

    /// The candidate's entry becomes the owner's line and receives the
    /// victim's state field: a valid copy is promoted in place
    /// (distributed write), an invalid entry also receives the block
    /// (global read). The departing cache's own present flag is cleared as
    /// part of the transferred state.
    fn promote_cand(&mut self, t: &mut Txn, mode: Mode) {
        let (proc, victim, cand) = (t.proc, t.block, t.cand);
        let empty = DestSet::empty(self.cfg.n_caches);
        let vline = self.caches[proc].peek_mut(victim).expect("victim exists");
        let mut present = std::mem::replace(&mut vline.present, empty);
        present.remove(proc);
        present.insert(cand);
        let modified = vline.modified;
        let data = (mode == Mode::GlobalRead).then(|| vline.data.clone());
        let cline = self.caches[cand]
            .peek_mut(victim)
            .expect("present flag implies a resident entry");
        debug_assert_eq!(
            cline.is_valid(),
            mode == Mode::DistributedWrite,
            "present flags mark valid copies in DW, invalid entries in GR"
        );
        cline.validity = Validity::Owned;
        cline.mode = mode;
        cline.modified = modified;
        if let Some(data) = data {
            cline.data = data;
        }
        cline.present = present;
        cline.owner_hint = Some(CacheId(cand as u16));
        cline.reset_window();
    }

    /// Announce the promoted candidate to the remaining invalid entries.
    fn announce_cast_handoff(&mut self, t: &mut Txn) {
        let line = self.caches[t.cand].peek(t.block).expect("promoted above");
        let mut announce = line.present.clone();
        announce.remove(t.cand);
        self.announce_owner(t.proc, &announce, t.block, t.cand);
    }

    // ------------------------------------------------------------------
    // Mode switching (§2.2 cases 6 and 7).
    // ------------------------------------------------------------------

    /// Case 6: set DW. The GR present vector marked invalid entries; it
    /// collapses to the owner alone (see DESIGN.md).
    fn mode_to_dw(&mut self, t: &mut Txn) {
        let mut fresh = DestSet::empty(self.cfg.n_caches);
        fresh.insert(t.proc);
        let line = self.caches[t.proc].peek_mut(t.block).expect("owner line");
        line.mode = Mode::DistributedWrite;
        line.present = fresh;
        line.reset_window();
    }

    /// Case 7 with copies: invalidate them. The present vector is
    /// retained — the invalidated caches are exactly the invalid-entry
    /// holders GR mode tracks.
    fn invalidate_cast(&mut self, t: &mut Txn) {
        let (owner, block) = (t.proc, t.block);
        let line = self.caches[owner].peek(block).expect("owner line");
        let mut others = line.present.clone();
        others.remove(owner);
        debug_assert!(!others.is_empty(), "rule guarded on shared copies");
        self.counters.incr("invalidate_multicast");
        let bits = self.size_bits(SizeClass::Invalidate);
        let delivered = self.mcast(MsgKind::Invalidate, owner, &others, bits);
        for &dest in &delivered {
            let copy = self.caches[dest].peek_mut(block);
            if let Some(line) = copy.filter(|l| l.is_valid() && !l.is_owned()) {
                line.validity = Validity::Invalid;
                line.owner_hint = Some(CacheId(owner as u16));
            }
            others.remove(dest);
        }
        self.recycle_delivered(delivered);
        debug_assert!(others.is_empty(), "invalidation must reach all copies");
    }
}
