//! The protocol engine proper: runs the rule tables of [`crate::ir`] on
//! the live machine. This is the only code that moves a block, an owner
//! or a mode, and [`System::step`] the only caller of the message plumbing
//! (`send`, `mcast`, `bill`, `home_cast`) — `system.rs` holds the public
//! entry points, that plumbing, `install_line` and the fault layer's
//! decisions of *when* a recovery table fires.
//!
//! One transaction is: encode the request into [`Facts`] (probing the
//! machine only as far as the decision needs), [`select`] the one rule
//! that fires, and apply its [`Step`]s in order — one `System` method per
//! step, named by the single `match` in [`System::step`], which each
//! rule's `run` function resolves at compile time. The few values that
//! pass from step to step (resolved endpoints, the word read, the mode and
//! M bit of a migrating owner) live in a [`Txn`] on the stack — plain
//! words, nothing to drop; blocks move from line to line directly, and a
//! block's owner state stays in the owner table while its handle moves
//! from the old owner's line to the new one's. Rules therefore re-enter
//! cleanly: an install step may trigger a replacement, whose rule may hand
//! ownership off, each with its own `Txn`.
//!
//! A `Txn` also keeps a [`LineRef`] on every line its lookup and guards
//! found, so each line is probed once per transaction: the steps after
//! reach it through the handle. A handle is valid until the next insert
//! or remove on its own cache, and the only such changes inside a
//! transaction are at `proc` — installing there, and the replacement an
//! install runs first, which only changes lines elsewhere in place — so
//! handles into the other caches survive it, and every install at `proc`
//! hands `here` a fresh one.
//!
//! The holders a multicast reaches are probed once each. An announcement
//! or invalidation probes them with [`CacheArray::find_holder`], which
//! selects the matching way without a branch: its holders' entries sit
//! at ways that vary from cache to cache, and an early-exit scan
//! mispredicts on each. An update keeps the early-exit
//! [`CacheArray::find`], which is cheaper where the copies sit at one way
//! everywhere (docs/PERFORMANCE.md, "What is left").
//!
//! This file is compiled as a child module of [`crate::system`] (via
//! `#[path]`) so the steps work directly on `System`'s private state.

use super::*;
use crate::home::Home;
use crate::ir::{
    select, Ep, FactGroup, Facts, LookupClass, ModeCtx, Rule, SizeClass, Step, VictimCtx,
    HOME_REPLACE_RULES, MODE_RULES, READ_RULES, REPLACE_RULES, SET_MODE_RULES, WRITE_RULES,
};
use crate::state::{OwnerEntry, NO_ENTRY};
use tmc_obs::TraceMode;

/// The working state of one rule firing.
pub(crate) struct Txn {
    /// The cache the rule runs at: the requester of an access, the
    /// replacer of a victim, the owner switching a block's mode.
    pub(super) proc: usize,
    /// The block accessed, evicted or switched.
    pub(super) block: BlockAddr,
    offset: usize,
    /// The word the requester's tag probe found (reads).
    hit_word: u64,
    /// The value being written (writes).
    value_in: u64,
    /// The value produced for the processor (reads).
    value_out: u64,
    /// Requested mode (directives).
    target_mode: Mode,
    /// Block-store owner at transaction start (on a baseline machine, the
    /// home's writer), once a guard has probed for it.
    owner: Option<usize>,
    /// OWNER-hint target, once a guard has probed for it.
    hint: Option<usize>,
    /// The endpoint that served the load (set by the probe steps).
    serve: usize,
    /// The handoff candidate that accepted ownership.
    cand: usize,
    /// The line of `block` at `proc`: the lookup's, then each install's.
    pub(super) here: Option<LineRef>,
    /// The line of `block` at `owner`, found with it by the owner guard.
    at_owner: Option<LineRef>,
    /// The line of `block` at `hint`, found with it by the hint guard.
    at_hint: Option<LineRef>,
    /// The line of `block` at `cand`, once promoted.
    at_cand: Option<LineRef>,
    /// Mode, M bit and owner-table handle of the old owner's line: the
    /// state field that travels in an ownership transfer. The handle names
    /// the present vector, which moves with it and is never copied.
    xfer: (Mode, bool, OwnerEntry),
}

impl Txn {
    /// A transaction at `proc` whose line of `block` is `here`.
    fn at(proc: usize, block: BlockAddr, here: Option<LineRef>) -> Self {
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
            here,
            at_owner: None,
            at_hint: None,
            at_cand: None,
            xfer: (Mode::DistributedWrite, false, NO_ENTRY),
        }
    }

    /// The handle this transaction holds on `block`'s line at `port`, if
    /// it found that line.
    pub(crate) fn line_at(&self, port: usize) -> Option<LineRef> {
        if port == self.proc {
            self.here
        } else if Some(port) == self.owner {
            self.at_owner
        } else if Some(port) == self.hint {
            self.at_hint
        } else {
            None
        }
    }

    /// The requester's line.
    fn here(&self) -> LineRef {
        self.here.expect("the requester has a line")
    }

    /// The owner's line.
    fn at_owner(&self) -> LineRef {
        self.at_owner
            .expect("the owner guard found the owner's line")
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

    /// Processor read through [`READ_RULES`], then the §5 window count.
    /// `here` is the line the tag probe found and `hit_word` its word,
    /// meaningful for a hit. Returns the value read and the trace label of
    /// the block's mode.
    pub(super) fn rule_read(
        &mut self,
        proc: usize,
        block: BlockAddr,
        offset: usize,
        (lookup, here): (LookupClass, Option<LineRef>),
        hit_word: u64,
    ) -> (u64, Option<TraceMode>) {
        let mut t = Txn::at(proc, block, here);
        t.offset = offset;
        t.hit_word = hit_word;
        self.fire(READ_RULES, Facts::lookup(lookup), &mut t);
        self.note_block_ref(&t, false);
        (t.value_out, self.traced_mode(&t))
    }

    /// Processor write through [`WRITE_RULES`], then the §5 window count;
    /// `here` is the line the tag probe found. Returns the trace label of
    /// the block's mode.
    pub(super) fn rule_write(
        &mut self,
        proc: usize,
        block: BlockAddr,
        offset: usize,
        value: u64,
        (lookup, here): (LookupClass, Option<LineRef>),
    ) -> Option<TraceMode> {
        let mut t = Txn::at(proc, block, here);
        t.offset = offset;
        t.value_in = value;
        self.fire(WRITE_RULES, Facts::lookup(lookup), &mut t);
        self.note_block_ref(&t, true);
        self.traced_mode(&t)
    }

    /// Software mode directive through [`SET_MODE_RULES`].
    pub(super) fn rule_set_mode(
        &mut self,
        proc: usize,
        block: BlockAddr,
        mode: Mode,
        (lookup, here): (LookupClass, Option<LineRef>),
    ) {
        let mut t = Txn::at(proc, block, here);
        t.target_mode = mode;
        self.fire(SET_MODE_RULES, Facts::lookup(lookup), &mut t);
    }

    /// The mode of `t`'s block at its owner once `t` has run, as a trace
    /// label: `None` while tracing is off or the block has no owner.
    fn traced_mode(&self, t: &Txn) -> Option<TraceMode> {
        if !self.tracer.is_enabled() {
            return None;
        }
        let (owner, at) = self.owner_line(t)?;
        Some(self.caches[owner].line(at).mode.into())
    }

    /// Serves `proc`'s access to `block` uncached through `rules`, one of
    /// the `UNCACHED_*` tables: no tag probe at the requester, no line
    /// installed. Returns the value read.
    pub(super) fn uncached(
        &mut self,
        rules: &'static [Rule],
        proc: usize,
        block: BlockAddr,
        offset: usize,
        value: u64,
    ) -> u64 {
        let mut t = Txn::at(proc, block, None);
        t.offset = offset;
        t.value_in = value;
        self.fire(rules, Facts::UNCACHED, &mut t);
        t.value_out
    }

    /// Fires `rules` at `proc`'s line `at`, entered with `extra` and what
    /// is known of the line: its victim facts on a two-mode machine, its
    /// home's facts on a baseline. The line stays; the caller drops it if
    /// it goes.
    pub(super) fn fire_on_line(
        &mut self,
        rules: &'static [Rule],
        proc: usize,
        at: LineRef,
        extra: Facts,
    ) {
        let block = self.caches[proc].block(at);
        let mut t = Txn::at(proc, block, Some(at));
        let entry = if self.home.is_none() {
            Facts::victim(self.victim(proc, at))
        } else {
            t.owner = self.home().table.get(block).writer;
            Facts::home(t.owner, proc)
        };
        self.fire(rules, entry | extra, &mut t);
    }

    /// What the replacement and recovery tables know of `proc`'s line
    /// `at`.
    fn victim(&self, proc: usize, at: LineRef) -> VictimCtx {
        let line = self.caches[proc].line(at);
        let me = CacheId(proc as u16);
        VictimCtx {
            owned: line.validity == Validity::Owned,
            exclusive: self.owner_state(line).is_some_and(|o| o.is_exclusive(me)),
            modified: line.modified,
            mode: line.mode,
        }
    }

    /// A baseline machine's read through its home's read table: the
    /// lookup decides a hit, and a miss probes the home. Returns the value
    /// read.
    pub(super) fn home_read(
        &mut self,
        proc: usize,
        block: BlockAddr,
        offset: usize,
        (lookup, here): (LookupClass, Option<LineRef>),
        hit_word: u64,
    ) -> u64 {
        let mut t = Txn::at(proc, block, here);
        t.offset = offset;
        t.hit_word = hit_word;
        self.fire(self.home().read, Facts::lookup(lookup), &mut t);
        t.value_out
    }

    /// A baseline machine's write through its home's write table, entered
    /// with the home's facts as well as the lookup: every write consults
    /// or changes the block's entry. A hit refreshes the line's recency.
    /// Returns the lookup class.
    pub(super) fn home_write(
        &mut self,
        proc: usize,
        block: BlockAddr,
        offset: usize,
        value: u64,
    ) -> LookupClass {
        let (lookup, here) = self.lookup(proc, block, true);
        let mut t = Txn::at(proc, block, here);
        t.offset = offset;
        t.value_in = value;
        let home = self.home();
        t.owner = home.table.get(block).writer;
        let entry = Facts::lookup(lookup) | Facts::home(t.owner, proc);
        self.fire(home.write, entry, &mut t);
        lookup
    }

    /// Runs the §2.2 case-5 actions for the `victim` line at `proc`
    /// through [`REPLACE_RULES`] and drops the entry. The replacement
    /// counter and trace event bracket every rule; the rules carry what
    /// differs per victim class.
    pub(super) fn replace(&mut self, proc: usize, at: LineRef) {
        self.counters.incr("replacements");
        let victim = self.caches[proc].block(at);
        let ctx = self.victim(proc, at);
        self.tracer.push(ProtocolEvent::Replacement {
            proc,
            block: victim,
            wrote_back: ctx.owned && ctx.exclusive && ctx.modified,
        });
        self.fire(
            REPLACE_RULES,
            Facts::victim(ctx),
            &mut Txn::at(proc, victim, Some(at)),
        );
        self.caches[proc].take(at);
    }

    /// A baseline machine's replacement of the `victim` line at `proc`
    /// through [`HOME_REPLACE_RULES`], entered with what the home knows of
    /// it. No trace event: a baseline traces only its reads and writes.
    pub(super) fn home_replace(&mut self, proc: usize, at: LineRef) {
        self.counters.incr("replacements");
        self.fire_on_line(HOME_REPLACE_RULES, proc, at, Facts::NONE);
        self.caches[proc].take(at);
    }

    /// Switches the mode of an already-owned block in place through
    /// [`MODE_RULES`] (§2.2 cases 6 and 7). `adaptive` only labels the
    /// trace event: `true` for §5 window decisions, `false` for software
    /// directives. A rule without steps (the block is already in the
    /// requested mode) is silent: no trace event. `at` is the owner's line.
    pub(super) fn switch_mode_at_owner(
        &mut self,
        owner: usize,
        (block, at): (BlockAddr, LineRef),
        target: Mode,
        adaptive: bool,
    ) {
        let line = self.caches[owner].line(at);
        let present = &self.owners[line.entry].present;
        let ctx = ModeCtx {
            current: line.mode,
            target,
            other_copies: present.len() > usize::from(present.contains(owner)),
        };
        let mut t = Txn::at(owner, block, Some(at));
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
                t.at_owner = t.owner.and_then(|o| self.caches[o].find(t.block));
                let line = self.line_of(t.owner, t.at_owner);
                Facts::owner(t.owner.is_some(), line.map(|l| l.mode))
            }
            FactGroup::Hint => {
                let entry = self.line_of(Some(t.proc), t.here);
                t.hint = entry
                    .and_then(|l| l.owner_hint)
                    .filter(|_| self.cfg.owner_bypass)
                    .map(|h| h.port());
                t.at_hint = t.hint.and_then(|h| self.caches[h].find(t.block));
                let line = self.line_of(t.hint, t.at_hint);
                Facts::hint(
                    t.hint.is_some(),
                    line.filter(|l| l.is_owned()).map(|l| l.mode),
                )
            }
            FactGroup::Home => {
                t.owner = self.home().table.get(t.block).writer;
                Facts::home(t.owner, t.proc)
            }
            // Known at entry or not at all.
            FactGroup::Lookup | FactGroup::Victim | FactGroup::Switch | FactGroup::Fault => {
                Facts::NONE
            }
        }
    }

    /// The line a handle names in cache `port`, when there is both.
    fn line_of(&self, port: Option<usize>, at: Option<LineRef>) -> Option<&CacheLine> {
        Some(self.caches[port?].line(at?))
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
                    (t.block, t.here()),
                    t.target_mode,
                    /* adaptive */ false,
                );
            }
            Step::MemWriteBackVictim => {
                let line = self.caches[t.proc].line(t.here());
                self.memory.write_block(t.block, &line.data);
            }
            Step::ClearStoreVictim => self.release_victim(t),
            Step::ClearPresenceAtOwner => {
                let owner = self.ep(t, Ep::Owner);
                if let Some(at) = t.at_owner {
                    let line = self.caches[owner].line(at);
                    self.owners[line.entry].present.remove(t.proc);
                }
            }
            Step::HandoffOffers => self.handoff_offers(t),
            Step::SetOwnerCand => self.store.set_owner(t.block, CacheId(t.cand as u16)),
            Step::PromoteCandDw => self.promote_cand(t, Mode::DistributedWrite),
            Step::PromoteCandGr => self.promote_cand(t, Mode::GlobalRead),
            Step::AnnounceCastHandoff => self.announce_cast_handoff(t),
            Step::ModeToDw => self.mode_to_dw(t),
            Step::ModeToGr => {
                let line = self.caches[t.proc].line_mut(t.here());
                line.mode = Mode::GlobalRead;
                self.owners[line.entry].reset_window();
            }
            Step::InvalidateCast => self.invalidate_cast(t),
            Step::ReadOwnerWord => {
                let line = self.caches[self.ep(t, Ep::Owner)].line(t.at_owner());
                t.value_out = line.data.word(t.offset);
            }
            Step::ServeAtOwner => {
                t.proc = self.ep(t, Ep::Owner);
                t.here = t.at_owner;
            }
            Step::RefetchFromOwner => {
                let owner = self.caches[self.ep(t, Ep::Owner)].line(t.at_owner());
                let data = owner.data.clone();
                self.caches[t.proc].line_mut(t.here()).data = data;
            }
            Step::ClearModified => self.caches[t.proc].line_mut(t.here()).modified = false,
            Step::Bill { from, to, size, .. } => {
                let bits = self.size_bits(size);
                self.bill(self.ep(t, from), self.ep(t, to), bits);
            }
            Step::InstallCopy(from) => self.install_copy(t, from),
            Step::WriteWord => {
                let line = self.caches[t.proc].line_mut(t.here());
                line.data.set_word(t.offset, t.value_in);
            }
            Step::RecallWriter { drop } => self.recall_writer(t, drop),
            Step::InvalidateCopies => self.invalidate_copies(t),
            Step::UpdateCopies => self.update_copies(t),
            Step::SetWriterReq => self.home_mut().table.entry(t.block).writer = Some(t.proc),
            Step::ClearWriter => self.home_mut().table.entry(t.block).writer = None,
            Step::DropSharer => {
                self.home_mut().table.entry(t.block).sharers.remove(t.proc);
            }
            Step::ReadMemoryWord => t.value_out = self.memory.read_block(t.block)[t.offset],
            Step::WriteMemoryWord => {
                let mut data = self.memory.block_data(t.block);
                data.set_word(t.offset, t.value_in);
                self.memory.write_block(t.block, &data);
            }
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
            Ep::Writer => t.owner.expect("rule guards on a written block"),
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
        let me = CacheId(proc as u16);
        let data = self.memory.block_data(block);
        t.value_out = data.word(t.offset);
        let line = CacheLine::owned(data, me, self.cfg.mode_policy.initial_mode());
        // The install first, so an entry its replacement frees is reused.
        self.install_line(t, line);
        let entry = self
            .owners
            .take(OwnerState::exclusive(me, self.cfg.n_caches));
        self.caches[proc].line_mut(t.here()).entry = entry;
        self.store.set_owner(block, me);
    }

    /// The serving owner registers the requester and reads the word. In
    /// distributed write the whole block will follow (`install_unowned_copy`);
    /// in global read one datum moves and the §5 window counts a remote
    /// read.
    fn owner_probe(&mut self, t: &mut Txn, ep: Ep, mode: Mode) {
        t.serve = self.ep(t, ep);
        let at = t.line_at(t.serve);
        let line =
            self.caches[t.serve].line(at.expect("block store names an owner without a line"));
        debug_assert!(line.is_owned() && line.mode == mode);
        t.value_out = line.data.word(t.offset);
        let state = &mut self.owners[line.entry];
        state.present.insert(t.proc);
        if mode == Mode::GlobalRead {
            state.window_remote_reads += 1;
        }
    }

    /// 2(b)i: the requester holds the owner's copy UnOwned.
    fn install_unowned_copy(&mut self, t: &mut Txn) {
        let owner = self.line_of(Some(t.serve), t.line_at(t.serve));
        let line = CacheLine::unowned(
            owner.expect("probed above").data.clone(),
            CacheId(t.serve as u16),
        );
        self.install_line(t, line);
    }

    /// 2(b)ii with an entry: only the OWNER hint is refreshed.
    fn set_hint_at_req(&mut self, t: &mut Txn) {
        let entry = self.caches[t.proc].line_mut(t.here());
        entry.owner_hint = Some(CacheId(t.serve as u16));
    }

    /// 2(b)ii without one: reserve an invalid entry holding the hint.
    fn install_invalid_hint(&mut self, t: &mut Txn) {
        let line =
            CacheLine::invalid_hint(CacheId(t.serve as u16), self.cfg.spec.words_per_block());
        self.install_line(t, line);
    }

    // ------------------------------------------------------------------
    // Ownership transfer and the write (§2.2 cases 3 and 4).
    // ------------------------------------------------------------------

    /// An ownership transfer begins: the old owner registers the requester
    /// and reads out the mode, M bit and owner-table handle that will
    /// travel.
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
        let line = self.caches[old].line(t.at_owner());
        debug_assert!(line.is_owned());
        self.owners[line.entry].present.insert(proc);
        t.xfer = (line.mode, line.modified, line.entry);
    }

    /// The old owner steps down: its copy stays valid as UnOwned
    /// (distributed write) or is invalidated (global read). The M bit —
    /// the write-back responsibility — and the owner-table handle travel
    /// with ownership; `install_xfer` hands the handle to the new owner's
    /// line, with the window counters restarted.
    fn retire_old_owner(&mut self, t: &mut Txn, validity: Validity) {
        let old = self.ep(t, Ep::Owner);
        let line = self.caches[old].line_mut(t.at_owner());
        line.validity = validity;
        line.modified = false;
        line.owner_hint = Some(CacheId(t.proc as u16));
        line.entry = NO_ENTRY;
        self.owners[t.xfer.2].reset_window();
    }

    /// 3(d)ii / 4(b)ii: the old owner distributes the new owner's id to
    /// the invalid-entry holders.
    fn announce_cast(&mut self, t: &mut Txn) {
        let old = self.ep(t, Ep::Owner);
        let mut announce = self.owners[t.xfer.2].present.clone();
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
            let cache = &mut self.caches[dest];
            if let Some(at) = cache.find_holder(block) {
                let line = cache.line_mut(at);
                if !line.is_valid() {
                    line.owner_hint = Some(CacheId(new_owner as u16));
                }
            }
        }
        self.recycle_delivered(delivered);
    }

    /// Installs the owned line at the new owner with the handle the old
    /// owner gave up, and with it the present vector. With `send_data` the
    /// block crossed the network with the state (the old owner's entry
    /// still has the bytes); without, the requester's own valid copy is
    /// promoted.
    fn install_xfer(&mut self, t: &mut Txn, send_data: bool) {
        let proc = t.proc;
        let old = self.ep(t, Ep::Owner);
        let data = if send_data {
            self.caches[old].line(t.at_owner()).data.clone()
        } else {
            self.caches[proc].line(t.here()).data.clone()
        };
        let (mode, modified, entry) = t.xfer;
        let line = CacheLine {
            validity: Validity::Owned,
            mode,
            modified,
            owner_hint: Some(CacheId(proc as u16)),
            entry,
            data,
        };
        self.install_line(t, line);
    }

    /// The write itself, once the requester owns the block (§2.2 cases
    /// 3(a)–(c)): set the word and the M bit.
    fn write_at_owner(&mut self, t: &mut Txn) {
        let line = self.caches[t.proc].line_mut(t.here());
        debug_assert!(line.is_owned());
        line.data.set_word(t.offset, t.value_in);
        line.modified = true;
    }

    /// 3(b): distribute the write to all caches with a copy. A write in
    /// global read, or by an exclusive owner, stays local.
    fn update_cast(&mut self, t: &mut Txn) {
        let line = self.caches[t.proc].line(t.here());
        let state = &self.owners[line.entry];
        if line.mode != Mode::DistributedWrite || state.is_exclusive(CacheId(t.proc as u16)) {
            return;
        }
        let mut others = state.present.clone();
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
            let cache = &mut self.caches[dest];
            if let Some(at) = cache.find(t.block) {
                let line = cache.line_mut(at);
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
        // The vector leaves the table for the walk, which sends as it goes.
        let empty = DestSet::empty(self.cfg.n_caches);
        let entry = self.caches[proc].line(t.here()).entry;
        let present = std::mem::replace(&mut self.owners[entry].present, empty);
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
        self.owners[entry].present = present;
        self.tracer.push(ProtocolEvent::OwnershipTransfer {
            block: victim,
            from: proc,
            to: t.cand,
            handoff: true,
        });
    }

    /// The candidate's entry becomes the owner's line and receives the
    /// victim's state field, owner-table handle included: a valid copy is
    /// promoted in place (distributed write), an invalid entry also
    /// receives the block (global read). The departing cache's own present
    /// flag is cleared as part of the transferred state.
    fn promote_cand(&mut self, t: &mut Txn, mode: Mode) {
        let (proc, victim, cand) = (t.proc, t.block, t.cand);
        let vline = self.caches[proc].line_mut(t.here());
        let entry = std::mem::replace(&mut vline.entry, NO_ENTRY);
        let state = &mut self.owners[entry];
        state.present.remove(proc);
        state.present.insert(cand);
        state.reset_window();
        let modified = vline.modified;
        let data = (mode == Mode::GlobalRead).then(|| vline.data.clone());
        let at = self.caches[cand].find(victim);
        t.at_cand = at;
        let cline = self.caches[cand].line_mut(at.expect("present flag implies a resident entry"));
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
        cline.entry = entry;
        cline.owner_hint = Some(CacheId(cand as u16));
    }

    /// Announce the promoted candidate to the remaining invalid entries.
    fn announce_cast_handoff(&mut self, t: &mut Txn) {
        let line = self.caches[t.cand].line(t.at_cand.expect("promoted above"));
        let mut announce = self.owners[line.entry].present.clone();
        announce.remove(t.cand);
        self.announce_owner(t.proc, &announce, t.block, t.cand);
    }

    /// Ownership of `t`'s block leaves the caches with the owner's line at
    /// `t.proc` (an exclusive owner's replacement, a scrub): the block
    /// store forgets the owner and the owner-table entry is freed. The
    /// caller drops the line.
    fn release_victim(&mut self, t: &mut Txn) {
        self.store.clear(t.block);
        let line = self.caches[t.proc].line_mut(t.here());
        self.owners
            .free(std::mem::replace(&mut line.entry, NO_ENTRY));
    }

    // ------------------------------------------------------------------
    // Mode switching (§2.2 cases 6 and 7).
    // ------------------------------------------------------------------

    /// Case 6: set DW. The GR present vector marked invalid entries; it
    /// collapses to the owner alone (see DESIGN.md).
    fn mode_to_dw(&mut self, t: &mut Txn) {
        let mut fresh = DestSet::empty(self.cfg.n_caches);
        fresh.insert(t.proc);
        let line = self.caches[t.proc].line_mut(t.here());
        line.mode = Mode::DistributedWrite;
        let state = &mut self.owners[line.entry];
        state.present = fresh;
        state.reset_window();
    }

    /// Case 7 with copies: invalidate them. The present vector is
    /// retained — the invalidated caches are exactly the invalid-entry
    /// holders GR mode tracks.
    fn invalidate_cast(&mut self, t: &mut Txn) {
        let (owner, block) = (t.proc, t.block);
        let line = self.caches[owner].line(t.here());
        let mut others = self.owners[line.entry].present.clone();
        others.remove(owner);
        debug_assert!(!others.is_empty(), "rule guarded on shared copies");
        self.counters.incr("invalidate_multicast");
        let bits = self.size_bits(SizeClass::Invalidate);
        let delivered = self.mcast(MsgKind::Invalidate, owner, &others, bits);
        for &dest in &delivered {
            let cache = &mut self.caches[dest];
            let copy = cache.find_holder(block).map(|at| cache.line_mut(at));
            if let Some(line) = copy.filter(|l| l.is_valid() && !l.is_owned()) {
                line.validity = Validity::Invalid;
                line.owner_hint = Some(CacheId(owner as u16));
            }
            others.remove(dest);
        }
        self.recycle_delivered(delivered);
        debug_assert!(others.is_empty(), "invalidation must reach all copies");
    }

    // ------------------------------------------------------------------
    // The home-side steps of the baseline tables.
    // ------------------------------------------------------------------

    fn home(&self) -> &Home {
        self.home
            .as_deref()
            .expect("home-side steps run on a baseline")
    }

    fn home_mut(&mut self) -> &mut Home {
        self.home
            .as_deref_mut()
            .expect("home-side steps run on a baseline")
    }

    /// Installs the block at the requester as a plain copy, supplied by
    /// memory or by the writer's copy, and enrolls the requester at the
    /// home. A full set first replaces its victim.
    fn install_copy(&mut self, t: &mut Txn, from: Ep) {
        let (proc, block) = (t.proc, t.block);
        let data = if from == Ep::Writer {
            let writer = self.ep(t, Ep::Writer);
            let line = self.caches[writer].peek(block);
            line.expect("the writer holds a copy").data.clone()
        } else {
            self.memory.block_data(block)
        };
        t.value_out = data.word(t.offset);
        self.install_line(t, CacheLine::copy(data));
        self.home_mut().table.entry(block).sharers.insert(proc);
    }

    /// Memory takes the writer's copy and the home names no writer; with
    /// `drop` the writer's copy goes too, and with it the only sharer.
    fn recall_writer(&mut self, t: &mut Txn, drop: bool) {
        let (writer, block) = (self.ep(t, Ep::Writer), t.block);
        let data = if drop {
            self.caches[writer].remove(block).map(|line| line.data)
        } else {
            self.caches[writer]
                .peek(block)
                .map(|line| line.data.clone())
        };
        self.memory
            .write_block(block, &data.expect("the writer holds a copy"));
        let entry = self.home_mut().table.entry(block);
        entry.writer = None;
        if drop {
            entry.sharers.remove(writer);
            debug_assert!(entry.sharers.is_empty(), "a writer is the only holder");
        }
    }

    /// Invalidates every copy but the requester's from the home.
    fn invalidate_copies(&mut self, t: &mut Txn) {
        let (proc, block) = (t.proc, t.block);
        if !self.home_mut().load_dests(block, proc) {
            return;
        }
        let bits = self.size_bits(SizeClass::Invalidate);
        let delivered = self.home_cast(self.home_port(block), bits, "invalidations_multicast");
        for &dest in delivered.iter().filter(|&&d| d != proc) {
            let cache = &mut self.caches[dest];
            if let Some(at) = cache.find_holder(block) {
                cache.take(at);
            }
        }
        self.recycle_delivered(delivered);
        let home = self.home_mut();
        home.table.entry(block).sharers.difference_with(&home.dests);
    }

    /// Multicasts the requester's write to every other copy.
    fn update_copies(&mut self, t: &mut Txn) {
        let (proc, block) = (t.proc, t.block);
        if !self.home_mut().load_dests(block, proc) {
            return;
        }
        let bits = self.size_bits(SizeClass::Update);
        let delivered = self.home_cast(proc, bits, "updates_multicast");
        for &dest in delivered.iter().filter(|&&d| d != proc) {
            let cache = &mut self.caches[dest];
            if let Some(at) = cache.find(block) {
                cache.line_mut(at).data.set_word(t.offset, t.value_in);
            }
        }
        self.recycle_delivered(delivered);
    }
}
