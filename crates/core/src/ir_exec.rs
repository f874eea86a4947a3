//! The guarded-action interpreter: executes [`crate::ir::ProtocolIr`]
//! tables on the live machine, bit-identical to the hand-coded paths in
//! `system.rs`.
//!
//! This file is compiled as a child module of [`crate::system`] (via
//! `#[path]`), so the interpreter works directly on `System`'s private
//! state — the same caches, block store, traffic matrix and logs the
//! hand-coded engine uses. Every micro-operation here mirrors one
//! fragment of the hand-coded logic *verbatim*: same probe order, same
//! counter order, same `log_state`/`note_state_change` bracketing, and
//! all traffic goes through the same [`System::send`]/[`System::mcast`]
//! plumbing so timing, fault injection and transaction logging compose
//! unchanged. The `ir-vs-handcoded` conformance pair and
//! `tests/ir_equivalence.rs` hold that equivalence under differential
//! test.
//!
//! Interpreter scratch lives on the stack (one [`Scratch`] per
//! transaction, one [`ReplaceScratch`] per eviction), so rules re-enter
//! cleanly: an install step may trigger a replacement, whose rule may
//! trigger a handoff, without any shared mutable interpreter state.

use super::*;
use crate::ir::{Ep, LookupClass, ModeCtx, ProtocolIr, Rule, RuleCtx, SizeClass, Step, VictimCtx};

/// Per-transaction interpreter scratch: resolved endpoints plus the
/// values micro-ops pass between each other (probe captures, the read
/// value, the pending transfer state).
struct Scratch {
    proc: usize,
    block: BlockAddr,
    offset: usize,
    /// The value being written (writes) — unused for reads/set-mode.
    value_in: u64,
    /// The value produced for the processor (reads).
    value_out: u64,
    /// Requested mode (set-mode only).
    target_mode: Mode,
    home: usize,
    /// Block-store owner at transaction start (before any ownership
    /// mutation), when one exists.
    owner: Option<usize>,
    /// OWNER-hint target, when usable.
    hint: Option<usize>,
    /// The endpoint that served the load (set by the probe steps).
    serve: usize,
    /// `log_state` snapshot of the serving/old owner, consumed by
    /// `NoteServeOwner` / the demote-invalidate steps.
    before_owner: Option<StateName>,
    /// Block data in flight to the requester (memory fetch or DW probe).
    data: Option<tmc_memsys::BlockData>,
    /// Ownership-transfer capture: (mode, M bit, data, present vector)
    /// of the old owner, taken by `XferProbe`.
    xfer: Option<(Mode, bool, tmc_memsys::BlockData, DestSet)>,
    /// Owned-write capture: the other copy holders a distributed write
    /// must reach, taken by `WriteAtOwner` for `UpdateCast`; `None` when
    /// the write stays local (global read, or an exclusive owner).
    write_probe: Option<DestSet>,
}

impl Scratch {
    fn new(proc: usize, block: BlockAddr, home: usize) -> Self {
        Scratch {
            proc,
            block,
            offset: 0,
            value_in: 0,
            value_out: 0,
            target_mode: Mode::DistributedWrite,
            home,
            owner: None,
            hint: None,
            serve: usize::MAX,
            before_owner: None,
            data: None,
            xfer: None,
            write_probe: None,
        }
    }
}

/// Per-replacement interpreter scratch.
struct ReplaceScratch {
    proc: usize,
    victim: BlockAddr,
    home: usize,
    /// Block-store owner of the victim, when one exists.
    owner: Option<usize>,
    /// The victim line, cloned up front exactly like the hand-coded path.
    line: CacheLine,
    /// The handoff candidate that accepted ownership.
    cand: usize,
}

impl System {
    /// Payload bits for a [`SizeClass`] under this machine's §2.3 sizing.
    fn ir_bits(&self, size: SizeClass) -> u64 {
        let s = &self.cfg.sizing;
        match size {
            SizeClass::Request => s.request_bits(),
            SizeClass::BlockTransfer => s.block_transfer_bits(),
            SizeClass::Datum => s.datum_bits(),
            SizeClass::DatumPlusOwnerId => {
                s.datum_bits() + self.cfg.n_caches.trailing_zeros() as u64
            }
            SizeClass::Update => s.update_bits(),
            SizeClass::Invalidate => s.invalidate_bits(),
            SizeClass::NewOwnerId => s.new_owner_bits(self.cfg.n_caches),
            SizeClass::StateTransfer => s.state_transfer_bits(self.cfg.n_caches),
            SizeClass::BlockAndState => s.block_and_state_bits(self.cfg.n_caches),
            SizeClass::Ack => s.ack_bits(),
        }
    }

    /// Builds the guard context shared by the read/write/set-mode tables.
    fn ir_access_ctx(&self, proc: usize, block: BlockAddr, lookup: Lookup) -> (RuleCtx, Scratch) {
        let mut scr = Scratch::new(proc, block, self.home_port(block));
        let class = match lookup {
            Lookup::Missing => LookupClass::Missing,
            Lookup::InvalidEntry => LookupClass::InvalidEntry,
            Lookup::UnOwnedHit => LookupClass::UnOwnedHit,
            Lookup::OwnedHit => LookupClass::OwnedHit,
        };
        let owner = self.store.owner(block).map(|o| o.port());
        scr.owner = owner;
        let owner_mode = owner
            .and_then(|o| self.caches[o].peek(block))
            .map(|l| l.mode);
        let hint = if lookup == Lookup::InvalidEntry && self.cfg.owner_bypass {
            self.caches[proc]
                .peek(block)
                .and_then(|l| l.owner_hint)
                .map(|h| h.port())
        } else {
            None
        };
        scr.hint = hint;
        let hint_line = hint.and_then(|h| self.caches[h].peek(block));
        let hint_owns = hint_line.is_some_and(CacheLine::is_owned);
        let ctx = RuleCtx {
            lookup: Some(class),
            block_owned: owner.is_some(),
            owner_mode,
            usable_hint: hint.is_some(),
            hint_owns,
            hint_mode: hint_line.filter(|_| hint_owns).map(|l| l.mode),
            ..RuleCtx::default()
        };
        (ctx, scr)
    }

    /// Selects the matching rule or panics with a diagnostic — an
    /// unmatched context means the action table is incomplete, which the
    /// exhaustiveness tests in [`crate::ir`] rule out for well-formed
    /// protocol states.
    fn ir_select<'a>(table: &'a [Rule], ctx: &RuleCtx, op: &str) -> &'a Rule {
        crate::ir::select(table, ctx)
            .unwrap_or_else(|| panic!("protocol IR: no {op} rule matches {ctx:?}"))
    }

    /// Table-driven read: replaces the hand-coded lookup dispatch in
    /// `read_checked` (hit word service, cold/invalid miss paths, hint
    /// bypass and stale-hint redirect). Returns the value read.
    pub(super) fn ir_read(
        &mut self,
        table: &'static ProtocolIr,
        proc: usize,
        block: BlockAddr,
        offset: usize,
        lookup: Lookup,
    ) -> u64 {
        let (ctx, mut scr) = self.ir_access_ctx(proc, block, lookup);
        scr.offset = offset;
        let rule = Self::ir_select(table.read, &ctx, "read");
        for step in rule.steps {
            self.ir_step(table, step, &mut scr);
        }
        scr.value_out
    }

    /// Table-driven write: replaces the hand-coded ownership acquisition
    /// plus `perform_owned_write` in `write_checked`.
    pub(super) fn ir_write(
        &mut self,
        table: &'static ProtocolIr,
        proc: usize,
        block: BlockAddr,
        offset: usize,
        value: u64,
        lookup: Lookup,
    ) {
        let (ctx, mut scr) = self.ir_access_ctx(proc, block, lookup);
        scr.offset = offset;
        scr.value_in = value;
        let rule = Self::ir_select(table.write, &ctx, "write");
        for step in rule.steps {
            self.ir_step(table, step, &mut scr);
        }
    }

    /// Table-driven mode directive: replaces the hand-coded ownership
    /// acquisition plus `switch_mode_at_owner` call in
    /// `set_mode_checked`.
    pub(super) fn ir_set_mode(
        &mut self,
        table: &'static ProtocolIr,
        proc: usize,
        block: BlockAddr,
        mode: Mode,
        lookup: Lookup,
    ) {
        let (ctx, mut scr) = self.ir_access_ctx(proc, block, lookup);
        scr.target_mode = mode;
        let rule = Self::ir_select(table.set_mode, &ctx, "set_mode");
        for step in rule.steps {
            self.ir_step(table, step, &mut scr);
        }
    }

    fn ir_ep(scr: &Scratch, ep: Ep) -> usize {
        match ep {
            Ep::Requester => scr.proc,
            Ep::Home => scr.home,
            Ep::Owner => scr.owner.expect("rule guarded on an owned block"),
            Ep::Hint => scr.hint.expect("rule guarded on a usable hint"),
            Ep::Candidate => unreachable!("Candidate only appears in replacement rules"),
        }
    }

    /// Executes one access-table micro-operation. Each arm mirrors the
    /// corresponding hand-coded fragment byte for byte — see the module
    /// doc for the equivalence contract.
    fn ir_step(&mut self, table: &'static ProtocolIr, step: &Step, scr: &mut Scratch) {
        let block = scr.block;
        let proc = scr.proc;
        match *step {
            Step::Count(counter) => self.counters.incr(counter),
            Step::Miss { write, cold } => self.tracer.push(ProtocolEvent::Miss {
                proc,
                block,
                write,
                cold,
            }),
            Step::Send {
                kind,
                from,
                to,
                size,
            } => {
                let bits = self.ir_bits(size);
                self.send(kind, Self::ir_ep(scr, from), Self::ir_ep(scr, to), bits);
            }
            Step::ReadHitWord => {
                // `get`, not `peek`: the hit refreshes LRU recency exactly
                // like the hand-coded hit path.
                scr.value_out = self.caches[proc]
                    .get(block)
                    .expect("hit verified")
                    .data
                    .word(scr.offset);
            }
            Step::FetchMem => {
                scr.data = Some(self.memory.block_data(block));
            }
            Step::InstallOwnedExclusive => {
                let data = scr.data.take().expect("FetchMem ran");
                scr.value_out = data.word(scr.offset);
                let before = self.log_state(proc, block);
                let line = CacheLine::owned_exclusive(
                    data,
                    CacheId(proc as u16),
                    self.cfg.mode_policy.initial_mode(),
                    self.cfg.n_caches,
                );
                self.install_line(proc, block, line);
                self.store.set_owner(block, CacheId(proc as u16));
                self.note_state_change(proc, block, before);
            }
            Step::OwnerProbeDw(ep) => {
                let serve = Self::ir_ep(scr, ep);
                scr.serve = serve;
                scr.before_owner = self.log_state(serve, block);
                {
                    let line = self.caches[serve]
                        .peek_mut(block)
                        .expect("block store names an owner without a line");
                    debug_assert!(line.is_owned());
                    line.present.insert(proc);
                    scr.value_out = line.data.word(scr.offset);
                    scr.data = Some(line.data.clone());
                }
            }
            Step::OwnerProbeGr(ep) => {
                let serve = Self::ir_ep(scr, ep);
                scr.serve = serve;
                scr.before_owner = self.log_state(serve, block);
                {
                    let line = self.caches[serve]
                        .peek_mut(block)
                        .expect("block store names an owner without a line");
                    debug_assert!(line.is_owned());
                    line.present.insert(proc);
                    scr.value_out = line.data.word(scr.offset);
                    line.window_remote_reads += 1;
                }
            }
            Step::InstallUnownedCopy => {
                let before = self.log_state(proc, block);
                let data = scr.data.take().expect("DW probe cloned the block");
                let line = CacheLine::unowned(data, CacheId(scr.serve as u16), self.cfg.n_caches);
                self.install_line(proc, block, line);
                self.note_state_change(proc, block, before);
            }
            Step::SetHintAtReq => {
                let before = self.log_state(proc, block);
                let entry = self.caches[proc].peek_mut(block).expect("entry present");
                entry.owner_hint = Some(CacheId(scr.serve as u16));
                self.note_state_change(proc, block, before);
            }
            Step::InstallInvalidHint => {
                let before = self.log_state(proc, block);
                let line = CacheLine::invalid_hint(
                    CacheId(scr.serve as u16),
                    self.cfg.n_caches,
                    self.cfg.spec.words_per_block(),
                );
                self.install_line(proc, block, line);
                self.note_state_change(proc, block, before);
            }
            Step::NoteServeOwner => {
                let before = scr.before_owner.take();
                self.note_state_change(scr.serve, block, before);
            }
            Step::StaleHintNote => self.note_with(|| {
                format!("stale OWNER hint at C{proc} for {block}: redirect via memory")
            }),
            Step::SetOwnerReq => self.store.set_owner(block, CacheId(proc as u16)),
            Step::RegisterReqAtOld => {
                let old = scr.owner.expect("rule guarded on an owned block");
                let line = self.caches[old].peek_mut(block).expect("owner line");
                line.present.insert(proc);
            }
            Step::XferProbe => {
                let old = scr.owner.expect("rule guarded on an owned block");
                debug_assert_ne!(old, proc, "owner never re-acquires ownership");
                self.counters.incr("ownership_transfers");
                self.tracer.push(ProtocolEvent::OwnershipTransfer {
                    block,
                    from: old,
                    to: proc,
                    handoff: false,
                });
                scr.before_owner = self.log_state(old, block);
                {
                    let line = self.caches[old].peek_mut(block).expect("old owner line");
                    debug_assert!(line.is_owned());
                    line.present.insert(proc);
                    scr.xfer = Some((
                        line.mode,
                        line.modified,
                        line.data.clone(),
                        line.present.clone(),
                    ));
                }
            }
            Step::DemoteOldDw => {
                let old = scr.owner.expect("rule guarded on an owned block");
                let line = self.caches[old].peek_mut(block).expect("old owner line");
                line.validity = Validity::UnOwned;
                line.modified = false;
                line.owner_hint = Some(CacheId(proc as u16));
                line.present = DestSet::empty(self.cfg.n_caches);
                line.reset_window();
                let before = scr.before_owner.take();
                self.note_state_change(old, block, before);
            }
            Step::AnnounceCast => {
                let old = scr.owner.expect("rule guarded on an owned block");
                let present = &scr.xfer.as_ref().expect("XferProbe ran").3;
                let mut announce = present.clone();
                announce.remove(old);
                announce.remove(proc);
                if !announce.is_empty() {
                    self.counters.incr("owner_announce_multicast");
                    let delivered = self.mcast(
                        MsgKind::NewOwnerAnnounce,
                        old,
                        &announce,
                        self.cfg.sizing.new_owner_bits(self.cfg.n_caches),
                    );
                    for &dest in &delivered {
                        if let Some(line) = self.caches[dest].peek_mut(block) {
                            if !line.is_valid() {
                                line.owner_hint = Some(CacheId(proc as u16));
                            }
                        }
                    }
                    self.recycle_delivered(delivered);
                }
            }
            Step::InvalidateOldGr => {
                let old = scr.owner.expect("rule guarded on an owned block");
                let line = self.caches[old].peek_mut(block).expect("old owner line");
                line.validity = Validity::Invalid;
                line.modified = false;
                line.owner_hint = Some(CacheId(proc as u16));
                line.present = DestSet::empty(self.cfg.n_caches);
                line.reset_window();
                let before = scr.before_owner.take();
                self.note_state_change(old, block, before);
            }
            Step::InstallXfer { send_data } => {
                let (mode, modified, data, mut present) = scr.xfer.take().expect("XferProbe ran");
                let before = self.log_state(proc, block);
                present.insert(proc);
                let new_data = if send_data {
                    data
                } else {
                    self.caches[proc]
                        .peek(block)
                        .expect("requester said it has data")
                        .data
                        .clone()
                };
                let line = CacheLine {
                    validity: Validity::Owned,
                    mode,
                    modified,
                    present,
                    owner_hint: Some(CacheId(proc as u16)),
                    data: new_data,
                    window_refs: 0,
                    window_remote_reads: 0,
                    window_writes: 0,
                };
                self.install_line(proc, block, line);
                self.note_state_change(proc, block, before);
            }
            Step::WriteAtOwner => {
                let me = CacheId(proc as u16);
                let line = self.caches[proc].peek_mut(block).expect("owner has a line");
                debug_assert!(line.is_owned());
                line.data.set_word(scr.offset, scr.value_in);
                line.modified = true;
                let distribute = line.mode == Mode::DistributedWrite && !line.is_exclusive(me);
                scr.write_probe = distribute.then(|| {
                    let mut others = line.present.clone();
                    others.remove(proc);
                    others
                });
            }
            Step::UpdateCast => {
                if let Some(mut others) = scr.write_probe.take().filter(|o| !o.is_empty()) {
                    self.counters.incr("updates_multicast");
                    let delivered = self.mcast(
                        MsgKind::UpdateWrite,
                        proc,
                        &others,
                        self.cfg.sizing.update_bits(),
                    );
                    for &dest in &delivered {
                        if dest == proc {
                            continue;
                        }
                        if let Some(line) = self.caches[dest].peek_mut(block) {
                            if line.is_valid() {
                                line.data.set_word(scr.offset, scr.value_in);
                            }
                        }
                        others.remove(dest);
                    }
                    self.recycle_delivered(delivered);
                    debug_assert!(others.is_empty(), "scheme must cover all copy holders");
                }
            }
            Step::SwitchMode => {
                // Runs the MODE_RULES table: `switch_mode_at_owner`
                // re-dispatches here while IR execution is on.
                self.switch_mode_at_owner(proc, block, scr.target_mode, /* adaptive */ false);
            }
            _ => unreachable!(
                "step {step:?} belongs to the replacement/mode tables \
                 (table has {} read rules)",
                table.read.len()
            ),
        }
    }

    /// Table-driven replacement: replaces the body of `replace` (§2.2
    /// case 5). The shared prelude (counter, trace event, victim
    /// capture) and postlude (entry drop, state-change log) bracket the
    /// fired rule's steps, exactly like the hand-coded match.
    pub(super) fn ir_replace(
        &mut self,
        table: &'static ProtocolIr,
        proc: usize,
        victim: BlockAddr,
    ) {
        self.counters.incr("replacements");
        let before = self.log_state(proc, victim);
        let home = self.home_port(victim);
        let line = self.caches[proc]
            .peek(victim)
            .expect("victim exists")
            .clone();
        let me = CacheId(proc as u16);
        self.tracer.push(ProtocolEvent::Replacement {
            proc,
            block: victim,
            wrote_back: line.validity == Validity::Owned && line.is_exclusive(me) && line.modified,
        });
        let owner = self.store.owner(victim).map(|o| o.port());
        let ctx = RuleCtx {
            block_owned: owner.is_some(),
            victim: Some(VictimCtx {
                owned: line.validity == Validity::Owned,
                exclusive: line.is_exclusive(me),
                modified: line.modified,
                mode: line.mode,
            }),
            ..RuleCtx::default()
        };
        let rule = Self::ir_select(table.replace, &ctx, "replace");
        let mut scr = ReplaceScratch {
            proc,
            victim,
            home,
            owner,
            line,
            cand: usize::MAX,
        };
        for step in rule.steps {
            self.ir_replace_step(step, &mut scr);
        }
        self.caches[proc].remove(victim);
        self.note_state_change(proc, victim, before);
    }

    /// Executes one replacement-table micro-operation.
    fn ir_replace_step(&mut self, step: &Step, scr: &mut ReplaceScratch) {
        let proc = scr.proc;
        let victim = scr.victim;
        match *step {
            Step::Count(counter) => self.counters.incr(counter),
            Step::Send {
                kind,
                from,
                to,
                size,
            } => {
                let bits = self.ir_bits(size);
                let resolve = |ep: Ep| match ep {
                    Ep::Requester => proc,
                    Ep::Home => scr.home,
                    Ep::Owner => scr.owner.expect("rule guarded on an owned block"),
                    Ep::Candidate => scr.cand,
                    Ep::Hint => unreachable!("no hints in replacement rules"),
                };
                self.send(kind, resolve(from), resolve(to), bits);
            }
            Step::MemWriteBackVictim => self.memory.write_block(victim, &scr.line.data),
            Step::ClearStoreVictim => self.store.clear(victim),
            Step::ClearPresenceAtOwner => {
                let owner = scr.owner.expect("rule guarded on an owned block");
                if let Some(oline) = self.caches[owner].peek_mut(victim) {
                    oline.present.remove(proc);
                }
            }
            Step::HandoffOffers => {
                let line = &scr.line;
                let n_candidates = line.present.len() - usize::from(line.present.contains(proc));
                debug_assert!(n_candidates > 0, "nonexclusive implies other copies");
                let mut accepted = None;
                let mut offered = 0;
                for cand in line.present.iter() {
                    if cand == proc {
                        continue;
                    }
                    offered += 1;
                    self.send(
                        MsgKind::OwnershipOffer,
                        proc,
                        cand,
                        self.cfg.sizing.request_bits(),
                    );
                    let last = offered == n_candidates;
                    if self.nak_budget > 0 && !last {
                        self.nak_budget -= 1;
                        self.counters.incr("offer_nak");
                        self.send(MsgKind::OfferNak, cand, proc, self.cfg.sizing.ack_bits());
                        continue;
                    }
                    self.send(MsgKind::OfferAck, cand, proc, self.cfg.sizing.ack_bits());
                    accepted = Some(cand);
                    break;
                }
                let cand = accepted.expect("final candidate always accepts");
                scr.cand = cand;
                self.tracer.push(ProtocolEvent::OwnershipTransfer {
                    block: victim,
                    from: proc,
                    to: cand,
                    handoff: true,
                });
                self.note_with(|| format!("C{proc} hands ownership of {victim} to C{cand}"));
            }
            Step::SetOwnerCand => self.store.set_owner(victim, CacheId(scr.cand as u16)),
            Step::PromoteCandDw => {
                let cand = scr.cand;
                let mut present = scr.line.present.clone();
                present.remove(proc);
                present.insert(cand);
                let before = self.log_state(cand, victim);
                let cline = self.caches[cand]
                    .peek_mut(victim)
                    .expect("present flag implies a resident copy");
                debug_assert!(cline.is_valid(), "DW present flags mark valid copies");
                cline.validity = Validity::Owned;
                cline.mode = Mode::DistributedWrite;
                cline.modified = scr.line.modified;
                cline.present = present;
                cline.owner_hint = Some(CacheId(cand as u16));
                cline.reset_window();
                self.note_state_change(cand, victim, before);
            }
            Step::PromoteCandGr => {
                let cand = scr.cand;
                let mut present = scr.line.present.clone();
                present.remove(proc);
                present.insert(cand);
                let before = self.log_state(cand, victim);
                {
                    let cline = self.caches[cand]
                        .peek_mut(victim)
                        .expect("present flag implies a resident entry");
                    debug_assert!(!cline.is_valid(), "GR present flags mark invalid entries");
                    cline.validity = Validity::Owned;
                    cline.mode = Mode::GlobalRead;
                    cline.modified = scr.line.modified;
                    cline.data = scr.line.data.clone();
                    cline.present = present;
                    cline.owner_hint = Some(CacheId(cand as u16));
                    cline.reset_window();
                }
                self.note_state_change(cand, victim, before);
            }
            Step::AnnounceCastHandoff => {
                let cand = scr.cand;
                let mut announce = scr.line.present.clone();
                announce.remove(proc);
                announce.insert(cand);
                announce.remove(cand);
                if !announce.is_empty() {
                    self.counters.incr("owner_announce_multicast");
                    let delivered = self.mcast(
                        MsgKind::NewOwnerAnnounce,
                        proc,
                        &announce,
                        self.cfg.sizing.new_owner_bits(self.cfg.n_caches),
                    );
                    for &dest in &delivered {
                        if let Some(dline) = self.caches[dest].peek_mut(victim) {
                            if !dline.is_valid() {
                                dline.owner_hint = Some(CacheId(cand as u16));
                            }
                        }
                    }
                    self.recycle_delivered(delivered);
                }
            }
            _ => unreachable!("step {step:?} does not belong to the replacement table"),
        }
    }

    /// Table-driven in-place mode switch: replaces the body of
    /// `switch_mode_at_owner`. A fired no-op rule (empty step list) is
    /// fully silent — no trace event, no log entry — matching the
    /// hand-coded early return.
    pub(super) fn ir_switch_mode(
        &mut self,
        table: &'static ProtocolIr,
        owner: usize,
        block: BlockAddr,
        target: Mode,
        adaptive: bool,
    ) {
        let current = self.caches[owner].peek(block).expect("owner line").mode;
        let others = {
            let line = self.caches[owner].peek(block).expect("owner line");
            let mut o = line.present.clone();
            o.remove(owner);
            !o.is_empty()
        };
        let ctx = RuleCtx {
            mode_switch: Some(ModeCtx {
                current,
                target,
                other_copies: others,
            }),
            ..RuleCtx::default()
        };
        let rule = Self::ir_select(table.mode, &ctx, "mode");
        if rule.steps.is_empty() {
            return;
        }
        self.tracer.push(ProtocolEvent::ModeSwitch {
            owner,
            block,
            to: target.into(),
            adaptive,
        });
        let before = self.log_state(owner, block);
        for step in rule.steps {
            self.ir_mode_step(step, owner, block);
        }
        self.note_state_change(owner, block, before);
    }

    /// Executes one mode-table micro-operation.
    fn ir_mode_step(&mut self, step: &Step, owner: usize, block: BlockAddr) {
        match *step {
            Step::Count(counter) => self.counters.incr(counter),
            Step::ModeToDw => {
                let n = self.cfg.n_caches;
                let line = self.caches[owner].peek_mut(block).expect("owner line");
                line.mode = Mode::DistributedWrite;
                let mut fresh = DestSet::empty(n);
                fresh.insert(owner);
                line.present = fresh;
                line.reset_window();
            }
            Step::ModeToGr => {
                let line = self.caches[owner].peek_mut(block).expect("owner line");
                line.mode = Mode::GlobalRead;
                line.reset_window();
            }
            Step::InvalidateCast => {
                let mut others = {
                    let line = self.caches[owner].peek_mut(block).expect("owner line");
                    let mut o = line.present.clone();
                    o.remove(owner);
                    o
                };
                debug_assert!(!others.is_empty(), "rule guarded on shared copies");
                self.counters.incr("invalidate_multicast");
                let delivered = self.mcast(
                    MsgKind::Invalidate,
                    owner,
                    &others,
                    self.cfg.sizing.invalidate_bits(),
                );
                for &dest in &delivered {
                    if let Some(line) = self.caches[dest].peek_mut(block) {
                        if line.is_valid() && !line.is_owned() {
                            let b = self.log_state(dest, block);
                            let line = self.caches[dest].peek_mut(block).expect("checked");
                            line.validity = Validity::Invalid;
                            line.owner_hint = Some(CacheId(owner as u16));
                            self.note_state_change(dest, block, b);
                        }
                    }
                    others.remove(dest);
                }
                self.recycle_delivered(delivered);
                debug_assert!(others.is_empty(), "invalidation must reach all copies");
            }
            _ => unreachable!("step {step:?} does not belong to the mode table"),
        }
    }
}
