//! The simulated machine: caches, memory, block store and network, the
//! public transactions, and the plumbing every protocol action shares
//! (unicast and multicast billing, line installation, fault admission).
//!
//! Every public access ([`System::read`] / [`System::write`]) runs as an
//! atomic transaction: the full message sequence of §2.2 is generated,
//! routed over the simulated omega network (billing every link), applied to
//! the cache/memory state, and counted. The paper defines the protocol
//! without transient states, so atomic transactions are the faithful
//! execution model.
//!
//! What a transaction *does* is not written here: the transitions are the
//! rule tables of [`crate::ir`], run by the step methods in `ir_exec.rs`.

use std::collections::BTreeMap;

use tmc_faults::{FaultInjector, FaultKind, FaultPlan, MsgFault, ScheduledFault};
use tmc_memsys::{BlockAddr, BlockStore, CacheArray, CacheId, MainMemory, ModuleMap, WordAddr};
use tmc_obs::{FaultLabel, LinkCharge, ProtocolEvent, Tracer};
use tmc_omeganet::{CastCache, CastStats, DestSet, LinkId, Omega, TrafficMatrix};
use tmc_simcore::CounterSet;

use crate::config::{ModePolicy, SystemConfig};
use crate::error::CoreError;
use crate::ir::LookupClass;
use crate::msg::MsgKind;
use crate::state::{CacheLine, Mode, StateName, Validity};

#[path = "ir_exec.rs"]
mod ir_exec;
pub(crate) use ir_exec::Txn;

/// What one access cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessStats {
    /// The value read (for writes: the value written).
    pub value: u64,
    /// Bits this transaction pushed across network links.
    pub cost_bits: u64,
    /// Messages sent (multicasts count once).
    pub messages: usize,
}

/// How the fault layer routed one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultPath {
    /// No active fault touches this transaction: run the protocol as is.
    Normal,
    /// The block is degraded or the cache quarantined: serve uncached.
    Uncached,
}

/// Live fault-injection state. Boxed behind an `Option` so the fault-free
/// hot path pays exactly one branch; `None` (and, observably, an empty
/// plan) leaves the machine bit-identical to one built without faults.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) injector: FaultInjector,
    /// Op clock driving the schedule: one tick per public transaction.
    pub(crate) op: u64,
    /// Blocks forced memory-direct (uncacheable) after retry exhaustion:
    /// block → (heal op, op at which it was degraded).
    pub(crate) degraded: BTreeMap<BlockAddr, (u64, u64)>,
    /// Caches emptied and bypassed after a stall:
    /// cache → (heal op, op at which it was quarantined).
    pub(crate) quarantined: BTreeMap<usize, (u64, u64)>,
}

/// A full simulated machine running the two-mode protocol.
///
/// `System` is `Clone`, so verification tools can branch execution — the
/// bounded model checker in `tests/model_check.rs` explores every reachable
/// protocol state of small machines this way.
///
/// # Example
///
/// ```
/// use tmc_core::{System, SystemConfig};
/// use tmc_memsys::WordAddr;
///
/// let mut sys = System::new(SystemConfig::new(4))?;
/// sys.write(0, WordAddr::new(16), 7)?;
/// assert_eq!(sys.read(1, WordAddr::new(16))?, 7);
/// assert!(sys.traffic().total_bits() > 0);
/// sys.check_invariants().expect("protocol invariants hold");
/// # Ok::<(), tmc_core::CoreError>(())
/// ```
#[derive(Clone)]
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) net: Omega,
    pub(crate) traffic: TrafficMatrix,
    pub(crate) caches: Vec<CacheArray<CacheLine>>,
    pub(crate) memory: MainMemory,
    pub(crate) store: BlockStore,
    pub(crate) modules: ModuleMap,
    pub(crate) counters: CounterSet,
    txn_bits: u64,
    txn_msgs: usize,
    /// Fault injection: the next `nak_budget` ownership offers are refused
    /// (never the last remaining candidate, so handoff always terminates).
    pub(crate) nak_budget: usize,
    /// Deterministic fault-injection state ([`tmc_faults`]); `None` unless
    /// the config carries a [`tmc_faults::FaultSpec`].
    pub(crate) faults: Option<Box<FaultState>>,
    /// Memoized multicast traversals: a cast seen for the second time is
    /// recorded, and from then on replays its link charges instead of
    /// re-walking the routing tree. Host-side only — not protocol state.
    cast_cache: CastCache,
    /// Structured protocol-event buffer (disabled by default; zero cost on
    /// the access path while off).
    pub(crate) tracer: Tracer,
    /// Reusable scratch for [`System::mcast`]: the delivered-port list and
    /// the per-link charge record. Lets a multicast run without allocating
    /// at all, whether the cast cache walks it or replays it into these
    /// same buffers.
    cast_delivered: Vec<usize>,
    cast_charges: Vec<(LinkId, u64)>,
}

impl System {
    /// Builds a machine from `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] if the network cannot be built for
    /// the requested cache count.
    pub fn new(cfg: SystemConfig) -> Result<Self, CoreError> {
        let net =
            Omega::with_ports(cfg.n_caches).map_err(|e| CoreError::BadConfig(e.to_string()))?;
        if net.ports() != cfg.n_caches {
            return Err(CoreError::BadConfig(format!(
                "cache count {} is not a power of two",
                cfg.n_caches
            )));
        }
        let traffic = TrafficMatrix::new(&net);
        let faults = match cfg.faults {
            None => None,
            Some(spec) => {
                let plan = FaultPlan::generate(&spec, cfg.n_caches, net.stages())?;
                Some(Box::new(FaultState {
                    injector: FaultInjector::new(plan),
                    op: 0,
                    degraded: BTreeMap::new(),
                    quarantined: BTreeMap::new(),
                }))
            }
        };
        Ok(System {
            caches: (0..cfg.n_caches)
                .map(|_| CacheArray::new(cfg.geometry))
                .collect(),
            memory: MainMemory::new(cfg.spec),
            store: BlockStore::new(),
            modules: ModuleMap::new(cfg.n_caches),
            counters: CounterSet::new(),
            txn_bits: 0,
            txn_msgs: 0,
            nak_budget: 0,
            faults,
            cast_cache: CastCache::new(),
            tracer: Tracer::new(),
            cast_delivered: Vec::new(),
            cast_charges: Vec::new(),
            net,
            traffic,
            cfg,
        })
    }

    // ------------------------------------------------------------------
    // Public accessors.
    // ------------------------------------------------------------------

    /// Number of processors (= caches = memory modules = network ports).
    pub fn n_procs(&self) -> usize {
        self.cfg.n_caches
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Cumulative per-link traffic (the communication-cost ledger).
    pub fn traffic(&self) -> &TrafficMatrix {
        &self.traffic
    }

    /// Event counters (hits, misses, transfers, multicasts, …).
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// How this machine's multicasts were billed on the host — walked,
    /// admitted to the memo or replayed from it — and what the memo holds.
    /// A host-side observation: it never enters fingerprints or snapshots.
    pub fn cast_stats(&self) -> CastStats {
        self.cast_cache.stats()
    }

    /// Turns structured protocol-event tracing on or off. Off by default;
    /// while off, the hooks on the access path cost one branch each.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Whether structured tracing is currently recording.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Events recorded since the last drain.
    pub fn trace_events(&self) -> &[ProtocolEvent] {
        self.tracer.events()
    }

    /// Takes every recorded protocol event, leaving the buffer empty (the
    /// enabled state is unchanged).
    pub fn drain_trace(&mut self) -> Vec<ProtocolEvent> {
        self.tracer.drain()
    }

    /// The block's mode as a trace label, if the block is owned.
    fn trace_mode_of(&self, block: BlockAddr) -> Option<tmc_obs::TraceMode> {
        self.mode_of(block).map(Into::into)
    }

    /// Table 1 classification of `proc`'s entry for `block`, or `None` if
    /// the cache has no entry.
    pub fn state_name(&self, proc: usize, block: BlockAddr) -> Option<StateName> {
        self.caches[proc]
            .peek(block)
            .map(|l| l.state_name(CacheId(proc as u16)))
    }

    /// The owner recorded in the block store.
    pub fn owner_of(&self, block: BlockAddr) -> Option<CacheId> {
        self.store.owner(block)
    }

    /// The present-flag vector at `block`'s owner, if the block is owned.
    /// Borrows the owner's [`DestSet`] directly — iterate it with
    /// [`DestSet::iter`] or collect if a list is needed; the lookup itself
    /// never allocates.
    pub fn present_set(&self, block: BlockAddr) -> Option<&DestSet> {
        let o = self.store.owner(block)?;
        let line = self.caches[o.port()].peek(block)?;
        Some(&line.present)
    }

    /// The consistency mode at `block`'s owner, if owned.
    pub fn mode_of(&self, block: BlockAddr) -> Option<Mode> {
        let o = self.store.owner(block)?;
        self.caches[o.port()].peek(block).map(|l| l.mode)
    }

    /// Reads `addr`'s current value without generating any traffic — the
    /// test oracle's view (owner copy if owned, else memory).
    pub fn peek_word(&self, addr: WordAddr) -> u64 {
        let block = self.cfg.spec.block_of(addr);
        let offset = self.cfg.spec.offset_of(addr);
        if let Some(o) = self.store.owner(block) {
            if let Some(line) = self.caches[o.port()].peek(block) {
                return line.data.word(offset);
            }
        }
        self.memory.read_block(block)[offset]
    }

    /// Injects `n` negative acknowledgements into upcoming ownership
    /// offers (replacement case 5b). The final remaining candidate always
    /// accepts so handoff terminates.
    pub fn inject_offer_naks(&mut self, n: usize) {
        self.nak_budget = n;
    }

    /// Whether this machine was built with fault injection enabled
    /// ([`SystemConfig::faults`]).
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Scheduled faults fired so far (0 when faults are disabled).
    pub fn faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.injector.injected())
    }

    /// Scheduled faults that have not fired yet (0 when disabled).
    pub fn faults_pending(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| {
            (f.injector.plan_len() as u64).saturating_sub(f.injector.injected())
        })
    }

    /// True when no outage, stall, degradation, quarantine or pending
    /// message fault is active — every fault injected so far has been fully
    /// recovered from. Vacuously true for a fault-free machine. The chaos
    /// harness checks invariants and the memory oracle at exactly these
    /// quiescent points (plus the end of the run).
    pub fn faults_quiescent(&self) -> bool {
        match self.faults.as_ref() {
            None => true,
            Some(f) => f.injector.is_idle() && f.degraded.is_empty() && f.quarantined.is_empty(),
        }
    }

    /// A canonical encoding of the machine's *protocol* state: per-cache
    /// line states (validity, mode, modified bit, present vector, OWNER
    /// hint) plus the block store. Data values, traffic tallies, clocks and
    /// counters are deliberately excluded — the protocol's control behavior
    /// does not depend on them, so two machines with equal fingerprints are
    /// protocol-equivalent. Used by the bounded model checker to detect
    /// revisited states.
    pub fn protocol_fingerprint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        // One sort buffer for every cache: most caches of a big machine
        // hold a few lines or none.
        let mut entries: Vec<(BlockAddr, &CacheLine)> = Vec::new();
        for cache in &self.caches {
            entries.clear();
            entries.extend(cache.iter());
            entries.sort_by_key(|&(b, _)| b);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for &(block, line) in &entries {
                out.extend_from_slice(&block.index().to_le_bytes());
                out.push(match line.validity {
                    crate::state::Validity::Invalid => 0,
                    crate::state::Validity::UnOwned => 1,
                    crate::state::Validity::Owned => 2,
                });
                out.push(u8::from(line.mode.dw_bit()));
                out.push(u8::from(line.modified));
                for p in line.present.iter() {
                    out.extend_from_slice(&(p as u16).to_le_bytes());
                }
                out.push(0xFF);
                match line.owner_hint {
                    Some(c) => out.extend_from_slice(&c.0.to_le_bytes()),
                    None => out.extend_from_slice(&u16::MAX.to_le_bytes()),
                }
            }
            out.push(0xFE);
        }
        let mut owners: Vec<(BlockAddr, CacheId)> = self.store.iter().collect();
        owners.sort_by_key(|&(b, _)| b);
        for (block, owner) in owners {
            out.extend_from_slice(&block.index().to_le_bytes());
            out.extend_from_slice(&owner.0.to_le_bytes());
        }
        out
    }

    // ------------------------------------------------------------------
    // Message plumbing.
    // ------------------------------------------------------------------

    fn home_port(&self, block: BlockAddr) -> usize {
        self.modules.module_of(block)
    }

    fn send(&mut self, kind: MsgKind, from: usize, to: usize, payload_bits: u64) {
        // Allocation-free unicast: per-stage link charges stream straight
        // off the routing digits ([`Omega::charge_unicast`]) into the
        // traffic matrix.
        let cost_bits = self
            .net
            .charge_unicast(from, to, payload_bits, &mut self.traffic)
            .expect("ports are valid by construction");
        self.counters.incr("msgs_total");
        self.counters.add("bits_total", cost_bits);
        self.counters.add(kind.bits_counter(), cost_bits);
        self.txn_bits += cost_bits;
        self.txn_msgs += 1;
        if self.faults.is_some() {
            self.apply_msg_fault(kind, from, to, payload_bits, cost_bits);
        }
    }

    /// Multicasts to `dests` (must be nonempty) and returns the ports that
    /// actually received the message (scheme 3 may widen the set). The
    /// returned vector is the system's reusable scratch buffer — hand it
    /// back with [`System::recycle_delivered`] after iterating so repeat
    /// casts stay allocation-free.
    fn mcast(
        &mut self,
        kind: MsgKind,
        from: usize,
        dests: &DestSet,
        payload_bits: u64,
    ) -> Vec<usize> {
        let mut delivered = std::mem::take(&mut self.cast_delivered);
        self.cast_charges.clear();
        let record = self.tracer.is_enabled().then_some(&mut self.cast_charges);
        let (scheme, cost_bits) = self
            .cast_cache
            .multicast_into(
                &self.net,
                self.cfg.multicast,
                from,
                dests,
                payload_bits,
                &mut self.traffic,
                &mut delivered,
                record,
            )
            .expect("dest sets are valid by construction");
        let charges = &self.cast_charges;
        self.tracer.emit(|| ProtocolEvent::Cast {
            from,
            scheme,
            payload_bits,
            cost_bits,
            links: charges
                .iter()
                .map(|&(link, bits)| LinkCharge {
                    layer: link.layer,
                    line: link.line,
                    bits,
                })
                .collect(),
        });
        self.txn_bits += cost_bits;
        self.txn_msgs += 1;
        self.counters.incr("msgs_total");
        self.counters.add("bits_total", cost_bits);
        self.counters.add(kind.bits_counter(), cost_bits);
        // Fault model: destinations behind a dead link NACK the cast; the
        // sender retransmits to each point-to-point (state was already
        // applied — only the retransmission traffic is modeled).
        if self
            .faults
            .as_ref()
            .is_some_and(|fs| fs.injector.any_link_down())
        {
            self.fault_mcast_retransmit(kind, from, &delivered, payload_bits);
        }
        delivered
    }

    /// Returns [`System::mcast`]'s scratch buffer so the next cast reuses
    /// its capacity.
    fn recycle_delivered(&mut self, buf: Vec<usize>) {
        self.cast_delivered = buf;
    }

    fn txn_begin(&mut self) {
        self.txn_bits = 0;
        self.txn_msgs = 0;
    }

    fn txn_end(&self, value: u64) -> AccessStats {
        AccessStats {
            value,
            cost_bits: self.txn_bits,
            messages: self.txn_msgs,
        }
    }

    fn check_proc(&self, proc: usize) -> Result<(), CoreError> {
        if proc < self.cfg.n_caches {
            Ok(())
        } else {
            Err(CoreError::BadProcessor {
                proc,
                n_procs: self.cfg.n_caches,
            })
        }
    }

    /// Classifies a tag-probe result — the entry group of the access
    /// tables.
    fn classify(line: Option<&CacheLine>) -> LookupClass {
        match line.map(|l| l.validity) {
            None => LookupClass::Missing,
            Some(Validity::Invalid) => LookupClass::InvalidEntry,
            Some(Validity::UnOwned) => LookupClass::UnOwnedHit,
            Some(Validity::Owned) => LookupClass::OwnedHit,
        }
    }

    // ------------------------------------------------------------------
    // Public transactions.
    // ------------------------------------------------------------------

    /// Processor `proc` reads `addr`. Returns the value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadProcessor`] for an out-of-range processor.
    pub fn read(&mut self, proc: usize, addr: WordAddr) -> Result<u64, CoreError> {
        self.read_stats(proc, addr).map(|s| s.value)
    }

    /// Like [`System::read`] but returns the full [`AccessStats`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadProcessor`] for an out-of-range processor.
    pub fn read_stats(&mut self, proc: usize, addr: WordAddr) -> Result<AccessStats, CoreError> {
        self.check_proc(proc)?;
        let block = self.cfg.spec.block_of(addr);
        let offset = self.cfg.spec.offset_of(addr);
        self.txn_begin();
        if self.faults.is_some() && self.fault_preflight(proc, block) == FaultPath::Uncached {
            self.counters.incr("fault_uncached_reads");
            let value = self.fault_uncached_read(proc, block, offset);
            let stats = self.txn_end(value);
            if self.tracer.is_enabled() {
                self.tracer.push(ProtocolEvent::Read {
                    proc,
                    addr,
                    value,
                    hit: false,
                    cost_bits: stats.cost_bits,
                    mode: None,
                });
            }
            return Ok(stats);
        }
        // One tag probe: a valid line is used (its recency refreshed) and
        // yields the word; anything else is classified without a trace.
        let line = self.caches[proc].get_if(block, CacheLine::is_valid);
        let lookup = Self::classify(line);
        let hit = matches!(lookup, LookupClass::OwnedHit | LookupClass::UnOwnedHit);
        let hit_word = line.filter(|_| hit).map_or(0, |l| l.data.word(offset));
        let value = self.rule_read(proc, block, offset, lookup, hit_word);
        self.note_block_ref(block, false);
        let stats = self.txn_end(value);
        if self.tracer.is_enabled() {
            let mode = self.trace_mode_of(block);
            self.tracer.push(ProtocolEvent::Read {
                proc,
                addr,
                value,
                hit,
                cost_bits: stats.cost_bits,
                mode,
            });
        }
        Ok(stats)
    }

    /// Processor `proc` writes `value` to `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadProcessor`] for an out-of-range processor.
    pub fn write(&mut self, proc: usize, addr: WordAddr, value: u64) -> Result<(), CoreError> {
        self.write_stats(proc, addr, value).map(|_| ())
    }

    /// Like [`System::write`] but returns the full [`AccessStats`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadProcessor`] for an out-of-range processor.
    pub fn write_stats(
        &mut self,
        proc: usize,
        addr: WordAddr,
        value: u64,
    ) -> Result<AccessStats, CoreError> {
        self.check_proc(proc)?;
        let block = self.cfg.spec.block_of(addr);
        let offset = self.cfg.spec.offset_of(addr);
        self.txn_begin();
        if self.faults.is_some() && self.fault_preflight(proc, block) == FaultPath::Uncached {
            self.counters.incr("fault_uncached_writes");
            self.fault_uncached_write(proc, block, offset, value);
            let stats = self.txn_end(value);
            if self.tracer.is_enabled() {
                self.tracer.push(ProtocolEvent::Write {
                    proc,
                    addr,
                    value,
                    hit: false,
                    cost_bits: stats.cost_bits,
                    mode: None,
                });
            }
            return Ok(stats);
        }
        let lookup = Self::classify(self.caches[proc].peek(block));
        let hit = matches!(lookup, LookupClass::OwnedHit | LookupClass::UnOwnedHit);
        self.rule_write(proc, block, offset, value, lookup);
        self.note_block_ref(block, true);
        let stats = self.txn_end(value);
        if self.tracer.is_enabled() {
            let mode = self.trace_mode_of(block);
            self.tracer.push(ProtocolEvent::Write {
                proc,
                addr,
                value,
                hit,
                cost_bits: stats.cost_bits,
                mode,
            });
        }
        Ok(stats)
    }

    /// Software mode directive (operations 6 and 7 of §2.2): make `proc`
    /// the owner of `addr`'s block if it is not already, then put the block
    /// in `mode`. A DW→GR switch invalidates all other copies; a GR→DW
    /// switch clears the present vector to the owner alone (invalid-entry
    /// holders re-register on their next miss — see DESIGN.md).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadProcessor`] for an out-of-range processor.
    pub fn set_mode(&mut self, proc: usize, addr: WordAddr, mode: Mode) -> Result<(), CoreError> {
        self.check_proc(proc)?;
        let block = self.cfg.spec.block_of(addr);
        self.txn_begin();
        if self.faults.is_some() && self.fault_preflight(proc, block) == FaultPath::Uncached {
            // A degraded block is uncacheable — its mode is meaningless
            // until it heals, so the directive is dropped (not queued).
            self.counters.incr("fault_uncached_setmodes");
            return Ok(());
        }
        self.tracer.push(ProtocolEvent::SetMode {
            proc,
            addr,
            mode: mode.into(),
        });
        let lookup = Self::classify(self.caches[proc].peek(block));
        self.rule_set_mode(proc, block, mode, lookup);
        Ok(())
    }

    /// Writes back every modified owned copy (end-of-run sync), billing the
    /// write-back messages. States are unchanged apart from the M bits.
    pub fn flush(&mut self) {
        for proc in 0..self.cfg.n_caches {
            let dirty: Vec<BlockAddr> = self.caches[proc]
                .iter()
                .filter(|(_, l)| l.is_owned() && l.modified)
                .map(|(b, _)| b)
                .collect();
            for block in dirty {
                let data = self.caches[proc]
                    .peek(block)
                    .expect("listed above")
                    .data
                    .clone();
                let h = self.home_port(block);
                self.send(
                    MsgKind::WriteBack,
                    proc,
                    h,
                    self.cfg.sizing.block_transfer_bits(),
                );
                self.counters.incr("writebacks");
                self.memory.write_block(block, &data);
                self.caches[proc].peek_mut(block).expect("listed").modified = false;
            }
        }
    }

    // ------------------------------------------------------------------
    // Installing a line (replacement is §2.2 case 5, `ir_exec.rs`).
    // ------------------------------------------------------------------

    /// Installs `line` for `block` at `proc`, first running the replacement
    /// actions for whatever the insertion would evict.
    fn install_line(&mut self, proc: usize, block: BlockAddr, line: CacheLine) {
        if let Some((victim, _)) = self.caches[proc].would_evict(block) {
            self.replace(proc, victim);
        }
        let evicted = self.caches[proc].insert(block, line);
        debug_assert!(evicted.is_none(), "replacement must have freed the way");
    }

    // ------------------------------------------------------------------
    // The adaptive policy (§5).
    // ------------------------------------------------------------------

    /// Feeds the §5 measurement counters at the block's owner and runs the
    /// adaptive switch at window boundaries.
    fn note_block_ref(&mut self, block: BlockAddr, is_write: bool) {
        let ModePolicy::Adaptive { window } = self.cfg.mode_policy else {
            return;
        };
        let Some(owner) = self.store.owner(block) else {
            return;
        };
        let owner = owner.port();
        let decision = {
            let Some(line) = self.caches[owner].peek_mut(block) else {
                return;
            };
            line.window_refs += 1;
            if is_write {
                line.window_writes += 1;
            }
            if line.window_refs < window {
                return;
            }
            let n_sharers = line.present.len().max(1) as f64;
            let w_est = line.window_writes as f64 / line.window_refs as f64;
            let w1 = 2.0 / (n_sharers + 2.0);
            let desired = if w_est <= w1 {
                Mode::DistributedWrite
            } else {
                Mode::GlobalRead
            };
            line.reset_window();
            (desired != line.mode).then_some(desired)
        };
        if let Some(target) = decision {
            self.counters.incr("adaptive_switches");
            self.switch_mode_at_owner(owner, block, target, /* adaptive */ true);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery (tmc-faults; see docs/ROBUSTNESS.md).
    //
    // Faults are applied as *pre-flight admission control* plus
    // charge-only perturbations: a transaction either runs the unmodified
    // protocol, or is served uncached without touching protocol state.
    // Recovery actions (scrub, quarantine) always leave the machine in a
    // state where `check_invariants` holds by construction.
    // ------------------------------------------------------------------

    /// Ticks the fault clock, fires due faults, heals expired
    /// degradations, and decides how this transaction is served.
    /// Only called when `self.faults` is `Some`.
    fn fault_preflight(&mut self, proc: usize, block: BlockAddr) -> FaultPath {
        let (op, fired) = {
            let fs = self.faults.as_mut().expect("caller checked");
            fs.op += 1;
            let op = fs.op;
            (op, fs.injector.advance(op))
        };
        for f in fired {
            self.apply_fired_fault(op, f);
        }
        self.fault_heal(op);
        let fs = self.faults.as_ref().expect("caller checked");
        if fs.degraded.contains_key(&block) || fs.quarantined.contains_key(&proc) {
            return FaultPath::Uncached;
        }
        if !fs.injector.any_link_down() {
            return FaultPath::Normal;
        }
        self.fault_route_or_degrade(op, proc, block)
    }

    /// Activates one scheduled fault: counts it, traces it, and runs any
    /// immediate recovery action (quarantine, bit-flip repair, NAK budget).
    fn apply_fired_fault(&mut self, op: u64, f: ScheduledFault) {
        self.counters.incr("faults_injected");
        match f.kind {
            FaultKind::LinkDown { link, heal_at } => {
                self.tracer.push(ProtocolEvent::FaultInjected {
                    label: FaultLabel::LinkDown,
                    op,
                    layer: Some(link.layer),
                    line: Some(link.line),
                    cache: None,
                    heal_op: Some(heal_at),
                });
            }
            FaultKind::CacheStall { cache, heal_at } => {
                self.tracer.push(ProtocolEvent::FaultInjected {
                    label: FaultLabel::CacheStall,
                    op,
                    layer: None,
                    line: None,
                    cache: Some(cache),
                    heal_op: Some(heal_at),
                });
                let already = self
                    .faults
                    .as_ref()
                    .expect("fault path")
                    .quarantined
                    .contains_key(&cache);
                if heal_at > op && !already {
                    self.quarantine_cache(op, cache, heal_at);
                }
            }
            FaultKind::MsgDrop | FaultKind::MsgDup | FaultKind::MsgDelay { .. } => {
                let label = match f.kind {
                    FaultKind::MsgDrop => FaultLabel::MsgDrop,
                    FaultKind::MsgDup => FaultLabel::MsgDup,
                    _ => FaultLabel::MsgDelay,
                };
                self.tracer.push(ProtocolEvent::FaultInjected {
                    label,
                    op,
                    layer: None,
                    line: None,
                    cache: None,
                    heal_op: None,
                });
            }
            FaultKind::BitFlip { cache, pick } => {
                self.tracer.push(ProtocolEvent::FaultInjected {
                    label: FaultLabel::BitFlip,
                    op,
                    layer: None,
                    line: None,
                    cache: Some(cache),
                    heal_op: None,
                });
                self.repair_bit_flip(cache, pick);
            }
            FaultKind::HandoffNak { count } => {
                self.tracer.push(ProtocolEvent::FaultInjected {
                    label: FaultLabel::HandoffNak,
                    op,
                    layer: None,
                    line: None,
                    cache: None,
                    heal_op: None,
                });
                self.nak_budget += count;
            }
        }
    }

    /// Lifts degradations and quarantines whose heal op has passed.
    fn fault_heal(&mut self, op: u64) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        if !fs.degraded.is_empty() {
            let healed: Vec<(BlockAddr, u64)> = fs
                .degraded
                .iter()
                .filter(|&(_, &(heal, _))| heal <= op)
                .map(|(&b, &(_, since))| (b, op - since))
                .collect();
            for (block, after_ops) in healed {
                fs.degraded.remove(&block);
                self.counters.incr("fault_recoveries");
                self.tracer.push(ProtocolEvent::Recovered {
                    op,
                    block: Some(block),
                    cache: None,
                    after_ops,
                });
            }
        }
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        if !fs.quarantined.is_empty() {
            let healed: Vec<(usize, u64)> = fs
                .quarantined
                .iter()
                .filter(|&(_, &(heal, _))| heal <= op)
                .map(|(&c, &(_, since))| (c, op - since))
                .collect();
            for (cache, after_ops) in healed {
                fs.quarantined.remove(&cache);
                self.counters.incr("fault_recoveries");
                self.tracer.push(ProtocolEvent::Recovered {
                    op,
                    block: None,
                    cache: Some(cache),
                    after_ops,
                });
            }
        }
    }

    /// The network paths transaction (`proc`, `block`) may need: requester
    /// to home module and, when the block is owned, requester/home to the
    /// owner — each direction separately (omega routes are asymmetric).
    fn fault_paths(&self, proc: usize, block: BlockAddr) -> Vec<(usize, usize)> {
        let home = self.home_port(block);
        let owner = self.store.owner(block).map(|c| c.port());
        let mut paths: Vec<(usize, usize)> = Vec::with_capacity(6);
        let add = |a: usize, b: usize, paths: &mut Vec<(usize, usize)>| {
            if a != b && !paths.contains(&(a, b)) {
                paths.push((a, b));
            }
        };
        add(proc, home, &mut paths);
        add(home, proc, &mut paths);
        if let Some(o) = owner {
            add(proc, o, &mut paths);
            add(o, proc, &mut paths);
            add(home, o, &mut paths);
            add(o, home, &mut paths);
        }
        paths
    }

    /// The first path of this transaction blocked by a link that will
    /// still be down after `slack` further ops, if any.
    fn fault_first_blocked(
        &self,
        proc: usize,
        block: BlockAddr,
        slack: u64,
    ) -> Option<(usize, usize, LinkId)> {
        let fs = self.faults.as_ref().expect("fault path");
        let op = fs.op;
        for (src, dst) in self.fault_paths(proc, block) {
            let down = self
                .net
                .first_down_link(src, dst, |l| {
                    fs.injector
                        .link_heal_at(l)
                        .is_some_and(|heal| heal > op + slack)
                })
                .expect("ports are valid by construction");
            if let Some(link) = down {
                return Some((src, dst, link));
            }
        }
        None
    }

    /// The latest heal op over every down link on this transaction's
    /// paths (0 if none — callers clamp).
    fn fault_blocked_heal_max(&self, proc: usize, block: BlockAddr) -> u64 {
        let fs = self.faults.as_ref().expect("fault path");
        let mut heal = 0;
        for (src, dst) in self.fault_paths(proc, block) {
            for l in self.net.route_iter(src, dst) {
                if let Some(h) = fs.injector.link_heal_at(l) {
                    heal = heal.max(h);
                }
            }
        }
        heal
    }

    /// Timeout/retry with exponential backoff against a blocked routing
    /// path; on exhaustion the block is degraded to memory-direct service.
    ///
    /// Outages heal at op granularity, so the backoff is mapped onto the
    /// op clock at one op per `backoff_base` cycles: attempt `k` lets
    /// `2^k` ops worth of healing elapse. A probe that finds every path
    /// clear within that slack proceeds normally; the probe itself is
    /// billed up to (not across) the dead link.
    fn fault_route_or_degrade(&mut self, op: u64, proc: usize, block: BlockAddr) -> FaultPath {
        let Some((src, dst, link)) = self.fault_first_blocked(proc, block, 0) else {
            return FaultPath::Normal;
        };
        let retry = self.faults.as_ref().expect("fault path").injector.retry();
        let mut waited_ops = 0u64;
        for attempt in 0..retry.max_retries {
            let backoff = retry.backoff_cycles(attempt);
            waited_ops = waited_ops.saturating_add(1u64 << attempt.min(32));
            self.counters.incr("fault_retries");
            self.tracer.push(ProtocolEvent::RetryAttempt {
                op,
                proc,
                dest: dst,
                attempt,
                backoff_cycles: backoff,
            });
            let bits = self
                .net
                .unicast_prefix(
                    src,
                    dst,
                    self.cfg.sizing.request_bits(),
                    link.layer,
                    &mut self.traffic,
                )
                .expect("ports are valid by construction");
            self.txn_bits += bits;
            self.counters.add("bits_total", bits);
            if self.fault_first_blocked(proc, block, waited_ops).is_none() {
                return FaultPath::Normal;
            }
        }
        let heal = self.fault_blocked_heal_max(proc, block).max(op + 1);
        self.degrade_block(op, block, heal);
        FaultPath::Uncached
    }

    /// Scrubs `block` from the whole machine: the owner's modified data is
    /// written back, every entry (copies and invalid hints) is dropped,
    /// and the block-store entry is cleared. Afterwards the block is
    /// resident nowhere, so every invariant holds for it trivially.
    fn scrub_block(&mut self, block: BlockAddr) {
        let h = self.home_port(block);
        if let Some(o) = self.store.owner(block) {
            let o = o.port();
            let modified_data = self.caches[o]
                .peek(block)
                .filter(|l| l.modified)
                .map(|l| l.data.clone());
            match modified_data {
                Some(data) => {
                    self.send(
                        MsgKind::WriteBack,
                        o,
                        h,
                        self.cfg.sizing.block_transfer_bits(),
                    );
                    self.counters.incr("writebacks");
                    self.memory.write_block(block, &data);
                }
                None => {
                    self.send(MsgKind::ReplaceNotice, o, h, self.cfg.sizing.request_bits());
                }
            }
            self.store.clear(block);
        }
        for c in 0..self.cfg.n_caches {
            let owned = match self.caches[c].peek(block) {
                Some(line) => line.is_owned(),
                None => continue,
            };
            if !owned {
                self.send(MsgKind::ReplaceNotice, c, h, self.cfg.sizing.request_bits());
            }
            self.caches[c].remove(block);
        }
    }

    /// Degrades `block` to memory-direct (uncacheable) service until
    /// `heal_op`: scrub everywhere, then serve reads and writes straight
    /// from memory (write-through) while degraded.
    fn degrade_block(&mut self, op: u64, block: BlockAddr, heal_op: u64) {
        self.scrub_block(block);
        self.counters.incr("fault_degraded_blocks");
        self.tracer.push(ProtocolEvent::Degraded {
            op,
            block: Some(block),
            cache: None,
            heal_op,
        });
        let fs = self.faults.as_mut().expect("fault path");
        fs.degraded.insert(block, (heal_op, op));
    }

    /// Quarantines a persistently stalled cache: its owned blocks are
    /// scrubbed machine-wide (flush + drop), its remaining entries dropped
    /// with the owners' present flags cleared, and until `heal_op` its
    /// processor is served uncached. On heal it simply restarts cold.
    fn quarantine_cache(&mut self, op: u64, cache: usize, heal_op: u64) {
        self.counters.incr("fault_quarantined_caches");
        self.tracer.push(ProtocolEvent::Degraded {
            op,
            block: None,
            cache: Some(cache),
            heal_op,
        });
        // Slot order, not `iter()`'s: the messages below must be a function
        // of the cache's contents, not of its insertion history.
        let owned: Vec<BlockAddr> = self.caches[cache]
            .slots()
            .filter(|(_, _, _, l)| l.is_owned())
            .map(|(_, tag, _, _)| BlockAddr::new(tag))
            .collect();
        for block in owned {
            self.scrub_block(block);
        }
        let rest: Vec<BlockAddr> = self.caches[cache]
            .slots()
            .map(|(_, tag, _, _)| BlockAddr::new(tag))
            .collect();
        for block in rest {
            let h = self.home_port(block);
            self.send(
                MsgKind::ReplaceNotice,
                cache,
                h,
                self.cfg.sizing.request_bits(),
            );
            if let Some(o) = self.store.owner(block) {
                self.send(
                    MsgKind::FwdPresenceClear,
                    h,
                    o.port(),
                    self.cfg.sizing.request_bits(),
                );
                if let Some(oline) = self.caches[o.port()].peek_mut(block) {
                    oline.present.remove(cache);
                }
            }
            self.caches[cache].remove(block);
        }
        let fs = self.faults.as_mut().expect("fault path");
        fs.quarantined.insert(cache, (heal_op, op));
    }

    /// Models detection + repair of a flipped bit in a resident line:
    /// owned copies are corrected in place (ECC), unowned copies are
    /// conservatively refetched from the owner. State-identical afterward.
    fn repair_bit_flip(&mut self, cache: usize, pick: u64) {
        let mut blocks: Vec<BlockAddr> = self.caches[cache]
            .iter()
            .filter(|(_, l)| l.is_valid())
            .map(|(b, _)| b)
            .collect();
        if blocks.is_empty() {
            self.counters.incr("fault_bitflip_vacuous");
            return;
        }
        blocks.sort();
        let block = blocks[(pick % blocks.len() as u64) as usize];
        let owned = self.caches[cache].peek(block).is_some_and(|l| l.is_owned());
        if owned {
            self.counters.incr("fault_ecc_corrected");
        } else {
            let o = self
                .store
                .owner(block)
                .expect("a valid non-owned copy implies an owner")
                .port();
            self.send(
                MsgKind::DirectLoadReq,
                cache,
                o,
                self.cfg.sizing.request_bits(),
            );
            self.send(
                MsgKind::BlockReply,
                o,
                cache,
                self.cfg.sizing.block_transfer_bits(),
            );
            let data = self.caches[o].peek(block).expect("owner line").data.clone();
            self.caches[cache]
                .peek_mut(block)
                .expect("copy present")
                .data = data;
            self.counters.incr("fault_bitflip_refetch");
        }
    }

    /// Serves a read without touching protocol state: a single datum from
    /// the owner if one exists (quarantine case), else from memory.
    fn fault_uncached_read(&mut self, proc: usize, block: BlockAddr, offset: usize) -> u64 {
        match self.store.owner(block) {
            Some(o) => {
                let o = o.port();
                self.send(
                    MsgKind::DirectLoadReq,
                    proc,
                    o,
                    self.cfg.sizing.request_bits(),
                );
                self.send(MsgKind::DatumReply, o, proc, self.cfg.sizing.datum_bits());
                self.caches[o]
                    .peek(block)
                    .expect("owner line")
                    .data
                    .word(offset)
            }
            None => {
                let h = self.home_port(block);
                self.send(MsgKind::LoadReq, proc, h, self.cfg.sizing.request_bits());
                self.send(MsgKind::DatumReply, h, proc, self.cfg.sizing.datum_bits());
                self.memory.read_block(block)[offset]
            }
        }
    }

    /// Serves a write without caching: a posted write-through via the
    /// owner if one exists (the owner performs the write, keeping any
    /// distributed-write copies coherent), else straight to memory.
    fn fault_uncached_write(&mut self, proc: usize, block: BlockAddr, offset: usize, value: u64) {
        match self.store.owner(block) {
            Some(o) => {
                let o = o.port();
                self.send(MsgKind::UpdateWrite, proc, o, self.cfg.sizing.update_bits());
                self.write_through_owner(o, block, offset, value);
            }
            None => {
                let h = self.home_port(block);
                self.send(MsgKind::UpdateWrite, proc, h, self.cfg.sizing.update_bits());
                let mut data = self.memory.block_data(block);
                data.set_word(offset, value);
                self.memory.write_block(block, &data);
            }
        }
    }

    /// Applies one pending transient message fault to the unicast just
    /// sent: drops and duplicates bill the route a second time (the
    /// retransmission / extra delivery), delays advance simulated time.
    /// Protocol state is never touched.
    fn apply_msg_fault(
        &mut self,
        kind: MsgKind,
        from: usize,
        to: usize,
        payload_bits: u64,
        cost_bits: u64,
    ) {
        let Some(fault) = self
            .faults
            .as_mut()
            .and_then(|fs| fs.injector.take_msg_fault())
        else {
            return;
        };
        match fault {
            MsgFault::Drop | MsgFault::Duplicate => {
                let resent = self
                    .net
                    .charge_unicast(from, to, payload_bits, &mut self.traffic)
                    .expect("ports are valid by construction");
                debug_assert_eq!(resent, cost_bits);
                self.txn_bits += resent;
                self.counters.add("bits_total", resent);
                self.counters.add(kind.bits_counter(), resent);
                self.counters.incr(match fault {
                    MsgFault::Drop => "fault_msg_drops",
                    _ => "fault_msg_dups",
                });
            }
            MsgFault::Delay(_) => self.counters.incr("fault_msg_delays"),
        }
    }

    /// Bills point-to-point retransmissions for multicast destinations
    /// whose route crossed a currently-down link (they NACKed the cast).
    fn fault_mcast_retransmit(
        &mut self,
        kind: MsgKind,
        from: usize,
        delivered: &[usize],
        payload_bits: u64,
    ) {
        let (op, blocked) = {
            let fs = self.faults.as_ref().expect("caller checked");
            let blocked: Vec<usize> = delivered
                .iter()
                .copied()
                .filter(|&d| d != from)
                .filter(|&d| {
                    self.net
                        .first_down_link(from, d, |l| fs.injector.link_is_down(l))
                        .expect("ports are valid by construction")
                        .is_some()
                })
                .collect();
            (fs.op, blocked)
        };
        for d in blocked {
            self.counters.incr("fault_mcast_nacks");
            self.tracer.push(ProtocolEvent::RetryAttempt {
                op,
                proc: from,
                dest: d,
                attempt: 0,
                backoff_cycles: 0,
            });
            let cost_bits = self
                .net
                .charge_unicast(from, d, payload_bits, &mut self.traffic)
                .expect("ports are valid by construction");
            self.txn_bits += cost_bits;
            self.counters.add("bits_total", cost_bits);
            self.counters.add(kind.bits_counter(), cost_bits);
        }
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("n_caches", &self.cfg.n_caches)
            .field("owned_blocks", &self.store.owned_blocks())
            .field("traffic_bits", &self.traffic.total_bits())
            .finish()
    }
}
