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
//! A baseline machine ([`System::baseline`]) runs its own tables on the
//! same machine, with a home directory (`home.rs`) in place of the line
//! states and block store the two-mode tables use.

use std::collections::BTreeMap;

use tmc_faults::{FaultInjector, FaultKind, FaultPlan, MsgFault, ScheduledFault};
use tmc_memsys::{
    BlockAddr, BlockStore, CacheArray, CacheId, LineRef, MainMemory, ModuleMap, WordAddr,
};
use tmc_obs::{FaultLabel, LinkCharge, ProtocolEvent, Tracer};
use tmc_omeganet::{CastCache, CastStats, DestSet, LinkId, Omega, TrafficMatrix};
use tmc_simcore::CounterSet;

use crate::config::{check_lines, ModePolicy, SystemConfig};
use crate::error::CoreError;
use crate::home::{Baseline, Home};
use crate::ir::{
    Facts, LookupClass, BITFLIP_RULES, FLUSH_RULES, HOME_FLUSH_RULES, REPLACE_RULES, SCRUB_RULES,
    UNCACHED_READ_RULES, UNCACHED_SET_MODE_RULES, UNCACHED_WRITE_RULES,
};
use crate::msg::MsgKind;
use crate::state::{CacheLine, Mode, OwnerState, OwnerTable, StateName, Validity};

#[path = "ir_exec.rs"]
mod ir_exec;
pub(crate) use ir_exec::Txn;

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
    /// The owner state of every owned block, named by its owner's line
    /// (`state.rs`): one table for the machine, an entry per owned block.
    pub(crate) owners: OwnerTable,
    pub(crate) memory: MainMemory,
    pub(crate) store: BlockStore,
    pub(crate) modules: ModuleMap,
    pub(crate) counters: CounterSet,
    /// Bits the current transaction has billed so far.
    txn_bits: u64,
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
    /// A baseline machine's home directory; `None` on a two-mode machine,
    /// which never allocates one.
    pub(crate) home: Option<Box<Home>>,
}

impl System {
    /// Builds a machine from `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] if the network cannot be built for
    /// the requested cache count, or if a cache would hold more than
    /// [`CacheGeometry::MAX_BLOCKS`](tmc_memsys::CacheGeometry::MAX_BLOCKS)
    /// lines.
    pub fn new(cfg: SystemConfig) -> Result<Self, CoreError> {
        check_lines(cfg.geometry).map_err(CoreError::BadConfig)?;
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
            owners: OwnerTable::default(),
            memory: MainMemory::new(cfg.spec),
            store: BlockStore::new(),
            modules: ModuleMap::new(cfg.n_caches),
            counters: CounterSet::new(),
            txn_bits: 0,
            nak_budget: 0,
            faults,
            cast_cache: CastCache::new(),
            tracer: Tracer::new(),
            cast_delivered: Vec::new(),
            cast_charges: Vec::new(),
            home: None,
            net,
            traffic,
            cfg,
        })
    }

    /// Builds a machine from `cfg` that runs `protocol`, one of the
    /// paper's §4 comparison protocols, instead of the two-mode protocol.
    /// It bills every message as a two-mode machine does but tallies no
    /// per-kind counters, traces only its reads and writes (with no mode),
    /// ignores mode directives and is not checkpointed.
    ///
    /// # Errors
    ///
    /// As [`System::new`], and [`CoreError::BadConfig`] if `cfg` injects
    /// faults: a baseline machine is fault-free.
    pub fn baseline(cfg: SystemConfig, protocol: Baseline) -> Result<Self, CoreError> {
        if cfg.faults.is_some() {
            return Err(CoreError::BadConfig(
                "a baseline machine is fault-free".into(),
            ));
        }
        let mut sys = System::new(cfg)?;
        sys.home = Some(Box::new(Home::new(protocol, sys.cfg.n_caches)));
        Ok(sys)
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

    /// Takes every recorded protocol event, leaving the buffer empty (the
    /// enabled state is unchanged).
    pub fn drain_trace(&mut self) -> Vec<ProtocolEvent> {
        self.tracer.drain()
    }

    /// Table 1 classification of `proc`'s entry for `block`, or `None` if
    /// the cache has no entry.
    pub fn state_name(&self, proc: usize, block: BlockAddr) -> Option<StateName> {
        let line = self.caches[proc].peek(block)?;
        Some(line.state_name(CacheId(proc as u16), self.owner_state(line)))
    }

    /// The owner state `line`'s handle names, if the line is owned.
    #[inline]
    pub(crate) fn owner_state(&self, line: &CacheLine) -> Option<&OwnerState> {
        line.is_owned().then(|| &self.owners[line.entry])
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
        Some(&self.owner_state(line)?.present)
    }

    /// Live entries of the owner table: one per owned block, holding its
    /// present vector and §5 window counters. §5's associative
    /// present-vector store at its real occupancy.
    pub fn owner_entries(&self) -> usize {
        self.owners.live()
    }

    /// The consistency mode at `block`'s owner, if owned.
    pub fn mode_of(&self, block: BlockAddr) -> Option<Mode> {
        let o = self.store.owner(block)?;
        self.caches[o.port()].peek(block).map(|l| l.mode)
    }

    /// Reads `addr`'s current value without generating any traffic — the
    /// test oracle's view (owner copy if owned, else memory; on a baseline
    /// machine, the writer's copy if the block has one).
    pub fn peek_word(&self, addr: WordAddr) -> u64 {
        let block = self.cfg.spec.block_of(addr);
        let offset = self.cfg.spec.offset_of(addr);
        let newest = match &self.home {
            None => self.store.owner(block).map(CacheId::port),
            Some(home) => home.table.get(block).writer,
        };
        if let Some(line) = newest.and_then(|c| self.caches[c].peek(block)) {
            return line.data.word(offset);
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

    /// True when no block is degraded and no cache quarantined: every
    /// degradation so far has healed. Vacuously true for a fault-free
    /// machine.
    pub fn faults_healed(&self) -> bool {
        self.faults
            .as_ref()
            .is_none_or(|f| f.degraded.is_empty() && f.quarantined.is_empty())
    }

    /// True when no outage, stall, degradation, quarantine or pending
    /// message fault is active — every fault injected so far has been fully
    /// recovered from. Vacuously true for a fault-free machine. The script
    /// runner checks invariants at each op that turns a machine quiescent.
    pub fn faults_quiescent(&self) -> bool {
        self.faults.as_ref().is_none_or(|f| f.injector.is_idle()) && self.faults_healed()
    }

    /// A canonical encoding of the machine's *protocol* state: per-cache
    /// line states (validity, mode, modified bit, the owner's present
    /// vector, OWNER hint) plus the block store, and on a baseline machine its home
    /// directory (sharers and writer per block). Data values, traffic
    /// tallies, clocks and counters are deliberately excluded — the
    /// protocol's control behavior does not depend on them, so two machines
    /// with equal fingerprints are protocol-equivalent. Used by the bounded model checker to detect
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
                for p in self.owner_state(line).iter().flat_map(|o| o.present.iter()) {
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
        if let Some(home) = &self.home {
            for (block, entry) in home.table.iter() {
                out.extend_from_slice(&block.index().to_le_bytes());
                for p in entry.sharers.iter() {
                    out.extend_from_slice(&(p as u16).to_le_bytes());
                }
                out.push(0xFF);
                let writer = entry.writer.map_or(u16::MAX, |w| w as u16);
                out.extend_from_slice(&writer.to_le_bytes());
            }
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
        self.tally(cost_bits);
        self.counters.add(kind.bits_counter(), cost_bits);
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
        self.tally(cost_bits);
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

    /// Counts one message of `cost_bits` in the totals.
    #[inline]
    fn tally(&mut self, cost_bits: u64) {
        self.counters.incr("msgs_total");
        self.counters.add("bits_total", cost_bits);
        self.txn_bits += cost_bits;
    }

    /// A baseline machine's unicast: billed like [`System::send`], without
    /// a per-kind counter.
    fn bill(&mut self, from: usize, to: usize, payload_bits: u64) {
        let cost_bits = self
            .net
            .charge_unicast(from, to, payload_bits, &mut self.traffic)
            .expect("ports are valid by construction");
        self.tally(cost_bits);
    }

    /// A baseline machine's cast from `from` to its home's cast set
    /// (nonempty), counted under `counter`: billed like [`System::mcast`],
    /// without a trace event or a per-kind counter. Hand the returned
    /// buffer back with [`System::recycle_delivered`].
    fn home_cast(&mut self, from: usize, payload_bits: u64, counter: &'static str) -> Vec<usize> {
        let mut delivered = std::mem::take(&mut self.cast_delivered);
        let dests = &self.home.as_deref().expect("a baseline machine").dests;
        let (_, cost_bits) = self
            .cast_cache
            .multicast_into(
                &self.net,
                self.cfg.multicast,
                from,
                dests,
                payload_bits,
                &mut self.traffic,
                &mut delivered,
                None,
            )
            .expect("dest sets are valid by construction");
        self.tally(cost_bits);
        self.counters.incr(counter);
        delivered
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

    /// The requester's tag probe: the class of `proc`'s entry for
    /// `block` — the entry group of the access tables — and a handle on
    /// it. With `used`, a hit refreshes the line's recency.
    #[inline]
    fn lookup(
        &mut self,
        proc: usize,
        block: BlockAddr,
        used: bool,
    ) -> (LookupClass, Option<LineRef>) {
        let cache = &mut self.caches[proc];
        let here = cache.find(block);
        let lookup = match here.map(|at| cache.line(at).validity) {
            None => LookupClass::Missing,
            Some(Validity::Invalid) => LookupClass::InvalidEntry,
            Some(Validity::UnOwned) => LookupClass::UnOwnedHit,
            Some(Validity::Owned) => LookupClass::OwnedHit,
        };
        if let Some(at) = here.filter(|_| used && lookup != LookupClass::InvalidEntry) {
            cache.touch(at);
        }
        (lookup, here)
    }

    // ------------------------------------------------------------------
    // Public transactions.
    // ------------------------------------------------------------------

    /// Processor `proc` reads `addr`. Returns the value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadProcessor`] for an out-of-range processor
    /// and [`CoreError::BadAddress`] for an address beyond the machine.
    pub fn read(&mut self, proc: usize, addr: WordAddr) -> Result<u64, CoreError> {
        self.check_proc(proc)?;
        let block = self.cfg.block_of(addr)?;
        let offset = self.cfg.spec.offset_of(addr);
        self.txn_bits = 0;
        let (value, hit, mode) = if self.faults.is_some() && self.fault_preflight(proc, block) {
            let value = self.uncached(UNCACHED_READ_RULES, proc, block, offset, 0);
            (value, false, None)
        } else {
            // One tag probe: a valid line is used (its recency refreshed)
            // and yields the word; anything else is classified without a
            // trace.
            let found = self.lookup(proc, block, true);
            let hit = matches!(found.0, LookupClass::OwnedHit | LookupClass::UnOwnedHit);
            let here = found.1.filter(|_| hit);
            let hit_word = here.map_or(0, |at| self.caches[proc].line(at).data.word(offset));
            let (value, mode) = if self.home.is_none() {
                self.rule_read(proc, block, offset, found, hit_word)
            } else {
                (self.home_read(proc, block, offset, found, hit_word), None)
            };
            (value, hit, mode)
        };
        if self.tracer.is_enabled() {
            self.tracer.push(ProtocolEvent::Read {
                proc,
                addr,
                value,
                hit,
                cost_bits: self.txn_bits,
                mode,
            });
        }
        Ok(value)
    }

    /// Processor `proc` writes `value` to `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadProcessor`] for an out-of-range processor
    /// and [`CoreError::BadAddress`] for an address beyond the machine.
    pub fn write(&mut self, proc: usize, addr: WordAddr, value: u64) -> Result<(), CoreError> {
        self.check_proc(proc)?;
        let block = self.cfg.block_of(addr)?;
        let offset = self.cfg.spec.offset_of(addr);
        self.txn_bits = 0;
        // A two-mode write hit leaves recency alone; a baseline's refreshes
        // it (docs/PROTOCOL.md, "Replacement").
        let (lookup, mode) = if self.faults.is_some() && self.fault_preflight(proc, block) {
            self.uncached(UNCACHED_WRITE_RULES, proc, block, offset, value);
            (None, None)
        } else if self.home.is_none() {
            let found = self.lookup(proc, block, false);
            (
                Some(found.0),
                self.rule_write(proc, block, offset, value, found),
            )
        } else {
            (Some(self.home_write(proc, block, offset, value)), None)
        };
        let hit = matches!(
            lookup,
            Some(LookupClass::OwnedHit | LookupClass::UnOwnedHit)
        );
        if self.tracer.is_enabled() {
            self.tracer.push(ProtocolEvent::Write {
                proc,
                addr,
                value,
                hit,
                cost_bits: self.txn_bits,
                mode,
            });
        }
        Ok(())
    }

    /// Software mode directive (operations 6 and 7 of §2.2): make `proc`
    /// the owner of `addr`'s block if it is not already, then put the block
    /// in `mode`. A DW→GR switch invalidates all other copies; a GR→DW
    /// switch clears the present vector to the owner alone (invalid-entry
    /// holders re-register on their next miss — see DESIGN.md). A baseline
    /// machine has no modes and drops the directive.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadProcessor`] for an out-of-range processor
    /// and [`CoreError::BadAddress`] for an address beyond the machine.
    pub fn set_mode(&mut self, proc: usize, addr: WordAddr, mode: Mode) -> Result<(), CoreError> {
        self.check_proc(proc)?;
        let block = self.cfg.block_of(addr)?;
        if self.home.is_some() {
            return Ok(());
        }
        self.txn_bits = 0;
        if self.faults.is_some() && self.fault_preflight(proc, block) {
            self.uncached(UNCACHED_SET_MODE_RULES, proc, block, 0, 0);
        } else {
            self.tracer.push(ProtocolEvent::SetMode {
                proc,
                addr,
                mode: mode.into(),
            });
            let found = self.lookup(proc, block, false);
            self.rule_set_mode(proc, block, mode, found);
        }
        Ok(())
    }

    /// Writes back every modified owned copy (end-of-run sync), billing the
    /// write-back messages — on a baseline machine, every copy its home
    /// names as newer than memory. States are unchanged apart from the M
    /// bits and the home's writers.
    pub fn flush(&mut self) {
        // Each line through [`FLUSH_RULES`], cache by cache in slot order (so
        // a decoded machine flushes alike); on a baseline through
        // [`HOME_FLUSH_RULES`], in ascending block order.
        let dirty: Vec<(usize, BlockAddr)> = match &self.home {
            None => (0..self.cfg.n_caches)
                .flat_map(|proc| {
                    self.caches[proc]
                        .slots()
                        .filter(|(_, _, _, l)| l.is_owned() && l.modified)
                        .map(move |(_, tag, _, _)| (proc, BlockAddr::new(tag)))
                })
                .collect(),
            Some(home) => home
                .table
                .iter()
                .filter_map(|(block, entry)| Some((entry.writer?, block)))
                .collect(),
        };
        let rules = self.home.as_ref().map_or(FLUSH_RULES, |_| HOME_FLUSH_RULES);
        for (proc, block) in dirty {
            let at = self.caches[proc]
                .find(block)
                .expect("a dirty copy is resident");
            self.fire_on_line(rules, proc, at, Facts::NONE);
        }
    }

    // ------------------------------------------------------------------
    // Installing a line (replacement is §2.2 case 5, `ir_exec.rs`).
    // ------------------------------------------------------------------

    /// Installs `line` for `t`'s block at `t`'s cache, first running the
    /// replacement actions for the line it displaces (the home's, on a
    /// baseline machine), and points `t.here` at it. One scan of the set
    /// finds the way; the replacement only frees it.
    fn install_line(&mut self, t: &mut Txn, line: CacheLine) {
        let room = self.caches[t.proc].room(t.block);
        if let Some(victim) = room.victim() {
            match self.home {
                None => self.replace(t.proc, victim),
                Some(_) => self.home_replace(t.proc, victim),
            }
        }
        t.here = Some(self.caches[t.proc].fill(room, t.block, line));
    }

    // ------------------------------------------------------------------
    // The adaptive policy (§5).
    // ------------------------------------------------------------------

    /// The owner of `t`'s block and its line, reached through the handle
    /// `t` holds on that line and probed for only when `t` holds none.
    fn owner_line(&self, t: &Txn) -> Option<(usize, LineRef)> {
        let owner = self.store.owner(t.block)?.port();
        let at = t
            .line_at(owner)
            .or_else(|| self.caches[owner].find(t.block))?;
        Some((owner, at))
    }

    /// Feeds the §5 measurement counters at the owner of `t`'s block and
    /// runs the adaptive switch at window boundaries.
    fn note_block_ref(&mut self, t: &Txn, is_write: bool) {
        let ModePolicy::Adaptive { window } = self.cfg.mode_policy else {
            return;
        };
        let Some((owner, at)) = self.owner_line(t) else {
            return;
        };
        let decision = {
            let line = self.caches[owner].line(at);
            let state = &mut self.owners[line.entry];
            state.window_refs += 1;
            if is_write {
                state.window_writes += 1;
            }
            if state.window_refs < window {
                return;
            }
            let n_sharers = state.present.len().max(1) as f64;
            let w_est = state.window_writes as f64 / state.window_refs as f64;
            let w1 = 2.0 / (n_sharers + 2.0);
            let desired = if w_est <= w1 {
                Mode::DistributedWrite
            } else {
                Mode::GlobalRead
            };
            state.reset_window();
            (desired != line.mode).then_some(desired)
        };
        if let Some(target) = decision {
            self.counters.incr("adaptive_switches");
            self.switch_mode_at_owner(owner, (t.block, at), target, /* adaptive */ true);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery (tmc-faults; see docs/ROBUSTNESS.md).
    //
    // Faults are applied as *pre-flight admission control* plus
    // charge-only perturbations: a transaction either runs the unmodified
    // protocol, or is served uncached without touching protocol state.
    // This code decides *when* a recovery runs; what it does is a table of
    // `crate::ir`. Recovery actions (scrub, quarantine) always leave the
    // machine in a state where `check_invariants` holds by construction.
    // ------------------------------------------------------------------

    /// Ticks the fault clock, fires due faults, heals expired
    /// degradations, and decides whether this transaction is served
    /// uncached: the block is degraded or the cache quarantined. Only
    /// called when `self.faults` is `Some`.
    fn fault_preflight(&mut self, proc: usize, block: BlockAddr) -> bool {
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
            return true;
        }
        fs.injector.any_link_down() && self.fault_route_or_degrade(op, proc, block)
    }

    /// Activates one scheduled fault: counts it, traces it, and runs any
    /// immediate recovery action (quarantine, bit-flip repair, NAK budget).
    fn apply_fired_fault(&mut self, op: u64, f: ScheduledFault) {
        self.counters.incr("faults_injected");
        let (label, link, cache, heal_op) = match f.kind {
            FaultKind::LinkDown { link, heal_at } => {
                (FaultLabel::LinkDown, Some(link), None, Some(heal_at))
            }
            FaultKind::CacheStall { cache, heal_at } => {
                (FaultLabel::CacheStall, None, Some(cache), Some(heal_at))
            }
            FaultKind::MsgDrop => (FaultLabel::MsgDrop, None, None, None),
            FaultKind::MsgDup => (FaultLabel::MsgDup, None, None, None),
            FaultKind::MsgDelay { .. } => (FaultLabel::MsgDelay, None, None, None),
            FaultKind::BitFlip { cache, .. } => (FaultLabel::BitFlip, None, Some(cache), None),
            FaultKind::HandoffNak { .. } => (FaultLabel::HandoffNak, None, None, None),
        };
        self.tracer.push(ProtocolEvent::FaultInjected {
            label,
            op,
            layer: link.map(|l| l.layer),
            line: link.map(|l| l.line),
            cache,
            heal_op,
        });
        match f.kind {
            FaultKind::CacheStall { cache, heal_at } => {
                let fs = self.faults.as_ref().expect("fault path");
                if heal_at > op && !fs.quarantined.contains_key(&cache) {
                    self.quarantine_cache(op, cache, heal_at);
                }
            }
            FaultKind::BitFlip { cache, pick } => self.repair_bit_flip(cache, pick),
            FaultKind::HandoffNak { count } => self.nak_budget += count,
            _ => {}
        }
    }

    /// Lifts degradations and quarantines whose heal op has passed:
    /// blocks in ascending order, then caches.
    fn fault_heal(&mut self, op: u64) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        let mut healed = Vec::new();
        let mut due = |block, cache, (heal, since): (u64, u64)| {
            let due = heal <= op;
            if due {
                healed.push((block, cache, op - since));
            }
            !due
        };
        fs.degraded.retain(|&b, &mut when| due(Some(b), None, when));
        fs.quarantined
            .retain(|&c, &mut when| due(None, Some(c), when));
        for (block, cache, after_ops) in healed {
            self.counters.incr("fault_recoveries");
            self.tracer.push(ProtocolEvent::Recovered {
                op,
                block,
                cache,
                after_ops,
            });
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
    /// path; on exhaustion the block is degraded to memory-direct service
    /// and `true` returned.
    ///
    /// Outages heal at op granularity, so the backoff is mapped onto the
    /// op clock at one op per `backoff_base` cycles: attempt `k` lets
    /// `2^k` ops worth of healing elapse. A probe that finds every path
    /// clear within that slack proceeds normally; the probe itself is
    /// billed up to (not across) the dead link.
    fn fault_route_or_degrade(&mut self, op: u64, proc: usize, block: BlockAddr) -> bool {
        let Some((src, dst, link)) = self.fault_first_blocked(proc, block, 0) else {
            return false;
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
                return false;
            }
        }
        let heal = self.fault_blocked_heal_max(proc, block).max(op + 1);
        self.degrade_block(op, block, heal);
        true
    }

    /// Scrubs `block` from the whole machine: the owner's line sends the
    /// block home ([`SCRUB_RULES`]), then every entry (copies and invalid
    /// hints) is dropped, each but the owner's through [`REPLACE_RULES`].
    /// Afterwards the block is resident nowhere, so every invariant holds
    /// for it trivially.
    fn scrub_block(&mut self, block: BlockAddr) {
        let owner = self.store.owner(block).map(CacheId::port);
        if let Some(o) = owner {
            let at = self.caches[o].find(block).expect("owner line");
            self.fire_on_line(SCRUB_RULES, o, at, Facts::UNCACHED);
        }
        for c in 0..self.cfg.n_caches {
            let Some(at) = self.caches[c].find(block) else {
                continue;
            };
            if Some(c) != owner {
                self.fire_on_line(REPLACE_RULES, c, at, Facts::NONE);
            }
            self.caches[c].take(at);
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
            let at = self.caches[cache].find(block).expect("listed above");
            self.fire_on_line(REPLACE_RULES, cache, at, Facts::NONE);
            self.caches[cache].take(at);
        }
        let fs = self.faults.as_mut().expect("fault path");
        fs.quarantined.insert(cache, (heal_op, op));
    }

    /// Models detection + repair of a flipped bit in a resident line
    /// through [`BITFLIP_RULES`]: owned copies are corrected in place
    /// (ECC), unowned copies are conservatively refetched from the owner.
    /// State-identical afterward.
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
        let at = self.caches[cache].find(block).expect("listed above");
        self.fire_on_line(BITFLIP_RULES, cache, at, Facts::NONE);
    }

    /// Applies one pending transient message fault to the unicast just
    /// sent: drops and duplicates bill the route a second time (the
    /// retransmission / extra delivery), and a delay is only counted (the
    /// machine keeps no simulated time). Protocol state is never touched.
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
            .field("baseline", &self.home.as_ref().map(|home| home.protocol))
            .field("owned_blocks", &self.store.owned_blocks())
            .field("traffic_bits", &self.traffic.total_bits())
            .finish()
    }
}
