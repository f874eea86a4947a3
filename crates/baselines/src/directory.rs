//! A Censier–Feautrier full-map write-invalidate directory — the
//! write-once-equivalent baseline.
//!
//! Globally a block oscillates between *shared* (copies in many caches,
//! memory current) and *exclusive* (one dirty copy, everyone else
//! invalidated), which is exactly the two-state Markov chain the paper uses
//! to model write-once (Figure 7 / eq. 10): each shared→exclusive
//! transition multicasts an invalidation to the sharers, each
//! exclusive→shared transition moves the block.
//!
//! The directory stores a full present-bit vector per block at the memory
//! module — the `O(N·M)` state cost the paper's distributed scheme avoids.

use std::collections::HashMap;

use tmc_memsys::{
    BlockAddr, BlockData, BlockSpec, CacheArray, CacheGeometry, MainMemory, ModuleMap, MsgSizing,
    WordAddr,
};
use tmc_obs::{ProtocolEvent, Tracer};
use tmc_omeganet::{DestSet, Omega, SchemeKind, TrafficMatrix};
use tmc_simcore::CounterSet;

use crate::CoherentSystem;

/// Per-line state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    /// Clean copy, memory current, others may share.
    Shared,
    /// The only copy, dirty.
    Exclusive,
}

#[derive(Debug, Clone)]
struct Line {
    state: LineState,
    data: BlockData,
}

#[derive(Debug, Clone, Default)]
struct DirEntry {
    sharers: Vec<usize>,
    dirty: bool,
}

/// The full-map write-invalidate system.
///
/// # Example
///
/// ```
/// use tmc_baselines::{CoherentSystem, DirectoryInvalidateSystem};
/// use tmc_memsys::WordAddr;
///
/// let mut sys = DirectoryInvalidateSystem::new(8);
/// sys.write(0, WordAddr::new(0), 5);
/// assert_eq!(sys.read(3, WordAddr::new(0)), 5);
/// sys.write(1, WordAddr::new(0), 6); // invalidates the other copies
/// assert_eq!(sys.read(3, WordAddr::new(0)), 6);
/// ```
pub struct DirectoryInvalidateSystem {
    net: Omega,
    traffic: TrafficMatrix,
    caches: Vec<CacheArray<Line>>,
    memory: MainMemory,
    directory: HashMap<BlockAddr, DirEntry>,
    modules: ModuleMap,
    sizing: MsgSizing,
    spec: BlockSpec,
    counters: CounterSet,
    tracer: Tracer,
    multicast: SchemeKind,
    n_procs: usize,
    /// Reused delivered-port buffer for the invalidation multicast.
    delivered: Vec<usize>,
}

impl DirectoryInvalidateSystem {
    /// Builds the baseline with default geometry (64×4 caches, 4-word
    /// blocks, combined multicast).
    ///
    /// # Panics
    ///
    /// Panics unless `n_procs` is a power of two in `2..=65536`.
    pub fn new(n_procs: usize) -> Self {
        Self::with_geometry(n_procs, CacheGeometry::new(64, 4))
    }

    /// Builds the baseline with an explicit cache geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `n_procs` is a power of two in `2..=65536`.
    pub fn with_geometry(n_procs: usize, geometry: CacheGeometry) -> Self {
        let net = Omega::with_ports(n_procs).expect("valid port count");
        assert_eq!(net.ports(), n_procs, "port count must be a power of two");
        let traffic = TrafficMatrix::new(&net);
        let spec = BlockSpec::new(2);
        DirectoryInvalidateSystem {
            caches: (0..n_procs).map(|_| CacheArray::new(geometry)).collect(),
            memory: MainMemory::new(spec),
            directory: HashMap::new(),
            modules: ModuleMap::new(n_procs),
            sizing: MsgSizing::default(),
            counters: CounterSet::new(),
            tracer: Tracer::new(),
            multicast: SchemeKind::Combined,
            n_procs,
            delivered: Vec::new(),
            spec,
            net,
            traffic,
        }
    }

    /// Selects the invalidation multicast scheme.
    pub fn multicast(mut self, scheme: SchemeKind) -> Self {
        self.multicast = scheme;
        self
    }

    fn send(&mut self, from: usize, to: usize, bits: u64) {
        let r = self
            .net
            .unicast(from, to, bits, &mut self.traffic)
            .expect("valid ports");
        self.counters.add("bits_total", r.cost_bits);
        self.counters.incr("msgs_total");
    }

    /// Multicasts to `dests`; the receiving ports are left in
    /// `self.delivered`.
    fn mcast(&mut self, from: usize, dests: &DestSet, bits: u64) {
        let (_, cost_bits) = self
            .net
            .multicast_into(
                self.multicast,
                from,
                dests,
                bits,
                &mut self.traffic,
                &mut self.delivered,
                None,
            )
            .expect("valid dests");
        self.counters.add("bits_total", cost_bits);
        self.counters.incr("msgs_total");
    }

    fn home(&self, block: BlockAddr) -> usize {
        self.modules.module_of(block)
    }

    /// Invalidates every sharer except `keep`; returns nothing. Sharer list
    /// in the directory is reduced to `keep` (if it was a sharer).
    fn invalidate_others(&mut self, block: BlockAddr, keep: usize) {
        let home = self.home(block);
        let entry = self.directory.entry(block).or_default();
        let others: Vec<usize> = entry
            .sharers
            .iter()
            .copied()
            .filter(|&c| c != keep)
            .collect();
        entry.sharers.retain(|&c| c == keep);
        if others.is_empty() {
            return;
        }
        self.counters.incr("invalidations_multicast");
        let dests = DestSet::from_ports(self.n_procs, others).expect("valid ports");
        self.mcast(home, &dests, self.sizing.invalidate_bits());
        for &d in &self.delivered {
            if d != keep {
                self.caches[d].remove(block);
            }
        }
    }

    /// If the block is dirty somewhere (other than `requester`), recalls it
    /// to memory. `drop_holder` also invalidates the holder's copy.
    fn recall_if_dirty(&mut self, block: BlockAddr, drop_holder: bool) {
        let home = self.home(block);
        let holder = {
            let entry = self.directory.entry(block).or_default();
            if !entry.dirty {
                return;
            }
            debug_assert_eq!(entry.sharers.len(), 1, "dirty implies one holder");
            entry.sharers[0]
        };
        self.counters.incr("dirty_recalls");
        self.send(home, holder, self.sizing.request_bits());
        let data = self.caches[holder]
            .peek(block)
            .expect("directory says holder has it")
            .data
            .clone();
        self.send(holder, home, self.sizing.block_transfer_bits());
        self.memory.write_block(block, &data);
        let entry = self.directory.get_mut(&block).expect("present");
        entry.dirty = false;
        if drop_holder {
            self.caches[holder].remove(block);
            entry.sharers.clear();
        } else if let Some(line) = self.caches[holder].peek_mut(block) {
            line.state = LineState::Shared;
        }
    }

    /// Installs a line, running replacement actions for the evicted victim.
    fn install(&mut self, proc: usize, block: BlockAddr, line: Line) {
        if let Some((victim, _)) = self.caches[proc].would_evict(block) {
            self.replace(proc, victim);
        }
        let evicted = self.caches[proc].insert(block, line);
        debug_assert!(evicted.is_none());
    }

    fn replace(&mut self, proc: usize, victim: BlockAddr) {
        self.counters.incr("replacements");
        let home = self.home(victim);
        let line = self.caches[proc]
            .peek(victim)
            .expect("victim exists")
            .clone();
        match line.state {
            LineState::Exclusive => {
                self.send(proc, home, self.sizing.block_transfer_bits());
                self.counters.incr("writebacks");
                self.memory.write_block(victim, &line.data);
                let entry = self.directory.entry(victim).or_default();
                entry.dirty = false;
                entry.sharers.clear();
            }
            LineState::Shared => {
                self.send(proc, home, self.sizing.request_bits());
                let entry = self.directory.entry(victim).or_default();
                entry.sharers.retain(|&c| c != proc);
            }
        }
        self.caches[proc].remove(victim);
    }
}

impl CoherentSystem for DirectoryInvalidateSystem {
    fn name(&self) -> &'static str {
        "directory-invalidate"
    }

    fn read(&mut self, proc: usize, addr: WordAddr) -> u64 {
        assert!(proc < self.n_procs, "processor out of range");
        let before = if self.tracer.is_enabled() {
            self.traffic.total_bits()
        } else {
            0
        };
        let block = self.spec.block_of(addr);
        let offset = self.spec.offset_of(addr);
        let hit = self.caches[proc].get(block).is_some();
        let value = if hit {
            self.counters.incr("read_hit");
            self.caches[proc]
                .peek(block)
                .expect("hit verified")
                .data
                .word(offset)
        } else {
            self.counters.incr("read_miss");
            let home = self.home(block);
            self.send(proc, home, self.sizing.request_bits());
            self.recall_if_dirty(block, false);
            let data = self.memory.block_data(block);
            self.send(home, proc, self.sizing.block_transfer_bits());
            let value = data.word(offset);
            self.install(
                proc,
                block,
                Line {
                    state: LineState::Shared,
                    data,
                },
            );
            let entry = self.directory.entry(block).or_default();
            if !entry.sharers.contains(&proc) {
                entry.sharers.push(proc);
            }
            value
        };
        if self.tracer.is_enabled() {
            let cost_bits = self.traffic.total_bits() - before;
            self.tracer.push(ProtocolEvent::Read {
                proc,
                addr,
                value,
                hit,
                cost_bits,
                latency: None,
                mode: None,
            });
        }
        value
    }

    fn write(&mut self, proc: usize, addr: WordAddr, value: u64) {
        assert!(proc < self.n_procs, "processor out of range");
        let before = if self.tracer.is_enabled() {
            self.traffic.total_bits()
        } else {
            0
        };
        let block = self.spec.block_of(addr);
        let offset = self.spec.offset_of(addr);
        let home = self.home(block);
        let state = self.caches[proc].get(block).map(|l| l.state);
        match state {
            Some(LineState::Exclusive) => {
                self.counters.incr("write_hit_exclusive");
            }
            Some(LineState::Shared) => {
                // Upgrade: invalidate the other sharers.
                self.counters.incr("write_upgrade");
                self.send(proc, home, self.sizing.request_bits());
                self.invalidate_others(block, proc);
                let entry = self.directory.entry(block).or_default();
                entry.dirty = true;
                if !entry.sharers.contains(&proc) {
                    entry.sharers.push(proc);
                }
                self.caches[proc].peek_mut(block).expect("shared hit").state = LineState::Exclusive;
            }
            None => {
                self.counters.incr("write_miss");
                self.send(proc, home, self.sizing.request_bits());
                self.recall_if_dirty(block, true);
                self.invalidate_others(block, usize::MAX);
                let data = self.memory.block_data(block);
                self.send(home, proc, self.sizing.block_transfer_bits());
                self.install(
                    proc,
                    block,
                    Line {
                        state: LineState::Exclusive,
                        data,
                    },
                );
                let entry = self.directory.entry(block).or_default();
                entry.sharers = vec![proc];
                entry.dirty = true;
            }
        }
        let line = self.caches[proc].peek_mut(block).expect("resident");
        line.data.set_word(offset, value);
        debug_assert_eq!(line.state, LineState::Exclusive);
        if self.tracer.is_enabled() {
            let cost_bits = self.traffic.total_bits() - before;
            self.tracer.push(ProtocolEvent::Write {
                proc,
                addr,
                value,
                hit: state.is_some(),
                cost_bits,
                latency: None,
                mode: None,
            });
        }
    }

    fn total_traffic_bits(&self) -> u64 {
        self.traffic.total_bits()
    }

    fn counters(&self) -> &CounterSet {
        &self.counters
    }

    fn flush(&mut self) {
        for proc in 0..self.n_procs {
            let dirty: Vec<BlockAddr> = self.caches[proc]
                .iter()
                .filter(|(_, l)| l.state == LineState::Exclusive)
                .map(|(b, _)| b)
                .collect();
            for block in dirty {
                let home = self.home(block);
                let data = self.caches[proc].peek(block).expect("listed").data.clone();
                self.send(proc, home, self.sizing.block_transfer_bits());
                self.counters.incr("writebacks");
                self.memory.write_block(block, &data);
                self.caches[proc].peek_mut(block).expect("listed").state = LineState::Shared;
                self.directory.entry(block).or_default().dirty = false;
            }
        }
    }

    fn peek_word(&self, addr: WordAddr) -> u64 {
        let block = self.spec.block_of(addr);
        let offset = self.spec.offset_of(addr);
        if let Some(entry) = self.directory.get(&block) {
            if entry.dirty {
                let holder = entry.sharers[0];
                if let Some(line) = self.caches[holder].peek(block) {
                    return line.data.word(offset);
                }
            }
        }
        self.memory.read_block(block)[offset]
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
    }

    fn tracing_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    fn drain_trace(&mut self) -> Vec<ProtocolEvent> {
        self.tracer.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_to_exclusive_invalidates() {
        let mut sys = DirectoryInvalidateSystem::new(4);
        sys.write(0, WordAddr::new(0), 1);
        assert_eq!(sys.read(1, WordAddr::new(0)), 1);
        assert_eq!(sys.read(2, WordAddr::new(0)), 1);
        let inv_before = sys.counters().get("invalidations_multicast");
        sys.write(0, WordAddr::new(0), 2);
        assert!(sys.counters().get("invalidations_multicast") > inv_before);
        // The invalidated sharers re-fetch and see the new value.
        assert_eq!(sys.read(1, WordAddr::new(0)), 2);
        assert_eq!(sys.read(2, WordAddr::new(0)), 2);
    }

    #[test]
    fn read_hits_are_free_when_shared() {
        let mut sys = DirectoryInvalidateSystem::new(4);
        sys.write(0, WordAddr::new(0), 1);
        sys.read(1, WordAddr::new(0));
        let t = sys.total_traffic_bits();
        sys.read(1, WordAddr::new(0));
        sys.read(1, WordAddr::new(1));
        assert_eq!(sys.total_traffic_bits(), t, "shared read hits are local");
    }

    #[test]
    fn dirty_recall_serves_latest_value() {
        let mut sys = DirectoryInvalidateSystem::new(4);
        sys.write(0, WordAddr::new(0), 7); // dirty at C0
        assert_eq!(sys.read(3, WordAddr::new(0)), 7, "recalled from C0");
        // Now shared; memory is current too.
        assert_eq!(sys.peek_word(WordAddr::new(0)), 7);
    }

    #[test]
    fn replacement_writes_back_dirty_lines() {
        let mut sys = DirectoryInvalidateSystem::with_geometry(4, CacheGeometry::new(1, 1));
        sys.write(0, WordAddr::new(0), 9);
        sys.write(0, WordAddr::new(4), 8); // evicts dirty block 0
        assert!(sys.counters().get("writebacks") >= 1);
        assert_eq!(sys.read(1, WordAddr::new(0)), 9);
    }

    #[test]
    fn oracle_random_run() {
        use tmc_simcore::SimRng;
        let mut sys = DirectoryInvalidateSystem::with_geometry(4, CacheGeometry::new(2, 1));
        let mut oracle = tmc_memsys::ReferenceMemory::new();
        let mut rng = SimRng::seed_from(5);
        for step in 0..2000 {
            let proc = rng.gen_range(0..4usize);
            let a = WordAddr::new(rng.gen_range(0..32u64));
            if rng.gen_bool(0.35) {
                let v = oracle.stamp();
                sys.write(proc, a, v);
                oracle.write(a, v);
            } else {
                assert_eq!(sys.read(proc, a), oracle.read(a), "step {step}");
            }
        }
        sys.flush();
        for (a, v) in oracle.iter() {
            assert_eq!(sys.peek_word(a), v);
        }
    }
}
