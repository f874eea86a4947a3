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

use tmc_memsys::{
    BlockAddr, BlockData, BlockSpec, CacheArray, CacheGeometry, MainMemory, ModuleMap, MsgSizing,
    WordAddr,
};
use tmc_obs::{ProtocolEvent, Tracer};
use tmc_omeganet::{SchemeKind, TrafficMatrix};
use tmc_simcore::CounterSet;

use crate::billing::Billing;
use crate::sharers::SharerTable;
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
    bill: Billing,
    caches: Vec<CacheArray<Line>>,
    memory: MainMemory,
    /// Sharers per block; the writer is the dirty exclusive holder.
    directory: SharerTable,
    modules: ModuleMap,
    sizing: MsgSizing,
    spec: BlockSpec,
    counters: CounterSet,
    tracer: Tracer,
    n_procs: usize,
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
        let spec = BlockSpec::new(2);
        DirectoryInvalidateSystem {
            bill: Billing::new(n_procs),
            caches: (0..n_procs).map(|_| CacheArray::new(geometry)).collect(),
            memory: MainMemory::new(spec),
            directory: SharerTable::new(n_procs),
            modules: ModuleMap::new(n_procs),
            sizing: MsgSizing::default(),
            counters: CounterSet::new(),
            tracer: Tracer::new(),
            n_procs,
            spec,
        }
    }

    /// Selects the invalidation multicast scheme.
    pub fn multicast(mut self, scheme: SchemeKind) -> Self {
        self.bill.set_scheme(scheme);
        self
    }

    fn send(&mut self, from: usize, to: usize, bits: u64) {
        self.bill.unicast(&mut self.counters, from, to, bits);
    }

    fn home(&self, block: BlockAddr) -> usize {
        self.modules.module_of(block)
    }

    /// Invalidates every sharer except `keep`, leaving `keep` (if it was a
    /// sharer) the only one in the directory.
    fn invalidate_others(&mut self, block: BlockAddr, keep: usize) {
        let home = self.home(block);
        let entry = self.directory.entry(block);
        let Some((others, delivered)) = self.bill.cast_to_others(
            &mut self.counters,
            home,
            &entry.sharers,
            keep,
            self.sizing.invalidate_bits(),
        ) else {
            return;
        };
        entry.sharers.difference_with(others);
        self.counters.incr("invalidations_multicast");
        for &d in delivered {
            if d != keep {
                self.caches[d].remove(block);
            }
        }
    }

    /// If the block is dirty somewhere, recalls it to memory. `drop_holder`
    /// also invalidates the holder's copy.
    fn recall_if_dirty(&mut self, block: BlockAddr, drop_holder: bool) {
        let Some(holder) = self.directory.get(block).writer else {
            return;
        };
        let home = self.home(block);
        self.counters.incr("dirty_recalls");
        self.send(home, holder, self.sizing.request_bits());
        let cache = &mut self.caches[holder];
        let data = if drop_holder {
            cache.remove(block).map(|line| line.data)
        } else {
            cache.peek_mut(block).map(|line| {
                line.state = LineState::Shared;
                line.data.clone()
            })
        }
        .expect("directory says holder has it");
        self.send(holder, home, self.sizing.block_transfer_bits());
        self.memory.write_block(block, &data);
        let entry = self.directory.entry(block);
        entry.writer = None;
        if drop_holder {
            entry.sharers.remove(holder);
            debug_assert!(entry.sharers.is_empty(), "dirty implies one holder");
        }
    }

    /// Installs a line, running replacement actions for the evicted victim.
    fn install(&mut self, proc: usize, block: BlockAddr, line: Line) {
        if let Some((victim, line)) = self.caches[proc].insert(block, line) {
            self.replace(proc, victim, line);
        }
    }

    fn replace(&mut self, proc: usize, victim: BlockAddr, line: Line) {
        self.counters.incr("replacements");
        let home = self.home(victim);
        match line.state {
            LineState::Exclusive => {
                self.send(proc, home, self.sizing.block_transfer_bits());
                self.counters.incr("writebacks");
                self.memory.write_block(victim, &line.data);
                self.directory.entry(victim).writer = None;
            }
            LineState::Shared => self.send(proc, home, self.sizing.request_bits()),
        }
        self.directory.entry(victim).sharers.remove(proc);
    }
}

impl CoherentSystem for DirectoryInvalidateSystem {
    fn name(&self) -> &'static str {
        "directory-invalidate"
    }

    fn read(&mut self, proc: usize, addr: WordAddr) -> u64 {
        assert!(proc < self.n_procs, "processor out of range");
        let before = self.bill.bits();
        let block = self.spec.block_of(addr);
        let offset = self.spec.offset_of(addr);
        let cached = self.caches[proc]
            .get(block)
            .map(|line| line.data.word(offset));
        let hit = cached.is_some();
        let value = if let Some(value) = cached {
            self.counters.incr("read_hit");
            value
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
            self.directory.entry(block).sharers.insert(proc);
            value
        };
        if self.tracer.is_enabled() {
            self.tracer.push(ProtocolEvent::Read {
                proc,
                addr,
                value,
                hit,
                cost_bits: self.bill.bits() - before,
                latency: None,
                mode: None,
            });
        }
        value
    }

    fn write(&mut self, proc: usize, addr: WordAddr, value: u64) {
        assert!(proc < self.n_procs, "processor out of range");
        let before = self.bill.bits();
        let block = self.spec.block_of(addr);
        let offset = self.spec.offset_of(addr);
        let home = self.home(block);
        // The one tag probe: a resident line takes the word and becomes
        // exclusive at once. Nothing below reads this cache's copy back —
        // the invalidation spares `proc` and the miss path installs anew.
        let state = self.caches[proc].get_mut(block).map(|line| {
            let state = line.state;
            line.state = LineState::Exclusive;
            line.data.set_word(offset, value);
            state
        });
        match state {
            Some(LineState::Exclusive) => {
                self.counters.incr("write_hit_exclusive");
            }
            Some(LineState::Shared) => {
                // Upgrade: invalidate the other sharers.
                self.counters.incr("write_upgrade");
                self.send(proc, home, self.sizing.request_bits());
                self.invalidate_others(block, proc);
                let entry = self.directory.entry(block);
                entry.writer = Some(proc);
                entry.sharers.insert(proc);
            }
            None => {
                self.counters.incr("write_miss");
                self.send(proc, home, self.sizing.request_bits());
                self.recall_if_dirty(block, true);
                self.invalidate_others(block, usize::MAX);
                let mut data = self.memory.block_data(block);
                self.send(home, proc, self.sizing.block_transfer_bits());
                data.set_word(offset, value);
                self.install(
                    proc,
                    block,
                    Line {
                        state: LineState::Exclusive,
                        data,
                    },
                );
                let entry = self.directory.entry(block);
                debug_assert!(entry.sharers.is_empty(), "every copy was dropped");
                entry.sharers.insert(proc);
                entry.writer = Some(proc);
            }
        }
        if self.tracer.is_enabled() {
            self.tracer.push(ProtocolEvent::Write {
                proc,
                addr,
                value,
                hit: state.is_some(),
                cost_bits: self.bill.bits() - before,
                latency: None,
                mode: None,
            });
        }
    }

    fn total_traffic_bits(&self) -> u64 {
        self.bill.bits()
    }

    fn traffic(&self) -> &TrafficMatrix {
        self.bill.traffic()
    }

    fn counters(&self) -> &CounterSet {
        &self.counters
    }

    fn flush(&mut self) {
        let dirty: Vec<(BlockAddr, usize)> = self.directory.writers().collect();
        for (block, holder) in dirty {
            let home = self.home(block);
            let line = self.caches[holder]
                .peek_mut(block)
                .expect("writer holds it");
            line.state = LineState::Shared;
            let data = line.data.clone();
            self.send(holder, home, self.sizing.block_transfer_bits());
            self.counters.incr("writebacks");
            self.memory.write_block(block, &data);
            self.directory.entry(block).writer = None;
        }
    }

    fn peek_word(&self, addr: WordAddr) -> u64 {
        let block = self.spec.block_of(addr);
        let offset = self.spec.offset_of(addr);
        if let Some(holder) = self.directory.get(block).writer {
            if let Some(line) = self.caches[holder].peek(block) {
                return line.data.word(offset);
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
