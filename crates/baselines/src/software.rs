//! The §1 software approach: blocks are tagged cacheable or noncacheable
//! by software; there is no coherence hardware at all.
//!
//! "In the software approach, memory blocks are tagged as cacheable or
//! noncacheable depending on the access pattern to shared data. … They all
//! suffer from high cache miss ratio for shared read-write data structures
//! … Another disadvantage is that the cache system as viewed by the
//! software is not coherent; the user (or compiler) is responsible for
//! tagging data."
//!
//! Accordingly: noncacheable blocks behave like [`crate::NoCacheSystem`];
//! cacheable blocks are cached privately with **no consistency actions
//! whatsoever** — if software mis-tags a shared read–write block as
//! cacheable, the system silently returns stale data, exactly the hazard
//! the paper criticizes (and a test demonstrates).

use std::collections::HashSet;

use tmc_memsys::{
    BlockAddr, BlockData, BlockSpec, CacheArray, CacheGeometry, MainMemory, ModuleMap, MsgSizing,
    WordAddr,
};
use tmc_obs::{ProtocolEvent, Tracer};
use tmc_omeganet::TrafficMatrix;
use tmc_simcore::CounterSet;

use crate::billing::Billing;
use crate::CoherentSystem;

#[derive(Debug, Clone)]
struct Line {
    data: BlockData,
    dirty: bool,
}

/// The software-tagged system.
///
/// # Example
///
/// ```
/// use tmc_baselines::{CoherentSystem, SoftwareMarkedSystem};
/// use tmc_memsys::{BlockAddr, WordAddr};
///
/// let mut sys = SoftwareMarkedSystem::new(4);
/// sys.mark_noncacheable(BlockAddr::new(0)); // shared read-write block
/// sys.write(0, WordAddr::new(0), 1);
/// assert_eq!(sys.read(3, WordAddr::new(0)), 1); // served by memory
/// ```
pub struct SoftwareMarkedSystem {
    bill: Billing,
    caches: Vec<CacheArray<Line>>,
    memory: MainMemory,
    noncacheable: HashSet<BlockAddr>,
    modules: ModuleMap,
    sizing: MsgSizing,
    spec: BlockSpec,
    counters: CounterSet,
    tracer: Tracer,
    n_procs: usize,
}

impl SoftwareMarkedSystem {
    /// Builds the system with everything cacheable by default; mark shared
    /// read–write blocks with [`SoftwareMarkedSystem::mark_noncacheable`].
    ///
    /// # Panics
    ///
    /// Panics unless `n_procs` is a power of two in `2..=65536`.
    pub fn new(n_procs: usize) -> Self {
        let spec = BlockSpec::new(2);
        SoftwareMarkedSystem {
            bill: Billing::new(n_procs),
            caches: (0..n_procs)
                .map(|_| CacheArray::new(CacheGeometry::new(64, 4)))
                .collect(),
            memory: MainMemory::new(spec),
            noncacheable: HashSet::new(),
            modules: ModuleMap::new(n_procs),
            sizing: MsgSizing::default(),
            counters: CounterSet::new(),
            tracer: Tracer::new(),
            n_procs,
            spec,
        }
    }

    /// Tags `block` noncacheable (what a correct compiler does for every
    /// shared read–write block).
    pub fn mark_noncacheable(&mut self, block: BlockAddr) {
        self.noncacheable.insert(block);
    }

    /// Whether `block` is tagged noncacheable.
    pub fn is_noncacheable(&self, block: BlockAddr) -> bool {
        self.noncacheable.contains(&block)
    }

    fn send(&mut self, from: usize, to: usize, bits: u64) {
        self.bill.unicast(&mut self.counters, from, to, bits);
    }

    fn home(&self, block: BlockAddr) -> usize {
        self.modules.module_of(block)
    }

    fn fill(&mut self, proc: usize, block: BlockAddr) {
        let home = self.home(block);
        self.send(proc, home, self.sizing.request_bits());
        self.send(home, proc, self.sizing.block_transfer_bits());
        let data = self.memory.block_data(block);
        if let Some((victim, _)) = self.caches[proc].would_evict(block) {
            self.evict(proc, victim);
        }
        self.caches[proc].insert(block, Line { data, dirty: false });
    }

    fn evict(&mut self, proc: usize, victim: BlockAddr) {
        let line = self.caches[proc].remove(victim).expect("victim exists");
        if line.dirty {
            let home = self.home(victim);
            self.send(proc, home, self.sizing.block_transfer_bits());
            self.counters.incr("writebacks");
            self.memory.write_block(victim, &line.data);
        }
    }
}

impl CoherentSystem for SoftwareMarkedSystem {
    fn name(&self) -> &'static str {
        "software-marked"
    }

    fn read(&mut self, proc: usize, addr: WordAddr) -> u64 {
        assert!(proc < self.n_procs, "processor out of range");
        let before = self.bill.bits();
        let block = self.spec.block_of(addr);
        let offset = self.spec.offset_of(addr);
        let (value, hit) = if self.is_noncacheable(block) {
            let home = self.home(block);
            self.send(proc, home, self.sizing.request_bits());
            self.send(home, proc, self.sizing.datum_bits());
            self.counters.incr("uncached_reads");
            (self.memory.read_block(block)[offset], false)
        } else {
            let hit = self.caches[proc].get(block).is_some();
            if hit {
                self.counters.incr("read_hit");
            } else {
                self.counters.incr("read_miss");
                self.fill(proc, block);
            }
            let value = self.caches[proc]
                .peek(block)
                .expect("resident")
                .data
                .word(offset);
            (value, hit)
        };
        if self.tracer.is_enabled() {
            self.tracer.push(ProtocolEvent::Read {
                proc,
                addr,
                value,
                hit,
                cost_bits: self.bill.bits() - before,
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
        let hit;
        if self.is_noncacheable(block) {
            hit = false;
            let home = self.home(block);
            self.send(proc, home, self.sizing.update_bits());
            self.counters.incr("uncached_writes");
            let mut data = self.memory.block_data(block);
            data.set_word(offset, value);
            self.memory.write_block(block, &data);
        } else {
            hit = self.caches[proc].get(block).is_some();
            if !hit {
                self.counters.incr("write_miss");
                self.fill(proc, block);
            }
            let line = self.caches[proc].peek_mut(block).expect("resident");
            line.data.set_word(offset, value);
            line.dirty = true;
        }
        if self.tracer.is_enabled() {
            self.tracer.push(ProtocolEvent::Write {
                proc,
                addr,
                value,
                hit,
                cost_bits: self.bill.bits() - before,
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
        for proc in 0..self.n_procs {
            let dirty: Vec<BlockAddr> = self.caches[proc]
                .iter()
                .filter(|(_, l)| l.dirty)
                .map(|(b, _)| b)
                .collect();
            for block in dirty {
                let data = self.caches[proc].peek(block).expect("listed").data.clone();
                let home = self.home(block);
                self.send(proc, home, self.sizing.block_transfer_bits());
                self.counters.incr("writebacks");
                self.memory.write_block(block, &data);
                self.caches[proc].peek_mut(block).expect("listed").dirty = false;
            }
        }
    }

    fn peek_word(&self, addr: WordAddr) -> u64 {
        // With correct tagging, memory + any private copy agree for
        // noncacheable blocks; for cacheable blocks the last writer's copy
        // (if dirty) is authoritative — scan for it.
        let block = self.spec.block_of(addr);
        let offset = self.spec.offset_of(addr);
        for cache in &self.caches {
            if let Some(line) = cache.peek(block) {
                if line.dirty {
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
    fn correctly_tagged_shared_blocks_stay_coherent() {
        let mut sys = SoftwareMarkedSystem::new(4);
        sys.mark_noncacheable(BlockAddr::new(0));
        sys.write(0, WordAddr::new(0), 1);
        assert_eq!(sys.read(1, WordAddr::new(0)), 1);
        sys.write(2, WordAddr::new(0), 2);
        assert_eq!(sys.read(3, WordAddr::new(0)), 2);
    }

    #[test]
    fn mis_tagged_shared_blocks_go_stale() {
        // The §1 hazard the paper criticizes, demonstrated: block 0 is
        // shared read-write but left cacheable.
        let mut sys = SoftwareMarkedSystem::new(4);
        sys.write(0, WordAddr::new(0), 1);
        sys.flush(); // value 1 reaches memory
        assert_eq!(sys.read(1, WordAddr::new(0)), 1); // proc 1 caches it
        sys.write(0, WordAddr::new(0), 2); // proc 0 writes privately
                                           // Proc 1 still sees the stale value — no hardware coherence.
        assert_eq!(sys.read(1, WordAddr::new(0)), 1);
    }

    #[test]
    fn private_cacheable_blocks_are_cheap() {
        let mut sys = SoftwareMarkedSystem::new(4);
        sys.write(0, WordAddr::new(0), 1);
        let t = sys.total_traffic_bits();
        for _ in 0..10 {
            assert_eq!(sys.read(0, WordAddr::new(0)), 1);
            sys.write(0, WordAddr::new(1), 9);
        }
        assert_eq!(sys.total_traffic_bits(), t, "hits are free");
    }

    #[test]
    fn noncacheable_blocks_pay_every_time() {
        let mut sys = SoftwareMarkedSystem::new(4);
        sys.mark_noncacheable(BlockAddr::new(0));
        sys.read(0, WordAddr::new(0));
        let t0 = sys.total_traffic_bits();
        sys.read(0, WordAddr::new(0));
        assert!(sys.total_traffic_bits() > t0);
        assert_eq!(sys.counters().get("uncached_reads"), 2);
    }

    #[test]
    fn eviction_writes_back_dirty_cacheable_lines() {
        let mut sys = SoftwareMarkedSystem::new(4);
        // Fill one set beyond capacity: blocks 0, 64, 128, 192, 256 share
        // set 0 of the 64-set cache.
        for i in 0..5u64 {
            sys.write(0, WordAddr::new(i * 64 * 4), i);
        }
        assert!(sys.counters().get("writebacks") >= 1);
        // The evicted block's value survives in memory.
        assert_eq!(sys.peek_word(WordAddr::new(0)), 0);
    }
}
