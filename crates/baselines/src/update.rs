//! A Dragon-flavoured always-update protocol — the pure distributed-write
//! baseline (eq. 11).
//!
//! Once a cache holds a copy it keeps it; every write multicasts the new
//! word to all other copy holders, so reads are always local after the
//! first fill. Memory goes stale while a block has a "last writer"; read
//! misses are served by that writer through the home module.

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

#[derive(Debug, Clone)]
struct Line {
    data: BlockData,
}

/// The always-update system.
///
/// # Example
///
/// ```
/// use tmc_baselines::{CoherentSystem, UpdateOnlySystem};
/// use tmc_memsys::WordAddr;
///
/// let mut sys = UpdateOnlySystem::new(8);
/// sys.write(0, WordAddr::new(0), 1);
/// assert_eq!(sys.read(5, WordAddr::new(0)), 1); // takes a copy
/// sys.write(0, WordAddr::new(0), 2);            // update multicast
/// assert_eq!(sys.read(5, WordAddr::new(0)), 2); // served locally
/// ```
pub struct UpdateOnlySystem {
    bill: Billing,
    caches: Vec<CacheArray<Line>>,
    memory: MainMemory,
    /// Sharers per block; the writer holds the authoritative copy while
    /// memory is stale.
    directory: SharerTable,
    modules: ModuleMap,
    sizing: MsgSizing,
    spec: BlockSpec,
    counters: CounterSet,
    tracer: Tracer,
    n_procs: usize,
}

impl UpdateOnlySystem {
    /// Builds the baseline with default geometry.
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
        UpdateOnlySystem {
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

    /// Selects the update multicast scheme.
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

    /// Installs `proc`'s copy of `block` and enrolls it as a sharer,
    /// running replacement actions for the evicted victim.
    fn install(&mut self, proc: usize, block: BlockAddr, data: BlockData) {
        if let Some((victim, line)) = self.caches[proc].insert(block, Line { data }) {
            self.replace(proc, victim, line);
        }
        self.directory.entry(block).sharers.insert(proc);
    }

    fn replace(&mut self, proc: usize, victim: BlockAddr, line: Line) {
        self.counters.incr("replacements");
        let home = self.home(victim);
        if self.directory.get(victim).writer == Some(proc) {
            // Our copy is the authoritative one: write it back.
            self.send(proc, home, self.sizing.block_transfer_bits());
            self.counters.incr("writebacks");
            self.memory.write_block(victim, &line.data);
            self.directory.entry(victim).writer = None;
        } else {
            self.send(proc, home, self.sizing.request_bits());
        }
        self.directory.entry(victim).sharers.remove(proc);
    }

    /// Fetches `block` for `proc`'s cache, generating the fill traffic.
    fn fetch(&mut self, proc: usize, block: BlockAddr) -> BlockData {
        let home = self.home(block);
        self.send(proc, home, self.sizing.request_bits());
        match self.directory.get(block).writer.filter(|&w| w != proc) {
            Some(w) => {
                // Memory is stale: forward to the last writer, which
                // supplies the block through the network.
                self.counters.incr("writer_supplies");
                self.send(home, w, self.sizing.request_bits());
                let data = self.caches[w]
                    .peek(block)
                    .expect("writer resident")
                    .data
                    .clone();
                self.send(w, proc, self.sizing.block_transfer_bits());
                data
            }
            None => {
                self.send(home, proc, self.sizing.block_transfer_bits());
                self.memory.block_data(block)
            }
        }
    }
}

impl CoherentSystem for UpdateOnlySystem {
    fn name(&self) -> &'static str {
        "update-only"
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
            let data = self.fetch(proc, block);
            let value = data.word(offset);
            self.install(proc, block, data);
            value
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
        let hit = self.caches[proc]
            .get_mut(block)
            .map(|line| line.data.set_word(offset, value))
            .is_some();
        if !hit {
            self.counters.incr("write_miss");
            let mut data = self.fetch(proc, block);
            data.set_word(offset, value);
            self.install(proc, block, data);
        }
        let entry = self.directory.entry(block);
        if let Some((_, delivered)) = self.bill.cast_to_others(
            &mut self.counters,
            proc,
            &entry.sharers,
            proc,
            self.sizing.update_bits(),
        ) {
            self.counters.incr("updates_multicast");
            for &d in delivered {
                if d == proc {
                    continue;
                }
                if let Some(line) = self.caches[d].peek_mut(block) {
                    line.data.set_word(offset, value);
                }
            }
        }
        entry.writer = Some(proc);
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
        let dirty: Vec<(BlockAddr, usize)> = self.directory.writers().collect();
        for (block, w) in dirty {
            if let Some(line) = self.caches[w].peek(block) {
                let data = line.data.clone();
                let home = self.home(block);
                self.send(w, home, self.sizing.block_transfer_bits());
                self.counters.incr("writebacks");
                self.memory.write_block(block, &data);
            }
            self.directory.entry(block).writer = None;
        }
    }

    fn peek_word(&self, addr: WordAddr) -> u64 {
        let block = self.spec.block_of(addr);
        let offset = self.spec.offset_of(addr);
        if let Some(w) = self.directory.get(block).writer {
            if let Some(line) = self.caches[w].peek(block) {
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
    fn reads_are_local_after_first_fill() {
        let mut sys = UpdateOnlySystem::new(4);
        sys.write(0, WordAddr::new(0), 1);
        sys.read(1, WordAddr::new(0));
        let t = sys.total_traffic_bits();
        for _ in 0..10 {
            assert_eq!(sys.read(1, WordAddr::new(0)), 1);
        }
        assert_eq!(sys.total_traffic_bits(), t, "all hits");
    }

    #[test]
    fn every_write_updates_all_copies() {
        let mut sys = UpdateOnlySystem::new(4);
        sys.write(0, WordAddr::new(0), 1);
        sys.read(1, WordAddr::new(0));
        sys.read(2, WordAddr::new(0));
        let u = sys.counters().get("updates_multicast");
        sys.write(0, WordAddr::new(0), 2);
        assert_eq!(sys.counters().get("updates_multicast"), u + 1);
        assert_eq!(sys.read(1, WordAddr::new(0)), 2);
        assert_eq!(sys.read(2, WordAddr::new(0)), 2);
    }

    #[test]
    fn stale_memory_is_refreshed_through_the_writer() {
        let mut sys = UpdateOnlySystem::new(4);
        sys.write(0, WordAddr::new(0), 5);
        assert_eq!(sys.read(3, WordAddr::new(0)), 5);
        assert!(sys.counters().get("writer_supplies") >= 1);
    }

    #[test]
    fn writer_eviction_writes_back() {
        let mut sys = UpdateOnlySystem::with_geometry(4, CacheGeometry::new(1, 1));
        sys.write(0, WordAddr::new(0), 9);
        sys.write(0, WordAddr::new(4), 1); // evicts block 0
        assert!(sys.counters().get("writebacks") >= 1);
        assert_eq!(sys.read(2, WordAddr::new(0)), 9);
    }

    #[test]
    fn oracle_random_run() {
        use tmc_simcore::SimRng;
        let mut sys = UpdateOnlySystem::with_geometry(4, CacheGeometry::new(2, 1));
        let mut oracle = tmc_memsys::ReferenceMemory::new();
        let mut rng = SimRng::seed_from(17);
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
