//! A Dragon-flavoured always-update protocol — the pure distributed-write
//! baseline (eq. 11).
//!
//! Once a cache holds a copy it keeps it; every write multicasts the new
//! word to all other copy holders, so reads are always local after the
//! first fill. Memory goes stale while a block has a "last writer"; read
//! misses are served by that writer through the home module.

use std::collections::HashMap;

use tmc_memsys::{
    BlockAddr, BlockData, BlockSpec, CacheArray, CacheGeometry, MainMemory, ModuleMap, MsgSizing,
    WordAddr,
};
use tmc_obs::{ProtocolEvent, Tracer};
use tmc_omeganet::{DestSet, Omega, SchemeKind, TrafficMatrix};
use tmc_simcore::CounterSet;

use crate::CoherentSystem;

#[derive(Debug, Clone)]
struct Line {
    data: BlockData,
}

#[derive(Debug, Clone, Default)]
struct DirEntry {
    sharers: Vec<usize>,
    /// The cache holding the authoritative copy while memory is stale.
    last_writer: Option<usize>,
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
    /// Reused delivered-port buffer for the update multicast.
    delivered: Vec<usize>,
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
        let net = Omega::with_ports(n_procs).expect("valid port count");
        assert_eq!(net.ports(), n_procs, "port count must be a power of two");
        let traffic = TrafficMatrix::new(&net);
        let spec = BlockSpec::new(2);
        UpdateOnlySystem {
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

    /// Selects the update multicast scheme.
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

    fn home(&self, block: BlockAddr) -> usize {
        self.modules.module_of(block)
    }

    /// The current authoritative data for `block`.
    fn authoritative(&self, block: BlockAddr) -> BlockData {
        if let Some(entry) = self.directory.get(&block) {
            if let Some(w) = entry.last_writer {
                if let Some(line) = self.caches[w].peek(block) {
                    return line.data.clone();
                }
            }
        }
        self.memory.block_data(block)
    }

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
        let is_writer = self
            .directory
            .get(&victim)
            .is_some_and(|e| e.last_writer == Some(proc));
        if is_writer {
            // Our copy is the authoritative one: write it back.
            let data = self.caches[proc]
                .peek(victim)
                .expect("resident")
                .data
                .clone();
            self.send(proc, home, self.sizing.block_transfer_bits());
            self.counters.incr("writebacks");
            self.memory.write_block(victim, &data);
        } else {
            self.send(proc, home, self.sizing.request_bits());
        }
        let entry = self.directory.entry(victim).or_default();
        entry.sharers.retain(|&c| c != proc);
        if entry.last_writer == Some(proc) {
            entry.last_writer = None;
        }
        self.caches[proc].remove(victim);
    }

    /// Fills `proc`'s cache with the block, generating the fill traffic.
    fn fill(&mut self, proc: usize, block: BlockAddr) {
        let home = self.home(block);
        self.send(proc, home, self.sizing.request_bits());
        let writer = self
            .directory
            .get(&block)
            .and_then(|e| e.last_writer)
            .filter(|&w| w != proc);
        let data = if let Some(w) = writer {
            // Memory is stale: forward to the last writer, which supplies
            // the block through the network.
            self.counters.incr("writer_supplies");
            self.send(home, w, self.sizing.request_bits());
            let data = self.caches[w]
                .peek(block)
                .expect("writer resident")
                .data
                .clone();
            self.send(w, proc, self.sizing.block_transfer_bits());
            data
        } else {
            self.send(home, proc, self.sizing.block_transfer_bits());
            self.memory.block_data(block)
        };
        self.install(proc, block, Line { data });
        let entry = self.directory.entry(block).or_default();
        if !entry.sharers.contains(&proc) {
            entry.sharers.push(proc);
        }
    }
}

impl CoherentSystem for UpdateOnlySystem {
    fn name(&self) -> &'static str {
        "update-only"
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
            self.fill(proc, block);
            self.caches[proc]
                .peek(block)
                .expect("just filled")
                .data
                .word(offset)
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
        let hit = self.caches[proc].get(block).is_some();
        if !hit {
            self.counters.incr("write_miss");
            self.fill(proc, block);
        }
        self.caches[proc]
            .peek_mut(block)
            .expect("resident")
            .data
            .set_word(offset, value);
        let others: Vec<usize> = self
            .directory
            .get(&block)
            .map(|e| e.sharers.iter().copied().filter(|&c| c != proc).collect())
            .unwrap_or_default();
        if !others.is_empty() {
            self.counters.incr("updates_multicast");
            let dests = DestSet::from_ports(self.n_procs, others).expect("valid");
            let (_, cost_bits) = self
                .net
                .multicast_into(
                    self.multicast,
                    proc,
                    &dests,
                    self.sizing.update_bits(),
                    &mut self.traffic,
                    &mut self.delivered,
                    None,
                )
                .expect("valid");
            self.counters.add("bits_total", cost_bits);
            self.counters.incr("msgs_total");
            for &d in &self.delivered {
                if d == proc {
                    continue;
                }
                if let Some(line) = self.caches[d].peek_mut(block) {
                    line.data.set_word(offset, value);
                }
            }
        }
        let entry = self.directory.entry(block).or_default();
        entry.last_writer = Some(proc);
        if !entry.sharers.contains(&proc) {
            entry.sharers.push(proc);
        }
        if self.tracer.is_enabled() {
            let cost_bits = self.traffic.total_bits() - before;
            self.tracer.push(ProtocolEvent::Write {
                proc,
                addr,
                value,
                hit,
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
        let dirty: Vec<(usize, BlockAddr)> = self
            .directory
            .iter()
            .filter_map(|(&b, e)| e.last_writer.map(|w| (w, b)))
            .collect();
        for (w, block) in dirty {
            if let Some(line) = self.caches[w].peek(block) {
                let data = line.data.clone();
                let home = self.home(block);
                self.send(w, home, self.sizing.block_transfer_bits());
                self.counters.incr("writebacks");
                self.memory.write_block(block, &data);
            }
            self.directory.get_mut(&block).expect("listed").last_writer = None;
        }
    }

    fn peek_word(&self, addr: WordAddr) -> u64 {
        let block = self.spec.block_of(addr);
        let offset = self.spec.offset_of(addr);
        self.authoritative(block).word(offset)
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
