//! The no-cache baseline (eq. 9).

use tmc_memsys::{MainMemory, ModuleMap, MsgSizing, WordAddr};
use tmc_obs::{ProtocolEvent, Tracer};
use tmc_omeganet::TrafficMatrix;
use tmc_simcore::CounterSet;

use crate::billing::Billing;
use crate::CoherentSystem;

/// Every reference goes to the memory module: a read is a request plus a
/// datum reply (two network traversals), a write is a single datum-bearing
/// message — exactly the costs behind eq. 9,
/// `CC_NC = (1−w)·2·CC₁ + w·CC₁`.
#[derive(Debug)]
pub struct NoCacheSystem {
    bill: Billing,
    memory: MainMemory,
    modules: ModuleMap,
    sizing: MsgSizing,
    counters: CounterSet,
    tracer: Tracer,
    n_procs: usize,
}

impl NoCacheSystem {
    /// Builds the baseline for an `n_procs`-port machine with default
    /// message sizing.
    ///
    /// # Panics
    ///
    /// Panics unless `n_procs` is a power of two in `2..=65536`.
    pub fn new(n_procs: usize) -> Self {
        Self::with_sizing(n_procs, MsgSizing::default())
    }

    /// Builds the baseline with explicit message sizing.
    ///
    /// # Panics
    ///
    /// Panics unless `n_procs` is a power of two in `2..=65536`.
    pub fn with_sizing(n_procs: usize, sizing: MsgSizing) -> Self {
        NoCacheSystem {
            bill: Billing::new(n_procs),
            memory: MainMemory::new(tmc_memsys::BlockSpec::new(
                sizing.block_words.trailing_zeros(),
            )),
            modules: ModuleMap::new(n_procs),
            counters: CounterSet::new(),
            tracer: Tracer::new(),
            n_procs,
            sizing,
        }
    }

    fn send(&mut self, from: usize, to: usize, bits: u64) {
        self.bill.unicast(&mut self.counters, from, to, bits);
    }

    fn locate(&self, addr: WordAddr) -> (tmc_memsys::BlockAddr, usize, usize) {
        let spec = self.memory.spec();
        let block = spec.block_of(addr);
        (block, spec.offset_of(addr), self.modules.module_of(block))
    }
}

impl CoherentSystem for NoCacheSystem {
    fn name(&self) -> &'static str {
        "no-cache"
    }

    fn read(&mut self, proc: usize, addr: WordAddr) -> u64 {
        assert!(proc < self.n_procs, "processor out of range");
        let before = self.bill.bits();
        let (block, offset, home) = self.locate(addr);
        self.send(proc, home, self.sizing.request_bits());
        self.send(home, proc, self.sizing.datum_bits());
        self.counters.incr("reads");
        let value = self.memory.read_block(block)[offset];
        if self.tracer.is_enabled() {
            self.tracer.push(ProtocolEvent::Read {
                proc,
                addr,
                value,
                hit: false,
                cost_bits: self.bill.bits() - before,
                mode: None,
            });
        }
        value
    }

    fn write(&mut self, proc: usize, addr: WordAddr, value: u64) {
        assert!(proc < self.n_procs, "processor out of range");
        let before = self.bill.bits();
        let (block, offset, home) = self.locate(addr);
        self.send(proc, home, self.sizing.update_bits());
        self.counters.incr("writes");
        let mut data = self.memory.block_data(block);
        data.set_word(offset, value);
        self.memory.write_block(block, &data);
        if self.tracer.is_enabled() {
            self.tracer.push(ProtocolEvent::Write {
                proc,
                addr,
                value,
                hit: false,
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
        // Nothing cached: memory is always current.
    }

    fn peek_word(&self, addr: WordAddr) -> u64 {
        let (block, offset, _) = self.locate(addr);
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
    fn values_roundtrip_through_memory() {
        let mut sys = NoCacheSystem::new(4);
        sys.write(0, WordAddr::new(10), 42);
        assert_eq!(sys.read(3, WordAddr::new(10)), 42);
        assert_eq!(sys.read(3, WordAddr::new(11)), 0);
        assert_eq!(sys.peek_word(WordAddr::new(10)), 42);
    }

    #[test]
    fn every_reference_costs_traffic() {
        let mut sys = NoCacheSystem::new(4);
        let t0 = sys.total_traffic_bits();
        sys.read(0, WordAddr::new(0));
        let t1 = sys.total_traffic_bits();
        sys.read(0, WordAddr::new(0)); // same word: still remote
        let t2 = sys.total_traffic_bits();
        assert!(t1 > t0);
        assert_eq!(t2 - t1, t1 - t0, "no caching: identical cost each time");
    }

    #[test]
    fn reads_take_two_traversals_writes_one() {
        // Eq. 9's structure: a read is request + reply (two network
        // traversals), a write is a single datum-bearing message.
        let mut sys = NoCacheSystem::new(16);
        let a = WordAddr::new(0);
        let m0 = sys.counters().get("msgs_total");
        sys.read(3, a);
        assert_eq!(sys.counters().get("msgs_total") - m0, 2);
        let m0 = sys.counters().get("msgs_total");
        sys.write(3, a, 1);
        assert_eq!(sys.counters().get("msgs_total") - m0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_processor() {
        NoCacheSystem::new(4).read(4, WordAddr::new(0));
    }
}
