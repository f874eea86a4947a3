//! The no-cache baseline (eq. 9).

use tmc_memsys::WordAddr;

use crate::node::{node_accessors, Node};
use crate::CoherentSystem;

/// Every reference goes to the memory module: a read is a request plus a
/// datum reply (two network traversals), a write is a single datum-bearing
/// message — exactly the costs behind eq. 9,
/// `CC_NC = (1−w)·2·CC₁ + w·CC₁`.
#[derive(Debug)]
pub struct NoCacheSystem {
    node: Node,
}

impl NoCacheSystem {
    /// Builds the baseline for an `n_procs`-port machine with default
    /// message sizing.
    ///
    /// # Panics
    ///
    /// Panics unless `n_procs` is a power of two in `2..=65536`.
    pub fn new(n_procs: usize) -> Self {
        NoCacheSystem {
            node: Node::new(n_procs),
        }
    }
}

impl CoherentSystem for NoCacheSystem {
    fn name(&self) -> &'static str {
        "no-cache"
    }

    fn read(&mut self, proc: usize, addr: WordAddr) -> u64 {
        let node = &mut self.node;
        let before = node.begin(proc);
        let home = node.home(node.spec.block_of(addr));
        node.send(proc, home, node.sizing.request_bits());
        node.send(home, proc, node.sizing.datum_bits());
        node.counters.incr("reads");
        let value = node.memory_word(addr);
        node.record(false, proc, addr, value, false, before);
        value
    }

    fn write(&mut self, proc: usize, addr: WordAddr, value: u64) {
        let node = &mut self.node;
        let before = node.begin(proc);
        let block = node.spec.block_of(addr);
        let home = node.home(block);
        node.send(proc, home, node.sizing.update_bits());
        node.counters.incr("writes");
        let mut data = node.memory.block_data(block);
        data.set_word(node.spec.offset_of(addr), value);
        node.memory.write_block(block, &data);
        node.record(true, proc, addr, value, false, before);
    }

    fn flush(&mut self) {
        // Nothing cached: memory is always current.
    }

    fn peek_word(&self, addr: WordAddr) -> u64 {
        self.node.memory_word(addr)
    }

    node_accessors!(node);
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
