//! A Dragon-flavoured always-update protocol — the pure distributed-write
//! baseline (eq. 11).
//!
//! Once a cache holds a copy it keeps it; every write multicasts the new
//! word to all other copy holders, so reads are always local after the
//! first fill. Memory goes stale while a block has a "last writer"; read
//! misses are served by that writer through the home module.

use tmc_memsys::{BlockAddr, BlockData, CacheGeometry, WordAddr};
use tmc_omeganet::SchemeKind;

use crate::node::node_accessors;
use crate::sharers::DirectoryFrame;
use crate::CoherentSystem;

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
    /// The directory's writer holds the authoritative copy while memory is
    /// stale.
    dir: DirectoryFrame,
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
        UpdateOnlySystem {
            dir: DirectoryFrame::new(n_procs, geometry),
        }
    }

    /// Selects the update multicast scheme.
    pub fn multicast(mut self, scheme: SchemeKind) -> Self {
        self.dir.node.set_scheme(scheme);
        self
    }
}

/// Fetches `block` for `proc`'s cache, generating the fill traffic: the
/// home supplies it, or forwards to the last writer while memory is stale.
fn fetch(dir: &mut DirectoryFrame, proc: usize, block: BlockAddr) -> BlockData {
    let node = &mut dir.node;
    let home = node.home(block);
    node.send(proc, home, node.sizing.request_bits());
    match dir.sharers.get(block).writer.filter(|&w| w != proc) {
        Some(w) => {
            // Memory is stale: forward to the last writer, which supplies
            // the block through the network.
            node.counters.incr("writer_supplies");
            node.send(home, w, node.sizing.request_bits());
            let data = dir.caches[w].peek(block).expect("writer resident").clone();
            node.send(w, proc, node.sizing.block_transfer_bits());
            data
        }
        None => {
            node.send(home, proc, node.sizing.block_transfer_bits());
            node.memory.block_data(block)
        }
    }
}

/// A write: the writer takes a copy if it has none, then multicasts the
/// word to every other holder and becomes the block's writer. Returns
/// whether it hit.
fn write(
    dir: &mut DirectoryFrame,
    proc: usize,
    block: BlockAddr,
    offset: usize,
    value: u64,
) -> bool {
    let hit = dir.caches[proc]
        .get_mut(block)
        .map(|line| line.set_word(offset, value))
        .is_some();
    if !hit {
        dir.node.counters.incr("write_miss");
        let mut data = fetch(dir, proc, block);
        data.set_word(offset, value);
        dir.install(proc, block, data);
    }
    let DirectoryFrame {
        node,
        caches,
        sharers,
    } = dir;
    let entry = sharers.entry(block);
    let bits = node.sizing.update_bits();
    if let Some((_, delivered)) = node.cast(proc, &entry.sharers, proc, bits, "updates_multicast") {
        for &d in delivered {
            if d == proc {
                continue;
            }
            if let Some(line) = caches[d].peek_mut(block) {
                line.set_word(offset, value);
            }
        }
    }
    entry.writer = Some(proc);
    hit
}

impl CoherentSystem for UpdateOnlySystem {
    fn name(&self) -> &'static str {
        "update-only"
    }

    fn read(&mut self, proc: usize, addr: WordAddr) -> u64 {
        self.dir.read(proc, addr, fetch)
    }

    fn write(&mut self, proc: usize, addr: WordAddr, value: u64) {
        self.dir.write(proc, addr, value, write);
    }

    fn flush(&mut self) {
        self.dir.flush();
    }

    fn peek_word(&self, addr: WordAddr) -> u64 {
        self.dir.peek_word(addr)
    }

    node_accessors!(dir.node);
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
