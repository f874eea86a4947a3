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
//! A line keeps no state of its own: it is exclusive exactly when the
//! directory names its cache as the block's writer.

use tmc_memsys::{BlockAddr, BlockData, CacheGeometry, WordAddr};
use tmc_omeganet::SchemeKind;

use crate::node::node_accessors;
use crate::sharers::DirectoryFrame;
use crate::CoherentSystem;

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
    /// The directory's writer is the dirty exclusive holder.
    dir: DirectoryFrame,
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
        DirectoryInvalidateSystem {
            dir: DirectoryFrame::new(n_procs, geometry),
        }
    }

    /// Selects the invalidation multicast scheme.
    pub fn multicast(mut self, scheme: SchemeKind) -> Self {
        self.dir.node.set_scheme(scheme);
        self
    }
}

/// Invalidates every sharer except `keep`, leaving `keep` (if it was a
/// sharer) the only one in the directory.
fn invalidate_others(dir: &mut DirectoryFrame, block: BlockAddr, keep: usize) {
    let DirectoryFrame {
        node,
        caches,
        sharers,
    } = dir;
    let home = node.home(block);
    let entry = sharers.entry(block);
    let bits = node.sizing.invalidate_bits();
    let Some((others, delivered)) =
        node.cast(home, &entry.sharers, keep, bits, "invalidations_multicast")
    else {
        return;
    };
    entry.sharers.difference_with(others);
    for &d in delivered {
        if d != keep {
            caches[d].remove(block);
        }
    }
}

/// If the block is dirty somewhere, recalls it to memory through the
/// home. `drop_holder` also invalidates the holder's copy.
fn recall_if_dirty(dir: &mut DirectoryFrame, block: BlockAddr, drop_holder: bool) {
    let Some(holder) = dir.sharers.get(block).writer else {
        return;
    };
    let node = &mut dir.node;
    let home = node.home(block);
    node.counters.incr("dirty_recalls");
    node.send(home, holder, node.sizing.request_bits());
    let cache = &mut dir.caches[holder];
    let data = if drop_holder {
        cache.remove(block)
    } else {
        cache.peek(block).cloned()
    }
    .expect("directory says holder has it");
    node.send(holder, home, node.sizing.block_transfer_bits());
    node.memory.write_block(block, &data);
    let entry = dir.sharers.entry(block);
    entry.writer = None;
    if drop_holder {
        entry.sharers.remove(holder);
        debug_assert!(entry.sharers.is_empty(), "dirty implies one holder");
    }
}

/// A read miss: the home recalls a dirty copy, then supplies the block.
fn read_miss(dir: &mut DirectoryFrame, proc: usize, block: BlockAddr) -> BlockData {
    let home = dir.node.home(block);
    dir.node.send(proc, home, dir.node.sizing.request_bits());
    recall_if_dirty(dir, block, false);
    let data = dir.node.memory.block_data(block);
    dir.node
        .send(home, proc, dir.node.sizing.block_transfer_bits());
    data
}

/// A write: a hit on the exclusive copy is local, a hit on a shared copy
/// upgrades by invalidating the others, and a miss recalls and invalidates
/// every copy before the home supplies the block. Returns whether it hit.
fn write(
    dir: &mut DirectoryFrame,
    proc: usize,
    block: BlockAddr,
    offset: usize,
    value: u64,
) -> bool {
    let home = dir.node.home(block);
    // The one tag probe: a resident line takes the word at once. Nothing
    // below reads this cache's copy back — the invalidation spares `proc`
    // and the miss path installs anew.
    let hit = dir.caches[proc]
        .get_mut(block)
        .map(|line| line.set_word(offset, value))
        .is_some();
    if !hit {
        dir.node.counters.incr("write_miss");
        dir.node.send(proc, home, dir.node.sizing.request_bits());
        recall_if_dirty(dir, block, true);
        invalidate_others(dir, block, usize::MAX);
        debug_assert!(
            dir.sharers.get(block).sharers.is_empty(),
            "every copy was dropped"
        );
        let mut data = dir.node.memory.block_data(block);
        dir.node
            .send(home, proc, dir.node.sizing.block_transfer_bits());
        data.set_word(offset, value);
        dir.install(proc, block, data);
    } else if dir.sharers.get(block).writer == Some(proc) {
        dir.node.counters.incr("write_hit_exclusive");
        return true;
    } else {
        // Upgrade: invalidate the other sharers.
        dir.node.counters.incr("write_upgrade");
        dir.node.send(proc, home, dir.node.sizing.request_bits());
        invalidate_others(dir, block, proc);
    }
    dir.sharers.entry(block).writer = Some(proc);
    hit
}

impl CoherentSystem for DirectoryInvalidateSystem {
    fn name(&self) -> &'static str {
        "directory-invalidate"
    }

    fn read(&mut self, proc: usize, addr: WordAddr) -> u64 {
        self.dir.read(proc, addr, read_miss)
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
