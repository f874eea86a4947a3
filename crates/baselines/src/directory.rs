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
//! directory names its cache as the block's writer. The protocol is
//! `tmc-core`'s `DIR_READ_RULES` and `DIR_WRITE_RULES`.

baseline_system! {
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
    DirectoryInvalidateSystem("directory-invalidate", DirectoryInvalidate) with caches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoherentSystem;
    use tmc_memsys::{CacheGeometry, WordAddr};

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
            sys.sys.check_invariants().unwrap();
        }
        sys.flush();
        for (a, v) in oracle.iter() {
            assert_eq!(sys.peek_word(a), v);
        }
    }
}
