//! A Dragon-flavoured always-update protocol — the pure distributed-write
//! baseline (eq. 11).
//!
//! Once a cache holds a copy it keeps it; every write multicasts the new
//! word to all other copy holders, so reads are always local after the
//! first fill. Memory goes stale while a block has a "last writer"; read
//! misses are served by that writer through the home module. The protocol
//! is `tmc-core`'s `UPD_READ_RULES` and `UPD_WRITE_RULES`.

baseline_system! {
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
    UpdateOnlySystem("update-only", UpdateOnly) with caches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoherentSystem;
    use tmc_memsys::{CacheGeometry, WordAddr};

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
            sys.sys.check_invariants().unwrap();
        }
        sys.flush();
        for (a, v) in oracle.iter() {
            assert_eq!(sys.peek_word(a), v);
        }
    }
}
