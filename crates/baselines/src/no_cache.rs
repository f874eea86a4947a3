//! The no-cache baseline (eq. 9): `tmc-core`'s `NC_READ_RULES` and
//! `NC_WRITE_RULES`.

baseline_system! {
    /// Every reference goes to the memory module: a read is a request plus a
    /// datum reply (two network traversals), a write is a single datum-bearing
    /// message — exactly the costs behind eq. 9,
    /// `CC_NC = (1−w)·2·CC₁ + w·CC₁`.
    NoCacheSystem("no-cache", NoCache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoherentSystem;
    use tmc_memsys::WordAddr;

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
