//! Randomized oracle tests for every baseline protocol, driven by the
//! in-tree [`SimRng`] (no external crates needed).

use tmc_baselines::{
    two_mode_adaptive, two_mode_fixed, CoherentSystem, DirectoryInvalidateSystem, NoCacheSystem,
    UpdateOnlySystem,
};
use tmc_core::Mode;
use tmc_memsys::{CacheGeometry, ReferenceMemory, WordAddr};
use tmc_simcore::SimRng;

const CASES: usize = 64;

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(usize, u64),
    Write(usize, u64),
}

fn arb_ops(rng: &mut SimRng) -> Vec<Op> {
    let len = rng.gen_range(1..250usize);
    (0..len)
        .map(|_| {
            let p = rng.gen_range(0..4usize);
            let a = rng.gen_range(0..24u64);
            if rng.gen_bool(0.5) {
                Op::Read(p, a)
            } else {
                Op::Write(p, a)
            }
        })
        .collect()
}

fn check(sys: &mut dyn CoherentSystem, ops: &[Op]) {
    let mut oracle = ReferenceMemory::new();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Read(p, a) => {
                let addr = WordAddr::new(a);
                assert_eq!(
                    sys.read(p, addr),
                    oracle.read(addr),
                    "{} step {i}",
                    sys.name()
                );
            }
            Op::Write(p, a) => {
                let addr = WordAddr::new(a);
                let v = oracle.stamp();
                sys.write(p, addr, v);
                oracle.write(addr, v);
            }
        }
    }
    sys.flush();
    for (a, v) in oracle.iter() {
        assert_eq!(sys.peek_word(a), v, "{} post-flush", sys.name());
    }
}

#[test]
fn no_cache_is_an_oracle() {
    let mut rng = SimRng::seed_from(0x90CA);
    for _ in 0..CASES {
        let ops = arb_ops(&mut rng);
        check(&mut NoCacheSystem::new(4), &ops);
    }
}

#[test]
fn directory_invalidate_matches_oracle() {
    let mut rng = SimRng::seed_from(0xD12EC);
    for _ in 0..CASES {
        let ops = arb_ops(&mut rng);
        check(
            &mut DirectoryInvalidateSystem::with_geometry(4, CacheGeometry::new(1, 2)),
            &ops,
        );
    }
}

#[test]
fn update_only_matches_oracle() {
    let mut rng = SimRng::seed_from(0x0DA7E);
    for _ in 0..CASES {
        let ops = arb_ops(&mut rng);
        check(
            &mut UpdateOnlySystem::with_geometry(4, CacheGeometry::new(1, 2)),
            &ops,
        );
    }
}

#[test]
fn two_mode_adapters_match_oracle() {
    let mut rng = SimRng::seed_from(0x7703E);
    for _ in 0..CASES {
        let ops = arb_ops(&mut rng);
        let mut sys: Box<dyn CoherentSystem> = match rng.gen_range(0..3usize) {
            0 => Box::new(two_mode_fixed(4, Mode::DistributedWrite)),
            1 => Box::new(two_mode_fixed(4, Mode::GlobalRead)),
            _ => Box::new(two_mode_adaptive(4, 16)),
        };
        check(sys.as_mut(), &ops);
    }
}

/// Traffic sanity across all baselines: monotone, and zero only until
/// the first reference.
#[test]
fn traffic_is_monotone_everywhere() {
    let mut rng = SimRng::seed_from(0x7124F);
    for _ in 0..16 {
        let ops = arb_ops(&mut rng);
        let mut systems: Vec<Box<dyn CoherentSystem>> = vec![
            Box::new(NoCacheSystem::new(4)),
            Box::new(DirectoryInvalidateSystem::new(4)),
            Box::new(UpdateOnlySystem::new(4)),
            Box::new(two_mode_fixed(4, Mode::GlobalRead)),
        ];
        for sys in &mut systems {
            let mut last = 0;
            for &op in &ops {
                match op {
                    Op::Read(p, a) => {
                        sys.read(p, WordAddr::new(a));
                    }
                    Op::Write(p, a) => {
                        sys.write(p, WordAddr::new(a), 1);
                    }
                }
                let now = sys.total_traffic_bits();
                assert!(now >= last, "{} went backwards", sys.name());
                last = now;
            }
        }
    }
}
