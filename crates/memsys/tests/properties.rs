//! Randomized tests: the set-associative LRU cache against a naive reference
//! model (every public operation, `iter_mut` included), and
//! address-mapping roundtrips. Driven by the in-tree [`SimRng`]
//! (no external crates needed).

use tmc_memsys::{BlockAddr, BlockSpec, CacheArray, CacheGeometry, WordAddr};
use tmc_simcore::SimRng;

const CASES: usize = 64;

/// A deliberately naive model of a set-associative LRU cache: per set, a
/// vector ordered most-recent-first.
struct ModelCache {
    geometry: CacheGeometry,
    sets: Vec<Vec<(BlockAddr, u32)>>,
}

impl ModelCache {
    fn new(geometry: CacheGeometry) -> Self {
        ModelCache {
            sets: (0..geometry.sets()).map(|_| Vec::new()).collect(),
            geometry,
        }
    }

    fn get(&mut self, b: BlockAddr) -> Option<u32> {
        let set = &mut self.sets[self.geometry.set_of(b)];
        let pos = set.iter().position(|&(bb, _)| bb == b)?;
        let entry = set.remove(pos);
        set.insert(0, entry);
        Some(set[0].1)
    }

    fn insert(&mut self, b: BlockAddr, v: u32) -> Option<(BlockAddr, u32)> {
        let ways = self.geometry.ways();
        let set = &mut self.sets[self.geometry.set_of(b)];
        if let Some(pos) = set.iter().position(|&(bb, _)| bb == b) {
            set.remove(pos);
            set.insert(0, (b, v));
            return None;
        }
        let evicted = if set.len() == ways { set.pop() } else { None };
        set.insert(0, (b, v));
        evicted
    }

    fn remove(&mut self, b: BlockAddr) -> Option<u32> {
        let set = &mut self.sets[self.geometry.set_of(b)];
        let pos = set.iter().position(|&(bb, _)| bb == b)?;
        Some(set.remove(pos).1)
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// What inserting `b` would evict: the LRU way of a full set that does
    /// not already hold `b`.
    fn would_evict(&self, b: BlockAddr) -> Option<(BlockAddr, u32)> {
        let set = &self.sets[self.geometry.set_of(b)];
        let full = set.len() == self.geometry.ways();
        let resident = set.iter().any(|&(bb, _)| bb == b);
        (full && !resident).then(|| *set.last().unwrap())
    }

    /// Every `(block, value)` pair, sorted by block.
    fn contents(&self) -> Vec<(BlockAddr, u32)> {
        let mut all: Vec<_> = self.sets.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }
}

/// The real array's `(block, value)` pairs, sorted by block.
fn contents(real: &CacheArray<u32>) -> Vec<(BlockAddr, u32)> {
    let mut all: Vec<_> = real.iter().map(|(b, &v)| (b, v)).collect();
    all.sort_unstable();
    all
}

#[derive(Debug, Clone)]
enum CacheOp {
    Get(u64),
    Insert(u64, u32),
    Remove(u64),
    Peek(u64),
    WouldEvict(u64),
    /// Add to every resident value through `iter_mut`.
    Bump(u32),
}

fn arb_ops(rng: &mut SimRng) -> Vec<CacheOp> {
    let len = rng.gen_range(1..200usize);
    (0..len)
        .map(|_| {
            let b = rng.gen_range(0..32u64);
            match rng.gen_range(0..16u32) {
                0..=2 => CacheOp::Get(b),
                3..=7 => CacheOp::Insert(b, rng.next_u64() as u32),
                8..=10 => CacheOp::Remove(b),
                11..=12 => CacheOp::Peek(b),
                13 => CacheOp::WouldEvict(b),
                _ => CacheOp::Bump(rng.gen_range(1..5u32)),
            }
        })
        .collect()
}

#[test]
fn cache_array_matches_naive_lru_model() {
    let mut rng = SimRng::seed_from(0x10D31);
    for _ in 0..CASES {
        let ops = arb_ops(&mut rng);
        let sets_log = rng.gen_range(0..=3u32);
        let ways = rng.gen_range(1..=4usize);
        let geometry = CacheGeometry::new(1 << sets_log, ways);
        let mut real: CacheArray<u32> = CacheArray::new(geometry);
        let mut model = ModelCache::new(geometry);
        for op in ops {
            match op {
                CacheOp::Get(b) => {
                    let b = BlockAddr::new(b);
                    assert_eq!(real.get(b).copied(), model.get(b));
                }
                CacheOp::Insert(b, v) => {
                    let b = BlockAddr::new(b);
                    let got = real.insert(b, v);
                    let want = model.insert(b, v);
                    assert_eq!(got, want);
                }
                CacheOp::Remove(b) => {
                    let b = BlockAddr::new(b);
                    assert_eq!(real.remove(b), model.remove(b));
                }
                CacheOp::Peek(b) => {
                    // Peek must agree on membership and must NOT perturb
                    // LRU order (the model simply doesn't touch it).
                    let b = BlockAddr::new(b);
                    let set = &model.sets[geometry.set_of(b)];
                    let want = set.iter().find(|&&(bb, _)| bb == b).map(|&(_, v)| v);
                    assert_eq!(real.peek(b).copied(), want);
                }
                CacheOp::WouldEvict(b) => {
                    let b = BlockAddr::new(b);
                    let got = real.would_evict(b).map(|(bb, &v)| (bb, v));
                    assert_eq!(got, model.would_evict(b));
                }
                CacheOp::Bump(by) => {
                    for (_, v) in real.iter_mut() {
                        *v = v.wrapping_add(by);
                    }
                    for (_, v) in model.sets.iter_mut().flatten() {
                        *v = v.wrapping_add(by);
                    }
                }
            }
            assert_eq!(real.len(), model.len());
            assert_eq!(contents(&real), model.contents());
            // `slots()` is the same contents in ascending slot order, each
            // line in its own set.
            let slots: Vec<_> = real.slots().collect();
            assert_eq!(slots.len(), model.len());
            assert!(slots.windows(2).all(|w| w[0].0 < w[1].0));
            for &(slot, tag, _, &v) in &slots {
                let b = BlockAddr::new(tag);
                assert_eq!(slot / geometry.ways(), geometry.set_of(b));
                assert_eq!(real.peek(b), Some(&v));
            }
        }
    }
}

#[test]
fn would_evict_predicts_insert() {
    let mut rng = SimRng::seed_from(0xE71C7);
    for _ in 0..CASES {
        let ops = arb_ops(&mut rng);
        let incoming = rng.gen_range(0..32u64);
        let geometry = CacheGeometry::new(2, 2);
        let mut cache: CacheArray<u32> = CacheArray::new(geometry);
        for op in ops {
            if let CacheOp::Insert(b, v) = op {
                cache.insert(BlockAddr::new(b), v);
            }
        }
        let incoming = BlockAddr::new(incoming);
        let predicted = cache.would_evict(incoming).map(|(b, &v)| (b, v));
        let actual = cache.insert(incoming, 999);
        assert_eq!(predicted, actual);
    }
}

#[test]
fn block_spec_roundtrips() {
    let mut rng = SimRng::seed_from(0xB10C);
    for _ in 0..256 {
        let addr = rng.next_u64();
        let offset_bits = rng.gen_range(0..=12u32);
        let spec = BlockSpec::new(offset_bits);
        let w = WordAddr::new(addr >> 4); // keep word_at from overflowing
        let block = spec.block_of(w);
        let off = spec.offset_of(w);
        assert!(off < spec.words_per_block());
        assert_eq!(spec.word_at(block, off), w);
    }
}
