//! `MainMemory` against a naive model: a `BTreeMap` from every written
//! block to its words. A page packs the words of its written blocks in
//! slot order, so a first write inserts at the block's rank and shifts the
//! blocks above it; these tests check that every read, the iteration
//! order and the written footprint stay what the model says. Driven by
//! the in-tree [`SimRng`] (no external crates needed).

use std::collections::{BTreeMap, BTreeSet};

use tmc_memsys::{BlockAddr, BlockData, BlockSpec, MainMemory};
use tmc_simcore::SimRng;

const CASES: usize = 24;
const OPS: usize = 1500;
const PAGE: u64 = MainMemory::page_blocks() as u64;

type Model = BTreeMap<BlockAddr, Vec<u64>>;

/// A block from a few neighbouring pages (dense enough that pages fill
/// and first writes land below written blocks) or, now and then, a page
/// far off.
fn random_block(rng: &mut SimRng) -> BlockAddr {
    if rng.gen_bool(0.05) {
        BlockAddr::new(rng.gen_range(0..64u64) * 7 * PAGE + rng.gen_range(0..PAGE))
    } else {
        BlockAddr::new(rng.gen_range(0..3 * PAGE))
    }
}

/// Random words, all zeros one time in five.
fn random_words(rng: &mut SimRng, wpb: usize) -> Vec<u64> {
    if rng.gen_bool(0.2) {
        vec![0; wpb]
    } else {
        (0..wpb).map(|_| rng.next_u64()).collect()
    }
}

/// Every observable of `mem` equals the model's.
fn assert_matches(mem: &MainMemory, model: &Model, what: &str) {
    assert_eq!(mem.dirty_blocks(), model.len(), "{what}: dirty blocks");
    let pages: BTreeSet<u64> = model.keys().map(|b| b.index() / PAGE).collect();
    assert_eq!(mem.resident_pages(), pages.len(), "{what}: resident pages");
    let got: Vec<(BlockAddr, Vec<u64>)> = mem.iter().map(|(b, w)| (b, w.to_vec())).collect();
    let want: Vec<(BlockAddr, Vec<u64>)> = model.iter().map(|(&b, w)| (b, w.clone())).collect();
    assert_eq!(got, want, "{what}: iteration");
    for (&b, words) in model {
        assert_eq!(mem.written_block(b), Some(&words[..]), "{what}: {b}");
        assert_eq!(mem.read_block(b), &words[..], "{what}: {b}");
    }
}

/// Checks one block against the model: a written block reads its words,
/// an unwritten one zeros — whether or not its page is materialized.
fn assert_block(mem: &MainMemory, model: &Model, b: BlockAddr, wpb: usize) {
    match model.get(&b) {
        Some(words) => {
            assert_eq!(mem.written_block(b), Some(&words[..]), "{b}");
            assert_eq!(mem.read_block(b), &words[..], "{b}");
            assert_eq!(mem.block_data(b).words(), &words[..], "{b}");
        }
        None => {
            assert_eq!(mem.written_block(b), None, "{b}");
            assert_eq!(mem.read_block(b), &vec![0; wpb][..], "{b}");
        }
    }
}

#[test]
fn memory_matches_the_model_under_random_writes_and_reads() {
    let mut meta = SimRng::seed_from(0x3E3_0DE1);
    for case in 0..CASES {
        let spec = BlockSpec::new((case % 3) as u32);
        let wpb = spec.words_per_block();
        let mut rng = SimRng::seed_from(meta.next_u64());
        let mut mem = MainMemory::new(spec);
        let mut model = Model::new();
        let mut unwritten_in_page = 0;
        for op in 0..OPS {
            let b = random_block(&mut rng);
            if rng.gen_bool(0.5) {
                // Half the writes overwrite a block already written.
                let b = match model.keys().nth(rng.gen_range(0..model.len().max(1))) {
                    Some(&old) if rng.gen_bool(0.4) => old,
                    _ => b,
                };
                let words = random_words(&mut rng, wpb);
                mem.write_block(b, &BlockData::from_slice(&words));
                model.insert(b, words);
            }
            assert_block(&mem, &model, b, wpb);
            let probe = random_block(&mut rng);
            let page_written = model
                .keys()
                .any(|k| k.index() / PAGE == probe.index() / PAGE);
            unwritten_in_page += usize::from(page_written && !model.contains_key(&probe));
            assert_block(&mem, &model, probe, wpb);
            if op % 250 == 0 {
                assert_matches(&mem, &model, &format!("case {case}, op {op}"));
            }
        }
        assert_matches(&mem, &model, &format!("case {case}"));
        assert!(
            unwritten_in_page > 0,
            "case {case}: no read of an unwritten block in a materialized page"
        );
        assert!(
            model.values().any(|w| w.iter().all(|&x| x == 0)),
            "case {case}: no all-zero write"
        );

        // A clone is equal and independent.
        let snapshot = mem.clone();
        assert_eq!(snapshot, mem);
        assert_matches(&snapshot, &model, &format!("case {case}, clone"));
        let (&first, _) = model.iter().next().expect("something written");
        mem.write_block(first, &BlockData::from_slice(&vec![u64::MAX; wpb]));
        assert_ne!(snapshot, mem);
        assert_matches(
            &snapshot,
            &model,
            &format!("case {case}, clone after a write"),
        );
        model.insert(first, vec![u64::MAX; wpb]);

        // The same final contents written in another order (each block
        // once) make an equal memory.
        let mut blocks: Vec<BlockAddr> = model.keys().copied().collect();
        rng.shuffle(&mut blocks);
        let mut shuffled = MainMemory::new(spec);
        for &b in &blocks {
            shuffled.write_block(b, &BlockData::from_slice(&model[&b]));
        }
        assert_eq!(shuffled, mem);
        assert_matches(&shuffled, &model, &format!("case {case}, shuffled"));

        // A block written with zeros differs from one never written.
        let unwritten = (0..)
            .map(BlockAddr::new)
            .find(|b| !model.contains_key(b))
            .unwrap();
        shuffled.write_block(unwritten, &BlockData::zeroed(wpb));
        assert_ne!(shuffled, mem);
        assert_eq!(shuffled.read_block(unwritten), mem.read_block(unwritten));
    }
}

/// Filling two whole pages from the top down — every first write lands
/// below all the page's written blocks — gives the memory the bottom-up
/// fill gives.
#[test]
fn a_descending_fill_equals_the_ascending_fill() {
    let spec = BlockSpec::new(1);
    let words = |b: u64| BlockData::from_words(vec![b, !b]);
    let blocks = PAGE..3 * PAGE;
    let mut up = MainMemory::new(spec);
    for b in blocks.clone() {
        up.write_block(BlockAddr::new(b), &words(b));
    }
    let mut down = MainMemory::new(spec);
    for b in blocks.clone().rev() {
        down.write_block(BlockAddr::new(b), &words(b));
    }
    assert_eq!(up, down);
    for mem in [&up, &down] {
        assert_eq!(mem.dirty_blocks(), 2 * PAGE as usize);
        assert_eq!(mem.resident_pages(), 2);
        let got: Vec<u64> = mem.iter().map(|(b, _)| b.index()).collect();
        assert_eq!(got, blocks.clone().collect::<Vec<_>>());
        for b in blocks.clone() {
            assert_eq!(mem.read_block(BlockAddr::new(b)), words(b).words());
        }
        assert_eq!(mem.read_block(BlockAddr::new(0)), &[0, 0]);
        assert_eq!(mem.read_block(BlockAddr::new(3 * PAGE)), &[0, 0]);
    }
}
