//! Guards what main memory costs as a *count*, not a timing: resident
//! pages read from `/proc/self/statm` around the write-backs of a
//! `bigN-zipf`-sized run. A page keeps the words of its written blocks
//! only, so memory costs what the run wrote. Before it did, the first
//! write-back into a page zero-filled words for all 1024 of its blocks:
//! the writes below touch all 2048 pages of the 2^21-block space and grew
//! the resident set by ≈ 50 MiB (≈ 1.9 MiB with packed pages).
//!
//! One test in its own file, so it has the process (and its heap) to
//! itself.
#![cfg(target_os = "linux")]

use tmc_memsys::{BlockAddr, BlockData, BlockSpec, MainMemory};
use tmc_simcore::SimRng;

/// The `bigN-zipf` address space, in blocks.
const BLOCKS: u64 = 1 << 21;
/// Blocks a seed-11 `bigN-zipf` rep has written back by its end.
const WRITE_BACKS: usize = 19_163;
const MIB: usize = 1 << 20;

/// Resident set size of this process in bytes (statm field 2 is in pages;
/// Linux on every supported target uses 4 KiB base pages for it).
fn resident_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("procfs is mounted");
    let pages: usize = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm has a resident field");
    pages * 4096
}

#[test]
fn main_memory_costs_what_the_run_wrote() {
    // The blocks and the data exist before the baseline is read, so only
    // the memory is measured.
    let spec = BlockSpec::new(2);
    let mut rng = SimRng::seed_from(11);
    let blocks: Vec<BlockAddr> = (0..WRITE_BACKS)
        .map(|_| BlockAddr::new(rng.gen_range(0..BLOCKS)))
        .collect();
    let data = BlockData::from_words(vec![0x5EED; spec.words_per_block()]);

    let before = resident_bytes();
    let mut mem = MainMemory::new(spec);
    for &b in &blocks {
        mem.write_block(b, &data);
    }
    let grew = resident_bytes().saturating_sub(before);
    assert!(
        mem.resident_pages() > 2000,
        "the writes span the space's pages"
    );
    assert!(
        grew < 4 * MIB,
        "{WRITE_BACKS} write-backs over {BLOCKS} blocks grew the resident set by {} KiB",
        grew / 1024
    );
    assert_eq!(mem.read_block(blocks[0])[0], 0x5EED);
}
