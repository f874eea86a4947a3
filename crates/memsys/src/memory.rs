//! Main memory and the paper's block store.
//!
//! Both are *paged sparse* stores: the block address space is split into
//! fixed 1024-block pages materialized on first write, and a block's page
//! and slot are a shift and a mask of its index — no hashing on the
//! simulation hot path, which matters once the machine runs at N = 1024
//! caches over millions of blocks. Untouched regions cost nothing beyond
//! one page-directory slot per 1024 blocks, up to the highest touched
//! block.
//!
//! A main-memory page keeps a written-block bitmap and the words of its
//! written blocks only: one run per 64-slot bitmap word, packed in slot
//! order. A block's words sit at its *rank*, the number of written blocks
//! below its slot in that word (one popcount), so a first write shifts at
//! most the 63 blocks above it. A block never written reads as zeros
//! without touching the page's words, so resident memory scales with the
//! blocks a run wrote, not with the pages it touched. A block-store page
//! keeps a valid bitmap plus one owner id per slot (structure-of-arrays).

use crate::addr::{BlockAddr, BlockSpec, CacheId};
use crate::data::BlockData;

/// Blocks per page. A power of two: the page index and slot are a shift and
/// a mask of the block index.
const PAGE_BLOCKS: usize = 1024;

/// Words in a page's per-block presence bitmap.
const PAGE_MAP_WORDS: usize = PAGE_BLOCKS / 64;

/// The set bits of one bitmap word, ascending.
fn set_bits(word: u64) -> impl Iterator<Item = usize> {
    let mut rest = word;
    std::iter::from_fn(move || {
        if rest == 0 {
            return None;
        }
        let bit = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        Some(bit)
    })
}

/// The slots whose bit is set in a page's bitmap, ascending.
fn set_slots(map: &[u64; PAGE_MAP_WORDS]) -> impl Iterator<Item = usize> + '_ {
    map.iter()
        .enumerate()
        .flat_map(|(wi, &w)| set_bits(w).map(move |bit| wi * 64 + bit))
}

/// One page of main memory: a written-block bitmap plus the words of the
/// written blocks. `runs[i]` holds the written blocks of bitmap word `i`'s
/// 64 slots, packed in slot order (`words_per_block` words each).
#[derive(Debug, Clone)]
struct MemPage {
    written: [u64; PAGE_MAP_WORDS],
    runs: [Vec<u64>; PAGE_MAP_WORDS],
}

impl MemPage {
    fn empty() -> Self {
        MemPage {
            written: [0; PAGE_MAP_WORDS],
            runs: Default::default(),
        }
    }

    /// `slot`'s bitmap word, whether its block was written, and the
    /// block's rank: the written blocks below it in that word's run.
    fn locate(&self, slot: usize) -> (usize, bool, usize) {
        let (wi, bit) = (slot / 64, slot % 64);
        let word = self.written[wi];
        let rank = (word & ((1 << bit) - 1)).count_ones() as usize;
        (wi, word & (1 << bit) != 0, rank)
    }

    /// The words of the block at `slot`, if it was written.
    fn block(&self, slot: usize, wpb: usize) -> Option<&[u64]> {
        let (wi, written, rank) = self.locate(slot);
        written.then(|| &self.runs[wi][rank * wpb..(rank + 1) * wpb])
    }

    /// Writes the block at `slot`: in place if it was written, else
    /// inserted at its rank. Whether this was its first write.
    fn write(&mut self, slot: usize, words: &[u64]) -> bool {
        let (wi, written, rank) = self.locate(slot);
        let at = rank * words.len();
        let run = &mut self.runs[wi];
        if written {
            run[at..at + words.len()].copy_from_slice(words);
        } else {
            self.written[wi] |= 1 << (slot % 64);
            run.splice(at..at, words.iter().copied());
        }
        !written
    }
}

/// Splits a block address into `(page index, slot within page)`.
#[inline]
fn page_slot(block: BlockAddr) -> (usize, usize) {
    let index = block.index() as usize;
    (index / PAGE_BLOCKS, index % PAGE_BLOCKS)
}

/// Refuses a block the paged tables cannot hold: growing the page
/// directory up to it would ask for an absurd allocation.
fn check_limit(block: BlockAddr) {
    assert!(
        block.index() < BlockAddr::LIMIT,
        "block {block} is beyond the paged tables' limit of 2^32 blocks"
    );
}

/// The machine's backing store: every block of the address space,
/// zeros until written.
///
/// Module interleaving is a routing concern ([`crate::addr::ModuleMap`]);
/// `MainMemory` is the union of all modules' contents.
///
/// # Example
///
/// ```
/// use tmc_memsys::{BlockAddr, BlockSpec, MainMemory};
///
/// let mut mem = MainMemory::new(BlockSpec::new(2));
/// let b = BlockAddr::new(7);
/// assert_eq!(mem.read_block(b)[0], 0);
/// let mut data = mem.block_data(b);
/// data.set_word(0, 99);
/// mem.write_block(b, &data);
/// assert_eq!(mem.read_block(b)[0], 99);
/// ```
#[derive(Debug, Clone)]
pub struct MainMemory {
    spec: BlockSpec,
    pages: Vec<Option<Box<MemPage>>>,
    written: usize,
    zero: Vec<u64>,
}

impl MainMemory {
    /// Creates a memory with the given block geometry, all zeros.
    pub fn new(spec: BlockSpec) -> Self {
        MainMemory {
            spec,
            pages: Vec::new(),
            written: 0,
            zero: vec![0; spec.words_per_block()],
        }
    }

    /// Block geometry.
    pub fn spec(&self) -> BlockSpec {
        self.spec
    }

    /// Reads a block's words (zeros if never written).
    #[inline]
    pub fn read_block(&self, block: BlockAddr) -> &[u64] {
        self.written_block(block).unwrap_or(&self.zero)
    }

    /// Reads a block into an owned [`BlockData`] — the write-back / fill
    /// companion of [`MainMemory::read_block`].
    pub fn block_data(&self, block: BlockAddr) -> BlockData {
        BlockData::from_slice(self.read_block(block))
    }

    /// A block's words if it was ever written, `None` otherwise. A block
    /// written with zeros is distinct from a never-written block.
    #[inline]
    pub fn written_block(&self, block: BlockAddr) -> Option<&[u64]> {
        let (pi, slot) = page_slot(block);
        self.pages
            .get(pi)?
            .as_deref()?
            .block(slot, self.spec.words_per_block())
    }

    /// Overwrites a block (a write-back). The containing page is
    /// materialized on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `data` has the wrong word count for this memory's spec,
    /// or if `block` is at or beyond [`BlockAddr::LIMIT`].
    pub fn write_block(&mut self, block: BlockAddr, data: &BlockData) {
        assert_eq!(
            data.len(),
            self.spec.words_per_block(),
            "block size mismatch on write-back"
        );
        self.write_words(block, data.words());
    }

    /// [`MainMemory::write_block`] on a raw word slice. A first write
    /// inserts the block's words at its rank; an overwrite is in place.
    fn write_words(&mut self, block: BlockAddr, words: &[u64]) {
        check_limit(block);
        let (pi, slot) = page_slot(block);
        if pi >= self.pages.len() {
            self.pages.resize_with(pi + 1, || None);
        }
        let page = self.pages[pi].get_or_insert_with(|| Box::new(MemPage::empty()));
        if page.write(slot, words) {
            self.written += 1;
        }
    }

    /// Number of blocks ever written.
    pub fn dirty_blocks(&self) -> usize {
        self.written
    }

    /// Number of materialized pages: the pages holding a written block
    /// ([`MainMemory::page_blocks`] blocks each).
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Blocks per page of the paged layout.
    pub const fn page_blocks() -> usize {
        PAGE_BLOCKS
    }

    /// Iterates over every written block in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &[u64])> {
        let wpb = self.spec.words_per_block();
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(pi, p)| p.as_deref().map(|page| (pi, page)))
            .flat_map(move |(pi, page)| {
                page.written.iter().zip(&page.runs).enumerate().flat_map(
                    move |(wi, (&word, run))| {
                        set_bits(word)
                            .zip(run.chunks_exact(wpb))
                            .map(move |(bit, words)| {
                                let index = pi * PAGE_BLOCKS + wi * 64 + bit;
                                (BlockAddr::new(index as u64), words)
                            })
                    },
                )
            })
    }
}

/// Written-footprint equality: two memories are equal when the same set of
/// blocks was written with the same words, regardless of which pages
/// happen to be materialized. A block written with zeros still
/// distinguishes a memory from one that never wrote it.
impl PartialEq for MainMemory {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.written == other.written
            && self
                .iter()
                .all(|(block, words)| other.written_block(block) == Some(words))
    }
}

impl Eq for MainMemory {}

/// One page of the block store: a valid bitmap plus the owner id per slot
/// (structure-of-arrays, like the paper's V bit + log₂ N-bit ID field).
#[derive(Debug, Clone)]
struct StorePage {
    valid: [u64; PAGE_MAP_WORDS],
    owner: Vec<u16>,
}

impl StorePage {
    fn empty() -> Self {
        StorePage {
            valid: [0; PAGE_MAP_WORDS],
            owner: vec![0; PAGE_BLOCKS],
        }
    }
}

/// The paper's *block store* (§2.1): "Each memory module keeps track of the
/// owner for each of its cached blocks … Each entry contains a valid bit (V)
/// and an ID-field containing log₂ N bits storing the identification of the
/// owner for the block."
///
/// A clear valid bit models `V = 0` (no cache owns the block).
///
/// # Example
///
/// ```
/// use tmc_memsys::{BlockAddr, BlockStore, CacheId};
///
/// let mut store = BlockStore::new();
/// let b = BlockAddr::new(3);
/// assert_eq!(store.owner(b), None);
/// store.set_owner(b, CacheId(5));
/// assert_eq!(store.owner(b), Some(CacheId(5)));
/// store.clear(b);
/// assert_eq!(store.owner(b), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlockStore {
    pages: Vec<Option<Box<StorePage>>>,
    owned: usize,
}

impl BlockStore {
    /// Creates an empty store (no block owned).
    pub fn new() -> Self {
        BlockStore::default()
    }

    /// The owner of `block`, or `None` if the entry is invalid.
    #[inline]
    pub fn owner(&self, block: BlockAddr) -> Option<CacheId> {
        let (pi, slot) = page_slot(block);
        let page = self.pages.get(pi)?.as_ref()?;
        if page.valid[slot / 64] & (1 << (slot % 64)) == 0 {
            None
        } else {
            Some(CacheId(page.owner[slot]))
        }
    }

    /// Marks `cache` as the owner of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is at or beyond [`BlockAddr::LIMIT`].
    pub fn set_owner(&mut self, block: BlockAddr, cache: CacheId) {
        check_limit(block);
        let (pi, slot) = page_slot(block);
        if pi >= self.pages.len() {
            self.pages.resize_with(pi + 1, || None);
        }
        let page = self.pages[pi].get_or_insert_with(|| Box::new(StorePage::empty()));
        let bit = 1u64 << (slot % 64);
        if page.valid[slot / 64] & bit == 0 {
            page.valid[slot / 64] |= bit;
            self.owned += 1;
        }
        page.owner[slot] = cache.0;
    }

    /// Clears the entry for `block` (the owner replaced its only copy).
    pub fn clear(&mut self, block: BlockAddr) {
        let (pi, slot) = page_slot(block);
        let Some(Some(page)) = self.pages.get_mut(pi) else {
            return;
        };
        let bit = 1u64 << (slot % 64);
        if page.valid[slot / 64] & bit != 0 {
            page.valid[slot / 64] &= !bit;
            // Zero the stale id so equal stores serialize identically.
            page.owner[slot] = 0;
            self.owned -= 1;
        }
    }

    /// Number of currently owned blocks.
    pub fn owned_blocks(&self) -> usize {
        self.owned
    }

    /// Iterates over `(block, owner)` pairs in ascending block order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, CacheId)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(pi, p)| p.as_deref().map(|page| (pi, page)))
            .flat_map(|(pi, page)| {
                set_slots(&page.valid).map(move |slot| {
                    (
                        BlockAddr::new((pi * PAGE_BLOCKS + slot) as u64),
                        CacheId(page.owner[slot]),
                    )
                })
            })
    }
}

/// Entry-set equality: equal stores track the same owners for the same
/// blocks, regardless of page materialization history.
impl PartialEq for BlockStore {
    fn eq(&self, other: &Self) -> bool {
        self.owned == other.owned
            && self
                .iter()
                .all(|(block, owner)| other.owner(block) == Some(owner))
    }
}

impl Eq for BlockStore {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_defaults_to_zero() {
        let mem = MainMemory::new(BlockSpec::new(1));
        assert_eq!(mem.read_block(BlockAddr::new(1000)), &[0, 0]);
        assert_eq!(mem.dirty_blocks(), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn write_back_roundtrips() {
        let mut mem = MainMemory::new(BlockSpec::new(1));
        mem.write_block(BlockAddr::new(4), &BlockData::from_words(vec![7, 8]));
        assert_eq!(mem.read_block(BlockAddr::new(4)), &[7, 8]);
        assert_eq!(mem.block_data(BlockAddr::new(4)).words(), &[7, 8]);
        assert_eq!(mem.dirty_blocks(), 1);
        // Rewrites do not double-count.
        mem.write_block(BlockAddr::new(4), &BlockData::from_words(vec![9, 9]));
        assert_eq!(mem.dirty_blocks(), 1);
        assert_eq!(mem.read_block(BlockAddr::new(4)), &[9, 9]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn write_back_checks_geometry() {
        let mut mem = MainMemory::new(BlockSpec::new(2));
        mem.write_block(BlockAddr::new(0), &BlockData::from_words(vec![1]));
    }

    #[test]
    fn sparse_writes_touch_only_their_pages() {
        let mut mem = MainMemory::new(BlockSpec::new(0));
        mem.write_block(BlockAddr::new(3), &BlockData::from_words(vec![1]));
        mem.write_block(BlockAddr::new(2_000_000), &BlockData::from_words(vec![2]));
        assert_eq!(mem.dirty_blocks(), 2);
        assert_eq!(mem.resident_pages(), 2);
        assert_eq!(mem.read_block(BlockAddr::new(2_000_000)), &[2]);
        // A neighbor in a materialized page still reads as zero and is
        // distinct from a written block for equality purposes.
        assert_eq!(mem.read_block(BlockAddr::new(2_000_001)), &[0]);
        assert_eq!(mem.written_block(BlockAddr::new(2_000_001)), None);
    }

    #[test]
    fn memory_equality_ignores_materialization_history() {
        let spec = BlockSpec::new(0);
        let zero = BlockData::from_words(vec![0]);
        let one = BlockData::from_words(vec![1]);
        let mut a = MainMemory::new(spec);
        a.write_block(BlockAddr::new(5000), &one);
        a.write_block(BlockAddr::new(7), &zero);
        let mut b = MainMemory::new(spec);
        b.write_block(BlockAddr::new(7), &zero);
        b.write_block(BlockAddr::new(5000), &one);
        assert_eq!(a, b);
        // Written-with-zeros differs from never-written.
        let mut c = MainMemory::new(spec);
        c.write_block(BlockAddr::new(5000), &one);
        assert_ne!(a, c);
        c.write_block(BlockAddr::new(8), &zero);
        assert_ne!(a, c);
    }

    #[test]
    fn memory_iterates_in_ascending_order() {
        let mut mem = MainMemory::new(BlockSpec::new(0));
        for b in [9000u64, 3, 1025, 64] {
            mem.write_block(BlockAddr::new(b), &BlockData::from_words(vec![b]));
        }
        let got: Vec<u64> = mem.iter().map(|(b, _)| b.index()).collect();
        assert_eq!(got, [3, 64, 1025, 9000]);
    }

    #[test]
    fn block_store_tracks_ownership_changes() {
        let mut store = BlockStore::new();
        let b = BlockAddr::new(9);
        store.set_owner(b, CacheId(1));
        store.set_owner(b, CacheId(2)); // ownership migrates
        assert_eq!(store.owner(b), Some(CacheId(2)));
        assert_eq!(store.owned_blocks(), 1);
        store.clear(b);
        assert_eq!(store.owned_blocks(), 0);
        // Clearing an absent entry is a no-op even off any page.
        store.clear(BlockAddr::new(1 << 30));
        assert_eq!(store.owned_blocks(), 0);
    }

    #[test]
    fn block_store_iterates_entries() {
        let mut store = BlockStore::new();
        store.set_owner(BlockAddr::new(2), CacheId(3));
        store.set_owner(BlockAddr::new(1), CacheId(0));
        store.set_owner(BlockAddr::new(40_000), CacheId(7));
        let entries: Vec<_> = store.iter().collect();
        assert_eq!(
            entries,
            [
                (BlockAddr::new(1), CacheId(0)),
                (BlockAddr::new(2), CacheId(3)),
                (BlockAddr::new(40_000), CacheId(7))
            ]
        );
    }

    #[test]
    fn block_store_equality_ignores_page_history() {
        let mut a = BlockStore::new();
        a.set_owner(BlockAddr::new(1), CacheId(1));
        let mut b = BlockStore::new();
        b.set_owner(BlockAddr::new(1), CacheId(1));
        // Materialize and clear a faraway page in one of them only.
        b.set_owner(BlockAddr::new(100_000), CacheId(2));
        b.clear(BlockAddr::new(100_000));
        assert_eq!(a, b);
    }
}
