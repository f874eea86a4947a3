//! The directory frame both directory engines share: every cache's lines,
//! the full-map directory at the memory modules, and the [`Node`] beneath
//! them. Install, replacement, `flush` and `peek_word` live here once; an
//! engine adds only its read-miss and write paths.
//!
//! The directory keeps, per block, the caches holding a copy and the one
//! whose copy is newer than memory. It is laid out like [`MainMemory`]:
//! pages of [`MainMemory::page_blocks`] entries, materialized on first
//! touch, so a lookup is a shift, a mask and an indexed load — no hashing,
//! and no heap per entry while a sharer set fits a [`DestSet`]'s inline
//! forms.

use tmc_memsys::{BlockAddr, BlockData, CacheArray, CacheGeometry, MainMemory, WordAddr};
use tmc_omeganet::DestSet;

use crate::node::Node;

const PAGE_BLOCKS: usize = MainMemory::page_blocks();

/// One block's directory entry.
#[derive(Debug, Clone)]
pub(crate) struct Sharing {
    /// The caches holding a copy.
    pub(crate) sharers: DestSet,
    /// The cache whose copy is newer than memory, if any: the exclusive
    /// holder under write-invalidate (a line is exclusive exactly when its
    /// cache is named here), the last writer under update-only.
    pub(crate) writer: Option<usize>,
}

/// A paged table of [`Sharing`] entries.
pub(crate) struct SharerTable {
    pages: Vec<Option<Box<[Sharing]>>>,
    /// The entry of every block no page holds yet.
    untouched: Sharing,
}

impl SharerTable {
    /// An empty table for an `n_procs`-cache machine.
    pub(crate) fn new(n_procs: usize) -> Self {
        SharerTable {
            pages: Vec::new(),
            untouched: Sharing {
                sharers: DestSet::empty(n_procs),
                writer: None,
            },
        }
    }

    /// `block`'s entry.
    #[inline]
    pub(crate) fn get(&self, block: BlockAddr) -> &Sharing {
        let (page, slot) = page_slot(block);
        match self.pages.get(page) {
            Some(Some(entries)) => &entries[slot],
            _ => &self.untouched,
        }
    }

    /// `block`'s entry, materializing its page on first touch.
    #[inline]
    pub(crate) fn entry(&mut self, block: BlockAddr) -> &mut Sharing {
        let (page, slot) = page_slot(block);
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let untouched = &self.untouched;
        let entries = self.pages[page]
            .get_or_insert_with(|| vec![untouched.clone(); PAGE_BLOCKS].into_boxed_slice());
        &mut entries[slot]
    }

    /// Every block with a writer, and the writer, in ascending block order.
    pub(crate) fn writers(&self) -> impl Iterator<Item = (BlockAddr, usize)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(page, entries)| Some((page, entries.as_deref()?)))
            .flat_map(|(page, entries)| {
                entries.iter().enumerate().filter_map(move |(slot, e)| {
                    let block = BlockAddr::new((page * PAGE_BLOCKS + slot) as u64);
                    Some((block, e.writer?))
                })
            })
    }
}

#[inline]
fn page_slot(block: BlockAddr) -> (usize, usize) {
    let index = block.index() as usize;
    (index / PAGE_BLOCKS, index % PAGE_BLOCKS)
}

/// A directory engine's caches and sharer table over its [`Node`].
pub(crate) struct DirectoryFrame {
    pub(crate) node: Node,
    pub(crate) caches: Vec<CacheArray<BlockData>>,
    pub(crate) sharers: SharerTable,
}

impl DirectoryFrame {
    /// An `n_procs`-cache machine whose caches have `geometry`.
    ///
    /// # Panics
    ///
    /// Panics unless `n_procs` is a power of two in `2..=65536`.
    pub(crate) fn new(n_procs: usize, geometry: CacheGeometry) -> Self {
        DirectoryFrame {
            node: Node::new(n_procs),
            caches: (0..n_procs).map(|_| CacheArray::new(geometry)).collect(),
            sharers: SharerTable::new(n_procs),
        }
    }

    /// `proc` reads `addr`: a hit is served by its cache, a miss by
    /// `fetch`, whose block `proc` then installs.
    #[inline]
    pub(crate) fn read(
        &mut self,
        proc: usize,
        addr: WordAddr,
        fetch: impl FnOnce(&mut Self, usize, BlockAddr) -> BlockData,
    ) -> u64 {
        let before = self.node.begin(proc);
        let block = self.node.spec.block_of(addr);
        let offset = self.node.spec.offset_of(addr);
        let cached = self.caches[proc].get(block).map(|line| line.word(offset));
        let hit = cached.is_some();
        let value = if let Some(value) = cached {
            self.node.counters.incr("read_hit");
            value
        } else {
            self.node.counters.incr("read_miss");
            let data = fetch(self, proc, block);
            let value = data.word(offset);
            self.install(proc, block, data);
            value
        };
        self.node.record(false, proc, addr, value, hit, before);
        value
    }

    /// `proc` writes `value` to `addr` by `write`, which is handed the
    /// block and offset and says whether the write hit.
    #[inline]
    pub(crate) fn write(
        &mut self,
        proc: usize,
        addr: WordAddr,
        value: u64,
        write: impl FnOnce(&mut Self, usize, BlockAddr, usize, u64) -> bool,
    ) {
        let before = self.node.begin(proc);
        let block = self.node.spec.block_of(addr);
        let offset = self.node.spec.offset_of(addr);
        let hit = write(self, proc, block, offset, value);
        self.node.record(true, proc, addr, value, hit, before);
    }

    /// Installs `proc`'s copy of `block` and enrolls it as a sharer,
    /// running replacement actions for the evicted victim.
    pub(crate) fn install(&mut self, proc: usize, block: BlockAddr, data: BlockData) {
        if let Some((victim, line)) = self.caches[proc].insert(block, data) {
            self.replace(proc, victim, line);
        }
        self.sharers.entry(block).sharers.insert(proc);
    }

    fn replace(&mut self, proc: usize, victim: BlockAddr, line: BlockData) {
        let node = &mut self.node;
        node.counters.incr("replacements");
        let home = node.home(victim);
        let entry = self.sharers.entry(victim);
        if entry.writer == Some(proc) {
            // Our copy is newer than memory: write it back.
            node.send(proc, home, node.sizing.block_transfer_bits());
            node.counters.incr("writebacks");
            node.memory.write_block(victim, &line);
            entry.writer = None;
        } else {
            node.send(proc, home, node.sizing.request_bits());
        }
        entry.sharers.remove(proc);
    }

    /// Writes every copy newer than memory back to it (end of run).
    pub(crate) fn flush(&mut self) {
        let dirty: Vec<(BlockAddr, usize)> = self.sharers.writers().collect();
        for (block, writer) in dirty {
            let line = self.caches[writer].peek(block).expect("writer holds it");
            let home = self.node.home(block);
            self.node
                .send(writer, home, self.node.sizing.block_transfer_bits());
            self.node.counters.incr("writebacks");
            self.node.memory.write_block(block, line);
            self.sharers.entry(block).writer = None;
        }
    }

    /// The current value of the word at `addr`: the writer's copy if the
    /// block has one, else memory's.
    pub(crate) fn peek_word(&self, addr: WordAddr) -> u64 {
        let block = self.node.spec.block_of(addr);
        if let Some(writer) = self.sharers.get(block).writer {
            if let Some(line) = self.caches[writer].peek(block) {
                return line.word(self.node.spec.offset_of(addr));
            }
        }
        self.node.memory_word(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_materialize_by_page_and_list_their_writers() {
        let mut table = SharerTable::new(128);
        let far = BlockAddr::new(5 * PAGE_BLOCKS as u64 + 7);
        assert!(table.get(far).sharers.is_empty());
        assert!(table.pages.is_empty(), "reads materialize nothing");

        for p in 0..20 {
            table.entry(far).sharers.insert(p);
        }
        table.entry(far).writer = Some(3);
        table.entry(BlockAddr::new(2)).writer = Some(9);
        assert_eq!(table.get(far).sharers.len(), 20);
        assert_eq!(table.pages.iter().filter(|p| p.is_some()).count(), 2);
        assert_eq!(
            table.writers().collect::<Vec<_>>(),
            [(BlockAddr::new(2), 9), (far, 3)]
        );
        // A neighbour on a materialized page is still untouched.
        assert!(table.get(BlockAddr::new(3)).sharers.is_empty());
    }
}
