//! The full-map directory both directory engines keep at the memory
//! modules: per block, the caches holding a copy and the one whose copy is
//! newer than memory. Laid out like [`MainMemory`]: pages of
//! [`MainMemory::page_blocks`] entries, materialized on first touch, so a
//! lookup is a shift, a mask and an indexed load — no hashing, and no heap
//! per entry while a sharer set fits a [`DestSet`]'s inline forms.

use tmc_memsys::{BlockAddr, MainMemory};
use tmc_omeganet::DestSet;

const PAGE_BLOCKS: usize = MainMemory::page_blocks();

/// One block's directory entry.
#[derive(Debug, Clone)]
pub(crate) struct Sharing {
    /// The caches holding a copy.
    pub(crate) sharers: DestSet,
    /// The cache whose copy is newer than memory, if any: the exclusive
    /// holder under write-invalidate, the last writer under update-only.
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
