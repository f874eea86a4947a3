//! The home-side state of a baseline machine: the full-map directory that
//! the paper's comparison protocols keep at the memory modules.
//!
//! A [`System`](crate::System) built by
//! [`System::baseline`](crate::System::baseline) runs one of the paper's
//! §4 comparison protocols instead of the two-mode protocol. Its lines
//! carry no protocol state of their own: every copy is a plain valid
//! copy, and what the protocol knows lives here, per block — the caches
//! holding a copy and the one whose copy is newer than memory. The rule
//! tables of [`crate::ir`] read it through the home facts and change it
//! through the home-side steps. A two-mode machine has no `Home`.
//!
//! The directory is laid out like [`MainMemory`]: pages of
//! [`MainMemory::page_blocks`] entries, materialized on first touch, so a
//! lookup is a shift, a mask and an indexed load — no hashing, and no heap
//! per entry while a sharer set fits a [`DestSet`]'s inline forms.

use tmc_memsys::{BlockAddr, MainMemory};
use tmc_omeganet::DestSet;

use crate::ir::{
    Rule, DIR_READ_RULES, DIR_WRITE_RULES, NC_READ_RULES, NC_WRITE_RULES, UPD_READ_RULES,
    UPD_WRITE_RULES,
};

/// A comparison protocol of the paper's §4, run on the same machine as
/// the two-mode protocol so a bit costs the same whichever protocol sent
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// A Censier–Feautrier full-map write-invalidate directory: globally a
    /// block oscillates between shared (copies anywhere, memory current)
    /// and exclusive (one dirty copy), the write-once chain of eq. 10.
    DirectoryInvalidate,
    /// A Dragon-flavoured always-update protocol (eq. 11): a copy, once
    /// taken, is kept, and every write multicasts the word to the other
    /// holders. The last writer's copy is newer than memory.
    UpdateOnly,
    /// No caching (eq. 9): a read is a request plus a datum reply, a write
    /// one datum-bearing message.
    NoCache,
}

const PAGE_BLOCKS: usize = MainMemory::page_blocks();

/// One block's directory entry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sharing {
    /// The caches holding a copy.
    pub(crate) sharers: DestSet,
    /// The cache whose copy is newer than memory, if any: the exclusive
    /// holder under write-invalidate, the last writer under update-only.
    pub(crate) writer: Option<usize>,
}

/// The home-side state of a baseline machine.
#[derive(Debug, Clone)]
pub(crate) struct Home {
    pub(crate) protocol: Baseline,
    /// The read and write tables the protocol runs.
    pub(crate) read: &'static [Rule],
    pub(crate) write: &'static [Rule],
    pub(crate) table: SharerTable,
    /// The destinations of the cast being built: a sharer set without its
    /// sender, rebuilt in place for every cast.
    pub(crate) dests: DestSet,
}

impl Home {
    /// The empty directory of an `n_caches`-cache machine running
    /// `protocol`.
    pub(crate) fn new(protocol: Baseline, n_caches: usize) -> Self {
        let (read, write) = match protocol {
            Baseline::DirectoryInvalidate => (DIR_READ_RULES, DIR_WRITE_RULES),
            Baseline::UpdateOnly => (UPD_READ_RULES, UPD_WRITE_RULES),
            Baseline::NoCache => (NC_READ_RULES, NC_WRITE_RULES),
        };
        Home {
            protocol,
            read,
            write,
            table: SharerTable {
                pages: Vec::new(),
                untouched: Sharing {
                    sharers: DestSet::empty(n_caches),
                    writer: None,
                },
            },
            dests: DestSet::empty(n_caches),
        }
    }

    /// Loads the cast set with `block`'s sharers but `except`; whether
    /// anyone is left to cast to.
    pub(crate) fn load_dests(&mut self, block: BlockAddr, except: usize) -> bool {
        self.dests.clone_from(&self.table.get(block).sharers);
        self.dests.remove(except);
        !self.dests.is_empty()
    }
}

/// A paged table of [`Sharing`] entries.
#[derive(Debug, Clone)]
pub(crate) struct SharerTable {
    pages: Vec<Option<Box<[Sharing]>>>,
    /// The entry of every block no page holds yet.
    untouched: Sharing,
}

impl SharerTable {
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

    /// Every block whose entry names a sharer or a writer, in ascending
    /// block order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (BlockAddr, &Sharing)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(page, entries)| Some((page, entries.as_deref()?)))
            .flat_map(move |(page, entries)| {
                entries.iter().enumerate().filter_map(move |(slot, e)| {
                    let block = BlockAddr::new((page * PAGE_BLOCKS + slot) as u64);
                    (*e != self.untouched).then_some((block, e))
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
        let mut home = Home::new(Baseline::DirectoryInvalidate, 128).table;
        let far = BlockAddr::new(5 * PAGE_BLOCKS as u64 + 7);
        assert!(home.get(far).sharers.is_empty());
        assert!(home.pages.is_empty(), "reads materialize nothing");

        for p in 0..20 {
            home.entry(far).sharers.insert(p);
        }
        home.entry(far).writer = Some(3);
        home.entry(BlockAddr::new(2)).writer = Some(9);
        assert_eq!(home.get(far).sharers.len(), 20);
        assert_eq!(home.pages.iter().filter(|p| p.is_some()).count(), 2);
        let held: Vec<(BlockAddr, Option<usize>)> =
            home.iter().map(|(b, e)| (b, e.writer)).collect();
        assert_eq!(held, [(BlockAddr::new(2), Some(9)), (far, Some(3))]);
        // A neighbour on a materialized page is still untouched.
        assert!(home.get(BlockAddr::new(3)).sharers.is_empty());
    }
}
