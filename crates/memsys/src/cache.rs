//! A set-associative cache array generic over per-line protocol state.
//!
//! Each protocol in the workspace defines its own line type (state bits,
//! present vector, data, …); this container supplies the geometry: set
//! indexing by block address, way lookup by tag, and true-LRU replacement.
//!
//! The storage has two parts. A flat **slot table** holds one 16-byte
//! `[tag, place]` pair per `(set, way)` plus a parallel LRU stamp word; a
//! lookup scans the `ways` contiguous pairs of one set — no pointer
//! chasing, no per-way struct padding — and the place word beside the
//! matching tag says both whether the way is occupied and where its line
//! is, so a probe touches the set's pairs and the line, nothing else. The
//! lines themselves are stored in **rows** of `ways` lines, one row per set
//! that has ever held a line, appended in the order sets are first used;
//! a way keeps its place in its set's row for good.
//!
//! A cache costs what the run touches. Nothing is allocated until the first
//! line goes in; then the slot and stamp tables are sized for the whole
//! geometry, zero-filled straight from the allocator (place 0 = the set has
//! no row yet). The line store grows with use instead: it starts empty and
//! gains one row when a set is first used, doubling its capacity when full,
//! so a cache holding a handful of lines costs a handful of rows. Once it
//! holds four rows, its next growth reserves the whole geometry, so a cache
//! that fills reallocates its store three times at most. A cache whose
//! sets have all been used stops growing. Sweeping a cache
//! ([`CacheArray::iter`]) walks the rows that exist, not the geometry.

use crate::addr::BlockAddr;

/// Cache shape: number of sets and ways.
///
/// Total capacity is `sets × ways` blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    sets: usize,
    ways: usize,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` is a power of two and `ways ≥ 1`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways >= 1, "cache needs at least one way");
        CacheGeometry { sets, ways }
    }

    /// Number of sets.
    pub fn sets(self) -> usize {
        self.sets
    }

    /// Number of ways per set.
    pub fn ways(self) -> usize {
        self.ways
    }

    /// Total block capacity.
    pub fn capacity_blocks(self) -> usize {
        self.sets * self.ways
    }

    /// The set index for `block`.
    pub fn set_of(self, block: BlockAddr) -> usize {
        (block.index() as usize) & (self.sets - 1)
    }
}

/// Set in a slot's place word while the way holds a line.
const OCCUPIED: u64 = 1 << 63;

/// Rows up to which the line store grows by doubling; past them the next
/// growth reserves the whole geometry. Four keeps a sparse cache small and
/// gives a filling cache its full store early in its life. Doubling on to
/// 32 lines and beyond cost `bigN-zipf` a quarter of its set-up time
/// (docs/PERFORMANCE.md, "The line store grows with use").
const DOUBLING_ROWS: usize = 4;

/// Where a place word says the way's line is; the set must have a row.
#[inline]
fn position(place: u64) -> usize {
    (place & !OCCUPIED) as usize - 1
}

/// A set-associative, true-LRU cache array: a flat slot table over a store
/// of line rows, one row per set that has held a line.
///
/// `L` is whatever per-line state a protocol needs. Lookups by
/// [`CacheArray::get`]/[`CacheArray::get_mut`] refresh recency;
/// [`CacheArray::peek`] does not.
///
/// Two arrays are equal when they hold the same lines in the same slots
/// with the same stamps and clock — the order of the rows, which is the
/// order in which sets were first used, does not count.
///
/// # Example
///
/// ```
/// use tmc_memsys::{BlockAddr, CacheArray, CacheGeometry};
///
/// // Direct-mapped, 1 set: every block contends for one way.
/// let mut c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(1, 1));
/// assert!(c.insert(BlockAddr::new(1), 10).is_none());
/// let evicted = c.insert(BlockAddr::new(2), 20);
/// assert_eq!(evicted, Some((BlockAddr::new(1), 10)));
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray<L> {
    geometry: CacheGeometry,
    /// Slot `set * ways + way` holds `[tag, place]`: that way's block index
    /// and its place word — 0 until the way's set is first used, from then
    /// on one plus the fixed position of the way's line in `lines`, with
    /// [`OCCUPIED`] set while the way holds a line.
    slots: Vec<[u64; 2]>,
    /// Monotone use stamps, meaningful for occupied slots only; among the
    /// ways of a full set the smallest stamp is the least recently used.
    stamps: Vec<u64>,
    /// Rows of `ways` lines, one row per set that has held a line, in the
    /// order the sets were first used. A way's line is `Some` exactly while
    /// its place word has [`OCCUPIED`] set.
    lines: Vec<Option<L>>,
    /// The set each row of `lines` belongs to.
    row_sets: Vec<u32>,
    len: usize,
    tick: u64,
}

impl<L: PartialEq> PartialEq for CacheArray<L> {
    fn eq(&self, other: &Self) -> bool {
        self.geometry == other.geometry
            && self.len == other.len
            && self.tick == other.tick
            && self.slots().eq(other.slots())
    }
}

impl<L: Eq> Eq for CacheArray<L> {}

impl<L> CacheArray<L> {
    /// Creates an empty array with `geometry`. Nothing is allocated until
    /// the first line goes in.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than `u32::MAX` sets.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(
            u32::try_from(geometry.sets).is_ok(),
            "cache of {} sets exceeds the u32 row index",
            geometry.sets
        );
        CacheArray {
            geometry,
            slots: Vec::new(),
            stamps: Vec::new(),
            lines: Vec::new(),
            row_sets: Vec::new(),
            len: 0,
            tick: 0,
        }
    }

    /// Allocates the slot and stamp tables at full capacity, once, when the
    /// first line goes in: zero-filled slot words (no set has a row) and
    /// stamps. The line store is left empty; `add_row` grows it a row at a
    /// time.
    #[cold]
    fn allocate(&mut self) {
        let CacheGeometry { sets, ways } = self.geometry;
        self.slots = vec![[0; 2]; sets * ways];
        self.stamps = vec![0; sets * ways];
    }

    /// The array's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn next_stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The slot range of `block`'s set.
    #[inline]
    fn set_range(&self, block: BlockAddr) -> std::ops::Range<usize> {
        let base = self.geometry.set_of(block) * self.geometry.ways;
        base..base + self.geometry.ways
    }

    /// The slot holding `block` and the position of its line in `lines`, if
    /// resident.
    #[inline]
    fn locate(&self, block: BlockAddr) -> Option<(usize, usize)> {
        let idx = block.index();
        let range = self.set_range(block);
        let base = range.start;
        // `get`: a cache that never held a line has no tables yet.
        let set = self.slots.get(range)?;
        let way = set
            .iter()
            .position(|&[tag, place]| tag == idx && place & OCCUPIED != 0)?;
        Some((base + way, position(set[way][1])))
    }

    /// Looks up `block`, refreshing its recency.
    pub fn get(&mut self, block: BlockAddr) -> Option<&L> {
        self.get_mut(block).map(|l| &*l)
    }

    /// Mutable lookup, refreshing recency.
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
        let (slot, at) = self.locate(block)?;
        let stamp = self.next_stamp();
        self.stamps[slot] = stamp;
        self.lines[at].as_mut()
    }

    /// Looks up `block`, refreshing its recency only when the line found
    /// satisfies `used` — one tag probe for a caller that must see the
    /// line before it knows whether the access counts as a use.
    #[inline]
    pub fn get_if(&mut self, block: BlockAddr, used: impl FnOnce(&L) -> bool) -> Option<&L> {
        let (slot, at) = self.locate(block)?;
        let line = self.lines[at].as_ref()?;
        if used(line) {
            self.tick += 1;
            self.stamps[slot] = self.tick;
        }
        Some(line)
    }

    /// Looks up `block` without touching recency.
    pub fn peek(&self, block: BlockAddr) -> Option<&L> {
        let (_, at) = self.locate(block)?;
        self.lines[at].as_ref()
    }

    /// Mutable lookup without touching recency.
    pub fn peek_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
        let (_, at) = self.locate(block)?;
        self.lines[at].as_mut()
    }

    /// The block that would be evicted to make room for `incoming`, if its
    /// set is full and `incoming` is not already resident.
    pub fn would_evict(&self, incoming: BlockAddr) -> Option<(BlockAddr, &L)> {
        let mut lru: Option<usize> = None;
        for s in self.set_range(incoming) {
            let [tag, place] = *self.slots.get(s)?; // no tables yet: all room
            if place & OCCUPIED == 0 {
                return None; // room left: nothing would be evicted
            }
            if tag == incoming.index() {
                return None; // already resident: replaces in place
            }
            if lru.is_none_or(|l| self.stamps[s] < self.stamps[l]) {
                lru = Some(s);
            }
        }
        let [tag, place] = self.slots[lru?];
        let line = self.lines[position(place)].as_ref();
        Some((BlockAddr::new(tag), line.expect("occupied slot has a line")))
    }

    /// Appends a row of empty lines for `set`, which has none yet, and gives
    /// every way of the set its place in it. A full store doubles while it
    /// holds at most [`DOUBLING_ROWS`] rows; its next growth reserves the
    /// whole geometry.
    #[cold]
    fn add_row(&mut self, set: usize) {
        let ways = self.geometry.ways;
        let row = self.lines.len();
        if row + ways > self.lines.capacity() && row >= DOUBLING_ROWS * ways {
            self.lines
                .reserve_exact(self.geometry.capacity_blocks() - row);
        }
        self.lines.resize_with(row + ways, || None);
        for way in 0..ways {
            self.slots[set * ways + way][1] = (row + way + 1) as u64;
        }
        self.row_sets.push(set as u32);
    }

    /// Fills the free `slot`, adding its set's row on the set's first use.
    fn occupy(&mut self, slot: usize, tag: u64, stamp: u64, line: L) {
        if self.slots[slot][1] == 0 {
            self.add_row(slot / self.geometry.ways);
        }
        let place = &mut self.slots[slot][1];
        *place |= OCCUPIED;
        self.lines[position(*place)] = Some(line);
        self.slots[slot][0] = tag;
        self.stamps[slot] = stamp;
        self.len += 1;
    }

    /// Installs `line` for `block` (replacing any existing line for the same
    /// block), evicting and returning the LRU way if the set is full.
    pub fn insert(&mut self, block: BlockAddr, line: L) -> Option<(BlockAddr, L)> {
        if self.slots.is_empty() {
            self.allocate();
        }
        let stamp = self.next_stamp();
        let idx = block.index();
        // One scan of the set: the resident way wins, then the first free
        // way, then the least recently used one.
        let mut free: Option<usize> = None;
        let mut lru: Option<usize> = None;
        for s in self.set_range(block) {
            let [tag, place] = self.slots[s];
            if place & OCCUPIED == 0 {
                free = free.or(Some(s));
            } else if tag == idx {
                self.lines[position(place)] = Some(line);
                self.stamps[s] = stamp;
                return None;
            } else if lru.is_none_or(|l| self.stamps[s] < self.stamps[l]) {
                lru = Some(s);
            }
        }
        if let Some(slot) = free {
            self.occupy(slot, idx, stamp, line);
            return None;
        }
        let slot = lru.expect("ways >= 1 by construction");
        let [victim, place] = self.slots[slot];
        let old = self.lines[position(place)].replace(line);
        self.slots[slot][0] = idx;
        self.stamps[slot] = stamp;
        Some((
            BlockAddr::new(victim),
            old.expect("occupied slot has a line"),
        ))
    }

    /// Removes `block`, returning its line if it was resident.
    pub fn remove(&mut self, block: BlockAddr) -> Option<L> {
        let (slot, at) = self.locate(block)?;
        self.slots[slot][1] &= !OCCUPIED;
        self.len -= 1;
        self.lines[at].take()
    }

    /// Iterates over `(block, line)` pairs row by row — the order in which
    /// sets were first used, which depends on the array's history: callers
    /// whose output must be a function of the contents alone sort, or use
    /// [`CacheArray::slots`].
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &L)> {
        let ways = self.geometry.ways;
        self.lines
            .chunks(ways)
            .zip(&self.row_sets)
            .flat_map(move |(row, &set)| {
                let slots = &self.slots[set as usize * ways..][..ways];
                row.iter()
                    .zip(slots)
                    .filter_map(|(line, &[tag, _])| Some((BlockAddr::new(tag), line.as_ref()?)))
            })
    }

    /// Iterates mutably over `(block, line)` pairs, in the order of
    /// [`CacheArray::iter`].
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (BlockAddr, &mut L)> {
        let ways = self.geometry.ways;
        let slots = &self.slots;
        self.lines
            .chunks_mut(ways)
            .zip(&self.row_sets)
            .flat_map(move |(row, &set)| {
                let slots = &slots[set as usize * ways..][..ways];
                row.iter_mut()
                    .zip(slots)
                    .filter_map(|(line, &[tag, _])| Some((BlockAddr::new(tag), line.as_mut()?)))
            })
    }

    /// Iterates over every occupied slot as `(slot, tag, stamp, line)`, in
    /// ascending slot order. This is the array's logical state — together
    /// with [`CacheArray::tick`] it lets a checkpoint codec rebuild an equal
    /// array via [`CacheArray::restore_slot`] /
    /// [`CacheArray::restore_tick`], LRU order included.
    pub fn slots(&self) -> impl Iterator<Item = (usize, u64, u64, &L)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &[_, place])| place & OCCUPIED != 0)
            .map(|(s, &[tag, place])| {
                let line = self.lines[position(place)].as_ref();
                (
                    s,
                    tag,
                    self.stamps[s],
                    line.expect("occupied slot has a line"),
                )
            })
    }

    /// The current LRU clock (the stamp most recently issued).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Places `line` into slot `slot` with the exact `tag` and `stamp`
    /// recorded by [`CacheArray::slots`], without touching the LRU clock.
    /// Restore every saved slot, then finish with
    /// [`CacheArray::restore_tick`].
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range, already occupied, or `stamp` is 0
    /// (the clock issues stamps from 1) — a checkpoint codec must validate
    /// before calling.
    pub fn restore_slot(&mut self, slot: usize, tag: u64, stamp: u64, line: L) {
        assert!(
            slot < self.geometry.capacity_blocks(),
            "slot {slot} out of range"
        );
        if self.slots.is_empty() {
            self.allocate();
        }
        assert!(
            self.slots[slot][1] & OCCUPIED == 0,
            "slot {slot} already occupied"
        );
        assert!(stamp != 0, "stamp 0 is never issued");
        self.occupy(slot, tag, stamp, line);
    }

    /// Restores the LRU clock saved via [`CacheArray::tick`].
    ///
    /// # Panics
    ///
    /// Panics if `tick` is smaller than some resident stamp (the clock must
    /// never run behind issued stamps).
    pub fn restore_tick(&mut self, tick: u64) {
        let max_stamp = self
            .slots
            .iter()
            .zip(&self.stamps)
            .filter(|(&[_, place], _)| place & OCCUPIED != 0)
            .map(|(_, &stamp)| stamp)
            .max()
            .unwrap_or(0);
        assert!(
            tick >= max_stamp,
            "tick {tick} runs behind resident stamp {max_stamp}"
        );
        self.tick = tick;
    }

    /// Absorbs every resident line of `other` into `self`, asserting that no
    /// insertion evicts. Valid only when the two arrays' resident blocks map
    /// to disjoint sets (the shard-merge invariant: a shard's blocks fill
    /// sets no other shard touches). Recency stamps are re-issued in
    /// `other`'s LRU order, so relative recency within each absorbed set is
    /// preserved.
    ///
    /// # Panics
    ///
    /// Panics if `self` and `other` have different geometries, or if an
    /// insertion would evict a resident line (overlapping sets).
    pub fn absorb(&mut self, other: CacheArray<L>) {
        assert_eq!(
            self.geometry, other.geometry,
            "absorb requires identical geometries"
        );
        let ways = other.geometry.ways;
        let mut resident: Vec<(u64, BlockAddr, L)> = other
            .lines
            .into_iter()
            .enumerate()
            .filter_map(|(at, line)| {
                let slot = other.row_sets[at / ways] as usize * ways + at % ways;
                let tag = other.slots[slot][0];
                Some((other.stamps[slot], BlockAddr::new(tag), line?))
            })
            .collect();
        resident.sort_by_key(|&(stamp, _, _)| stamp);
        for (_, block, line) in resident {
            let evicted = self.insert(block, line);
            assert!(
                evicted.is_none(),
                "absorb must not evict: shard sets overlap at {block}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(i)
    }

    #[test]
    fn hit_miss_and_reinsert() {
        let mut c: CacheArray<u8> = CacheArray::new(CacheGeometry::new(2, 2));
        assert!(c.get(b(4)).is_none());
        assert!(c.insert(b(4), 1).is_none());
        assert_eq!(c.get(b(4)), Some(&1));
        // Re-inserting the same block replaces in place — no eviction.
        assert!(c.insert(b(4), 2).is_none());
        assert_eq!(c.peek(b(4)), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: CacheArray<&str> = CacheArray::new(CacheGeometry::new(1, 2));
        c.insert(b(0), "a");
        c.insert(b(1), "b");
        c.get(b(0)); // refresh a; b is now LRU
        assert_eq!(c.would_evict(b(2)), Some((b(1), &"b")));
        let evicted = c.insert(b(2), "c");
        assert_eq!(evicted, Some((b(1), "b")));
        assert!(c.peek(b(0)).is_some());
        assert!(c.peek(b(2)).is_some());
    }

    #[test]
    fn peek_does_not_refresh_recency() {
        let mut c: CacheArray<u8> = CacheArray::new(CacheGeometry::new(1, 2));
        c.insert(b(0), 0);
        c.insert(b(1), 1);
        c.peek(b(0)); // must not rescue block 0
        let evicted = c.insert(b(2), 2);
        assert_eq!(evicted, Some((b(0), 0)));
    }

    #[test]
    fn sets_are_independent() {
        let mut c: CacheArray<u8> = CacheArray::new(CacheGeometry::new(2, 1));
        c.insert(b(0), 0); // set 0
        c.insert(b(1), 1); // set 1
        assert_eq!(c.len(), 2);
        // Block 2 maps to set 0 and evicts only from there.
        let evicted = c.insert(b(2), 2);
        assert_eq!(evicted, Some((b(0), 0)));
        assert_eq!(c.peek(b(1)), Some(&1));
    }

    #[test]
    fn would_evict_none_when_room_or_resident() {
        let mut c: CacheArray<u8> = CacheArray::new(CacheGeometry::new(1, 2));
        assert!(c.would_evict(b(0)).is_none()); // room
        c.insert(b(0), 0);
        c.insert(b(1), 1);
        assert!(c.would_evict(b(0)).is_none()); // already resident
        assert!(c.would_evict(b(2)).is_some()); // full, foreign block
    }

    #[test]
    fn remove_and_iter() {
        let mut c: CacheArray<u8> = CacheArray::new(CacheGeometry::new(4, 2));
        for i in 0..6 {
            c.insert(b(i), i as u8);
        }
        assert_eq!(c.remove(b(3)), Some(3));
        assert_eq!(c.remove(b(3)), None);
        let mut blocks: Vec<u64> = c.iter().map(|(bl, _)| bl.index()).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, [0, 1, 2, 4, 5]);
        for (_, line) in c.iter_mut() {
            *line += 10;
        }
        assert_eq!(c.peek(b(0)), Some(&10));
    }

    #[test]
    fn remove_then_reinsert_reuses_the_way() {
        let mut c: CacheArray<u8> = CacheArray::new(CacheGeometry::new(1, 2));
        c.insert(b(0), 0);
        c.insert(b(1), 1);
        assert_eq!(c.remove(b(0)), Some(0));
        assert_eq!(c.len(), 1);
        // The freed way takes the new block without evicting block 1.
        assert!(c.insert(b(2), 2).is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(b(1)), Some(&1));
        assert_eq!(c.peek(b(2)), Some(&2));
    }

    #[test]
    fn capacity_accounts_geometry() {
        let g = CacheGeometry::new(8, 4);
        assert_eq!(g.capacity_blocks(), 32);
        assert_eq!(g.set_of(b(13)), 13 % 8);
    }

    #[test]
    fn absorb_merges_disjoint_sets_preserving_recency() {
        let g = CacheGeometry::new(2, 2);
        // Shard 0 fills set 0 (even blocks), shard 1 fills set 1 (odd).
        let mut even: CacheArray<u8> = CacheArray::new(g);
        even.insert(b(0), 10);
        even.insert(b(2), 12);
        even.get(b(0)); // block 2 is now LRU in set 0
        let mut odd: CacheArray<u8> = CacheArray::new(g);
        odd.insert(b(1), 11);
        even.absorb(odd);
        assert_eq!(even.len(), 3);
        assert_eq!(even.peek(b(1)), Some(&11));
        // Recency within the absorbed sets survived the merge.
        assert_eq!(even.would_evict(b(4)).map(|(bl, _)| bl), Some(b(2)));
    }

    #[test]
    fn slots_roundtrip_rebuilds_exact_state() {
        let mut c: CacheArray<u8> = CacheArray::new(CacheGeometry::new(2, 2));
        for i in 0..5 {
            c.insert(b(i), i as u8);
        }
        c.get(b(2)); // perturb recency so stamps are not insertion order
        let mut rebuilt: CacheArray<u8> = CacheArray::new(c.geometry());
        for (slot, tag, stamp, line) in c.slots() {
            rebuilt.restore_slot(slot, tag, stamp, *line);
        }
        rebuilt.restore_tick(c.tick());
        assert_eq!(rebuilt, c);
        // The restored clock keeps issuing fresh stamps.
        rebuilt.get(b(2));
        c.get(b(2));
        assert_eq!(rebuilt, c);
    }

    /// Two histories that end in the same logical contents — same lines in
    /// the same slots, same stamps, same clock — with the line rows in a
    /// different order: `a` uses set 0 first and only inserts; `c` uses set
    /// 1 first and evicts, removes and re-inserts on the way.
    fn same_contents_two_histories() -> (CacheArray<u8>, CacheArray<u8>) {
        let g = CacheGeometry::new(2, 2);
        let mut a: CacheArray<u8> = CacheArray::new(g);
        for i in 0..4 {
            a.insert(b(i), i as u8); // stamps 1..=4
        }
        for _ in 0..3 {
            a.get(b(0)); // stamps 5..=7
        }
        let mut c: CacheArray<u8> = CacheArray::new(g);
        c.insert(b(1), 1); // set 1, way 0
        c.insert(b(0), 0); // set 0, way 0
        c.insert(b(4), 4); // set 0, way 1
        c.get(b(0));
        assert_eq!(c.insert(b(2), 2), Some((b(4), 4))); // evicts into way 1
        assert_eq!(c.remove(b(0)), Some(0));
        c.insert(b(0), 0); // back into the freed way 0
        c.insert(b(3), 3); // set 1, way 1; stamp 7
        for i in 0..4 {
            a.get(b(i));
            c.get(b(i)); // stamps 8..=11 on both
        }
        (a, c)
    }

    #[test]
    fn equality_ignores_row_order() {
        let (a, c) = same_contents_two_histories();
        let order = |x: &CacheArray<u8>| x.iter().map(|(bl, _)| bl.index()).collect::<Vec<_>>();
        assert_eq!(order(&a), [0, 2, 1, 3]);
        assert_eq!(order(&c), [1, 3, 0, 2], "the histories must differ");
        assert_eq!(a, c);
        assert!(a.slots().eq(c.slots()));
        // ...and a difference in any logical part still shows.
        let mut d = c.clone();
        d.get(b(3));
        assert_ne!(a, d);
        let mut e = c.clone();
        *e.peek_mut(b(1)).unwrap() = 99;
        assert_ne!(a, e);
    }

    #[test]
    fn equal_arrays_behave_equally_afterwards() {
        let (mut a, mut c) = same_contents_two_histories();
        for i in 4..12 {
            assert_eq!(a.would_evict(b(i)), c.would_evict(b(i)));
            assert_eq!(a.insert(b(i), i as u8), c.insert(b(i), i as u8));
            assert_eq!(a.remove(b(i - 2)), c.remove(b(i - 2)));
            assert_eq!(a, c);
        }
    }

    #[test]
    fn untouched_array_answers_without_tables() {
        let g = CacheGeometry::new(4, 2);
        let mut fresh: CacheArray<u8> = CacheArray::new(g);
        assert!(fresh.is_empty());
        assert!(fresh.peek(b(3)).is_none());
        assert!(fresh.get(b(3)).is_none());
        assert!(fresh.would_evict(b(3)).is_none());
        assert!(fresh.remove(b(3)).is_none());
        assert_eq!(fresh.iter().count(), 0);
        assert_eq!(fresh.iter_mut().count(), 0);
        assert_eq!(fresh.slots().count(), 0);
        // An array emptied again equals one that never held a line.
        let mut emptied: CacheArray<u8> = CacheArray::new(g);
        emptied.insert(b(3), 3);
        emptied.remove(b(3));
        fresh.restore_tick(1);
        assert_eq!(fresh, emptied);
    }

    #[test]
    fn line_store_grows_with_use() {
        let g = CacheGeometry::new(64, 4);
        let mut c: CacheArray<u8> = CacheArray::new(g);
        c.insert(b(0), 0);
        assert_eq!(c.lines.len(), 4, "one row for the one set used");
        for i in 1..DOUBLING_ROWS as u64 {
            c.insert(b(i), i as u8);
        }
        assert_eq!(c.lines.capacity(), DOUBLING_ROWS * 4);
        c.insert(b(DOUBLING_ROWS as u64), 0);
        assert_eq!(c.lines.capacity(), g.capacity_blocks());
        // Filling every set stays inside that one reservation.
        for i in 1..64 {
            c.insert(b(i), i as u8);
        }
        assert_eq!(c.lines.len(), g.capacity_blocks());
        assert_eq!(c.lines.capacity(), g.capacity_blocks());
        assert_eq!(c.row_sets.len(), 64);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn restore_slot_rejects_double_restore() {
        let mut c: CacheArray<u8> = CacheArray::new(CacheGeometry::new(1, 1));
        c.restore_slot(0, 3, 1, 9);
        c.restore_slot(0, 3, 2, 9);
    }

    #[test]
    #[should_panic(expected = "runs behind")]
    fn restore_tick_rejects_stale_clock() {
        let mut c: CacheArray<u8> = CacheArray::new(CacheGeometry::new(1, 1));
        c.restore_slot(0, 3, 7, 9);
        c.restore_tick(3);
    }

    #[test]
    #[should_panic(expected = "absorb must not evict")]
    fn absorb_rejects_overlapping_sets() {
        let g = CacheGeometry::new(1, 1);
        let mut a: CacheArray<u8> = CacheArray::new(g);
        a.insert(b(0), 0);
        let mut c: CacheArray<u8> = CacheArray::new(g);
        c.insert(b(1), 1);
        a.absorb(c);
    }
}
