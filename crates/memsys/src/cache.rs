//! A set-associative cache array generic over per-line protocol state.
//!
//! Each protocol in the workspace defines its own line type (state bits,
//! present vector, data, …); this container supplies the geometry: set
//! indexing by block address, way lookup by tag, and true-LRU replacement.
//!
//! The storage has two parts. A flat **slot table** holds one 8-byte
//! `[tag, place]` pair of `u32`s per `(set, way)` plus a parallel LRU
//! stamp word; a lookup scans the `ways` contiguous pairs of one set — no
//! pointer chasing, no per-way struct padding — and the place word beside
//! the matching tag says both whether the way is occupied and where its
//! line is, so a probe touches the set's pairs and the line, nothing else. The
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
//!
//! Both halves of a pair fit 32 bits by construction: a tag is a block
//! index below [`BlockAddr::LIMIT`], and a place word is one plus a line's
//! position, at most [`CacheGeometry::MAX_BLOCKS`], beside the occupied
//! bit.

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
    /// The most blocks one cache may hold: a line's place in the line
    /// store, plus one, shares a 32-bit slot word with the occupied bit.
    /// Machines that name a larger geometry are refused before any cache
    /// is built (`SystemConfig::checked_shape`, `System::new`).
    pub const MAX_BLOCKS: usize = (1 << 31) - 1;

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

    /// Whether a cache of this shape fits [`CacheGeometry::MAX_BLOCKS`].
    pub fn fits(self) -> bool {
        self.sets
            .checked_mul(self.ways)
            .is_some_and(|blocks| blocks <= Self::MAX_BLOCKS)
    }

    /// The set index for `block`.
    pub fn set_of(self, block: BlockAddr) -> usize {
        (block.index() as usize) & (self.sets - 1)
    }
}

/// Set in a slot's place word while the way holds a line.
const OCCUPIED: u32 = 1 << 31;

/// Rows up to which the line store grows by doubling; past them the next
/// growth reserves the whole geometry. Four keeps a sparse cache small and
/// gives a filling cache its full store early in its life. Doubling on to
/// 32 lines and beyond cost `bigN-zipf` a quarter of its set-up time
/// (docs/PERFORMANCE.md, "The line store grows with use").
const DOUBLING_ROWS: usize = 4;

/// Where a place word says the way's line is; the set must have a row.
#[inline]
fn position(place: u32) -> usize {
    (place & !OCCUPIED) as usize - 1
}

/// The slot-table tag of `block`, if it has one: blocks at or beyond
/// [`BlockAddr::LIMIT`] are never resident.
#[inline]
fn tag_of(block: BlockAddr) -> Option<u32> {
    u32::try_from(block.index()).ok()
}

/// A handle on one resident line: its slot and the place of its line in
/// the store, as a lookup found them, so that later steps of the same
/// transaction reach the line without scanning its set again.
///
/// A handle stays valid until the next [`CacheArray::insert`],
/// [`CacheArray::remove`], [`CacheArray::fill`] or [`CacheArray::take`]
/// on the array that issued it; inserts and removes on other arrays, and
/// changes made to lines in place, leave it valid. Debug builds check
/// every use against the slot's tag and the array's count of inserts and
/// removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRef {
    slot: u32,
    at: u32,
    #[cfg(debug_assertions)]
    tag: u32,
    #[cfg(debug_assertions)]
    epoch: u64,
}

impl LineRef {
    #[inline]
    fn slot(self) -> usize {
        self.slot as usize
    }

    #[inline]
    fn at(self) -> usize {
        self.at as usize
    }
}

/// Where [`CacheArray::fill`] will put a block, found by one scan of its
/// set ([`CacheArray::room`]): the block's own way when it is resident,
/// else the first free way, else the way of the set's least recently used
/// line, which must be taken out first.
#[derive(Debug, Clone, Copy)]
pub struct Room {
    slot: usize,
    resident: Option<LineRef>,
    victim: Option<LineRef>,
}

impl Room {
    /// The line a fill of a full set displaces, if the block is not
    /// resident and the set has no free way: take it out
    /// ([`CacheArray::take`]) before the fill.
    pub fn victim(&self) -> Option<LineRef> {
        self.victim
    }
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
    /// (below [`BlockAddr::LIMIT`]) and its place word — 0 until the way's
    /// set is first used, from then on one plus the fixed position of the
    /// way's line in `lines`, with [`OCCUPIED`] set while the way holds a
    /// line.
    slots: Vec<[u32; 2]>,
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
    /// Inserts and removes so far: a [`LineRef`] issued before the latest
    /// is stale.
    #[cfg(debug_assertions)]
    epoch: u64,
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
    /// Panics if the geometry has more than [`CacheGeometry::MAX_BLOCKS`]
    /// blocks.
    pub fn new(geometry: CacheGeometry) -> Self {
        let CacheGeometry { sets, ways } = geometry;
        assert!(
            geometry.fits(),
            "cache of {sets}x{ways} blocks exceeds the {} line bound",
            CacheGeometry::MAX_BLOCKS
        );
        CacheArray {
            geometry,
            slots: Vec::new(),
            stamps: Vec::new(),
            lines: Vec::new(),
            row_sets: Vec::new(),
            len: 0,
            tick: 0,
            #[cfg(debug_assertions)]
            epoch: 0,
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

    /// A handle on the line at `slot`, whose place word puts it at `at`.
    #[inline]
    fn handle(&self, slot: usize, at: usize) -> LineRef {
        LineRef {
            slot: slot as u32,
            at: at as u32,
            #[cfg(debug_assertions)]
            tag: self.slots[slot][0],
            #[cfg(debug_assertions)]
            epoch: self.epoch,
        }
    }

    /// Checks in debug builds that `line` still names the line it was
    /// issued for.
    #[inline]
    fn check(&self, line: LineRef) {
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                line.epoch, self.epoch,
                "line handle used after an insert or remove on its array"
            );
            let [tag, place] = self.slots[line.slot()];
            assert!(
                tag == line.tag && place & OCCUPIED != 0 && position(place) == line.at(),
                "line handle does not name a resident line of this array"
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = line;
    }

    /// Counts an insert or remove: every handle issued so far goes stale.
    #[inline]
    fn moved(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.epoch += 1;
        }
    }

    /// Finds `block`'s line, scanning its set until the matching way: the
    /// cheapest probe when the lookup decides what happens next, as a
    /// processor's own tag probe does.
    #[inline]
    pub fn find(&self, block: BlockAddr) -> Option<LineRef> {
        let idx = tag_of(block)?;
        let range = self.set_range(block);
        let base = range.start;
        // `get`: a cache that never held a line has no tables yet.
        let set = self.slots.get(range)?;
        let way = set
            .iter()
            .position(|&[tag, place]| tag == idx && place & OCCUPIED != 0)?;
        Some(self.handle(base + way, position(set[way][1])))
    }

    /// Finds `block`'s line like [`CacheArray::find`], but compares every
    /// way of the set and selects the match without branching on it. A
    /// loop that probes one block in many caches back to back (delivering
    /// a multicast to its holders) runs without a mispredicted exit per
    /// cache this way; a single probe is better served by `find`, whose
    /// branches let the processor run ahead of a miss.
    #[inline]
    pub fn find_holder(&self, block: BlockAddr) -> Option<LineRef> {
        /// The place word and way of the occupied way holding `idx`, or
        /// zeros: every way is compared and the match selected by masking
        /// (at most one occupied way holds a tag).
        #[inline(always)]
        fn select(set: &[[u32; 2]], idx: u32) -> (u32, usize) {
            let (mut place, mut way) = (0, 0);
            for (w, &[tag, p]) in set.iter().enumerate() {
                let hit = 0u32.wrapping_sub(u32::from((tag == idx) & (p & OCCUPIED != 0)));
                place |= p & hit;
                way |= w & hit as usize;
            }
            (place, way)
        }
        let idx = tag_of(block)?;
        let range = self.set_range(block);
        let base = range.start;
        let set = self.slots.get(range)?;
        // Four ways, the default geometry, unroll into straight-line code.
        let (place, way) = match <&[[u32; 2]; 4]>::try_from(set) {
            Ok(four) => select(four, idx),
            Err(_) => select(set, idx),
        };
        (place != 0).then(|| self.handle(base + way, position(place)))
    }

    /// The line `line` names.
    #[inline]
    pub fn line(&self, line: LineRef) -> &L {
        self.check(line);
        self.lines[line.at()]
            .as_ref()
            .expect("occupied slot has a line")
    }

    /// The line `line` names, mutably, without touching recency.
    #[inline]
    pub fn line_mut(&mut self, line: LineRef) -> &mut L {
        self.check(line);
        self.lines[line.at()]
            .as_mut()
            .expect("occupied slot has a line")
    }

    /// The block whose line `line` names.
    pub fn block(&self, line: LineRef) -> BlockAddr {
        self.check(line);
        BlockAddr::new(self.slots[line.slot()][0].into())
    }

    /// Refreshes the recency of the line `line` names.
    #[inline]
    pub fn touch(&mut self, line: LineRef) {
        self.check(line);
        self.tick += 1;
        self.stamps[line.slot()] = self.tick;
    }

    /// Looks up `block`, refreshing its recency.
    pub fn get(&mut self, block: BlockAddr) -> Option<&L> {
        self.get_mut(block).map(|l| &*l)
    }

    /// Mutable lookup, refreshing recency.
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
        let line = self.find(block)?;
        self.touch(line);
        Some(self.line_mut(line))
    }

    /// Looks up `block` without touching recency.
    pub fn peek(&self, block: BlockAddr) -> Option<&L> {
        self.find(block).map(|line| self.line(line))
    }

    /// Mutable lookup without touching recency.
    pub fn peek_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
        let line = self.find(block)?;
        Some(self.line_mut(line))
    }

    /// Where a fill of `block` goes, by one scan of its set: the resident
    /// way wins, then the first free way, then the least recently used one.
    ///
    /// # Panics
    ///
    /// Panics if `block` is at or beyond [`BlockAddr::LIMIT`].
    pub fn room(&self, block: BlockAddr) -> Room {
        let idx = tag_of(block).expect("a cached block is below BlockAddr::LIMIT");
        let range = self.set_range(block);
        let mut room = Room {
            slot: range.start,
            resident: None,
            victim: None,
        };
        let Some(set) = self.slots.get(range.clone()) else {
            return room; // no tables yet: the set's first way is free
        };
        let mut free: Option<usize> = None;
        let mut lru: Option<usize> = None;
        for (s, &[tag, place]) in range.zip(set) {
            if place & OCCUPIED == 0 {
                free = free.or(Some(s));
            } else if tag == idx {
                room.slot = s;
                room.resident = Some(self.handle(s, position(place)));
                return room;
            } else if lru.is_none_or(|l| self.stamps[s] < self.stamps[l]) {
                lru = Some(s);
            }
        }
        match free {
            Some(s) => room.slot = s,
            None => {
                let s = lru.expect("ways >= 1 by construction");
                room.slot = s;
                room.victim = Some(self.handle(s, position(self.slots[s][1])));
            }
        }
        room
    }

    /// The block that would be evicted to make room for `incoming`, if its
    /// set is full and `incoming` is not already resident.
    pub fn would_evict(&self, incoming: BlockAddr) -> Option<(BlockAddr, &L)> {
        let victim = self.room(incoming).victim?;
        Some((self.block(victim), self.line(victim)))
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
            self.slots[set * ways + way][1] = (row + way + 1) as u32;
        }
        self.row_sets.push(set as u32);
    }

    /// Fills the free `slot`, adding its set's row on the set's first use,
    /// and returns the position of its line.
    fn occupy(&mut self, slot: usize, tag: u32, stamp: u64, line: L) -> usize {
        if self.slots[slot][1] == 0 {
            self.add_row(slot / self.geometry.ways);
        }
        let place = &mut self.slots[slot][1];
        *place |= OCCUPIED;
        let at = position(*place);
        self.lines[at] = Some(line);
        self.slots[slot][0] = tag;
        self.stamps[slot] = stamp;
        self.len += 1;
        at
    }

    /// Installs `line` for `block` (replacing any existing line for the same
    /// block), evicting and returning the LRU way if the set is full.
    ///
    /// # Panics
    ///
    /// Panics if `block` is at or beyond [`BlockAddr::LIMIT`].
    pub fn insert(&mut self, block: BlockAddr, line: L) -> Option<(BlockAddr, L)> {
        let room = self.room(block);
        let evicted = room.victim.map(|v| (self.block(v), self.take(v)));
        self.fill(room, block, line);
        evicted
    }

    /// Installs `line` for `block` where [`CacheArray::room`] found room
    /// for it, once its victim (if any) has been taken out, and returns a
    /// handle on it. Between `room` and `fill` the array may change only by
    /// taking that victim out.
    pub fn fill(&mut self, room: Room, block: BlockAddr, line: L) -> LineRef {
        if self.slots.is_empty() {
            self.allocate();
        }
        let stamp = self.next_stamp();
        let filled = match room.resident {
            Some(resident) => {
                *self.line_mut(resident) = line;
                self.stamps[resident.slot()] = stamp;
                resident.at()
            }
            None => {
                assert!(
                    self.slots[room.slot][1] & OCCUPIED == 0,
                    "a fill of a full set must follow taking its victim out"
                );
                self.occupy(room.slot, tag_of(block).expect("room checked"), stamp, line)
            }
        };
        self.moved();
        self.handle(room.slot, filled)
    }

    /// Removes `block`, returning its line if it was resident.
    pub fn remove(&mut self, block: BlockAddr) -> Option<L> {
        let line = self.find(block)?;
        Some(self.take(line))
    }

    /// Removes the line `line` names and returns it.
    pub fn take(&mut self, line: LineRef) -> L {
        self.check(line);
        self.slots[line.slot()][1] &= !OCCUPIED;
        self.len -= 1;
        self.moved();
        self.lines[line.at()]
            .take()
            .expect("occupied slot has a line")
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
                row.iter().zip(slots).filter_map(|(line, &[tag, _])| {
                    Some((BlockAddr::new(tag.into()), line.as_ref()?))
                })
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
                row.iter_mut().zip(slots).filter_map(|(line, &[tag, _])| {
                    Some((BlockAddr::new(tag.into()), line.as_mut()?))
                })
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
                    u64::from(tag),
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
    /// Panics if `slot` is out of range, already occupied, `tag` is at or
    /// beyond [`BlockAddr::LIMIT`], or `stamp` is 0 (the clock issues
    /// stamps from 1) — a checkpoint codec must validate before calling.
    pub fn restore_slot(&mut self, slot: usize, tag: u64, stamp: u64, line: L) {
        assert!(
            slot < self.geometry.capacity_blocks(),
            "slot {slot} out of range"
        );
        let tag = u32::try_from(tag).expect("a cached block is below BlockAddr::LIMIT");
        if self.slots.is_empty() {
            self.allocate();
        }
        assert!(
            self.slots[slot][1] & OCCUPIED == 0,
            "slot {slot} already occupied"
        );
        assert!(stamp != 0, "stamp 0 is never issued");
        self.occupy(slot, tag, stamp, line);
        self.moved();
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
    fn the_line_bound_is_the_geometry_limit() {
        assert!(CacheGeometry::new(1 << 21, (1 << 10) - 1).fits());
        assert!(
            !CacheGeometry::new(1 << 21, 1 << 10).fits(),
            "2^31 is one past"
        );
        assert!(!CacheGeometry::new(1 << 24, 1 << 10).fits());
        assert!(
            !CacheGeometry::new(1 << 62, 8).fits(),
            "the product overflows"
        );
        // A slot pair is two 32-bit words.
        assert_eq!(std::mem::size_of::<[u32; 2]>(), 8);
    }

    #[test]
    #[should_panic(expected = "line bound")]
    fn an_array_past_the_line_bound_is_refused() {
        CacheArray::<u8>::new(CacheGeometry::new(1 << 24, 1 << 10));
    }

    #[test]
    fn blocks_past_the_tag_range_are_never_resident() {
        let mut c: CacheArray<u8> = CacheArray::new(CacheGeometry::new(1, 2));
        let top = b(BlockAddr::LIMIT - 1);
        c.insert(top, 7);
        assert_eq!(c.peek(top), Some(&7));
        assert_eq!(c.slots().next().map(|(_, tag, ..)| tag), Some(top.index()));
        // The block 2^32 above shares the low 32 bits of the tag.
        let alias = b(BlockAddr::LIMIT + top.index());
        assert!(c.find(alias).is_none() && c.find_holder(alias).is_none());
    }

    /// Sets of `c` holding a stale tag (its way freed, `OCCUPIED` clear)
    /// that another way of the same set holds live.
    fn stale_and_live(c: &CacheArray<u32>) -> usize {
        let ways = c.geometry.ways;
        c.slots
            .chunks(ways)
            .filter(|set| {
                set.iter().any(|&[stale, place]| {
                    place & OCCUPIED == 0
                        && place != 0
                        && set.iter().any(|&[t, p]| t == stale && p & OCCUPIED != 0)
                })
            })
            .count()
    }

    /// The holder probe answers exactly what `peek_mut` answers, for
    /// every block, after every step of seeded random insert/remove
    /// histories on 1-, 4- and 16-way geometries, untouched arrays
    /// included.
    #[test]
    fn holder_probe_matches_peek_mut() {
        let mut rng = tmc_simcore::SimRng::seed_from(0x0401_DE25);
        let mut stale_live_seen = 0;
        for ways in [1, 4, 16] {
            for sets in [1, 4] {
                for _ in 0..8 {
                    let mut c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(sets, ways));
                    let blocks = 2 * (sets * ways) as u64 + 1;
                    for step in 0..=120u32 {
                        for i in 0..blocks {
                            let found = c.find(b(i));
                            let holder = c.find_holder(b(i));
                            assert_eq!(holder, found, "block {i} at step {step}");
                            let want = c.peek_mut(b(i)).map(|l| *l);
                            assert_eq!(holder.map(|h| *c.line_mut(h)), want);
                        }
                        stale_live_seen += stale_and_live(&c);
                        let x = b(rng.gen_range(0..blocks));
                        if rng.gen_bool(0.6) {
                            c.insert(x, step);
                        } else {
                            c.remove(x);
                        }
                    }
                }
            }
        }
        assert!(
            stale_live_seen > 0,
            "no history freed a way its tag lived on beside"
        );
    }

    /// A removed way keeps its tag; re-inserting the block puts it in an
    /// earlier free way, so the set holds a stale and a live copy of one
    /// tag. The holder probe must name the live one.
    #[test]
    fn holder_probe_skips_a_stale_copy_of_its_tag() {
        let mut c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(1, 4));
        for i in 0..3 {
            c.insert(b(i), i as u32);
        }
        c.remove(b(2)); // way 2 keeps tag 2, freed
        c.remove(b(0)); // way 0 freed
        c.insert(b(2), 22); // into way 0
        assert_eq!(stale_and_live(&c), 1);
        let holder = c.find_holder(b(2)).expect("resident");
        assert_eq!(holder.slot(), 0);
        assert_eq!(*c.line(holder), 22);
        assert!(c.find_holder(b(0)).is_none());
        let untouched: CacheArray<u32> = CacheArray::new(CacheGeometry::new(4, 16));
        assert!(untouched.find_holder(b(2)).is_none());
    }

    /// Taking the victim `room` names and filling its way leaves the
    /// array as `insert` does, and the handle `fill` returns is live.
    #[test]
    fn room_take_fill_equals_insert() {
        let mut a: CacheArray<u8> = CacheArray::new(CacheGeometry::new(2, 2));
        for i in 0..4 {
            a.insert(b(i), i as u8);
        }
        a.get(b(0));
        let mut c = a.clone();
        let room = c.room(b(6));
        let victim = room.victim().expect("full set");
        assert_eq!(c.block(victim), b(2));
        assert_eq!(c.take(victim), 2);
        let filled = c.fill(room, b(6), 6);
        assert_eq!(*c.line(filled), 6);
        assert_eq!(a.insert(b(6), 6), Some((b(2), 2)));
        assert_eq!(a, c);
        // A resident block is refilled in place.
        let room = c.room(b(0));
        assert!(room.victim().is_none());
        let filled = c.fill(room, b(0), 9);
        assert_eq!(c.peek(b(0)), Some(&9));
        assert_eq!(c.line(filled), &9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "line handle used after an insert or remove on its array")]
    fn handle_goes_stale_at_an_insert() {
        let mut c: CacheArray<u8> = CacheArray::new(CacheGeometry::new(1, 2));
        c.insert(b(0), 0);
        let handle = c.find(b(0)).expect("resident");
        c.insert(b(1), 1); // another way: block 0's line did not move
        c.line(handle);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "line handle used after an insert or remove on its array")]
    fn handle_goes_stale_at_a_remove() {
        let mut c: CacheArray<u8> = CacheArray::new(CacheGeometry::new(1, 2));
        c.insert(b(0), 0);
        c.insert(b(1), 1);
        let handle = c.find_holder(b(0)).expect("resident");
        c.remove(b(1));
        c.line_mut(handle);
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
}
