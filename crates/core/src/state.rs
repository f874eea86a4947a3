//! Per-line protocol state — the paper's Table 1.
//!
//! A cache entry's state field holds: a Valid bit (V), an Ownership bit (O),
//! a Modified bit (M), a Distributed Write bit (DW), a present-flag vector
//! (`P₁…P_N`) and an OWNER identification of `log₂ N` bits. The six named
//! states of Table 1 are *derived* from those fields, and
//! [`CacheLine::state_name`] performs the classification, exactly as the
//! hardware comparators would.
//!
//! The fields are laid out as §5 proposes for the hardware. Only the owner
//! reads the present vector (and the §5 window counters), so a
//! [`CacheLine`] keeps V, O, M, DW, OWNER and the data — what every holder
//! uses, 56 bytes with a 4-word block — plus a `u32` handle that, while the
//! line is owned, names the block's [`OwnerState`] in the machine's one
//! owner table. The table holds an entry per owned block, not per cached
//! entry: on an N = 1024 machine most resident lines are copies or invalid
//! entries holding only an OWNER hint (docs/PERFORMANCE.md, "A cache line
//! as §5 lays it out").

use tmc_memsys::{BlockData, CacheId};
use tmc_omeganet::DestSet;

/// The consistency mode of a block — the paper's DW bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Writes are distributed to every cache holding a copy (DW = 1).
    DistributedWrite,
    /// Only the owner holds a copy; remote reads fetch single data
    /// (DW = 0).
    GlobalRead,
}

impl Mode {
    /// The DW bit encoding.
    pub fn dw_bit(self) -> bool {
        matches!(self, Mode::DistributedWrite)
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::DistributedWrite => write!(f, "distributed-write"),
            Mode::GlobalRead => write!(f, "global-read"),
        }
    }
}

impl From<Mode> for tmc_obs::TraceMode {
    fn from(mode: Mode) -> Self {
        match mode {
            Mode::DistributedWrite => tmc_obs::TraceMode::DistributedWrite,
            Mode::GlobalRead => tmc_obs::TraceMode::GlobalRead,
        }
    }
}

impl From<tmc_obs::TraceMode> for Mode {
    fn from(mode: tmc_obs::TraceMode) -> Self {
        match mode {
            tmc_obs::TraceMode::DistributedWrite => Mode::DistributedWrite,
            tmc_obs::TraceMode::GlobalRead => Mode::GlobalRead,
        }
    }
}

/// Validity/ownership of a resident line (the V and O bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Validity {
    /// V = 0: the entry is reserved (tag match) but holds no valid copy;
    /// the OWNER field says where the block lives.
    Invalid,
    /// V = 1, O = 0: a valid copy that must not be modified.
    UnOwned,
    /// V = 1, O = 1: the owner's copy.
    Owned,
}

/// The six named states of Table 1 (plus the implicit "no entry at all",
/// which is a cache miss rather than a state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateName {
    /// V = 0.
    Invalid,
    /// V = 1, O = 0.
    UnOwned,
    /// V = 1, O = 1, DW = 1, P = {self}.
    OwnedExclusivelyDistributedWrite,
    /// V = 1, O = 1, DW = 0, P = {self}.
    OwnedExclusivelyGlobalRead,
    /// V = 1, O = 1, DW = 1, P ⊋ {self}.
    OwnedNonExclusivelyDistributedWrite,
    /// V = 1, O = 1, DW = 0, P ⊋ {self}.
    OwnedNonExclusivelyGlobalRead,
}

impl std::fmt::Display for StateName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StateName::Invalid => "Invalid",
            StateName::UnOwned => "UnOwned",
            StateName::OwnedExclusivelyDistributedWrite => "Owned Exclusively Distributed Write",
            StateName::OwnedExclusivelyGlobalRead => "Owned Exclusively Global Read",
            StateName::OwnedNonExclusivelyDistributedWrite => {
                "Owned NonExclusively Distributed Write"
            }
            StateName::OwnedNonExclusivelyGlobalRead => "Owned NonExclusively Global Read",
        };
        write!(f, "{s}")
    }
}

/// The owner-only part of a block's state field: the present-flag vector
/// and the §5 measurement counters. §5 notes that the present vector "is
/// used only by the owner"; a machine keeps one of these per *owned* block
/// in its owner table, and the owner's [`CacheLine`] holds a handle on it.
/// An ownership transfer or handoff moves the handle to the new owner's
/// line — the state that travels in `OwnershipXfer` — and the entry goes
/// back to the table when ownership leaves the caches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnerState {
    /// Present-flag vector. In distributed-write mode it marks caches
    /// holding *valid* copies (including the owner); in global-read mode it
    /// marks the owner plus caches holding *invalid* entries for the block.
    pub present: DestSet,
    /// Adaptive-policy counter: references observed by the owner in the
    /// current measurement window (§5's first counter).
    pub window_refs: u32,
    /// Adaptive-policy counter: of those, how many were remote reads served
    /// in global-read mode (§5's second counter).
    pub window_remote_reads: u32,
    /// Adaptive-policy counter: writes observed in the window.
    pub window_writes: u32,
}

impl OwnerState {
    /// The state of a block `me` owns alone: `P = {me}`, an empty window.
    pub fn exclusive(me: CacheId, n_caches: usize) -> Self {
        let mut present = DestSet::empty(n_caches);
        present.insert(me.port());
        OwnerState {
            present,
            window_refs: 0,
            window_remote_reads: 0,
            window_writes: 0,
        }
    }

    /// Whether the owner's copy is the only one recorded: `P = {me}`.
    pub fn is_exclusive(&self, me: CacheId) -> bool {
        self.present.len() == 1 && self.present.contains(me.port())
    }

    /// Resets the adaptive-policy window counters.
    pub(crate) fn reset_window(&mut self) {
        self.window_refs = 0;
        self.window_remote_reads = 0;
        self.window_writes = 0;
    }
}

/// A handle on an [`OwnerState`] in a machine's owner table.
pub(crate) type OwnerEntry = u32;

/// The handle of a line that owns nothing.
pub(crate) const NO_ENTRY: OwnerEntry = OwnerEntry::MAX;

/// A machine's one owner table: an [`OwnerState`] per owned block, and a
/// free list of the entries ownership has left. Taking an entry reuses a
/// freed one first, so the table grows only to the peak number of owned
/// blocks.
#[derive(Debug, Clone, Default)]
pub(crate) struct OwnerTable {
    entries: Vec<OwnerState>,
    free: Vec<OwnerEntry>,
}

impl OwnerTable {
    /// Stores `state` for a line that becomes owner with no entry in hand
    /// and returns its handle.
    pub(crate) fn take(&mut self, state: OwnerState) -> OwnerEntry {
        match self.free.pop() {
            Some(e) => {
                self.entries[e as usize] = state;
                e
            }
            None => {
                self.entries.push(state);
                OwnerEntry::try_from(self.entries.len() - 1)
                    .ok()
                    .filter(|&e| e != NO_ENTRY)
                    .expect("owned blocks fit the u32 owner handle")
            }
        }
    }

    /// Returns entry `e` to the table: ownership of its block has left the
    /// caches.
    pub(crate) fn free(&mut self, e: OwnerEntry) {
        debug_assert!((e as usize) < self.entries.len(), "a taken entry");
        self.free.push(e);
    }

    /// Entries in use: taken and not freed since.
    pub(crate) fn live(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Entries ever taken, live or free: a handle below this names a slot.
    pub(crate) fn slots(&self) -> usize {
        self.entries.len()
    }

    /// The freed entries, in the order they will be reused (last first).
    pub(crate) fn free_list(&self) -> &[OwnerEntry] {
        &self.free
    }

    /// The state entry `e` holds, if `e` names a slot of the table.
    pub(crate) fn get(&self, e: OwnerEntry) -> Option<&OwnerState> {
        self.entries.get(e as usize)
    }
}

impl std::ops::Index<OwnerEntry> for OwnerTable {
    type Output = OwnerState;

    #[inline]
    fn index(&self, e: OwnerEntry) -> &OwnerState {
        &self.entries[e as usize]
    }
}

impl std::ops::IndexMut<OwnerEntry> for OwnerTable {
    #[inline]
    fn index_mut(&mut self, e: OwnerEntry) -> &mut OwnerState {
        &mut self.entries[e as usize]
    }
}

/// One cache entry: the paper's data portion, tag (held by the enclosing
/// [`CacheArray`](tmc_memsys::CacheArray) keyed by block address) and the
/// part of the state field every holder uses. What only the owner uses
/// lives in the owner table ([`OwnerState`]), named by the line's handle
/// while the line is owned.
///
/// Equality compares the fields below and never the handle: which table
/// entry an owner holds is an accident of allocation order, so a decoded
/// machine's lines equal its original's.
#[derive(Debug, Clone)]
pub struct CacheLine {
    /// V and O bits.
    pub validity: Validity,
    /// DW bit. Meaningful at the owner; preserved across transfers.
    pub mode: Mode,
    /// M bit: the copy differs from memory and must eventually write back.
    pub modified: bool,
    /// OWNER field: where to find the block when this copy is invalid.
    pub owner_hint: Option<CacheId>,
    /// The owner-table entry holding this block's [`OwnerState`]; meaningful
    /// only while the line is owned, [`NO_ENTRY`] otherwise.
    pub(crate) entry: OwnerEntry,
    /// The data portion.
    pub data: BlockData,
}

// A line is the state every holder uses plus a 4-word block: seven words.
const _: () = assert!(std::mem::size_of::<CacheLine>() <= 56);

impl PartialEq for CacheLine {
    fn eq(&self, other: &Self) -> bool {
        self.validity == other.validity
            && self.mode == other.mode
            && self.modified == other.modified
            && self.owner_hint == other.owner_hint
            && self.data == other.data
    }
}

impl CacheLine {
    /// A fresh invalid entry pointing at `owner` (the global-read
    /// "reserve a cache entry initialized to Invalid" action).
    pub fn invalid_hint(owner: CacheId, words: usize) -> Self {
        CacheLine {
            validity: Validity::Invalid,
            mode: Mode::GlobalRead,
            modified: false,
            owner_hint: Some(owner),
            entry: NO_ENTRY,
            data: BlockData::zeroed(words),
        }
    }

    /// A fresh unowned valid copy (loaded from the owner in DW mode).
    pub fn unowned(data: BlockData, owner: CacheId) -> Self {
        CacheLine {
            validity: Validity::UnOwned,
            mode: Mode::DistributedWrite,
            modified: false,
            owner_hint: Some(owner),
            entry: NO_ENTRY,
            data,
        }
    }

    /// A plain valid copy on a baseline machine, whose home directory
    /// rather than the line records who shares the block.
    pub(crate) fn copy(data: BlockData) -> Self {
        CacheLine {
            validity: Validity::UnOwned,
            mode: Mode::DistributedWrite,
            modified: false,
            owner_hint: None,
            entry: NO_ENTRY,
            data,
        }
    }

    /// A fresh owned copy for cache `me` in `mode`. Its owner state is
    /// kept apart ([`OwnerState::exclusive`] for a block loaded from
    /// memory); a machine installing the line gives it an entry.
    pub fn owned(data: BlockData, me: CacheId, mode: Mode) -> Self {
        CacheLine {
            validity: Validity::Owned,
            mode,
            modified: false,
            owner_hint: Some(me),
            entry: NO_ENTRY,
            data,
        }
    }

    /// Whether the line holds a valid copy (V = 1).
    pub fn is_valid(&self) -> bool {
        !matches!(self.validity, Validity::Invalid)
    }

    /// Whether this cache owns the block (V = 1, O = 1).
    pub fn is_owned(&self) -> bool {
        matches!(self.validity, Validity::Owned)
    }

    /// Classifies the line per Table 1. `owner` is the block's
    /// [`OwnerState`], which decides exclusivity and is read only when the
    /// line is owned.
    ///
    /// # Panics
    ///
    /// Panics if the line is owned and `owner` is `None`.
    pub fn state_name(&self, me: CacheId, owner: Option<&OwnerState>) -> StateName {
        match self.validity {
            Validity::Invalid => StateName::Invalid,
            Validity::UnOwned => StateName::UnOwned,
            Validity::Owned => {
                let owner = owner.expect("an owned line has an owner state");
                match (self.mode, owner.is_exclusive(me)) {
                    (Mode::DistributedWrite, true) => StateName::OwnedExclusivelyDistributedWrite,
                    (Mode::GlobalRead, true) => StateName::OwnedExclusivelyGlobalRead,
                    (Mode::DistributedWrite, false) => {
                        StateName::OwnedNonExclusivelyDistributedWrite
                    }
                    (Mode::GlobalRead, false) => StateName::OwnedNonExclusivelyGlobalRead,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn me() -> CacheId {
        CacheId(2)
    }

    #[test]
    fn classification_covers_table_1() {
        let n = 8;
        let data = BlockData::zeroed(4);

        let inv = CacheLine::invalid_hint(CacheId(1), 4);
        assert_eq!(inv.state_name(me(), None), StateName::Invalid);
        assert!(!inv.is_valid());

        let un = CacheLine::unowned(data.clone(), CacheId(1));
        assert_eq!(un.state_name(me(), None), StateName::UnOwned);
        assert!(un.is_valid() && !un.is_owned());

        let mut own = CacheLine::owned(data, me(), Mode::GlobalRead);
        let mut state = OwnerState::exclusive(me(), n);
        assert_eq!(
            own.state_name(me(), Some(&state)),
            StateName::OwnedExclusivelyGlobalRead
        );
        own.mode = Mode::DistributedWrite;
        assert_eq!(
            own.state_name(me(), Some(&state)),
            StateName::OwnedExclusivelyDistributedWrite
        );
        state.present.insert(5);
        assert_eq!(
            own.state_name(me(), Some(&state)),
            StateName::OwnedNonExclusivelyDistributedWrite
        );
        own.mode = Mode::GlobalRead;
        assert_eq!(
            own.state_name(me(), Some(&state)),
            StateName::OwnedNonExclusivelyGlobalRead
        );
    }

    #[test]
    fn exclusivity_requires_self_presence() {
        let mut state = OwnerState::exclusive(me(), 8);
        assert!(state.is_exclusive(me()));
        state.present.remove(me().port());
        state.present.insert(0);
        assert!(!state.is_exclusive(me()));
    }

    #[test]
    fn window_counters_reset() {
        let mut state = OwnerState::exclusive(me(), 8);
        state.window_refs = 10;
        state.window_remote_reads = 4;
        state.window_writes = 3;
        state.reset_window();
        assert_eq!(
            (
                state.window_refs,
                state.window_remote_reads,
                state.window_writes
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn line_equality_ignores_the_owner_handle() {
        let mut a = CacheLine::owned(BlockData::zeroed(4), me(), Mode::GlobalRead);
        let mut b = a.clone();
        a.entry = 3;
        b.entry = 9;
        assert_eq!(a, b);
        b.modified = true;
        assert_ne!(a, b);
    }

    #[test]
    fn mode_display_and_bits() {
        assert!(Mode::DistributedWrite.dw_bit());
        assert!(!Mode::GlobalRead.dw_bit());
        assert_eq!(Mode::GlobalRead.to_string(), "global-read");
        assert_eq!(
            StateName::OwnedNonExclusivelyGlobalRead.to_string(),
            "Owned NonExclusively Global Read"
        );
    }
}
