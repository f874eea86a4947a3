//! Per-line protocol state — the paper's Table 1.
//!
//! A cache entry's state field holds: a Valid bit (V), an Ownership bit (O),
//! a Modified bit (M), a Distributed Write bit (DW), a present-flag vector
//! (`P₁…P_N`) and an OWNER identification of `log₂ N` bits. The six named
//! states of Table 1 are *derived* from those fields; [`CacheLine`] stores
//! the fields and [`CacheLine::state_name`] performs the classification,
//! exactly as the hardware comparators would.

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

/// One cache entry: the paper's data portion, tag (held by the enclosing
/// [`CacheArray`](tmc_memsys::CacheArray) keyed by block address) and state
/// field.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheLine {
    /// V and O bits.
    pub validity: Validity,
    /// DW bit. Meaningful at the owner; preserved across transfers.
    pub mode: Mode,
    /// M bit: the copy differs from memory and must eventually write back.
    pub modified: bool,
    /// Present-flag vector, used only by the owner. In distributed-write
    /// mode it marks caches holding *valid* copies (including the owner);
    /// in global-read mode it marks the owner plus caches holding *invalid*
    /// entries for the block.
    pub present: DestSet,
    /// OWNER field: where to find the block when this copy is invalid.
    pub owner_hint: Option<CacheId>,
    /// The data portion.
    pub data: BlockData,
    /// Adaptive-policy counter: references observed by the owner in the
    /// current measurement window (§5's first counter).
    pub window_refs: u32,
    /// Adaptive-policy counter: of those, how many were remote reads served
    /// in global-read mode (§5's second counter).
    pub window_remote_reads: u32,
    /// Adaptive-policy counter: writes observed in the window.
    pub window_writes: u32,
}

impl CacheLine {
    /// A fresh invalid entry pointing at `owner` (the global-read
    /// "reserve a cache entry initialized to Invalid" action).
    pub fn invalid_hint(owner: CacheId, n_caches: usize, words: usize) -> Self {
        CacheLine {
            validity: Validity::Invalid,
            mode: Mode::GlobalRead,
            modified: false,
            present: DestSet::empty(n_caches),
            owner_hint: Some(owner),
            data: BlockData::zeroed(words),
            window_refs: 0,
            window_remote_reads: 0,
            window_writes: 0,
        }
    }

    /// A fresh unowned valid copy (loaded from the owner in DW mode).
    pub fn unowned(data: BlockData, owner: CacheId, n_caches: usize) -> Self {
        CacheLine {
            validity: Validity::UnOwned,
            mode: Mode::DistributedWrite,
            modified: false,
            present: DestSet::empty(n_caches),
            owner_hint: Some(owner),
            data,
            window_refs: 0,
            window_remote_reads: 0,
            window_writes: 0,
        }
    }

    /// A plain valid copy on a baseline machine, whose home directory
    /// rather than the line records who shares the block.
    pub(crate) fn copy(data: BlockData, n_caches: usize) -> Self {
        CacheLine {
            validity: Validity::UnOwned,
            mode: Mode::DistributedWrite,
            modified: false,
            present: DestSet::empty(n_caches),
            owner_hint: None,
            data,
            window_refs: 0,
            window_remote_reads: 0,
            window_writes: 0,
        }
    }

    /// A fresh exclusively owned copy for cache `me` in `mode`.
    pub fn owned_exclusive(data: BlockData, me: CacheId, mode: Mode, n_caches: usize) -> Self {
        let mut present = DestSet::empty(n_caches);
        present.insert(me.port());
        CacheLine {
            validity: Validity::Owned,
            mode,
            modified: false,
            present,
            owner_hint: Some(me),
            data,
            window_refs: 0,
            window_remote_reads: 0,
            window_writes: 0,
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

    /// Whether the owner's copy is the only one recorded: `P = {me}`.
    ///
    /// Meaningful only when `self.is_owned()`.
    pub(crate) fn is_exclusive(&self, me: CacheId) -> bool {
        self.present.len() == 1 && self.present.contains(me.port())
    }

    /// Classifies the line per Table 1.
    pub fn state_name(&self, me: CacheId) -> StateName {
        match self.validity {
            Validity::Invalid => StateName::Invalid,
            Validity::UnOwned => StateName::UnOwned,
            Validity::Owned => match (self.mode, self.is_exclusive(me)) {
                (Mode::DistributedWrite, true) => StateName::OwnedExclusivelyDistributedWrite,
                (Mode::GlobalRead, true) => StateName::OwnedExclusivelyGlobalRead,
                (Mode::DistributedWrite, false) => StateName::OwnedNonExclusivelyDistributedWrite,
                (Mode::GlobalRead, false) => StateName::OwnedNonExclusivelyGlobalRead,
            },
        }
    }

    /// Resets the adaptive-policy window counters.
    pub(crate) fn reset_window(&mut self) {
        self.window_refs = 0;
        self.window_remote_reads = 0;
        self.window_writes = 0;
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

        let inv = CacheLine::invalid_hint(CacheId(1), n, 4);
        assert_eq!(inv.state_name(me()), StateName::Invalid);
        assert!(!inv.is_valid());

        let un = CacheLine::unowned(data.clone(), CacheId(1), n);
        assert_eq!(un.state_name(me()), StateName::UnOwned);
        assert!(un.is_valid() && !un.is_owned());

        let mut own = CacheLine::owned_exclusive(data, me(), Mode::GlobalRead, n);
        assert_eq!(own.state_name(me()), StateName::OwnedExclusivelyGlobalRead);
        own.mode = Mode::DistributedWrite;
        assert_eq!(
            own.state_name(me()),
            StateName::OwnedExclusivelyDistributedWrite
        );
        own.present.insert(5);
        assert_eq!(
            own.state_name(me()),
            StateName::OwnedNonExclusivelyDistributedWrite
        );
        own.mode = Mode::GlobalRead;
        assert_eq!(
            own.state_name(me()),
            StateName::OwnedNonExclusivelyGlobalRead
        );
    }

    #[test]
    fn exclusivity_requires_self_presence() {
        let mut line = CacheLine::owned_exclusive(BlockData::zeroed(1), me(), Mode::GlobalRead, 8);
        assert!(line.is_exclusive(me()));
        line.present.remove(me().port());
        line.present.insert(0);
        assert!(!line.is_exclusive(me()));
    }

    #[test]
    fn window_counters_reset() {
        let mut line = CacheLine::owned_exclusive(BlockData::zeroed(1), me(), Mode::GlobalRead, 8);
        line.window_refs = 10;
        line.window_remote_reads = 4;
        line.window_writes = 3;
        line.reset_window();
        assert_eq!(
            (
                line.window_refs,
                line.window_remote_reads,
                line.window_writes
            ),
            (0, 0, 0)
        );
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
