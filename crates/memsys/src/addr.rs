//! Address newtypes and address mapping.

use std::fmt;

/// A word address in the shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WordAddr(u64);

impl WordAddr {
    /// Creates a word address.
    pub const fn new(a: u64) -> Self {
        WordAddr(a)
    }

    /// Raw address value.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for WordAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{:#x}", self.0)
    }
}

/// A block address (word address with the offset bits stripped).
///
/// The *block* is the paper's unit of consistency: "a logical unit of memory
/// consisting of a number of words and with an identification".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// The bound on block indices a machine holds: 2³². Main memory and
    /// the block store are paged tables whose page directory grows to the
    /// highest block touched, so a block at or beyond this bound is
    /// refused rather than allowed to drive an absurd allocation; the
    /// checkpoint codec names blocks only below it.
    pub const LIMIT: u64 = 1 << 32;

    /// Creates a block address from its index.
    pub const fn new(index: u64) -> Self {
        BlockAddr(index)
    }

    /// Block index (address space ordinal).
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{:#x}", self.0)
    }
}

/// Identifies one cache (equivalently, its processor and network port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CacheId(pub u16);

impl CacheId {
    /// The network port this cache attaches to.
    pub fn port(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CacheId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Block geometry: how word addresses split into (block, offset).
///
/// # Example
///
/// ```
/// use tmc_memsys::{BlockSpec, WordAddr};
///
/// let spec = BlockSpec::new(2); // 4-word blocks
/// assert_eq!(spec.words_per_block(), 4);
/// assert_eq!(spec.block_of(WordAddr::new(11)).index(), 2);
/// assert_eq!(spec.offset_of(WordAddr::new(11)), 3);
/// assert_eq!(spec.word_at(spec.block_of(WordAddr::new(11)), 3), WordAddr::new(11));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockSpec {
    offset_bits: u32,
}

impl BlockSpec {
    /// Creates a spec with `2^offset_bits` words per block.
    ///
    /// # Panics
    ///
    /// Panics if `offset_bits > 16` (blocks beyond 65536 words are surely a
    /// configuration mistake).
    pub fn new(offset_bits: u32) -> Self {
        assert!(
            offset_bits <= 16,
            "block offset bits {offset_bits} too large"
        );
        BlockSpec { offset_bits }
    }

    /// Number of words per block.
    pub fn words_per_block(self) -> usize {
        1usize << self.offset_bits
    }

    /// The block containing `addr`.
    pub fn block_of(self, addr: WordAddr) -> BlockAddr {
        BlockAddr(addr.value() >> self.offset_bits)
    }

    /// Word offset of `addr` within its block.
    pub fn offset_of(self, addr: WordAddr) -> usize {
        (addr.value() & ((1u64 << self.offset_bits) - 1)) as usize
    }

    /// The word address at `offset` within `block`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds the block size.
    pub fn word_at(self, block: BlockAddr, offset: usize) -> WordAddr {
        assert!(offset < self.words_per_block(), "offset beyond block");
        WordAddr((block.index() << self.offset_bits) | offset as u64)
    }
}

/// Maps blocks to memory modules by low-order interleaving, the standard
/// layout for multistage-network machines (RP3, Butterfly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleMap {
    modules: usize,
}

impl ModuleMap {
    /// Creates a map over `modules` memory modules.
    ///
    /// # Panics
    ///
    /// Panics unless `modules` is a nonzero power of two.
    pub fn new(modules: usize) -> Self {
        assert!(
            modules.is_power_of_two(),
            "module count must be a power of two"
        );
        ModuleMap { modules }
    }

    /// Number of modules.
    pub fn modules(self) -> usize {
        self.modules
    }

    /// The module (equivalently, its network port) holding `block`.
    pub fn module_of(self, block: BlockAddr) -> usize {
        (block.index() as usize) & (self.modules - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping_roundtrips() {
        let spec = BlockSpec::new(3);
        for a in [0u64, 1, 7, 8, 100, 1023] {
            let w = WordAddr::new(a);
            let b = spec.block_of(w);
            let off = spec.offset_of(w);
            assert_eq!(spec.word_at(b, off), w);
            assert!(off < spec.words_per_block());
        }
    }

    #[test]
    fn zero_offset_bits_means_word_blocks() {
        let spec = BlockSpec::new(0);
        assert_eq!(spec.words_per_block(), 1);
        assert_eq!(spec.block_of(WordAddr::new(9)).index(), 9);
        assert_eq!(spec.offset_of(WordAddr::new(9)), 0);
    }

    #[test]
    fn interleaving_spreads_consecutive_blocks() {
        let map = ModuleMap::new(4);
        let mods: Vec<usize> = (0..8).map(|i| map.module_of(BlockAddr::new(i))).collect();
        assert_eq!(mods, [0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn module_map_rejects_non_powers() {
        ModuleMap::new(3);
    }

    #[test]
    fn displays_are_compact() {
        assert_eq!(WordAddr::new(16).to_string(), "w0x10");
        assert_eq!(BlockAddr::new(16).to_string(), "b0x10");
        assert_eq!(CacheId(3).to_string(), "C3");
        assert_eq!(CacheId(3).port(), 3);
    }
}
