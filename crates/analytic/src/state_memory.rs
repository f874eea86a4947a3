//! Directory state-memory cost models (the paper's introduction and §5).
//!
//! The introduction's quantitative claim: a memory-level full-map directory
//! (Censier–Feautrier) needs `O(N·M)` bits of state, while the paper's
//! distributed scheme needs `O(C(N + log N) + M·log N)` — proportional
//! mainly to the *cache* size, not the memory size. §5 adds two further
//! reductions: a split-cache organization (only part of the cache supports
//! shared read–write data) and an associative present-vector store (the
//! vector is used only by the owner, so only owned lines need one).

/// Machine parameters for the state-memory comparison.
///
/// # Example
///
/// ```
/// use tmc_analytic::state_memory::StateMemoryModel;
///
/// // 1024 nodes, 4096-block caches, a 1 Mi-block memory module per node.
/// let m = StateMemoryModel::new(1024, 4096, 1024 << 20);
/// // The distributed directory is orders of magnitude smaller than the
/// // full map on a large machine.
/// assert!(m.distributed_bits() * 10 < m.full_map_bits());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateMemoryModel {
    /// Number of caches `N` (a power of two).
    pub n_caches: u64,
    /// Blocks per cache `C`.
    pub cache_blocks: u64,
    /// Blocks of main memory `M`.
    pub memory_blocks: u64,
}

impl StateMemoryModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics unless `n_caches` is a power of two and all parameters are
    /// nonzero.
    pub fn new(n_caches: u64, cache_blocks: u64, memory_blocks: u64) -> Self {
        assert!(n_caches.is_power_of_two(), "N must be a power of two");
        assert!(cache_blocks > 0 && memory_blocks > 0);
        StateMemoryModel {
            n_caches,
            cache_blocks,
            memory_blocks,
        }
    }

    fn log_n(&self) -> u64 {
        self.n_caches.trailing_zeros() as u64
    }

    /// Full-map directory at memory: one entry per memory block holding an
    /// N-bit presence vector plus a dirty bit — the `O(N·M)` scheme.
    pub fn full_map_bits(&self) -> u128 {
        self.memory_blocks as u128 * (self.n_caches as u128 + 1)
    }

    /// The paper's per-line state field: V + O + M + DW (4 bits), the
    /// present vector (N bits) and the OWNER id (log₂ N bits).
    pub fn line_state_bits(&self) -> u64 {
        4 + self.n_caches + self.log_n()
    }

    /// The paper's block store at memory: one valid bit plus a log₂ N owner
    /// id per memory block.
    pub fn block_store_bits(&self) -> u128 {
        self.memory_blocks as u128 * (1 + self.log_n()) as u128
    }

    /// The distributed scheme, unoptimized: every cache line carries the
    /// full state field, plus the block store —
    /// `C·N·(N + log N + 4) + M·(log N + 1)` bits machine-wide.
    pub fn distributed_bits(&self) -> u128 {
        self.n_caches as u128 * self.cache_blocks as u128 * self.line_state_bits() as u128
            + self.block_store_bits()
    }

    /// §5's split-cache organization: only `shared_fraction` of each cache
    /// supports shared read–write blocks and carries present vectors; the
    /// rest carries only the V/O/M/DW bits and the OWNER field.
    ///
    /// # Panics
    ///
    /// Panics unless `shared_fraction` is within `0.0..=1.0`.
    pub fn distributed_split_cache_bits(&self, shared_fraction: f64) -> u128 {
        assert!(
            (0.0..=1.0).contains(&shared_fraction),
            "fraction out of range"
        );
        let shared_lines = (self.cache_blocks as f64 * shared_fraction).round() as u128;
        let plain_lines = self.cache_blocks as u128 - shared_lines;
        let plain_bits = (4 + self.log_n()) as u128; // no present vector
        self.n_caches as u128
            * (shared_lines * self.line_state_bits() as u128 + plain_lines * plain_bits)
            + self.block_store_bits()
    }

    /// §5's associative present-vector store: the vector is used only by
    /// the owner, so each cache keeps a small associative memory of
    /// `owned_entries` (tag + N-bit vector) and every line keeps just the
    /// bits plus the OWNER field.
    pub fn distributed_associative_bits(&self, owned_entries: u64) -> u128 {
        let tag_bits = 32u128; // block identification in the associative store
        let per_line = (4 + self.log_n()) as u128;
        self.n_caches as u128
            * (self.cache_blocks as u128 * per_line
                + owned_entries as u128 * (tag_bits + self.n_caches as u128))
            + self.block_store_bits()
    }

    /// `full_map / distributed` — how much the paper's scheme saves.
    pub fn savings_factor(&self) -> f64 {
        self.full_map_bits() as f64 / self.distributed_bits() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_matches_the_papers_big_o() {
        // Full map scales with memory size; distributed with cache size.
        let small_mem = StateMemoryModel::new(256, 1024, 1 << 16);
        let big_mem = StateMemoryModel::new(256, 1024, 1 << 22);
        let mem_ratio = (1u64 << 22) as f64 / (1u64 << 16) as f64;
        assert!(
            (big_mem.full_map_bits() as f64 / small_mem.full_map_bits() as f64 - mem_ratio).abs()
                < 1e-9
        );
        // Distributed grows only via the log N block store term: far slower.
        let growth = big_mem.distributed_bits() as f64 / small_mem.distributed_bits() as f64;
        assert!(growth < mem_ratio / 4.0, "distributed growth {growth}");
    }

    #[test]
    fn distributed_wins_on_large_machines() {
        // Memory scales with the machine (one 1 Mi-block module per node,
        // as in the RP3 class); the savings factor then grows with N.
        let mut prev = 1.0;
        for log_n in [6u32, 8, 10] {
            let n = 1u64 << log_n;
            let m = StateMemoryModel::new(n, 4096, n << 20);
            assert!(
                m.savings_factor() > prev,
                "N = {n}: savings must grow, got {}",
                m.savings_factor()
            );
            prev = m.savings_factor();
        }
    }

    #[test]
    fn split_cache_reduces_state() {
        let m = StateMemoryModel::new(1024, 4096, 1 << 20);
        let full = m.distributed_bits();
        let half = m.distributed_split_cache_bits(0.5);
        let none = m.distributed_split_cache_bits(0.0);
        assert!(half < full);
        assert!(none < half);
        assert_eq!(m.distributed_split_cache_bits(1.0), full);
    }

    #[test]
    fn associative_store_reduces_state_when_few_blocks_are_owned() {
        let m = StateMemoryModel::new(1024, 4096, 1 << 20);
        // With vectors for only 256 owned lines instead of all 4096:
        assert!(m.distributed_associative_bits(256) < m.distributed_bits());
        // But a store as large as the cache is no better.
        assert!(m.distributed_associative_bits(4096) >= m.distributed_bits());
    }

    #[test]
    fn exact_formula_spot_check() {
        let m = StateMemoryModel::new(4, 2, 8);
        // line state = 4 + 4 + 2 = 10; distributed = 4*2*10 + 8*3 = 104.
        assert_eq!(m.line_state_bits(), 10);
        assert_eq!(m.distributed_bits(), 104);
        // full map = 8 * 5 = 40 (tiny machines favor the full map).
        assert_eq!(m.full_map_bits(), 40);
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn split_fraction_validated() {
        StateMemoryModel::new(4, 2, 8).distributed_split_cache_bits(1.5);
    }
}
