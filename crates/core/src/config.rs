//! System configuration.

use tmc_faults::FaultSpec;
use tmc_memsys::{BlockAddr, BlockSpec, CacheGeometry, MsgSizing, WordAddr};
use tmc_omeganet::SchemeKind;

use crate::error::CoreError;
use crate::state::Mode;

/// How a block's consistency mode is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModePolicy {
    /// Every block uses `Mode` from the moment it is first owned. Software
    /// can still override per block with [`crate::System::set_mode`].
    Fixed(Mode),
    /// The §5 counter scheme: the owner counts references, writes and
    /// remote global-reads per block over a `window`-reference window, then
    /// compares the measured write fraction against `w₁ = 2/(nₛ+2)` (nₛ =
    /// number of present flags set) and switches to the cheaper mode.
    Adaptive {
        /// References per measurement window (≥ 2).
        window: u32,
    },
}

impl Default for ModePolicy {
    /// The paper's initial state for a freshly loaded block is
    /// Owned Exclusively *Global Read*.
    fn default() -> Self {
        ModePolicy::Fixed(Mode::GlobalRead)
    }
}

impl ModePolicy {
    /// The mode a newly owned block starts in.
    pub(crate) fn initial_mode(self) -> Mode {
        match self {
            ModePolicy::Fixed(m) => m,
            ModePolicy::Adaptive { .. } => Mode::GlobalRead,
        }
    }
}

/// Full configuration of a simulated machine.
///
/// # Example
///
/// ```
/// use tmc_core::{Mode, ModePolicy, SystemConfig};
///
/// let cfg = SystemConfig::new(16)
///     .mode_policy(ModePolicy::Fixed(Mode::DistributedWrite))
///     .cache_blocks(64);
/// assert_eq!(cfg.n_caches, 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of caches/processors/memory modules (a power of two; this is
    /// also the network size N).
    pub n_caches: usize,
    /// Shape of each private cache.
    pub geometry: CacheGeometry,
    /// Block geometry.
    pub spec: BlockSpec,
    /// Message payload sizes.
    pub sizing: MsgSizing,
    /// Multicast scheme for consistency multicasts (updates, invalidations,
    /// owner announcements). [`SchemeKind::Combined`] is the paper's eq. 8.
    pub multicast: SchemeKind,
    /// Mode-selection policy.
    pub mode_policy: ModePolicy,
    /// Whether invalid entries route read misses straight to the owner via
    /// the OWNER field (the paper's bypass). Off = always via the memory
    /// module (an ablation).
    pub owner_bypass: bool,
    /// Optional deterministic fault-injection plan (see `tmc-faults` and
    /// `docs/ROBUSTNESS.md`). `None` — and, bit-for-bit, a spec with
    /// `count == 0` — leaves every execution path identical to a fault-free
    /// machine.
    pub faults: Option<FaultSpec>,
}

impl SystemConfig {
    /// A default configuration for an `n_caches`-processor machine:
    /// 4-way × 64-set caches, 4-word blocks, combined multicast, fixed
    /// global-read initial mode, bypass on, no faults.
    ///
    /// # Panics
    ///
    /// Panics unless `n_caches` is a power of two in `2..=65536`.
    pub fn new(n_caches: usize) -> Self {
        assert!(
            n_caches.is_power_of_two() && (2..=65536).contains(&n_caches),
            "cache count must be a power of two in 2..=65536"
        );
        SystemConfig {
            n_caches,
            geometry: CacheGeometry::new(64, 4),
            spec: BlockSpec::new(2),
            sizing: MsgSizing::default(),
            multicast: SchemeKind::Combined,
            mode_policy: ModePolicy::default(),
            owner_bypass: true,
            faults: None,
        }
    }

    /// Sets the cache geometry.
    pub fn geometry(mut self, geometry: CacheGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Shrinks/grows the cache to about `blocks` total blocks (direct
    /// convenience: `blocks/4` sets × 4 ways, minimum 1 set).
    pub fn cache_blocks(mut self, blocks: usize) -> Self {
        let sets = (blocks / 4).next_power_of_two().max(1);
        self.geometry = CacheGeometry::new(sets, 4);
        self
    }

    /// Sets the block geometry.
    pub fn block_spec(mut self, spec: BlockSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the message sizing.
    pub fn sizing(mut self, sizing: MsgSizing) -> Self {
        self.sizing = sizing;
        self
    }

    /// Sets the consistency multicast scheme.
    pub fn multicast(mut self, scheme: SchemeKind) -> Self {
        self.multicast = scheme;
        self
    }

    /// Sets the mode policy.
    pub fn mode_policy(mut self, policy: ModePolicy) -> Self {
        self.mode_policy = policy;
        self
    }

    /// Enables or disables the OWNER-field bypass.
    pub fn owner_bypass(mut self, on: bool) -> Self {
        self.owner_bypass = on;
        self
    }

    /// Enables deterministic fault injection driven by `spec`.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// The block of `addr` under this machine's block geometry, if the
    /// machine can hold it: below [`BlockAddr::LIMIT`].
    ///
    /// # Errors
    ///
    /// [`CoreError::BadAddress`] for a block at or beyond the limit.
    pub fn block_of(&self, addr: WordAddr) -> Result<BlockAddr, CoreError> {
        let block = self.spec.block_of(addr);
        if block.index() < BlockAddr::LIMIT {
            Ok(block)
        } else {
            Err(CoreError::BadAddress { addr, block })
        }
    }

    /// The cache and block shape a decoded machine may name: a
    /// power-of-two set count up to 2^24, 1 to 2^10 ways, at most
    /// [`CacheGeometry::MAX_BLOCKS`] lines, and at most 16 block offset
    /// bits. Checkpoints and JSONL trace headers both pass their fields
    /// through here before building anything.
    ///
    /// # Errors
    ///
    /// Names the first field out of bounds.
    pub fn checked_shape(
        sets: usize,
        ways: usize,
        offset_bits: u32,
    ) -> Result<(CacheGeometry, BlockSpec), String> {
        if !sets.is_power_of_two() || sets > 1 << 24 || ways == 0 || ways > 1 << 10 {
            return Err(format!("cache geometry {sets}x{ways} invalid"));
        }
        let geometry = CacheGeometry::new(sets, ways);
        check_lines(geometry)?;
        if offset_bits > 16 {
            return Err(format!("block offset bits {offset_bits} invalid"));
        }
        Ok((geometry, BlockSpec::new(offset_bits)))
    }
}

/// Refuses a cache of more than [`CacheGeometry::MAX_BLOCKS`] lines, the
/// one line bound that [`SystemConfig::checked_shape`] and
/// [`crate::System::new`] both apply.
pub(crate) fn check_lines(geometry: CacheGeometry) -> Result<(), String> {
    if geometry.fits() {
        Ok(())
    } else {
        Err(format!(
            "cache geometry {}x{} exceeds {} lines",
            geometry.sets(),
            geometry.ways(),
            CacheGeometry::MAX_BLOCKS
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = SystemConfig::new(8)
            .cache_blocks(16)
            .multicast(SchemeKind::BitVector)
            .owner_bypass(false);
        assert_eq!(cfg.geometry.capacity_blocks(), 16);
        assert_eq!(cfg.multicast, SchemeKind::BitVector);
        assert!(!cfg.owner_bypass);
    }

    #[test]
    fn initial_modes() {
        assert_eq!(ModePolicy::default().initial_mode(), Mode::GlobalRead);
        assert_eq!(
            ModePolicy::Fixed(Mode::DistributedWrite).initial_mode(),
            Mode::DistributedWrite
        );
        assert_eq!(
            ModePolicy::Adaptive { window: 32 }.initial_mode(),
            Mode::GlobalRead
        );
    }

    #[test]
    fn shapes_past_the_line_bound_are_refused() {
        let (sets, ways) = (1 << 24, 1 << 10);
        let refusal = "cache geometry 16777216x1024 exceeds 2147483647 lines";
        assert_eq!(
            SystemConfig::checked_shape(sets, ways, 2),
            Err(refusal.to_string())
        );
        let (geometry, _) = SystemConfig::checked_shape(1 << 21, 1023, 2).unwrap();
        assert_eq!(
            geometry.capacity_blocks(),
            CacheGeometry::MAX_BLOCKS - (1 << 21) + 1
        );
        assert_eq!(
            SystemConfig::checked_shape(3, 4, 2),
            Err("cache geometry 3x4 invalid".to_string())
        );
        // The library constructor refuses the same shape before building a
        // cache.
        let cfg = SystemConfig::new(4).geometry(CacheGeometry::new(sets, ways));
        match crate::System::new(cfg) {
            Err(CoreError::BadConfig(why)) => assert_eq!(why, refusal),
            other => panic!("built {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_sizes() {
        SystemConfig::new(12);
    }
}
