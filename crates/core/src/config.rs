//! System configuration.

use tmc_faults::FaultSpec;
use tmc_memsys::{BlockSpec, CacheGeometry, MsgSizing};
use tmc_omeganet::SchemeKind;

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
    pub fn initial_mode(self) -> Mode {
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
    #[should_panic(expected = "power of two")]
    fn rejects_odd_sizes() {
        SystemConfig::new(12);
    }
}
