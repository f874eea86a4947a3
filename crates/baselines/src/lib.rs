//! Baseline coherence protocols on the same simulated substrate.
//!
//! The paper's §4 compares its two-mode protocol against: keeping the block
//! at memory (no cache), the write-once protocol (modeled as a two-state
//! global Markov chain: shared ↔ exclusive with an invalidation multicast on
//! each shared→exclusive transition), a pure distributed-write protocol and
//! a pure global-read policy. This crate makes all of them runnable on the
//! identical network/memory substrate so measured traffic is apples to
//! apples:
//!
//! * [`NoCacheSystem`] — every reference crosses the network (eq. 9),
//! * [`DirectoryInvalidateSystem`] — a Censier–Feautrier full-map
//!   write-invalidate directory; globally it behaves exactly like the
//!   paper's write-once Markov model (eq. 10): blocks oscillate between
//!   shared (copies everywhere) and exclusive (one writer, everyone else
//!   invalidated),
//! * [`UpdateOnlySystem`] — a Dragon-flavoured always-update protocol
//!   (eq. 11): reads are local once cached, every write multicasts,
//! * fixed-mode instances of the paper's own protocol
//!   ([`two_mode_fixed`]) — pure distributed-write and pure global-read
//!   (eqs. 11 and 12) as degenerate cases of [`tmc_core::System`].
//!
//! All of them implement [`CoherentSystem`], the common harness interface.
//! The three hand-written engines share one machine: a node (network,
//! memory modules, counters, tracer) billing every message the way
//! [`tmc_core::System`] does, so a bit costs the same whichever protocol
//! sent it, and, under the two directory engines, one directory frame
//! (caches and a full-map sharer table) that leaves each engine only its
//! read-miss and write paths.
//!
//! # Example
//!
//! ```
//! use tmc_baselines::{CoherentSystem, NoCacheSystem};
//! use tmc_memsys::WordAddr;
//!
//! let mut sys = NoCacheSystem::new(8);
//! sys.write(0, WordAddr::new(4), 9);
//! assert_eq!(sys.read(5, WordAddr::new(4)), 9);
//! assert!(sys.total_traffic_bits() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod directory;
pub mod no_cache;
mod node;
mod sharers;
pub mod two_mode;
pub mod update;

pub use directory::DirectoryInvalidateSystem;
pub use no_cache::NoCacheSystem;
pub use two_mode::{two_mode_adaptive, two_mode_fixed, TwoModeAdapter};
pub use update::UpdateOnlySystem;

use tmc_memsys::WordAddr;
use tmc_obs::ProtocolEvent;
use tmc_omeganet::TrafficMatrix;
use tmc_simcore::CounterSet;

/// The common harness interface every protocol engine implements.
///
/// Implementations must be sequentially consistent under the harness's
/// one-reference-at-a-time execution: a read returns exactly the last value
/// written to that word.
pub trait CoherentSystem {
    /// A short stable name for reports.
    fn name(&self) -> &'static str;

    /// Processor `proc` reads `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    fn read(&mut self, proc: usize, addr: WordAddr) -> u64;

    /// Processor `proc` writes `value` to `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    fn write(&mut self, proc: usize, addr: WordAddr, value: u64);

    /// Total bits pushed across network links so far.
    fn total_traffic_bits(&self) -> u64;

    /// The per-link ledger: bits charged to every link so far.
    fn traffic(&self) -> &TrafficMatrix;

    /// Event counters.
    fn counters(&self) -> &CounterSet;

    /// Writes every dirty copy back to memory (end of run).
    fn flush(&mut self);

    /// Oracle view of a word (no traffic generated).
    fn peek_word(&self, addr: WordAddr) -> u64;

    /// Turns structured protocol-event tracing on or off. Engines without a
    /// tracer ignore the request and stay silent.
    fn set_tracing(&mut self, _on: bool) {}

    /// Whether structured tracing is currently recording.
    fn tracing_enabled(&self) -> bool {
        false
    }

    /// Takes every recorded protocol event (empty for engines without a
    /// tracer, or with tracing off).
    fn drain_trace(&mut self) -> Vec<ProtocolEvent> {
        Vec::new()
    }
}
