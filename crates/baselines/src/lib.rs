//! The paper's comparison protocols, behind one harness interface.
//!
//! The paper's §4 compares its two-mode protocol against: keeping the block
//! at memory (no cache), the write-once protocol (modeled as a two-state
//! global Markov chain: shared ↔ exclusive with an invalidation multicast on
//! each shared→exclusive transition), a pure distributed-write protocol and
//! a pure global-read policy. This crate makes all of them runnable on the
//! one simulated machine, [`tmc_core::System`], so measured traffic is
//! apples to apples:
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
//! All of them implement [`CoherentSystem`], the common harness interface,
//! as thin wrappers over a [`tmc_core::System`]. The first three run the
//! baseline rule tables of `tmc-core` on a
//! [`System::baseline`](tmc_core::System::baseline) machine: the same
//! executor as the two-mode rules, with a home directory in place of the
//! two-mode line states, so a bit costs the same whichever protocol sent
//! it.
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

/// Implements [`CoherentSystem`] for an engine that wraps a
/// [`tmc_core::System`] in a `sys` field under the report name in a `name`
/// field.
macro_rules! on_system {
    ($engine:ty) => {
        impl $crate::CoherentSystem for $engine {
            fn name(&self) -> &'static str {
                self.name
            }

            fn read(&mut self, proc: usize, addr: tmc_memsys::WordAddr) -> u64 {
                self.sys.read(proc, addr).unwrap_or_else(|e| panic!("{e}"))
            }

            fn write(&mut self, proc: usize, addr: tmc_memsys::WordAddr, value: u64) {
                self.sys
                    .write(proc, addr, value)
                    .unwrap_or_else(|e| panic!("{e}"));
            }

            fn total_traffic_bits(&self) -> u64 {
                self.sys.traffic().total_bits()
            }

            fn traffic(&self) -> &tmc_omeganet::TrafficMatrix {
                self.sys.traffic()
            }

            fn counters(&self) -> &tmc_simcore::CounterSet {
                self.sys.counters()
            }

            fn flush(&mut self) {
                self.sys.flush();
            }

            fn peek_word(&self, addr: tmc_memsys::WordAddr) -> u64 {
                self.sys.peek_word(addr)
            }

            fn set_tracing(&mut self, on: bool) {
                self.sys.set_tracing(on);
            }

            fn tracing_enabled(&self) -> bool {
                self.sys.tracing_enabled()
            }

            fn drain_trace(&mut self) -> Vec<tmc_obs::ProtocolEvent> {
                self.sys.drain_trace()
            }
        }
    };
}

/// Declares a baseline engine: a `System::baseline` machine running
/// `$protocol` under the report name `$name`. With `caches`, the engine
/// also takes an explicit cache geometry and multicast scheme.
macro_rules! baseline_system {
    ($(#[$doc:meta])* $engine:ident($name:literal, $protocol:ident)) => {
        $(#[$doc])*
        pub struct $engine {
            sys: tmc_core::System,
            name: &'static str,
        }

        impl $engine {
            /// Builds the baseline with default geometry (64×4 caches,
            /// 4-word blocks, combined multicast).
            ///
            /// # Panics
            ///
            /// Panics unless `n_procs` is a power of two in `2..=65536`.
            pub fn new(n_procs: usize) -> Self {
                Self::from_config(tmc_core::SystemConfig::new(n_procs))
            }

            fn from_config(cfg: tmc_core::SystemConfig) -> Self {
                let protocol = tmc_core::Baseline::$protocol;
                let sys = tmc_core::System::baseline(cfg, protocol).expect("valid configuration");
                $engine { sys, name: $name }
            }
        }

        on_system!($engine);
    };
    ($(#[$doc:meta])* $engine:ident($name:literal, $protocol:ident) with caches) => {
        baseline_system!($(#[$doc])* $engine($name, $protocol));

        impl $engine {
            /// Builds the baseline with an explicit cache geometry.
            ///
            /// # Panics
            ///
            /// Panics unless `n_procs` is a power of two in `2..=65536`.
            pub fn with_geometry(n_procs: usize, geometry: tmc_memsys::CacheGeometry) -> Self {
                Self::from_config(tmc_core::SystemConfig::new(n_procs).geometry(geometry))
            }

            /// Selects the scheme of the baseline's multicasts (a builder:
            /// the machine is rebuilt, so call it before the first
            /// reference).
            pub fn multicast(self, scheme: tmc_omeganet::SchemeKind) -> Self {
                Self::from_config(self.sys.config().clone().multicast(scheme))
            }
        }
    };
}

mod directory;
mod no_cache;
mod two_mode;
mod update;

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
    /// Panics if `proc` is out of range or `addr`'s block is at or beyond
    /// [`tmc_memsys::BlockAddr::LIMIT`].
    fn read(&mut self, proc: usize, addr: WordAddr) -> u64;

    /// Processor `proc` writes `value` to `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range or `addr`'s block is at or beyond
    /// [`tmc_memsys::BlockAddr::LIMIT`].
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
