//! **two-mode-coherence** — a full reproduction of Per Stenström,
//! *A Cache Consistency Protocol for Multiprocessors with Multistage
//! Networks* (ISCA 1989), as a Rust workspace.
//!
//! This facade crate re-exports the workspace's building blocks under one
//! roof; each piece also lives in its own crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`protocol`] | `tmc-core` | the two-mode consistency protocol (the paper's contribution) |
//! | [`net`] | `tmc-omeganet` | omega network, multicast schemes 1–3 + combined, traffic accounting |
//! | [`memsys`] | `tmc-memsys` | caches, memory modules, block store, oracle |
//! | [`analytic`] | `tmc-analytic` | equations 2–12, break-even points, Markov model |
//! | [`workload`] | `tmc-workload` | §4 sharing model, stencil and private workloads |
//! | [`baselines`] | `tmc-baselines` | no-cache, directory-invalidate, update-only comparators |
//! | [`sim`] | `tmc-simcore` | seeded RNG, named counters |
//! | [`obs`] | `tmc-obs` | protocol events, replayable JSONL traces |
//! | [`faults`] | `tmc-faults` | deterministic fault plans: link outages, message faults, stalls, bit flips |
//!
//! # Quick start
//!
//! ```
//! use two_mode_coherence::protocol::{Mode, System, SystemConfig};
//! use two_mode_coherence::memsys::WordAddr;
//!
//! let mut sys = System::new(SystemConfig::new(8))?;
//! sys.write(0, WordAddr::new(0), 1)?;
//! sys.set_mode(0, WordAddr::new(0), Mode::DistributedWrite)?;
//! assert_eq!(sys.read(5, WordAddr::new(0))?, 1);
//! # Ok::<(), two_mode_coherence::protocol::CoreError>(())
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! system inventory and experiment index, and `EXPERIMENTS.md` for the
//! recorded paper-versus-measured results. `tmc paper <name>` regenerates
//! every table and figure (sources in `crates/bench/src/paper/`); runnable
//! examples live in `examples/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The two-mode consistency protocol (re-export of `tmc-core`).
pub mod protocol {
    pub use tmc_core::*;
}

/// Omega network and multicast schemes (re-export of `tmc-omeganet`).
pub mod net {
    pub use tmc_omeganet::*;
}

/// Memory-system substrate (re-export of `tmc-memsys`).
pub mod memsys {
    pub use tmc_memsys::*;
}

/// Closed-form cost models (re-export of `tmc-analytic`).
pub mod analytic {
    pub use tmc_analytic::*;
}

/// Reference-trace generators (re-export of `tmc-workload`).
pub mod workload {
    pub use tmc_workload::*;
}

/// Baseline protocols and the common harness trait (re-export of
/// `tmc-baselines`).
pub mod baselines {
    pub use tmc_baselines::*;
}

/// Seeded random numbers and named counters (re-export of `tmc-simcore`).
pub mod sim {
    pub use tmc_simcore::*;
}

/// Observability: protocol events, metrics, replayable traces (re-export
/// of `tmc-obs`).
pub mod obs {
    pub use tmc_obs::*;
}

/// Deterministic fault injection: seed-driven plans of link outages,
/// message drops/duplicates/delays, cache stalls and bit flips (re-export
/// of `tmc-faults`). See `docs/ROBUSTNESS.md`.
pub mod faults {
    pub use tmc_faults::*;
}
