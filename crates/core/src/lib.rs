//! The two-mode cache consistency protocol of Stenström (ISCA 1989) —
//! the paper's primary contribution, executable.
//!
//! A [`System`] is a whole simulated multiprocessor: N processors with
//! private caches and N interleaved memory modules on an omega network
//! (from [`tmc-omeganet`]). Every [`System::read`] / [`System::write`] runs
//! the full protocol of the paper's §2.2 — six line states, owner-held
//! present-flag vectors, a per-block block store at memory, OWNER-pointer
//! bypass, ownership migration, replacement with ownership handoff, and the
//! two consistency modes:
//!
//! * **distributed write** — writes are multicast to every cache holding a
//!   copy (using the §3 multicast schemes, combined per eq. 8),
//! * **global read** — only the owner holds a copy; remote reads fetch one
//!   datum.
//!
//! Modes are set per block by software ([`System::set_mode`]) or by the §5
//! counter-based adaptive policy ([`ModePolicy::Adaptive`]).
//!
//! Every message is billed on the simulated network link-by-link, so a
//! run's [`System::traffic`] total is directly comparable to the paper's
//! analytic communication costs (crate [`tmc-analytic`]).
//!
//! # Quick start
//!
//! ```
//! use tmc_core::{Mode, System, SystemConfig};
//! use tmc_memsys::WordAddr;
//!
//! let mut sys = System::new(SystemConfig::new(8))?;
//! let x = WordAddr::new(100);
//!
//! sys.write(0, x, 41)?;                       // proc 0 becomes owner
//! sys.set_mode(0, x, Mode::DistributedWrite)?; // software directive
//! assert_eq!(sys.read(3, x)?, 41);            // proc 3 loads a copy
//! sys.write(0, x, 42)?;                       // update multicast to proc 3
//! assert_eq!(sys.read(3, x)?, 42);            // served locally, coherent
//! # Ok::<(), tmc_core::CoreError>(())
//! ```
//!
//! [`tmc-omeganet`]: ../tmc_omeganet/index.html
//! [`tmc-analytic`]: ../tmc_analytic/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod home;
mod invariants;
mod ir;
mod msg;
pub mod snapshot;
mod state;
mod system;

pub use config::{ModePolicy, SystemConfig};
pub use error::{CoreError, InvariantViolation};
pub use home::Baseline;
pub use snapshot::{
    decode_system, encode_system, memory_digest, recover_journal, Journal, Recovery, SnapshotError,
};
pub use state::{CacheLine, Mode, OwnerState, StateName, Validity};
pub use system::System;
pub use tmc_faults::{FaultError, FaultSpec, RetryPolicy};
pub use tmc_obs::ProtocolEvent;
pub use tmc_omeganet::CastStats;
