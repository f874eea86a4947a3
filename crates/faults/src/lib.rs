//! Deterministic fault injection for the two-mode coherence simulator.
//!
//! The paper's protocol assumes a perfectly reliable omega network. This
//! crate supplies the adversary: a seed-driven **fault plan** that injects
//! link outages, message drops/duplicates/delays, cache stalls and
//! single-bit cache-line flips into a run, plus the bookkeeping the
//! protocol engine needs to survive them (which outages are active, which
//! message faults are pending, when things heal).
//!
//! Everything is driven by [`tmc_simcore::SimRng`] and scheduled in
//! **simulated op order** — the index of the public transaction being
//! executed — never wall-clock time. Two runs with the same
//! [`FaultSpec`] therefore see byte-identical fault schedules and, because
//! the protocol engine reacts deterministically, byte-identical outcomes.
//! A spec with `count == 0` produces an empty plan whose injector never
//! fires, so a zero-fault run is bit-identical to a run with no fault
//! machinery attached at all (`tmc-bench/tests/chaos_determinism.rs` pins
//! exactly that). Seeded campaigns run as generated cases of `tmc fuzz`,
//! whose script runner checks that every planned fault fired and healed.
//!
//! # Example
//!
//! ```
//! use tmc_faults::{FaultInjector, FaultPlan, FaultSpec};
//!
//! let spec = FaultSpec::new(42).count(4).horizon(100);
//! let plan = FaultPlan::generate(&spec, 8, 3).unwrap();
//! assert_eq!(plan.len(), 4);
//! let mut inj = FaultInjector::new(plan);
//! for op in 1..=100 {
//!     let fired = inj.advance(op);
//!     for f in &fired {
//!         assert!(f.at <= op);
//!     }
//! }
//! assert_eq!(inj.injected(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod injector;
pub mod plan;

pub use error::FaultError;
pub use injector::{FaultInjector, InjectorState, MsgFault};
pub use plan::{FaultKind, FaultPlan, FaultSpec, RetryPolicy, ScheduledFault};
