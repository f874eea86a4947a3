//! Deterministic simulation substrate (random numbers, counters) for the
//! two-mode coherence simulator.
//!
//! This crate is substrate shared by every simulated subsystem in the
//! workspace: the omega-network model ([`tmc-omeganet`]), the memory system
//! ([`tmc-memsys`]) and the protocol engines built on top of them. It
//! provides:
//!
//! * [`SimRng`] — a seedable random-number source so every experiment is
//!   reproducible from a single `u64` seed,
//! * [`CounterSet`] — named event counters for traffic and protocol
//!   accounting.
//!
//! The simulator keeps no simulated time: like the paper, it measures cost
//! in link bits.
//!
//! # Example
//!
//! ```
//! use tmc_simcore::{CounterSet, SimRng};
//!
//! let mut rng = SimRng::seed_from(7);
//! let mut counters = CounterSet::new();
//! for _ in 0..10 {
//!     counters.add("events", rng.gen_range(1..4));
//! }
//! assert!(counters.get("events") >= 10);
//! ```
//!
//! [`tmc-omeganet`]: https://example.org/two-mode-coherence
//! [`tmc-memsys`]: https://example.org/two-mode-coherence

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod stats;

pub use rng::SimRng;
pub use stats::CounterSet;
