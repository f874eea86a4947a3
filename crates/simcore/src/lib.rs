//! Deterministic simulation substrate (clock, random numbers, statistics)
//! for the two-mode coherence simulator.
//!
//! This crate is substrate shared by every simulated subsystem in the
//! workspace: the omega-network model ([`tmc-omeganet`]), the memory system
//! ([`tmc-memsys`]) and the protocol engines built on top of them. It
//! provides:
//!
//! * [`SimTime`] — a cycle-granular simulated clock value,
//! * [`SimRng`] — a seedable random-number source so every experiment is
//!   reproducible from a single `u64` seed,
//! * [`stats`] — power-of-two histograms and named counter sets used for
//!   traffic and latency accounting.
//!
//! # Example
//!
//! ```
//! use tmc_simcore::{CounterSet, SimRng, SimTime};
//!
//! let mut rng = SimRng::seed_from(7);
//! let mut counters = CounterSet::new();
//! let mut now = SimTime::ZERO;
//! for _ in 0..10 {
//!     now += rng.gen_range(1..4);
//!     counters.incr("events");
//! }
//! assert_eq!(counters.get("events"), 10);
//! assert!(now.cycles() >= 10);
//! ```
//!
//! [`tmc-omeganet`]: https://example.org/two-mode-coherence
//! [`tmc-memsys`]: https://example.org/two-mode-coherence

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod stats;
pub mod time;

pub use rng::SimRng;
pub use stats::{CounterSet, Histogram};
pub use time::SimTime;
