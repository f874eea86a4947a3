//! Omega multistage interconnection network simulator.
//!
//! This crate models the interconnect of Stenström's ISCA 1989 paper: an
//! N×N omega network (Lawrie 1975) built from 2×2 switches, with `m = log₂ N`
//! stages, connecting N ports. Cache *i* and memory module *i* of the
//! simulated multiprocessor both attach to port *i*.
//!
//! The crate provides:
//!
//! * [`Omega`] — the topology: perfect-shuffle wiring, destination-tag
//!   routing, per-stage link identification,
//! * [`DestSet`] — destination sets with the constructors the paper's
//!   analysis needs (adjacent blocks, maximal-spread worst cases, aligned
//!   subcubes),
//! * [`TrafficMatrix`] — per-link bit accounting; its grand total is the
//!   paper's *communication cost* metric `CC = Σᵢ Lᵢ` (eq. 1),
//! * [`multicast`] — the three multicast schemes of §3 plus the combined
//!   scheme of eq. 8, all accounted link-by-link,
//! * [`timing`] — an optional latency model with per-link contention, used by
//!   the latency extension experiments (the paper itself only counts bits).
//!
//! # Example: one multicast, measured
//!
//! ```
//! use tmc_omeganet::{DestSet, Omega, SchemeKind, TrafficMatrix};
//!
//! let net = Omega::new(3)?; // N = 8 ports
//! let dests = DestSet::from_ports(8, [0usize, 2, 3, 6])?;
//! let mut traffic = TrafficMatrix::new(&net);
//! let receipt = net.multicast(SchemeKind::BitVector, 1, &dests, 20, &mut traffic)?;
//! assert_eq!(receipt.delivered, dests.iter().collect::<Vec<_>>());
//! assert_eq!(traffic.total_bits(), receipt.cost_bits);
//! # Ok::<(), tmc_omeganet::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aary;
pub mod castcache;
pub mod destset;
pub mod error;
pub mod multicast;
pub mod timing;
pub mod topology;
pub mod traffic;

pub use aary::AryOmega;

pub use castcache::{CastCache, CastStats};
pub use destset::DestSet;
pub use error::NetError;
pub use multicast::{CastReceipt, SchemeChoice, SchemeKind};
pub use timing::{LinkSchedule, TimingModel};
pub use topology::{LinkId, Omega, PortId, RouteIter};
pub use traffic::TrafficMatrix;
