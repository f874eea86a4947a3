//! Observability for the two-mode coherence simulator: structured protocol
//! events and a replayable JSONL trace sink.
//!
//! The paper's evaluation is entirely about per-reference communication
//! cost (eqs. 2–12), yet aggregate totals cannot answer *why* a run cost
//! what it did: which transaction charged which omega-network links, when
//! the §5 adaptive policy flipped a block's mode, where ownership migrated.
//! This crate makes every protocol transition observable:
//!
//! * [`ProtocolEvent`] — one typed record per protocol-visible action
//!   (reads, writes, misses, mode switches, ownership transfers,
//!   replacements, and multicasts with their per-link bit charges);
//! * [`Tracer`] — a zero-cost-when-disabled event buffer that the engines
//!   own by value (it is `Clone`, so cloneable `System`s — required by the
//!   bounded model checker — stay cloneable);
//! * [`jsonl`] — a dependency-free JSONL codec for traces
//!   (header / events / trailer), designed so a captured run can be
//!   *re-executed* and checked against the live system: the trailer pins
//!   the protocol fingerprint hash, the total bits, and every per-link bit
//!   charge. See `tmc trace` (`tmc_bench::tracecheck`) for the replay harness.
//!
//! The crate deliberately depends only on the substrate crates
//! ([`tmc_simcore`], [`tmc_omeganet`], [`tmc_memsys`]) — not on the
//! protocol engine — so both `tmc-core` and every baseline engine can emit
//! events without a dependency cycle.
//!
//! # Example
//!
//! ```
//! use tmc_obs::{ProtocolEvent, TraceMode, Tracer};
//! use tmc_memsys::WordAddr;
//!
//! let mut tracer = Tracer::new();
//! tracer.set_enabled(true);
//! tracer.push(ProtocolEvent::Read {
//!     proc: 0,
//!     addr: WordAddr::new(64),
//!     value: 7,
//!     hit: true,
//!     cost_bits: 0,
//!     mode: Some(TraceMode::DistributedWrite),
//! });
//! assert_eq!(tracer.len(), 1);
//! assert!(matches!(tracer.drain()[0], ProtocolEvent::Read { hit: true, .. }));
//! assert!(tracer.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod jsonl;
pub mod tracer;

pub use event::{FaultLabel, LinkCharge, ProtocolEvent, TraceMode};
pub use jsonl::{
    fnv1a64, TraceError, TraceErrorKind, TraceHeader, TraceReader, TraceRecord, TraceTrailer,
    TraceWriter,
};
pub use tracer::Tracer;
