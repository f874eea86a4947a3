//! Memory-system substrate shared by every coherence protocol in the
//! workspace.
//!
//! The paper's machine (Figure 1) is N processors with private caches and N
//! interleaved memory modules on an omega network. This crate provides the
//! building blocks all protocol engines share:
//!
//! * [`addr`] — word/block address newtypes and the block→module
//!   interleaving map,
//! * [`data`] — block payloads ([`BlockData`]) holding real word values so
//!   coherence can be checked at the value level,
//! * [`cache`] — a set-associative, LRU [`CacheArray`] generic over the
//!   per-line state each protocol defines,
//! * [`memory`] — [`MainMemory`] (backing store) and the paper's
//!   [`BlockStore`] (one valid bit + owner id per block, §2.1),
//! * [`oracle`] — a flat [`ReferenceMemory`] updated in program order, used
//!   by tests to check every read value a protocol returns,
//! * [`sizing`] — [`MsgSizing`], the configurable message-size accounting
//!   the communication-cost experiments depend on.
//!
//! # Example
//!
//! ```
//! use tmc_memsys::{BlockSpec, CacheArray, CacheGeometry, WordAddr};
//!
//! let spec = BlockSpec::new(4); // 16-word blocks
//! let block = spec.block_of(WordAddr::new(35));
//! assert_eq!(block.index(), 2);
//!
//! let mut cache: CacheArray<&str> = CacheArray::new(CacheGeometry::new(2, 2));
//! assert!(cache.get(block).is_none());
//! cache.insert(block, "state");
//! assert_eq!(cache.get(block), Some(&"state"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod cache;
pub mod data;
pub mod memory;
pub mod oracle;
pub mod sizing;

pub use addr::{BlockAddr, BlockSpec, CacheId, ModuleMap, WordAddr};
pub use cache::{CacheArray, CacheGeometry, LineRef, Room};
pub use data::BlockData;
pub use memory::{BlockStore, MainMemory};
pub use oracle::ReferenceMemory;
pub use sizing::MsgSizing;
