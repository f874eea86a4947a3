//! The one place the benchmark touches the simulator. Every `tmc_*` item
//! the benchmark uses is imported here and nowhere else, so a PR that
//! deletes or renames simulator API sees its whole blast radius on the
//! benchmark in this file.
//!
//! Allowed — the API that survives ROADMAP items 1 and 3:
//!   * `tmc_core`: `System::{new, read, write, set_mode, flush, traffic,
//!     counters, protocol_fingerprint, present_set, set_tracing,
//!     drain_trace}`, `SystemConfig`, `ModePolicy`, `Mode`,
//!     `snapshot::{encode_system_into, decode_system, Journal,
//!     recover_journal}`;
//!   * `tmc_workload`: the trace type and the generators;
//!   * `tmc_baselines`: the comparison engines' constructors and
//!     `CoherentSystem` (the two-mode cells are built from `SystemConfig`
//!     directly, which the layer replay needs anyway);
//!   * `tmc_omeganet`: `Omega`, `CastCache`, `DestSet`, `TrafficMatrix`;
//!   * `tmc_memsys`: `CacheArray`, `MainMemory`, `BlockStore`,
//!     `ReferenceMemory` (with the address, data and module-map types
//!     their signatures need);
//!   * `tmc_obs`: `ProtocolEvent`, `TraceWriter`, `TraceReader` (with the
//!     header and trailer records they take);
//!   * `tmc_scenario`: `corpus::load_dir`, `parse`, `run_scenario`,
//!     `check_scenario`; and the `tmc` binary, spawned as a process;
//!   * `tmc_analytic`: the `protocol_cost` model;
//!   * `tmc_simcore`: `SimRng` and `CounterSet`, which the signatures
//!     above take and return.
//!
//! Forbidden — code the roadmap plans to delete, which a later perf or
//! simplicity PR must be able to remove without editing the benchmark.
//! They are named by role, not identifier, so a search for the
//! identifiers over this directory stays empty:
//!   * anything from the `crates/bench` harness library (its drive
//!     helpers, sweep pool, sharded engine, trace checker);
//!   * `System`'s batched execution entry points and their op type;
//!   * `System`'s IR-dispatch switch and its phase-profiling switch;
//!   * `tmc_simcore`'s discrete event queue;
//!   * `tmc_obs`'s metrics registry.

pub use tmc_analytic::protocol_cost::ProtocolCostModel;
pub use tmc_baselines::{
    CoherentSystem, DirectoryInvalidateSystem, NoCacheSystem, UpdateOnlySystem,
};
pub use tmc_core::snapshot::{decode_system, encode_system_into, recover_journal, Journal};
pub use tmc_core::{Mode, ModePolicy, System, SystemConfig};
pub use tmc_memsys::{
    BlockAddr, BlockData, BlockStore, CacheArray, CacheId, MainMemory, ModuleMap, ReferenceMemory,
    WordAddr,
};
pub use tmc_obs::jsonl::TRACE_VERSION;
pub use tmc_obs::{ProtocolEvent, TraceHeader, TraceReader, TraceTrailer, TraceWriter};
pub use tmc_omeganet::{CastCache, DestSet, Omega, TrafficMatrix};
pub use tmc_scenario::corpus::load_dir;
pub use tmc_scenario::{check_scenario, parse, run_scenario};
pub use tmc_simcore::{CounterSet, SimRng};
pub use tmc_workload::{
    MigratingWorkload, MultiTenantZipfWorkload, Op, Placement, Reference, SharedBlockWorkload,
    Trace,
};
