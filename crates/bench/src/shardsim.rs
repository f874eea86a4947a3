//! Block-sharded intra-run parallel simulation.
//!
//! The serial engine processes one reference at a time on one core. But the
//! paper's whole consistency design is *distributed per block*: the owner
//! present-vector, the non-owner OWNER pointer, and the per-block owner id
//! in the memory module's block store are all keyed by block address, and no
//! protocol action for block `b` ever reads or writes state belonging to a
//! different block. This module exploits that: it partitions the block
//! address space into `K` shards, runs each shard's references on its own
//! [`System`] slice (its own worker thread), and merges the results into a
//! machine that is *bit-identical* — protocol fingerprint, counters,
//! per-link charges, trace events, memory image — to the serial run.
//!
//! # Why the partition is exact
//!
//! With `M` memory modules and `S` cache sets (both powers of two), the
//! home module of block `b` is `b & (M−1)` and its cache set is `b & (S−1)`.
//! Taking `K` a power of two with `K ≤ min(M, S)` and
//! `shard(b) = b & (K−1)` gives two guarantees at once:
//!
//! * **home-module partition** — a module's blocks all land in one shard
//!   (`shard` is a function of `module`), so per-module block-store state
//!   never crosses shards;
//! * **cache-set partition** — a set's blocks all land in one shard
//!   (`shard` is a function of `set`), so LRU replacement — the only
//!   protocol coupling *between* blocks — is confined within a shard.
//!
//! Everything else the engine touches is either per-block protocol state or
//! an additive statistic (counters, per-link traffic),
//! so executing the global reference stream's shard-`k` subsequence on a
//! fresh machine reproduces exactly the state and charges the serial run
//! accumulates for those blocks. [`System::merge_shard`] reassembles the
//! pieces; [`tmc_obs::interleave`] restores the canonical trace order from
//! each reference's global index.
//!
//! Two global mutable knobs fall outside the per-block argument and are
//! therefore rejected or unsupported here: `System::inject_offer_naks` (a
//! global fault budget consumed in trace order) and fault injection (the
//! `tmc_faults` plan is keyed to one global op clock).
//!
//! Write values are the other global sequence: the serial drivers stamp
//! writes `1, 2, 3, …` in trace order. [`crate::script::from_trace`]
//! precomputes each write's global stamp so shard workers replay the exact
//! values. Each worker steps its ops through a [`Runner`], so every read
//! is checked against a per-shard oracle (valid because a word's reads
//! depend only on that word's writes, which live on the same shard).
//!
//! # Example
//!
//! ```
//! use tmc_bench::script;
//! use tmc_bench::shardsim::{self, ShardRunOptions};
//! use tmc_core::SystemConfig;
//! use tmc_simcore::SimRng;
//! use tmc_workload::SharedBlockWorkload;
//!
//! let cfg = SystemConfig::new(4);
//! let trace = SharedBlockWorkload::new(2, 8, 0.3)
//!     .references(400)
//!     .generate(4, &mut SimRng::seed_from(9));
//! let script = script::from_trace(&trace);
//! let sharded = shardsim::run(&cfg, &script, &ShardRunOptions::new(4, 2)).unwrap();
//!
//! // Bit-identical to the serial engine.
//! let mut serial = tmc_core::System::new(cfg).unwrap();
//! script::apply_script(&mut serial, &script);
//! assert_eq!(
//!     sharded.system.protocol_fingerprint(),
//!     serial.protocol_fingerprint()
//! );
//! assert_eq!(sharded.system.traffic(), serial.traffic());
//! ```

use tmc_core::{System, SystemConfig};
use tmc_obs::{interleave, ProtocolEvent, ShardEvents};
use tmc_workload::Trace;

use crate::script::{from_trace, Runner, ScriptOp};
use crate::{sweep, RunReport};

/// The shard count actually used for `cfg` when `requested` is asked for:
/// the largest power of two that is ≤ `requested`, divides the module count
/// (`cfg.n_caches`) and divides the cache-set count — the two conditions
/// that make `shard(b) = b & (K−1)` partition both home modules and cache
/// sets (see the module docs).
pub fn shard_count(cfg: &SystemConfig, requested: usize) -> usize {
    let pow2 = if requested.is_power_of_two() {
        requested
    } else {
        (requested.max(1).next_power_of_two()) / 2
    };
    pow2.max(1).min(cfg.n_caches).min(cfg.geometry.sets())
}

/// How to run a sharded simulation.
#[derive(Debug, Clone, Copy)]
pub struct ShardRunOptions {
    /// Requested shard count; rounded by [`shard_count`].
    pub shards: usize,
    /// Worker threads; `0` means one per shard, capped at the machine's
    /// available parallelism. `1` runs every shard on the calling thread
    /// (the serial reference path through the same code).
    pub threads: usize,
    /// References executed but excluded from the report (steady-state cut,
    /// applied at *global* indices exactly like [`crate::drive_steady_state`]).
    pub warmup: usize,
    /// Record protocol events and merge them into canonical global order.
    pub tracing: bool,
    /// Freeze every shard machine through the crash-recovery snapshot
    /// codec ([`tmc_core::encode_system`] → [`tmc_core::decode_system`])
    /// before merging — proves checkpoint frames are transparent to the
    /// sharded pipeline (a resumed shard merges bit-identically).
    pub snapshot_roundtrip: bool,
}

impl ShardRunOptions {
    /// Options for a plain sharded run: `shards` shards on `threads`
    /// workers, no warmup, no tracing.
    pub fn new(shards: usize, threads: usize) -> Self {
        ShardRunOptions {
            shards,
            threads,
            warmup: 0,
            tracing: false,
            snapshot_roundtrip: false,
        }
    }

    /// Sets the steady-state warmup cut.
    pub fn warmup(mut self, refs: usize) -> Self {
        self.warmup = refs;
        self
    }

    /// Enables canonical-order event tracing.
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Enables the per-shard snapshot round-trip before merging.
    pub fn snapshot_roundtrip(mut self, on: bool) -> Self {
        self.snapshot_roundtrip = on;
        self
    }
}

/// Outcome of a sharded run.
#[derive(Debug)]
pub struct ShardRun {
    /// The merged machine — bit-identical (fingerprint, counters, traffic,
    /// memory image, block store) to a serial run of the same script.
    pub system: System,
    /// The canonical global-order event stream (empty unless tracing).
    pub events: Vec<ProtocolEvent>,
    /// Steady-state traffic report over the post-warmup references.
    pub report: RunReport,
    /// Shards actually used (see [`shard_count`]).
    pub shards: usize,
    /// Worker threads actually used.
    pub threads: usize,
}

/// Resolves `threads = 0` to one worker per shard, capped at the machine.
fn resolve_threads(threads: usize, shards: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    shards.min(avail).max(1)
}

/// Runs `script` sharded across worker threads and merges the result.
///
/// # Errors
///
/// Fails if `cfg` enables fault injection (a global-order feature the
/// per-block partition cannot reproduce), or if [`System::new`] rejects
/// `cfg`.
pub fn run(
    cfg: &SystemConfig,
    script: &[ScriptOp],
    opts: &ShardRunOptions,
) -> Result<ShardRun, String> {
    if cfg.faults.is_some() {
        return Err(
            "sharded runs do not support fault injection (the fault plan is keyed to one \
             global op clock); run fault campaigns on the serial engine"
                .into(),
        );
    }
    let shards = shard_count(cfg, opts.shards);
    let threads = resolve_threads(opts.threads, shards);
    let warmup = opts.warmup as u64;

    // Partition the script by shard, preserving global order within each
    // shard and remembering every reference's global index.
    let mut parts: Vec<Vec<(u64, ScriptOp)>> = (0..shards).map(|_| Vec::new()).collect();
    for (idx, op) in script.iter().enumerate() {
        let block = cfg.spec.block_of(op.addr());
        let shard = (block.index() as usize) & (shards - 1);
        parts[shard].push((idx as u64, *op));
    }

    struct ShardOutcome {
        system: System,
        events: ShardEvents,
        warm_bits: u64,
    }

    let tracing = opts.tracing;
    let outcomes: Vec<Result<ShardOutcome, String>> = sweep::map(threads, parts, |ops| {
        let mut sys = System::new(cfg.clone()).map_err(|e| e.to_string())?;
        sys.set_tracing(tracing);
        let mut runner = Runner::new(sys);
        let mut events = ShardEvents::new();
        let mut traced_len = 0usize;
        let mut warm_bits = None;
        for &(idx, ref op) in &ops {
            if warm_bits.is_none() && idx >= warmup {
                warm_bits = Some(runner.sys().traffic().total_bits());
            }
            runner
                .step(op)
                .map_err(|e| format!("global reference {idx}: {e}"))?;
            if tracing {
                let len = runner.sys().trace_events().len();
                events.groups.push((idx, (len - traced_len) as u32));
                traced_len = len;
            }
        }
        let mut sys = runner.into_system();
        // A shard whose every reference was warmup bills nothing.
        let warm_bits = warm_bits.unwrap_or_else(|| sys.traffic().total_bits());
        events.events = sys.drain_trace();
        Ok(ShardOutcome {
            system: sys,
            events,
            warm_bits,
        })
    });

    let mut merged = System::new(cfg.clone()).map_err(|e| e.to_string())?;
    let mut streams = Vec::with_capacity(shards);
    let mut warm_total = 0u64;
    for outcome in outcomes {
        let o = outcome?;
        warm_total += o.warm_bits;
        streams.push(o.events);
        let shard_sys = if opts.snapshot_roundtrip {
            // Freeze + thaw the shard machine through the checkpoint
            // codec; the merge below must not be able to tell.
            let bytes = tmc_core::encode_system(&o.system).map_err(|e| e.to_string())?;
            tmc_core::decode_system(&bytes).map_err(|e| e.to_string())?
        } else {
            o.system
        };
        merged.merge_shard(shard_sys);
    }
    let events = if tracing {
        interleave(streams)
    } else {
        Vec::new()
    };

    let report = if script.len() <= opts.warmup {
        RunReport {
            references: 0,
            total_bits: 0,
            bits_per_ref: 0.0,
        }
    } else {
        let measured = script.len() - opts.warmup;
        let total_bits = merged.traffic().total_bits() - warm_total;
        RunReport {
            references: measured,
            total_bits,
            bits_per_ref: total_bits as f64 / measured as f64,
        }
    };

    Ok(ShardRun {
        system: merged,
        events,
        report,
        shards,
        threads,
    })
}

/// Sharded counterpart of [`crate::drive`]: full-trace traffic per
/// reference. Returns the report and the merged machine.
///
/// # Errors
///
/// See [`run`].
pub fn drive_sharded(
    cfg: &SystemConfig,
    trace: &Trace,
    shards: usize,
    threads: usize,
) -> Result<(RunReport, System), String> {
    let script = from_trace(trace);
    let run = run(cfg, &script, &ShardRunOptions::new(shards, threads))?;
    Ok((run.report, run.system))
}

/// Sharded counterpart of [`crate::drive_steady_state`]: the warmup
/// references execute (warming shard state) but their traffic is excluded
/// from the report, using the same global-index cut as the serial driver.
///
/// # Errors
///
/// See [`run`].
pub fn drive_steady_state_sharded(
    cfg: &SystemConfig,
    trace: &Trace,
    warmup: usize,
    shards: usize,
    threads: usize,
) -> Result<(RunReport, System), String> {
    let script = from_trace(trace);
    let run = run(
        cfg,
        &script,
        &ShardRunOptions::new(shards, threads).warmup(warmup),
    )?;
    Ok((run.report, run.system))
}

/// Sharded counterpart of [`crate::tracecheck::capture`]: runs `script`
/// sharded with tracing on and serialises the canonical-order JSONL trace —
/// byte-identical to a serial capture of the same script, so
/// [`crate::tracecheck::check`] replays it against the serial engine.
///
/// # Errors
///
/// Fails for configs [`run`] or [`crate::tracecheck::header_for`] reject.
pub fn capture_sharded(
    cfg: &SystemConfig,
    script: &[ScriptOp],
    shards: usize,
    threads: usize,
) -> Result<String, String> {
    use tmc_obs::TraceWriter;

    let sharded = run(
        cfg,
        script,
        &ShardRunOptions::new(shards, threads).tracing(true),
    )?;
    let header = crate::tracecheck::header_for(&sharded.system)?;
    let mut w = TraceWriter::new(Vec::new(), &header).map_err(|e| e.to_string())?;
    for e in &sharded.events {
        w.event(e).map_err(|e| e.to_string())?;
    }
    let bytes = w
        .finish(crate::tracecheck::trailer_for(&sharded.system))
        .map_err(|e| e.to_string())?;
    String::from_utf8(bytes).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::apply_script;
    use tmc_core::Mode;
    use tmc_simcore::SimRng;
    use tmc_workload::{Placement, SharedBlockWorkload};

    fn workload(refs: usize, seed: u64) -> Trace {
        SharedBlockWorkload::new(4, 16, 0.3)
            .references(refs)
            .placement(Placement::Adjacent { base: 0 })
            .generate(8, &mut SimRng::seed_from(seed))
    }

    #[test]
    fn shard_count_respects_modules_and_sets() {
        let cfg = SystemConfig::new(16); // 64 sets
        assert_eq!(shard_count(&cfg, 8), 8);
        assert_eq!(shard_count(&cfg, 7), 4); // round down to a power of two
        assert_eq!(shard_count(&cfg, 1), 1);
        assert_eq!(shard_count(&cfg, 0), 1);
        assert_eq!(shard_count(&cfg, 1024), 16); // capped by modules
        let tiny = SystemConfig::new(16).geometry(tmc_memsys::CacheGeometry::new(2, 4));
        assert_eq!(shard_count(&tiny, 8), 2); // capped by sets
    }

    #[test]
    fn sharded_matches_serial_bit_for_bit() {
        let cfg = SystemConfig::new(8);
        let trace = workload(600, 11);
        let script = from_trace(&trace);
        let mut serial = System::new(cfg.clone()).unwrap();
        serial.set_tracing(true);
        apply_script(&mut serial, &script);
        let serial_events = serial.drain_trace();
        for (shards, threads) in [(1, 1), (2, 1), (4, 2), (8, 4)] {
            let got = run(
                &cfg,
                &script,
                &ShardRunOptions::new(shards, threads).tracing(true),
            )
            .unwrap();
            assert_eq!(
                got.system.protocol_fingerprint(),
                serial.protocol_fingerprint(),
                "{shards} shards / {threads} threads"
            );
            assert_eq!(got.system.counters(), serial.counters());
            assert_eq!(got.system.traffic(), serial.traffic());
            assert_eq!(got.events, serial_events);
        }
    }

    #[test]
    fn steady_state_report_matches_serial_driver() {
        let cfg = SystemConfig::new(8);
        let trace = workload(500, 5);
        let mut adapter = tmc_baselines::two_mode_fixed(8, Mode::GlobalRead);
        let want = crate::drive_steady_state(&mut adapter, &trace, 100);
        let (got, sys) = drive_steady_state_sharded(&cfg, &trace, 100, 4, 2).unwrap();
        assert_eq!(got, want);
        assert_eq!(sys.traffic(), adapter.inner().traffic());
    }

    #[test]
    fn warmup_covering_whole_trace_reports_nothing() {
        let cfg = SystemConfig::new(8);
        let trace = workload(50, 2);
        let (report, sys) = drive_steady_state_sharded(&cfg, &trace, 50, 4, 2).unwrap();
        assert_eq!((report.references, report.total_bits), (0, 0));
        assert_eq!(report.bits_per_ref, 0.0);
        assert!(sys.traffic().total_bits() > 0, "warmup still executed");
    }

    #[test]
    fn snapshot_roundtrip_is_invisible_to_the_merge() {
        let cfg = SystemConfig::new(8);
        let script = from_trace(&workload(400, 21));
        let mut serial = System::new(cfg.clone()).unwrap();
        serial.set_tracing(true);
        apply_script(&mut serial, &script);
        let serial_events = serial.drain_trace();
        let got = run(
            &cfg,
            &script,
            &ShardRunOptions::new(4, 2)
                .tracing(true)
                .snapshot_roundtrip(true),
        )
        .unwrap();
        assert_eq!(
            got.system.protocol_fingerprint(),
            serial.protocol_fingerprint()
        );
        assert_eq!(got.system.counters(), serial.counters());
        assert_eq!(got.system.traffic(), serial.traffic());
        assert_eq!(got.events, serial_events);
    }

    #[test]
    fn oracle_checking_passes_on_coherent_runs() {
        let cfg = SystemConfig::new(8);
        let script = from_trace(&workload(300, 7));
        let run = run(&cfg, &script, &ShardRunOptions::new(4, 2)).unwrap();
        assert!(run.report.total_bits > 0);
    }

    #[test]
    fn capture_matches_serial_capture_byte_for_byte() {
        let cfg = SystemConfig::new(8);
        let script = from_trace(&workload(250, 13));
        let serial =
            crate::tracecheck::capture(cfg.clone(), |sys| apply_script(sys, &script)).unwrap();
        let sharded = capture_sharded(&cfg, &script, 4, 2).unwrap();
        assert_eq!(sharded, serial);
        crate::tracecheck::check(&sharded).unwrap();
    }

    #[test]
    fn fault_injection_is_rejected() {
        let script = Vec::new();
        let faulty = SystemConfig::new(4).faults(tmc_core::FaultSpec::new(1));
        assert!(run(&faulty, &script, &ShardRunOptions::new(2, 1))
            .unwrap_err()
            .contains("fault injection"));
    }
}
