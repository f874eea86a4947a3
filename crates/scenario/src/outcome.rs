//! Observable outcome of one engine run, and the diff between two.
//!
//! A [`RunOutcome`] snapshots every observable the engines promise to
//! agree on: the protocol fingerprint, all counters, the total and
//! per-link bit charges, the memory image over every block the script
//! touched, the values every read returned, and (when tracing) the typed
//! event stream. [`diff_outcomes`] names the first field two snapshots
//! disagree on.

use std::collections::BTreeMap;
use std::fmt;

use tmc_bench::shardsim::{apply_script, ShardOp};
use tmc_bench::tracecheck::nonzero_links;
use tmc_core::{System, SystemConfig};
use tmc_obs::{LinkCharge, ProtocolEvent};

use crate::pairs::Pair;

/// Everything one engine run exposes for cross-engine comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Canonical protocol-state fingerprint bytes.
    pub fingerprint: Vec<u8>,
    /// Every named counter.
    pub counters: BTreeMap<&'static str, u64>,
    /// Total bits charged across all links.
    pub total_bits: u64,
    /// Every nonzero per-link charge.
    pub links: Vec<LinkCharge>,
    /// `(word, value)` for every word of every block the script touched.
    pub memory: Vec<(u64, u64)>,
    /// The value each `Read` op returned, in script order.
    pub read_values: Vec<u64>,
    /// The typed event stream, when tracing was on.
    pub events: Option<Vec<ProtocolEvent>>,
}

/// A cross-engine disagreement: which pair tripped and what differed.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// The engine pair that disagreed.
    pub pair: Pair,
    /// Human-readable description of the first mismatch.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.pair.name(), self.detail)
    }
}

impl std::error::Error for Divergence {}

/// Every word of every block `ops` touches, in address order.
pub fn touched_words(cfg: &SystemConfig, ops: &[ShardOp]) -> Vec<u64> {
    let spec = cfg.spec;
    let mut blocks: Vec<u64> = ops
        .iter()
        .map(|op| spec.block_of(op.addr()).index())
        .collect();
    blocks.sort_unstable();
    blocks.dedup();
    let mut words = Vec::with_capacity(blocks.len() * spec.words_per_block());
    for b in blocks {
        for off in 0..spec.words_per_block() {
            words.push(spec.word_at(tmc_memsys::BlockAddr::new(b), off).value());
        }
    }
    words
}

/// Snapshots `sys` (plus the `read_values` collected while driving).
pub fn snapshot(sys: &mut System, ops: &[ShardOp], read_values: Vec<u64>) -> RunOutcome {
    let events = if sys.tracing_enabled() {
        Some(sys.drain_trace())
    } else {
        None
    };
    let cfg = sys.config().clone();
    RunOutcome {
        fingerprint: sys.protocol_fingerprint(),
        counters: sys.counters().iter().collect(),
        total_bits: sys.traffic().total_bits(),
        links: nonzero_links(sys.traffic()),
        memory: touched_words(&cfg, ops)
            .into_iter()
            .map(|w| (w, sys.peek_word(tmc_memsys::WordAddr::new(w))))
            .collect(),
        read_values,
        events,
    }
}

/// Builds a system from `cfg`, runs `ops`, snapshots the outcome.
///
/// # Errors
///
/// Propagates `System::new` rejections as a message.
pub fn run_serial(cfg: SystemConfig, ops: &[ShardOp], tracing: bool) -> Result<RunOutcome, String> {
    let mut sys = System::new(cfg).map_err(|e| e.to_string())?;
    sys.set_tracing(tracing);
    let read_values = collect_reads(&mut sys, ops);
    Ok(snapshot(&mut sys, ops, read_values))
}

/// Runs `ops` against `sys` and returns every read's value in op order.
///
/// Identical transaction sequence to [`tmc_bench::shardsim::apply_script`]
/// — same stamps, same order — but keeps the read results for value-level
/// comparison.
pub fn collect_reads(sys: &mut System, ops: &[ShardOp]) -> Vec<u64> {
    let mut vals = Vec::new();
    for op in ops {
        match *op {
            ShardOp::Read { proc, addr } => {
                vals.push(sys.read(proc, addr).expect("conformance read"));
            }
            ShardOp::Write { proc, addr, value } => {
                sys.write(proc, addr, value).expect("conformance write");
            }
            ShardOp::SetMode { proc, addr, mode } => {
                sys.set_mode(proc, addr, mode)
                    .expect("conformance set_mode");
            }
        }
    }
    vals
}

/// Drives `ops` without collecting values (delegates to `apply_script`).
pub fn run_script(sys: &mut System, ops: &[ShardOp]) {
    apply_script(sys, ops);
}

/// Compares two outcomes field by field; `Ok(())` or the first mismatch.
///
/// `left`/`right` name the engines for the message.
///
/// # Errors
///
/// Returns a description of the first differing observable.
pub fn diff_outcomes(
    a: &RunOutcome,
    b: &RunOutcome,
    left: &str,
    right: &str,
) -> Result<(), String> {
    if a.read_values != b.read_values {
        let i = first_diff(&a.read_values, &b.read_values);
        return Err(format!(
            "read #{i}: {left} returned {:?}, {right} returned {:?}",
            a.read_values.get(i),
            b.read_values.get(i)
        ));
    }
    if a.memory != b.memory {
        let i = first_diff(&a.memory, &b.memory);
        return Err(format!(
            "memory word {:?}: {left} has {:?}, {right} has {:?}",
            a.memory.get(i).map(|(w, _)| w),
            a.memory.get(i),
            b.memory.get(i)
        ));
    }
    if a.fingerprint != b.fingerprint {
        return Err(format!(
            "protocol fingerprints differ ({left}: {} bytes, {right}: {} bytes)",
            a.fingerprint.len(),
            b.fingerprint.len()
        ));
    }
    if a.counters != b.counters {
        for (k, va) in &a.counters {
            let vb = b.counters.get(k).copied().unwrap_or(0);
            if *va != vb {
                return Err(format!("counter {k}: {left}={va}, {right}={vb}"));
            }
        }
        for (k, vb) in &b.counters {
            if !a.counters.contains_key(k) {
                return Err(format!("counter {k}: {left}=0, {right}={vb}"));
            }
        }
    }
    if a.total_bits != b.total_bits {
        return Err(format!(
            "total link bits: {left}={}, {right}={}",
            a.total_bits, b.total_bits
        ));
    }
    if a.links != b.links {
        let i = first_diff(&a.links, &b.links);
        return Err(format!(
            "per-link charges differ at entry {i}: {left}={:?}, {right}={:?}",
            a.links.get(i),
            b.links.get(i)
        ));
    }
    match (&a.events, &b.events) {
        (Some(ea), Some(eb)) if ea != eb => {
            let i = first_diff(ea, eb);
            return Err(format!(
                "event #{i}: {left}={:?}, {right}={:?} (of {} vs {})",
                ea.get(i),
                eb.get(i),
                ea.len(),
                eb.len()
            ));
        }
        _ => {}
    }
    Ok(())
}

fn first_diff<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let n = a.len().min(b.len());
    (0..n).find(|&i| a[i] != b[i]).unwrap_or(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmc_core::SystemConfig;
    use tmc_memsys::WordAddr;

    #[test]
    fn identical_runs_have_no_diff() {
        let ops = vec![
            ShardOp::Write {
                proc: 0,
                addr: WordAddr::new(0),
                value: 1,
            },
            ShardOp::Read {
                proc: 1,
                addr: WordAddr::new(0),
            },
        ];
        let a = run_serial(SystemConfig::new(4), &ops, true).unwrap();
        let b = run_serial(SystemConfig::new(4), &ops, true).unwrap();
        assert_eq!(a, b);
        diff_outcomes(&a, &b, "a", "b").unwrap();
        assert_eq!(a.read_values, vec![1]);
    }

    #[test]
    fn diff_names_the_first_divergent_field() {
        let ops = vec![ShardOp::Write {
            proc: 0,
            addr: WordAddr::new(0),
            value: 1,
        }];
        let a = run_serial(SystemConfig::new(4), &ops, false).unwrap();
        let mut b = a.clone();
        b.total_bits += 1;
        let msg = diff_outcomes(&a, &b, "L", "R").unwrap_err();
        assert!(msg.contains("total link bits"), "{msg}");
    }
}
