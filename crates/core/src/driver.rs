//! A concurrent execution driver.
//!
//! The protocol engine executes transactions atomically (the paper defines
//! no transient states), but a real machine's processors issue references
//! *concurrently*: each processor starts its next reference when its
//! previous one completes. This driver models exactly that: per-processor
//! reference streams, a global issue order by each processor's local
//! completion clock, and cross-processor link contention through the
//! network's timing model.
//!
//! The result is machine-level throughput and utilization — the extension
//! measurements behind `tmc paper throughput`.

use tmc_memsys::WordAddr;
use tmc_simcore::SimTime;

use crate::error::CoreError;
use crate::system::System;

/// One reference in a driver stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverOp {
    /// Read a word.
    Read(WordAddr),
    /// Write a value to a word.
    Write(WordAddr, u64),
}

/// Outcome of a concurrent run.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveOutcome {
    /// References executed.
    pub completed: usize,
    /// Cycle at which the last reference completed.
    pub makespan_cycles: u64,
    /// Per-processor cycles spent waiting on memory (sum of latencies).
    pub memory_cycles: Vec<u64>,
    /// References per 1000 cycles across the machine.
    pub throughput_per_kcycle: f64,
}

impl DriveOutcome {
    /// Mean memory latency per reference.
    pub fn mean_latency(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.memory_cycles.iter().sum::<u64>() as f64 / self.completed as f64
        }
    }
}

/// Runs per-processor streams concurrently on `sys`.
///
/// `streams[p]` is processor `p`'s reference sequence; `think_cycles` is the
/// local computation time between a reference's completion and the next
/// issue. The system should be configured with a timing model
/// ([`crate::SystemConfig::timing`]); without one every transaction takes
/// zero cycles and the driver degenerates to round-robin order (still
/// correct, just uninformative).
///
/// # Errors
///
/// Returns [`CoreError::BadProcessor`] if `streams` has more entries than
/// the machine has processors.
///
/// # Example
///
/// ```
/// use tmc_core::driver::{run_concurrent, DriverOp};
/// use tmc_core::{System, SystemConfig};
/// use tmc_memsys::WordAddr;
/// use tmc_omeganet::TimingModel;
///
/// let mut sys = System::new(SystemConfig::new(4).timing(TimingModel::default()))?;
/// let streams = vec![
///     vec![DriverOp::Write(WordAddr::new(0), 1), DriverOp::Read(WordAddr::new(4))],
///     vec![DriverOp::Read(WordAddr::new(0))],
/// ];
/// let outcome = run_concurrent(&mut sys, &streams, 1)?;
/// assert_eq!(outcome.completed, 3);
/// assert!(outcome.makespan_cycles > 0);
/// # Ok::<(), tmc_core::CoreError>(())
/// ```
pub fn run_concurrent(
    sys: &mut System,
    streams: &[Vec<DriverOp>],
    think_cycles: u64,
) -> Result<DriveOutcome, CoreError> {
    if streams.len() > sys.n_procs() {
        return Err(CoreError::BadProcessor {
            proc: streams.len() - 1,
            n_procs: sys.n_procs(),
        });
    }
    let n = streams.len();
    let mut next_index = vec![0usize; n];
    let mut ready_at = vec![SimTime::ZERO; n];
    let mut memory_cycles = vec![0u64; n];
    let mut completed = 0usize;
    let mut makespan = SimTime::ZERO;

    // The earliest-ready processor with work left issues next.
    while let Some(proc) = (0..n)
        .filter(|&p| next_index[p] < streams[p].len())
        .min_by_key(|&p| (ready_at[p], p))
    {
        sys.depart_at(ready_at[proc]);
        sys.trace_issue(proc, ready_at[proc].cycles());
        let stats = match streams[proc][next_index[proc]] {
            DriverOp::Read(addr) => sys.read_stats(proc, addr)?,
            DriverOp::Write(addr, value) => sys.write_stats(proc, addr, value)?,
        };
        next_index[proc] += 1;
        completed += 1;
        let latency = stats.latency_cycles.unwrap_or(0);
        memory_cycles[proc] += latency;
        let done = ready_at[proc] + latency;
        makespan = makespan.max(done);
        // One cycle to retire plus think time before the next issue.
        ready_at[proc] = done + 1 + think_cycles;
    }

    let makespan_cycles = makespan.cycles().max(1);
    Ok(DriveOutcome {
        completed,
        makespan_cycles,
        memory_cycles,
        throughput_per_kcycle: completed as f64 * 1000.0 / makespan_cycles as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModePolicy, SystemConfig};
    use crate::state::Mode;
    use tmc_omeganet::TimingModel;

    fn timed_system(n: usize, mode: Mode) -> System {
        System::new(
            SystemConfig::new(n)
                .timing(TimingModel::default())
                .mode_policy(ModePolicy::Fixed(mode)),
        )
        .expect("valid")
    }

    #[test]
    fn all_references_complete_and_stay_coherent() {
        let mut sys = timed_system(4, Mode::DistributedWrite);
        let a = WordAddr::new(0);
        let streams = vec![
            vec![DriverOp::Write(a, 10), DriverOp::Write(a, 20)],
            vec![DriverOp::Read(a), DriverOp::Read(a)],
            vec![DriverOp::Read(a)],
        ];
        let out = run_concurrent(&mut sys, &streams, 0).unwrap();
        assert_eq!(out.completed, 5);
        sys.check_invariants().unwrap();
        assert_eq!(sys.peek_word(a), 20);
    }

    #[test]
    fn throughput_accounts_latency() {
        let mut gr = timed_system(4, Mode::GlobalRead);
        // Warm: proc 0 owns the block; procs 1-3 hammer remote reads.
        gr.write(0, WordAddr::new(0), 1).unwrap();
        let streams: Vec<Vec<DriverOp>> = (0..4)
            .map(|p| {
                if p == 0 {
                    vec![]
                } else {
                    vec![DriverOp::Read(WordAddr::new(0)); 20]
                }
            })
            .collect();
        let out = run_concurrent(&mut gr, &streams, 0).unwrap();
        assert_eq!(out.completed, 60);
        assert!(out.mean_latency() > 0.0, "remote reads cost cycles");
        assert!(out.makespan_cycles > 0);
        // Memory cycles land on the reading processors only.
        assert_eq!(out.memory_cycles[0], 0);
        assert!(out.memory_cycles[1] > 0);
    }

    #[test]
    fn contention_stretches_the_makespan() {
        // All processors pounding one owner must take longer per reference
        // than disjoint private traffic.
        let mk_streams = |shared: bool| -> Vec<Vec<DriverOp>> {
            (0..4)
                .map(|p| {
                    let addr = if shared {
                        WordAddr::new(0)
                    } else {
                        WordAddr::new(4 * (p as u64 + 1) * 64)
                    };
                    vec![DriverOp::Read(addr); 25]
                })
                .collect()
        };
        let mut hot = timed_system(4, Mode::GlobalRead);
        hot.write(0, WordAddr::new(0), 1).unwrap();
        let hot_out = run_concurrent(&mut hot, &mk_streams(true), 0).unwrap();
        let mut cold = timed_system(4, Mode::GlobalRead);
        let cold_out = run_concurrent(&mut cold, &mk_streams(false), 0).unwrap();
        assert!(
            hot_out.makespan_cycles > cold_out.makespan_cycles,
            "hot {} vs cold {}",
            hot_out.makespan_cycles,
            cold_out.makespan_cycles
        );
    }

    #[test]
    fn rejects_too_many_streams() {
        let mut sys = timed_system(2, Mode::GlobalRead);
        let streams = vec![vec![], vec![], vec![DriverOp::Read(WordAddr::new(0))]];
        assert!(run_concurrent(&mut sys, &streams, 0).is_err());
    }

    #[test]
    fn empty_run_is_well_defined() {
        let mut sys = timed_system(2, Mode::GlobalRead);
        let out = run_concurrent(&mut sys, &[], 0).unwrap();
        assert_eq!(out.completed, 0);
        assert_eq!(out.mean_latency(), 0.0);
    }
}
