//! A hot-spot workload.
//!
//! The paper opens by citing network contention as *the* problem of
//! shared-memory multiprocessors (the author's own reference \[14\],
//! "Reducing Contention in Shared-Memory Multiprocessors"). The classic
//! contention stressor is a hot spot: a fraction `h` of all references
//! target one block (a lock, a counter, a work queue head), the rest go to
//! private per-task data. This generator produces that mix, which is what
//! the latency/throughput experiments use to expose link contention.

use tmc_memsys::{BlockAddr, BlockSpec};
use tmc_simcore::SimRng;

use crate::placement::Placement;
use crate::trace::{Op, Reference, Trace};

/// Generator for the hot-spot mix.
///
/// Hot references are reads or writes of the single hot block (writes by
/// one designated task — the lock owner pattern — unless
/// [`HotSpotWorkload::any_writer`] is set); background references go to the
/// issuing task's private blocks.
///
/// # Example
///
/// ```
/// use tmc_simcore::SimRng;
/// use tmc_workload::HotSpotWorkload;
///
/// let mut rng = SimRng::seed_from(5);
/// let trace = HotSpotWorkload::new(4, 0.2, 0.1).references(1000).generate(8, &mut rng);
/// assert_eq!(trace.len(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HotSpotWorkload {
    n_tasks: usize,
    hot_fraction: f64,
    write_fraction: f64,
    any_writer: bool,
    references: usize,
    hot_block: u64,
    private_base: u64,
    private_blocks_per_task: u64,
    spec: BlockSpec,
    placement: Placement,
}

impl HotSpotWorkload {
    /// Creates the workload: fraction `hot_fraction` of references hit the
    /// hot block; `write_fraction` of *hot* references are writes.
    /// Background references are private reads/writes (50/50).
    ///
    /// # Panics
    ///
    /// Panics if `n_tasks` is zero or either fraction is outside
    /// `0.0..=1.0`.
    pub fn new(n_tasks: usize, hot_fraction: f64, write_fraction: f64) -> Self {
        assert!(n_tasks > 0);
        assert!((0.0..=1.0).contains(&hot_fraction));
        assert!((0.0..=1.0).contains(&write_fraction));
        HotSpotWorkload {
            n_tasks,
            hot_fraction,
            write_fraction,
            any_writer: false,
            references: 1000,
            hot_block: 0,
            private_base: 1024,
            private_blocks_per_task: 8,
            spec: BlockSpec::new(2),
            placement: Placement::Adjacent { base: 0 },
        }
    }

    /// Lets every task write the hot block (ownership migrates on every
    /// writer change — the paper's worst case). Default: one writer.
    pub fn any_writer(mut self, yes: bool) -> Self {
        self.any_writer = yes;
        self
    }

    /// Sets the number of references.
    pub fn references(mut self, count: usize) -> Self {
        self.references = count;
        self
    }

    /// Sets the hot block's address.
    pub fn hot_block(mut self, block: u64) -> Self {
        self.hot_block = block;
        self
    }

    /// Sets the task→processor placement.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// The block geometry in use.
    pub fn spec(&self) -> BlockSpec {
        self.spec
    }

    /// The hot block.
    pub fn hot(&self) -> BlockAddr {
        BlockAddr::new(self.hot_block)
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if the placement cannot host the tasks.
    pub fn generate(self, n_procs: usize, rng: &mut SimRng) -> Trace {
        let assignment = self.placement.assign(self.n_tasks, n_procs, rng);
        let mut trace = Trace::with_capacity(n_procs, self.references);
        for _ in 0..self.references {
            if rng.gen_bool(self.hot_fraction) {
                let offset = rng.gen_range(0..self.spec.words_per_block());
                let addr = self.spec.word_at(self.hot(), offset);
                if rng.gen_bool(self.write_fraction) {
                    let writer = if self.any_writer {
                        rng.gen_range(0..self.n_tasks)
                    } else {
                        0
                    };
                    trace.push(Reference {
                        proc: assignment[writer],
                        addr,
                        op: Op::Write,
                    });
                } else {
                    let task = rng.gen_range(0..self.n_tasks);
                    trace.push(Reference {
                        proc: assignment[task],
                        addr,
                        op: Op::Read,
                    });
                }
            } else {
                let task = rng.gen_range(0..self.n_tasks);
                let block = BlockAddr::new(
                    self.private_base
                        + task as u64 * self.private_blocks_per_task
                        + rng.gen_range(0..self.private_blocks_per_task),
                );
                let offset = rng.gen_range(0..self.spec.words_per_block());
                trace.push(Reference {
                    proc: assignment[task],
                    addr: self.spec.word_at(block, offset),
                    op: if rng.gen_bool(0.5) {
                        Op::Write
                    } else {
                        Op::Read
                    },
                });
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_fraction_is_respected() {
        let mut rng = SimRng::seed_from(3);
        let wl = HotSpotWorkload::new(4, 0.25, 0.2);
        let spec = wl.spec();
        let hot = wl.hot();
        let trace = wl.references(20_000).generate(8, &mut rng);
        let hot_refs = trace
            .iter()
            .filter(|r| spec.block_of(r.addr) == hot)
            .count();
        let frac = hot_refs as f64 / trace.len() as f64;
        assert!((frac - 0.25).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn single_writer_by_default() {
        let mut rng = SimRng::seed_from(3);
        let wl = HotSpotWorkload::new(4, 0.5, 0.5);
        let spec = wl.spec();
        let hot = wl.hot();
        let trace = wl.references(2000).generate(8, &mut rng);
        for r in trace.iter().filter(|r| r.op == Op::Write) {
            if spec.block_of(r.addr) == hot {
                assert_eq!(r.proc, 0, "hot writes come from task 0");
            }
        }
    }

    #[test]
    fn any_writer_spreads_hot_writes() {
        let mut rng = SimRng::seed_from(3);
        let wl = HotSpotWorkload::new(4, 0.8, 0.8).any_writer(true);
        let spec = wl.spec();
        let hot = wl.hot();
        let trace = wl.references(2000).generate(8, &mut rng);
        let writers: std::collections::HashSet<usize> = trace
            .iter()
            .filter(|r| r.op == Op::Write && spec.block_of(r.addr) == hot)
            .map(|r| r.proc)
            .collect();
        assert!(writers.len() > 1, "expected several hot writers");
    }

    #[test]
    fn private_blocks_stay_private() {
        let mut rng = SimRng::seed_from(7);
        let wl = HotSpotWorkload::new(4, 0.3, 0.5);
        let spec = wl.spec();
        let hot = wl.hot();
        let trace = wl.references(3000).generate(4, &mut rng);
        use std::collections::HashMap;
        let mut owners: HashMap<u64, usize> = HashMap::new();
        for r in trace.iter() {
            let b = spec.block_of(r.addr);
            if b == hot {
                continue;
            }
            if let Some(prev) = owners.insert(b.index(), r.proc) {
                assert_eq!(prev, r.proc, "private block {b} touched by two procs");
            }
        }
    }
}
