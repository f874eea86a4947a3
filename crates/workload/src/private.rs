//! A no-sharing workload: disjoint per-task working sets.
//!
//! The sanity baseline: once each task's blocks are resident, a coherent
//! cache system should serve essentially every reference locally, so
//! consistency traffic should be near zero regardless of protocol.

use tmc_memsys::{BlockAddr, BlockSpec};
use tmc_simcore::SimRng;

use crate::placement::Placement;
use crate::trace::{Op, Reference, Trace};

/// Generator producing uniformly random references where task `t` only ever
/// touches its own `blocks_per_task` blocks.
///
/// # Example
///
/// ```
/// use tmc_simcore::SimRng;
/// use tmc_workload::PrivateWorkload;
///
/// let mut rng = SimRng::seed_from(8);
/// let trace = PrivateWorkload::new(4, 4, 0.5).references(100).generate(8, &mut rng);
/// assert_eq!(trace.len(), 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PrivateWorkload {
    n_tasks: usize,
    blocks_per_task: u64,
    write_fraction: f64,
    references: usize,
    block_base: u64,
    spec: BlockSpec,
    placement: Placement,
}

impl PrivateWorkload {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `n_tasks` or `blocks_per_task` is zero, or the write
    /// fraction is outside `0.0..=1.0`.
    pub fn new(n_tasks: usize, blocks_per_task: u64, write_fraction: f64) -> Self {
        assert!(n_tasks > 0 && blocks_per_task > 0);
        assert!((0.0..=1.0).contains(&write_fraction));
        PrivateWorkload {
            n_tasks,
            blocks_per_task,
            write_fraction,
            references: 1000,
            block_base: 0,
            spec: BlockSpec::new(2),
            placement: Placement::Adjacent { base: 0 },
        }
    }

    /// Sets the number of references.
    pub fn references(mut self, count: usize) -> Self {
        self.references = count;
        self
    }

    /// Sets the first block address.
    pub fn block_base(mut self, base: u64) -> Self {
        self.block_base = base;
        self
    }

    /// Sets the block geometry.
    pub fn block_spec(mut self, spec: BlockSpec) -> Self {
        self.spec = spec;
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

    /// The blocks task `t` owns.
    pub fn blocks_of_task(&self, task: usize) -> impl Iterator<Item = BlockAddr> + '_ {
        let start = self.block_base + task as u64 * self.blocks_per_task;
        (start..start + self.blocks_per_task).map(BlockAddr::new)
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
            let task = rng.gen_range(0..self.n_tasks);
            let block = BlockAddr::new(
                self.block_base
                    + task as u64 * self.blocks_per_task
                    + rng.gen_range(0..self.blocks_per_task),
            );
            let offset = rng.gen_range(0..self.spec.words_per_block());
            let op = if rng.gen_bool(self.write_fraction) {
                Op::Write
            } else {
                Op::Read
            };
            trace.push(Reference {
                proc: assignment[task],
                addr: self.spec.word_at(block, offset),
                op,
            });
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_sets_are_disjoint() {
        let mut rng = SimRng::seed_from(2);
        let wl = PrivateWorkload::new(4, 4, 0.5);
        let spec = wl.spec();
        let trace = wl.clone().references(2000).generate(4, &mut rng);
        for r in trace.iter() {
            let b = spec.block_of(r.addr).index();
            let task = r.proc; // adjacent placement at base 0: task == proc
            assert!(
                wl.blocks_of_task(task).any(|tb| tb.index() == b),
                "proc {task} touched foreign block {b}"
            );
        }
    }

    #[test]
    fn blocks_of_task_are_contiguous() {
        let wl = PrivateWorkload::new(3, 2, 0.5).block_base(10);
        let blocks: Vec<u64> = wl.blocks_of_task(1).map(|b| b.index()).collect();
        assert_eq!(blocks, [12, 13]);
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| {
            PrivateWorkload::new(2, 2, 0.3)
                .references(100)
                .generate(4, &mut SimRng::seed_from(seed))
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
    }
}
