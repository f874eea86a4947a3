//! A task-migration workload — §5's cautionary case.
//!
//! The paper: "for applications where several tasks can modify a block, or
//! when tasks can migrate, ownership will change which increases the
//! network traffic." This generator keeps the one-writer-at-a-time
//! property but rotates *which* task writes each block every
//! `migration_period` references, forcing ownership to migrate at a
//! controllable rate.

use tmc_memsys::{BlockAddr, BlockSpec};
use tmc_simcore::SimRng;

use crate::placement::Placement;
use crate::trace::{Op, Reference, Trace};

/// Generator for the migrating-writer workload.
///
/// # Example
///
/// ```
/// use tmc_simcore::SimRng;
/// use tmc_workload::MigratingWorkload;
///
/// let mut rng = SimRng::seed_from(4);
/// let trace = MigratingWorkload::new(4, 8, 0.3, 100)
///     .references(1000)
///     .generate(8, &mut rng);
/// assert_eq!(trace.len(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MigratingWorkload {
    n_tasks: usize,
    n_blocks: u64,
    write_fraction: f64,
    migration_period: usize,
    references: usize,
    block_base: u64,
    spec: BlockSpec,
    placement: Placement,
}

impl MigratingWorkload {
    /// Creates the workload: every `migration_period` references, each
    /// block's writer moves to the next task.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or the write fraction is out of
    /// `0.0..=1.0`.
    pub fn new(
        n_tasks: usize,
        n_blocks: u64,
        write_fraction: f64,
        migration_period: usize,
    ) -> Self {
        assert!(n_tasks > 0 && n_blocks > 0 && migration_period > 0);
        assert!((0.0..=1.0).contains(&write_fraction));
        MigratingWorkload {
            n_tasks,
            n_blocks,
            write_fraction,
            migration_period,
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

    /// The task writing `block` during the epoch containing reference
    /// index `ref_index`.
    pub fn writer_at(&self, block: BlockAddr, ref_index: usize) -> usize {
        let epoch = ref_index / self.migration_period;
        ((block.index() as usize) + epoch) % self.n_tasks
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if the placement cannot host the tasks.
    pub fn generate(self, n_procs: usize, rng: &mut SimRng) -> Trace {
        let assignment = self.placement.assign(self.n_tasks, n_procs, rng);
        let mut trace = Trace::with_capacity(n_procs, self.references);
        for i in 0..self.references {
            let block = BlockAddr::new(self.block_base + rng.gen_range(0..self.n_blocks));
            let offset = rng.gen_range(0..self.spec.words_per_block());
            let addr = self.spec.word_at(block, offset);
            if rng.gen_bool(self.write_fraction) {
                trace.push(Reference {
                    proc: assignment[self.writer_at(block, i)],
                    addr,
                    op: Op::Write,
                });
            } else {
                trace.push(Reference {
                    proc: assignment[rng.gen_range(0..self.n_tasks)],
                    addr,
                    op: Op::Read,
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
    fn writer_rotates_by_epoch() {
        let wl = MigratingWorkload::new(4, 8, 0.5, 100);
        let b = BlockAddr::new(2);
        assert_eq!(wl.writer_at(b, 0), 2);
        assert_eq!(wl.writer_at(b, 99), 2);
        assert_eq!(wl.writer_at(b, 100), 3);
        assert_eq!(wl.writer_at(b, 200), 0); // wraps around 4 tasks
    }

    #[test]
    fn writes_within_an_epoch_come_from_one_task() {
        let mut rng = SimRng::seed_from(6);
        let wl = MigratingWorkload::new(4, 4, 0.5, 200);
        let spec = wl.spec();
        let trace = wl.clone().references(200).generate(4, &mut rng);
        use std::collections::HashMap;
        let mut writers: HashMap<u64, usize> = HashMap::new();
        for r in trace.iter().filter(|r| r.op == Op::Write) {
            let b = spec.block_of(r.addr).index();
            if let Some(prev) = writers.insert(b, r.proc) {
                assert_eq!(prev, r.proc, "block {b}: two writers inside one epoch");
            }
        }
    }

    #[test]
    fn writers_do_change_across_epochs() {
        let mut rng = SimRng::seed_from(6);
        let wl = MigratingWorkload::new(4, 2, 0.9, 50);
        let spec = wl.spec();
        let trace = wl.references(400).generate(4, &mut rng);
        use std::collections::HashSet;
        let mut writers: HashSet<(u64, usize)> = HashSet::new();
        for r in trace.iter().filter(|r| r.op == Op::Write) {
            writers.insert((spec.block_of(r.addr).index(), r.proc));
        }
        // With 8 epochs over 4 tasks, each block sees several writers.
        assert!(writers.len() > 4, "expected migration, got {writers:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| {
            MigratingWorkload::new(4, 4, 0.3, 50)
                .references(200)
                .generate(8, &mut SimRng::seed_from(seed))
        };
        assert_eq!(gen(9), gen(9));
    }
}
