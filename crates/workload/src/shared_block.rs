//! The paper's §4 sharing model: one writer per block, n sharers, write
//! fraction w.

use tmc_memsys::{BlockAddr, BlockSpec};
use tmc_simcore::SimRng;

use crate::placement::Placement;
use crate::trace::{Op, Reference, Trace};

/// Generator for the paper's evaluation workload:
///
/// > "Consider a parallel application where n tasks access a shared
/// > read-write data structure. For each block in the data structure we
/// > assume that exactly one task modifies it and all other tasks access it.
/// > The fraction of writes to the block is w."
///
/// Each reference picks a block uniformly; with probability `w` it is a
/// write issued by that block's unique writer task (task `block mod n`),
/// otherwise a read issued by a uniformly random task.
///
/// # Example
///
/// ```
/// use tmc_simcore::SimRng;
/// use tmc_workload::{Op, Placement, SharedBlockWorkload};
///
/// let mut rng = SimRng::seed_from(42);
/// let wl = SharedBlockWorkload::new(4, 8, 0.3);
/// let trace = wl.clone().references(500).generate(8, &mut rng);
/// // One-writer property: every write to a block comes from one processor.
/// let writers = wl.writer_of_block(tmc_memsys::BlockAddr::new(5));
/// for r in trace.iter().filter(|r| r.op == Op::Write) {
///     let b = wl.spec().block_of(r.addr);
///     assert_eq!(r.proc, wl.writer_proc(b, &[0, 1, 2, 3]));
/// }
/// # let _ = writers;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SharedBlockWorkload {
    n_tasks: usize,
    n_blocks: u64,
    write_fraction: f64,
    references: usize,
    block_base: u64,
    spec: BlockSpec,
    placement: Placement,
}

impl SharedBlockWorkload {
    /// Creates the model with `n_tasks` sharers over `n_blocks` blocks and
    /// write fraction `write_fraction`.
    ///
    /// Defaults: 1000 references, blocks starting at address 0, 4-word
    /// blocks, adjacent placement at processor 0.
    ///
    /// # Panics
    ///
    /// Panics if `n_tasks` or `n_blocks` is zero, or `write_fraction` is
    /// outside `0.0..=1.0`.
    pub fn new(n_tasks: usize, n_blocks: u64, write_fraction: f64) -> Self {
        assert!(n_tasks > 0, "need at least one task");
        assert!(n_blocks > 0, "need at least one block");
        assert!(
            (0.0..=1.0).contains(&write_fraction),
            "write fraction out of range"
        );
        SharedBlockWorkload {
            n_tasks,
            n_blocks,
            write_fraction,
            references: 1000,
            block_base: 0,
            spec: BlockSpec::new(2),
            placement: Placement::Adjacent { base: 0 },
        }
    }

    /// Sets the number of references to generate.
    pub fn references(mut self, count: usize) -> Self {
        self.references = count;
        self
    }

    /// Sets the first block address of the shared region.
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

    /// Number of sharer tasks.
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// The unique writer *task* for `block`.
    pub fn writer_of_block(&self, block: BlockAddr) -> usize {
        (block.index() % self.n_tasks as u64) as usize
    }

    /// The processor running `block`'s writer under `assignment`.
    pub fn writer_proc(&self, block: BlockAddr, assignment: &[usize]) -> usize {
        assignment[self.writer_of_block(block)]
    }

    /// Generates the trace for an `n_procs`-processor machine.
    ///
    /// # Panics
    ///
    /// Panics if the placement cannot host the tasks (see
    /// [`Placement::assign`]).
    pub fn generate(self, n_procs: usize, rng: &mut SimRng) -> Trace {
        let mut trace = Trace::with_capacity(n_procs, self.references);
        let mut assignment = Vec::with_capacity(self.n_tasks);
        self.generate_into(rng, &mut trace, &mut assignment);
        trace
    }

    /// Allocation-free variant of [`generate`](Self::generate): clears and
    /// refills the caller's `trace` and task-assignment scratch vector,
    /// reusing both allocations. Sweeps that regenerate a trace per cell
    /// can hoist the buffers out of the loop. The reference stream is
    /// identical to [`generate`](Self::generate) for the same rng state.
    ///
    /// # Panics
    ///
    /// Panics if the placement cannot host the tasks (see
    /// [`Placement::assign`]).
    pub fn generate_into(&self, rng: &mut SimRng, trace: &mut Trace, assignment: &mut Vec<usize>) {
        let n_procs = trace.n_procs();
        assignment.clear();
        self.placement
            .assign_into(self.n_tasks, n_procs, rng, assignment);
        trace.clear();
        for _ in 0..self.references {
            let block = BlockAddr::new(self.block_base + rng.gen_range(0..self.n_blocks));
            let offset = rng.gen_range(0..self.spec.words_per_block());
            let addr = self.spec.word_at(block, offset);
            if rng.gen_bool(self.write_fraction) {
                trace.push(Reference {
                    proc: self.writer_proc(block, assignment),
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_writer_per_block_holds() {
        let mut rng = SimRng::seed_from(11);
        let wl = SharedBlockWorkload::new(4, 16, 0.5);
        let spec = wl.spec();
        let trace = wl.clone().references(2000).generate(8, &mut rng);
        use std::collections::HashMap;
        let mut writers: HashMap<u64, usize> = HashMap::new();
        for r in trace.iter().filter(|r| r.op == Op::Write) {
            let b = spec.block_of(r.addr).index();
            let prev = writers.insert(b, r.proc);
            if let Some(p) = prev {
                assert_eq!(p, r.proc, "block {b} written by two processors");
            }
        }
        assert!(!writers.is_empty());
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut rng = SimRng::seed_from(5);
        let trace = SharedBlockWorkload::new(8, 32, 0.2)
            .references(20_000)
            .generate(16, &mut rng);
        let w = trace.write_fraction();
        assert!((w - 0.2).abs() < 0.02, "empirical w = {w}");
    }

    #[test]
    fn extreme_write_fractions() {
        let mut rng = SimRng::seed_from(5);
        let all_reads = SharedBlockWorkload::new(2, 4, 0.0)
            .references(100)
            .generate(4, &mut rng);
        assert_eq!(all_reads.write_fraction(), 0.0);
        let all_writes = SharedBlockWorkload::new(2, 4, 1.0)
            .references(100)
            .generate(4, &mut rng);
        assert_eq!(all_writes.write_fraction(), 1.0);
    }

    #[test]
    fn addresses_stay_in_the_shared_region() {
        let mut rng = SimRng::seed_from(9);
        let wl = SharedBlockWorkload::new(2, 4, 0.5).block_base(100);
        let spec = wl.spec();
        let trace = wl.references(500).generate(4, &mut rng);
        for r in trace.iter() {
            let b = spec.block_of(r.addr).index();
            assert!((100..104).contains(&b), "block {b} outside region");
        }
    }

    #[test]
    fn placement_confines_processors() {
        let mut rng = SimRng::seed_from(1);
        let trace = SharedBlockWorkload::new(4, 8, 0.5)
            .placement(Placement::Adjacent { base: 8 })
            .references(500)
            .generate(16, &mut rng);
        for r in trace.iter() {
            assert!((8..12).contains(&r.proc));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let t1 = SharedBlockWorkload::new(4, 8, 0.3)
            .references(200)
            .generate(8, &mut SimRng::seed_from(77));
        let t2 = SharedBlockWorkload::new(4, 8, 0.3)
            .references(200)
            .generate(8, &mut SimRng::seed_from(77));
        assert_eq!(t1, t2);
    }
}
