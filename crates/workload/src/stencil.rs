//! An iterative stencil (matrix) workload.
//!
//! The paper argues the protocol suits "many supercomputing applications
//! such as algorithms based on matrix operations", where each block of the
//! shared structure is modified by at most one task. This generator models
//! a 1-D domain decomposition of an iterative grid sweep (Jacobi/SOR
//! style): task `t` owns `rows_per_task` rows; every iteration it reads its
//! own rows plus the boundary rows of its two neighbors, then writes its own
//! rows. Ownership never migrates — the paper's best case.

use tmc_memsys::{BlockAddr, BlockSpec};
use tmc_simcore::SimRng;

use crate::placement::Placement;
use crate::trace::{Op, Reference, Trace};

/// Generator for the stencil workload.
///
/// Rows map to blocks one-to-one: row `r` lives in block `base + r`, and is
/// written only by its owning task.
///
/// # Example
///
/// ```
/// use tmc_simcore::SimRng;
/// use tmc_workload::StencilWorkload;
///
/// let mut rng = SimRng::seed_from(3);
/// let trace = StencilWorkload::new(4, 2, 3).generate(8, &mut rng);
/// assert!(!trace.is_empty());
/// // All four tasks participate.
/// assert_eq!(trace.active_procs(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StencilWorkload {
    n_tasks: usize,
    rows_per_task: usize,
    iterations: usize,
    block_base: u64,
    spec: BlockSpec,
    placement: Placement,
}

impl StencilWorkload {
    /// Creates a stencil over `n_tasks` tasks, each owning `rows_per_task`
    /// rows, swept `iterations` times.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(n_tasks: usize, rows_per_task: usize, iterations: usize) -> Self {
        assert!(n_tasks > 0 && rows_per_task > 0 && iterations > 0);
        StencilWorkload {
            n_tasks,
            rows_per_task,
            iterations,
            block_base: 0,
            spec: BlockSpec::new(2),
            placement: Placement::Adjacent { base: 0 },
        }
    }

    /// Sets the first block address of the grid.
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

    /// The block holding row `row`.
    pub fn block_of_row(&self, row: usize) -> BlockAddr {
        BlockAddr::new(self.block_base + row as u64)
    }

    /// The task owning (writing) `row`.
    pub fn owner_of_row(&self, row: usize) -> usize {
        row / self.rows_per_task
    }

    /// Total rows in the grid.
    pub fn total_rows(&self) -> usize {
        self.n_tasks * self.rows_per_task
    }

    /// Generates the trace for an `n_procs`-processor machine.
    ///
    /// Per iteration, per task: read every word of the task's own rows and
    /// of the neighbor boundary rows, then write every word of the task's
    /// own rows. Tasks proceed round-robin within an iteration (a static
    /// interleaving; the protocol engines only need program order per
    /// processor plus some global order, which this provides).
    ///
    /// # Panics
    ///
    /// Panics if the placement cannot host the tasks.
    pub fn generate(self, n_procs: usize, rng: &mut SimRng) -> Trace {
        let assignment = self.placement.assign(self.n_tasks, n_procs, rng);
        let words = self.spec.words_per_block();
        // Per task and iteration: reads of own + boundary rows (at most
        // rows_per_task + 2), then writes of own rows.
        let per_task = (2 * self.rows_per_task + 2) * words;
        let mut trace = Trace::with_capacity(n_procs, self.iterations * self.n_tasks * per_task);
        let mut reads: Vec<usize> = Vec::with_capacity(self.rows_per_task + 2);
        for _ in 0..self.iterations {
            for (task, &proc) in assignment.iter().enumerate() {
                let first = task * self.rows_per_task;
                let last = first + self.rows_per_task - 1;
                // Boundary rows of the neighbors.
                reads.clear();
                if task > 0 {
                    reads.push(first - 1);
                }
                reads.extend(first..=last);
                if task + 1 < self.n_tasks {
                    reads.push(last + 1);
                }
                for &row in &reads {
                    for w in 0..words {
                        trace.push(Reference {
                            proc,
                            addr: self.spec.word_at(self.block_of_row(row), w),
                            op: Op::Read,
                        });
                    }
                }
                for row in first..=last {
                    for w in 0..words {
                        trace.push(Reference {
                            proc,
                            addr: self.spec.word_at(self.block_of_row(row), w),
                            op: Op::Write,
                        });
                    }
                }
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_writer_per_row_holds() {
        let mut rng = SimRng::seed_from(0);
        let wl = StencilWorkload::new(4, 2, 2);
        let spec = wl.spec();
        let trace = wl.clone().generate(8, &mut rng);
        use std::collections::HashMap;
        let mut writers: HashMap<u64, usize> = HashMap::new();
        for r in trace.iter().filter(|r| r.op == Op::Write) {
            let b = spec.block_of(r.addr).index();
            if let Some(prev) = writers.insert(b, r.proc) {
                assert_eq!(prev, r.proc);
            }
        }
        assert_eq!(writers.len(), wl.total_rows());
    }

    #[test]
    fn neighbors_read_boundary_rows() {
        let mut rng = SimRng::seed_from(0);
        let wl = StencilWorkload::new(3, 2, 1);
        let spec = wl.spec();
        let trace = wl.generate(4, &mut rng);
        // Task 1 (processor 1) must read row 1 (task 0's boundary) and
        // row 4 (task 2's boundary).
        let read_rows: Vec<u64> = trace
            .by_proc(1)
            .filter(|r| r.op == Op::Read)
            .map(|r| spec.block_of(r.addr).index())
            .collect();
        assert!(read_rows.contains(&1));
        assert!(read_rows.contains(&4));
    }

    #[test]
    fn interior_tasks_touch_only_adjacent_blocks() {
        let mut rng = SimRng::seed_from(0);
        let wl = StencilWorkload::new(4, 3, 1);
        let spec = wl.spec();
        let trace = wl.generate(8, &mut rng);
        for r in trace.by_proc(2) {
            let b = spec.block_of(r.addr).index() as usize;
            assert!((5..=9).contains(&b), "task 2 touched row {b}");
        }
    }

    #[test]
    fn reference_count_is_deterministic() {
        let mut rng = SimRng::seed_from(0);
        let wl = StencilWorkload::new(4, 2, 3);
        let words = wl.spec().words_per_block();
        let trace = wl.generate(8, &mut rng);
        // Per iteration: each task reads its 2 rows + boundaries, writes 2
        // rows. Tasks 0 and 3 have one neighbor, tasks 1 and 2 have two.
        let reads_per_iter = (2 + 1) + (2 + 2) + (2 + 2) + (2 + 1);
        let writes_per_iter = 4 * 2;
        assert_eq!(trace.len(), 3 * words * (reads_per_iter + writes_per_iter));
    }

    #[test]
    fn single_task_has_no_neighbors() {
        let mut rng = SimRng::seed_from(0);
        let trace = StencilWorkload::new(1, 2, 1).generate(2, &mut rng);
        assert_eq!(trace.active_procs(), 1);
        // 2 rows read + 2 rows written, 4 words each.
        assert_eq!(trace.len(), 4 * 4);
    }
}
