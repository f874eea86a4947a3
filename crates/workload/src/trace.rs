//! Reference traces: the input every protocol engine consumes.

use tmc_memsys::WordAddr;

/// A memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One memory reference issued by one processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Issuing processor (cache / network port index).
    pub proc: usize,
    /// Word address accessed.
    pub addr: WordAddr,
    /// Read or write.
    pub op: Op,
}

/// An ordered sequence of references for an `n_procs`-processor machine.
///
/// # Example
///
/// ```
/// use tmc_memsys::WordAddr;
/// use tmc_workload::{Op, Reference, Trace};
///
/// let mut t = Trace::new(4);
/// t.push(Reference { proc: 1, addr: WordAddr::new(8), op: Op::Write });
/// t.push(Reference { proc: 2, addr: WordAddr::new(8), op: Op::Read });
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.write_fraction(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    refs: Vec<Reference>,
    n_procs: usize,
}

impl Trace {
    /// Creates an empty trace for an `n_procs`-processor machine.
    ///
    /// # Panics
    ///
    /// Panics if `n_procs` is zero.
    pub fn new(n_procs: usize) -> Self {
        Trace::with_capacity(n_procs, 0)
    }

    /// Creates an empty trace with room for `capacity` references — lets
    /// generators that know their reference count up front fill the trace
    /// without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `n_procs` is zero.
    pub fn with_capacity(n_procs: usize, capacity: usize) -> Self {
        assert!(n_procs > 0, "need at least one processor");
        Trace {
            refs: Vec::with_capacity(capacity),
            n_procs,
        }
    }

    /// Removes every reference, keeping the allocation (and the machine
    /// size) for reuse.
    pub fn clear(&mut self) {
        self.refs.clear();
    }

    /// Number of processors this trace targets.
    pub fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// Appends a reference.
    ///
    /// # Panics
    ///
    /// Panics if the reference names a processor outside the machine.
    pub fn push(&mut self, r: Reference) {
        assert!(r.proc < self.n_procs, "processor {} out of range", r.proc);
        self.refs.push(r);
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Iterates over references in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Reference> {
        self.refs.iter()
    }

    /// Fraction of references that are writes (0 for an empty trace).
    pub fn write_fraction(&self) -> f64 {
        if self.refs.is_empty() {
            return 0.0;
        }
        let writes = self.refs.iter().filter(|r| r.op == Op::Write).count();
        writes as f64 / self.refs.len() as f64
    }

    /// Number of distinct processors that issue at least one reference.
    pub fn active_procs(&self) -> usize {
        let mut seen = vec![false; self.n_procs];
        for r in &self.refs {
            seen[r.proc] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// References issued by one processor, in program order.
    pub fn by_proc(&self, proc: usize) -> impl Iterator<Item = &Reference> {
        self.refs.iter().filter(move |r| r.proc == proc)
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Reference;
    type IntoIter = std::slice::Iter<'a, Reference>;

    fn into_iter(self) -> Self::IntoIter {
        self.refs.iter()
    }
}

impl Extend<Reference> for Trace {
    fn extend<T: IntoIterator<Item = Reference>>(&mut self, iter: T) {
        for r in iter {
            self.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(proc: usize, addr: u64, op: Op) -> Reference {
        Reference {
            proc,
            addr: WordAddr::new(addr),
            op,
        }
    }

    #[test]
    fn push_iter_and_stats() {
        let mut t = Trace::new(3);
        t.extend([
            r(0, 1, Op::Read),
            r(1, 2, Op::Write),
            r(1, 3, Op::Read),
            r(2, 1, Op::Write),
        ]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.write_fraction(), 0.5);
        assert_eq!(t.active_procs(), 3);
        assert_eq!(t.by_proc(1).count(), 2);
        assert_eq!(t.iter().next().unwrap().addr, WordAddr::new(1));
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = Trace::new(2);
        assert!(t.is_empty());
        assert_eq!(t.write_fraction(), 0.0);
        assert_eq!(t.active_procs(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_foreign_processor() {
        let mut t = Trace::new(2);
        t.push(r(2, 0, Op::Read));
    }

    #[test]
    fn with_capacity_and_clear_reuse_storage() {
        let mut t = Trace::with_capacity(2, 8);
        t.push(r(0, 1, Op::Read));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.n_procs(), 2);
        t.push(r(1, 2, Op::Write));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clone_preserves_content() {
        let mut t = Trace::new(2);
        t.push(r(0, 5, Op::Write));
        assert_eq!(t, t.clone());
    }
}
