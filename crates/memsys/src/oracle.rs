//! Program-order reference memory — the coherence oracle.

use std::collections::HashMap;

use crate::addr::WordAddr;

/// A flat word-addressed memory updated in program order.
///
/// Because every protocol engine in the workspace executes one reference at
/// a time (atomic transactions), sequential consistency demands that every
/// read return exactly the last value written to that word, regardless of
/// which cache serves it. Tests run the oracle next to the system under test
/// and compare on every read.
///
/// # Example
///
/// ```
/// use tmc_memsys::{ReferenceMemory, WordAddr};
///
/// let mut oracle = ReferenceMemory::new();
/// let a = WordAddr::new(64);
/// assert_eq!(oracle.read(a), 0);
/// oracle.write(a, 7);
/// assert_eq!(oracle.read(a), 7);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReferenceMemory {
    words: HashMap<WordAddr, u64>,
    writes: u64,
}

impl ReferenceMemory {
    /// Creates an all-zero reference memory.
    pub fn new() -> Self {
        ReferenceMemory::default()
    }

    /// The current value of `addr` (zero if never written).
    pub fn read(&self, addr: WordAddr) -> u64 {
        self.words.get(&addr).copied().unwrap_or(0)
    }

    /// Records a program-order write.
    pub fn write(&mut self, addr: WordAddr, value: u64) {
        self.words.insert(addr, value);
        self.writes += 1;
    }

    /// A convenient unique value for the next write: tests write
    /// `stamp()` so any stale read is guaranteed to differ.
    pub fn stamp(&self) -> u64 {
        self.writes + 1
    }

    /// Number of writes recorded.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Iterates over `(addr, value)` for every written word.
    pub fn iter(&self) -> impl Iterator<Item = (WordAddr, u64)> + '_ {
        self.words.iter().map(|(&a, &v)| (a, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_track_last_write() {
        let mut o = ReferenceMemory::new();
        let a = WordAddr::new(5);
        o.write(a, 1);
        o.write(a, 2);
        assert_eq!(o.read(a), 2);
        assert_eq!(o.read(WordAddr::new(6)), 0);
        assert_eq!(o.writes(), 2);
    }

    #[test]
    fn stamps_are_unique_across_writes() {
        let mut o = ReferenceMemory::new();
        let s1 = o.stamp();
        o.write(WordAddr::new(0), s1);
        let s2 = o.stamp();
        assert_ne!(s1, s2);
    }

    #[test]
    fn iter_exposes_written_words() {
        let mut o = ReferenceMemory::new();
        o.write(WordAddr::new(1), 10);
        o.write(WordAddr::new(2), 20);
        let mut all: Vec<_> = o.iter().collect();
        all.sort();
        assert_eq!(all, [(WordAddr::new(1), 10), (WordAddr::new(2), 20)]);
    }
}
