//! Named counter sets.
//!
//! Event accounting throughout the simulator tallies into these rather than
//! collecting raw samples, so arbitrarily long runs use constant memory.

use std::collections::BTreeMap;
use std::fmt;

/// A set of counters addressed by static names.
///
/// Protocol engines use one `CounterSet` per run to tally message kinds,
/// hits/misses, invalidations and so on; experiment commands print them as
/// report rows.
///
/// # Example
///
/// ```
/// use tmc_simcore::CounterSet;
///
/// let mut cs = CounterSet::new();
/// cs.add("read_hit", 10);
/// cs.incr("read_miss");
/// assert_eq!(cs.get("read_hit"), 10);
/// assert_eq!(cs.get("never_touched"), 0);
/// ```
#[derive(Debug, Clone)]
pub struct CounterSet {
    /// Sorted name → slot in `values`; the source of truth for lookups and
    /// the name-ordered iteration the reports rely on.
    index: BTreeMap<&'static str, usize>,
    /// Dense counter values; a slot never moves once created.
    values: Vec<u64>,
    /// Pointer-identity fast path. A string literal's address is stable
    /// for the life of the program, so the same `incr("read_hit")` call
    /// site resolves to its slot through an open-addressed table of
    /// `(address, slot)` rows instead of a tree walk. The table is inline
    /// (no allocation), rows are never removed, and at most half are ever
    /// occupied, so a probe ends at the literal's row or at a free one
    /// (address zero). Correctness never depends on it: a miss (including
    /// two identical literals at different addresses) falls back to the
    /// name index, which maps both to the same slot.
    fast: [(usize, usize); FAST_LANES],
    /// Occupied rows of `fast`.
    fast_len: usize,
}

impl Default for CounterSet {
    fn default() -> Self {
        CounterSet {
            index: BTreeMap::new(),
            values: Vec::new(),
            fast: [(0, 0); FAST_LANES],
            fast_len: 0,
        }
    }
}

/// Rows of the fast-path table, a power of two. Protocol engines use a few
/// dozen distinct counters; names beyond half the rows degrade to tree
/// lookups.
const FAST_LANES: usize = 128;

/// The row a literal's address hashes to (Fibonacci hashing: the top bits
/// of the product).
#[inline]
fn lane(addr: usize) -> usize {
    ((addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FAST_LANES.trailing_zeros()))
        as usize
}

impl CounterSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        CounterSet::default()
    }

    /// Adds `n` to the counter `name`, creating it at zero first if needed.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        let addr = name.as_ptr() as usize;
        let mut at = lane(addr);
        loop {
            let (a, slot) = self.fast[at];
            if a == addr {
                self.values[slot] += n;
                return;
            }
            if a == 0 {
                break;
            }
            at = (at + 1) % FAST_LANES;
        }
        self.add_slow(name, addr, n);
    }

    #[cold]
    fn add_slow(&mut self, name: &'static str, addr: usize, n: u64) {
        let next = self.values.len();
        let slot = match self.index.entry(name) {
            std::collections::btree_map::Entry::Occupied(e) => *e.get(),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(next);
                self.values.push(0);
                next
            }
        };
        if self.fast_len < FAST_LANES / 2 {
            let mut at = lane(addr);
            while self.fast[at].0 != 0 {
                at = (at + 1) % FAST_LANES;
            }
            self.fast[at] = (addr, slot);
            self.fast_len += 1;
        }
        self.values[slot] += n;
    }

    /// Adds one to the counter `name`.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.index
            .get(name)
            .map(|&slot| self.values[slot])
            .unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.index.iter().map(|(&k, &slot)| (k, self.values[slot]))
    }
}

/// Equality is over the logical `(name, value)` pairs — the fast-path
/// cache is an implementation detail two otherwise-equal sets may differ
/// in.
impl PartialEq for CounterSet {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for CounterSet {}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.index.is_empty() {
            return write!(f, "(no counters)");
        }
        for (i, (name, value)) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{name:<32} {value:>14}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counterset_basics() {
        let mut cs = CounterSet::new();
        cs.incr("x");
        cs.add("x", 2);
        cs.add("y", 7);
        assert_eq!(cs.get("x"), 3);
        let pairs: Vec<_> = cs.iter().collect();
        assert_eq!(pairs, vec![("x", 3), ("y", 7)]);
    }

    /// More names than the fast-path table admits, each bumped through
    /// two different addresses: every one still lands in its own counter.
    #[test]
    fn counterset_counts_beyond_the_fast_rows() {
        let leak = |i: usize| -> &'static str { Box::leak(format!("c{i:03}").into_boxed_str()) };
        let mut cs = CounterSet::new();
        for round in 0..3 {
            for i in 0..FAST_LANES {
                let (a, b) = (leak(i), leak(i));
                cs.incr(a);
                cs.add(b, round);
                cs.incr(a);
            }
        }
        assert!(cs.fast_len <= FAST_LANES / 2);
        assert_eq!(cs.iter().count(), FAST_LANES);
        assert!(cs.iter().all(|(_, v)| v == 9));
    }

    #[test]
    fn display_nonempty() {
        let mut cs = CounterSet::new();
        assert_eq!(format!("{cs}"), "(no counters)");
        cs.add("hits", 1);
        assert!(format!("{cs}").contains("hits"));
    }
}
