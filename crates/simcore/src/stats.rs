//! Streaming statistics: histograms and named counter sets.
//!
//! Traffic and latency accounting throughout the simulator uses these types
//! rather than collecting raw samples, so arbitrarily long runs use constant
//! memory.

use std::collections::BTreeMap;
use std::fmt;

/// A histogram over `u64` values with power-of-two bucket boundaries.
///
/// Bucket `i` counts values `v` with `floor(log2(v)) == i - 1`; bucket 0
/// counts zeros. This is the usual latency-histogram layout: cheap, fixed
/// size, resolution proportional to magnitude.
///
/// # Example
///
/// ```
/// use tmc_simcore::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(0);
/// h.record(1);
/// h.record(5);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket_count(0), 1); // the zero
/// assert_eq!(h.bucket_count(3), 1); // 5 lands in [4, 8)
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    total: u128,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 65],
            count: 0,
            total: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.total += value as u128;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Count in bucket `i` (see type docs for the bucket layout).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_low(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Smallest value `v` such that at least `q` (0..=1) of samples are ≤ the
    /// upper bound of v's bucket. Returns the bucket lower bound; `None` when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn quantile_bucket_low(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::bucket_low(i));
            }
        }
        Some(Self::bucket_low(self.buckets.len() - 1))
    }

    /// Iterates over `(bucket_low, count)` pairs for nonempty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_low(i), c))
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.total += other.total;
    }

    /// Exact internal state, for checkpoint codecs: every bucket count
    /// (including empty buckets), the sample count, and the running total.
    ///
    /// [`Histogram::iter`] is lossy for this purpose — replaying
    /// `record(bucket_low)` per sample reconstructs the buckets but not the
    /// exact `total`, so a round-trip through it would not be bit-identical.
    pub fn to_raw_parts(&self) -> (&[u64], u64, u128) {
        (&self.buckets, self.count, self.total)
    }

    /// Rebuilds a histogram from state captured by
    /// [`Histogram::to_raw_parts`]. Short bucket vectors are zero-padded to
    /// the fixed 65-bucket layout; extra buckets are truncated.
    pub fn from_raw_parts(buckets: Vec<u64>, count: u64, total: u128) -> Self {
        let mut buckets = buckets;
        buckets.resize(65, 0);
        Histogram {
            buckets,
            count,
            total,
        }
    }
}

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

    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &CounterSet) {
        for (name, value) in other.iter() {
            self.add(name, value);
        }
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
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_low(0), 0);
        assert_eq!(Histogram::bucket_low(1), 1);
        assert_eq!(Histogram::bucket_low(4), 8);
    }

    #[test]
    fn histogram_mean_and_quantiles() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert!((h.mean() - 103.3).abs() < 1e-9);
        assert_eq!(h.quantile_bucket_low(0.5), Some(1));
        assert_eq!(h.quantile_bucket_low(1.0), Some(1024));
        assert_eq!(Histogram::new().quantile_bucket_low(0.5), None);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(7);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket_count(3), 2); // 5 and 7
        assert_eq!(a.bucket_count(0), 1);
    }

    #[test]
    fn histogram_raw_parts_roundtrip_is_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 1024, u64::MAX] {
            h.record(v);
        }
        let (buckets, count, total) = h.to_raw_parts();
        let rebuilt = Histogram::from_raw_parts(buckets.to_vec(), count, total);
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.total(), h.total());
        // Short vectors pad to the fixed layout.
        let padded = Histogram::from_raw_parts(vec![3], 3, 0);
        assert_eq!(padded.bucket_count(0), 3);
        assert_eq!(padded.bucket_count(64), 0);
    }

    #[test]
    fn counterset_basics() {
        let mut cs = CounterSet::new();
        cs.incr("x");
        cs.add("x", 2);
        cs.add("y", 7);
        assert_eq!(cs.get("x"), 3);
        let pairs: Vec<_> = cs.iter().collect();
        assert_eq!(pairs, vec![("x", 3), ("y", 7)]);
        let mut other = CounterSet::new();
        other.add("x", 1);
        other.add("z", 1);
        cs.merge(&other);
        assert_eq!(cs.get("x"), 4);
        assert_eq!(cs.get("z"), 1);
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
