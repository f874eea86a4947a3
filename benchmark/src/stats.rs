//! Medians, quantiles, the fast-decile reading of repeated reps,
//! percentiles with the ten-samples-beyond rule, and a log-bucketed
//! histogram for per-call timings.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `p` (a fraction) of `values` by linear interpolation between
/// order statistics; `0.0` for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = at.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// What a host-time metric reports from its per-rep samples: the level
/// the fastest tenth of reps reached — the 90th percentile of rates, the
/// 10th of durations.
///
/// Every rep does identical work, so the samples differ only by what the
/// host did to them, and on a shared two-core VM that only ever slows a
/// rep down: whole stretches of a run sit 10–20 % under a ceiling the
/// quiet reps keep returning to. Over ten 15 s runs per workload the
/// median of reps moved by 5–9 % (inter-quartile) from run to run and
/// the fast decile by 2–4 %, so the fast decile is what is reported; the
/// samples themselves are kept in `result.json`.
pub fn fast_decile(samples: &[f64], higher_is_better: bool) -> f64 {
    quantile(samples, if higher_is_better { 0.9 } else { 0.1 })
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// spreads computed here match the ones the benchmark driver computes.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let pos = (k + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // With `j` clamped, `delta` leaves 0..4 and the formula
        // extrapolates — as Python's does.
        let delta = pos as f64 - 4.0 * j as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the driver holds against a metric's bound. `0.0` with fewer
/// than two values or a zero median.
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// The highest percentile (as a fraction) that still has at least ten of
/// `n` samples beyond it; `None` when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    (n >= 20).then(|| 1.0 - 10.0 / n as f64)
}

/// Nearest-rank percentile `p` (a fraction) of `values`, reported only
/// when at least ten samples lie beyond it — otherwise the number would
/// be set by a handful of outliers.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if highest_supported_percentile(values.len())? < p {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// [`percentile`] at `p`, lowered to the highest supported percentile
/// when the sample is too small for `p`; the median when it is too small
/// for any.
pub fn percentile_or_highest(values: &[f64], p: f64) -> f64 {
    let p = highest_supported_percentile(values.len()).map_or(0.5, |h| h.min(p));
    percentile(values, p).unwrap_or_else(|| median(values))
}

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const EXACT: u64 = 64;
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// Histogram of nanosecond durations: exact below 64 ns, then 32 buckets
/// per power of two (≈3 % resolution), so a per-call timing costs one
/// increment and no allocation.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    total: u128,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: vec![0; (EXACT + (64 - 6) * SUB) as usize],
            count: 0,
            total: 0,
        }
    }
}

impl LogHistogram {
    fn index(v: u64) -> usize {
        if v < EXACT {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let sub = (v >> (msb - SUB_BITS)) & (SUB - 1);
        (EXACT + u64::from(msb - 6) * SUB + sub) as usize
    }

    /// Midpoint of bucket `i`'s value range.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < EXACT {
            return i as f64;
        }
        let msb = (i - EXACT) / SUB + 6;
        let sub = (i - EXACT) % SUB;
        let low = (SUB + sub) << (msb - u64::from(SUB_BITS));
        let width = 1u64 << (msb - u64::from(SUB_BITS));
        low as f64 + (width - 1) as f64 / 2.0
    }

    /// Records one duration.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.total += u128::from(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded values; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Percentile `p` under the same ten-samples-beyond rule as
    /// [`percentile_or_highest`]; `0.0` when empty.
    pub fn percentile_or_highest(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = highest_supported_percentile(self.count as usize).map_or(0.5, |h| h.min(p));
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// `a / b`, or `0.0` when `b` is zero — for per-unit metrics of a layer a
/// workload never exercised.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
