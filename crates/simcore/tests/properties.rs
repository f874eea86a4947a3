//! Randomized invariant tests for the statistics types.
//!
//! Formerly proptest-based; now driven by the in-tree [`SimRng`] so the test
//! suite needs no external crates. Each test draws many random cases from a
//! fixed seed, keeping runs deterministic and failures reproducible.

use tmc_simcore::{Accumulator, Histogram, SimRng};

const CASES: usize = 64;

fn vec_f64(rng: &mut SimRng, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = rng.gen_range(min_len..max_len);
    (0..len).map(|_| lo + rng.gen_unit() * (hi - lo)).collect()
}

/// Streaming mean/variance agree with the two-pass computation.
#[test]
fn accumulator_matches_two_pass() {
    let mut rng = SimRng::seed_from(0xACC0);
    for _ in 0..CASES {
        let xs = vec_f64(&mut rng, -1e6, 1e6, 1, 200);
        let acc: Accumulator = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((acc.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        assert!((acc.population_variance() - var).abs() <= 1e-4 * (1.0 + var));
        assert_eq!(acc.min(), xs.iter().copied().reduce(f64::min));
        assert_eq!(acc.max(), xs.iter().copied().reduce(f64::max));
    }
}

/// Merging any split equals sequential accumulation.
#[test]
fn accumulator_merge_is_split_invariant() {
    let mut rng = SimRng::seed_from(0x3E16E);
    for _ in 0..CASES {
        let xs = vec_f64(&mut rng, -1e5, 1e5, 2, 120);
        let cut = rng.gen_range(0..xs.len());
        let seq: Accumulator = xs.iter().copied().collect();
        let mut left: Accumulator = xs[..cut].iter().copied().collect();
        let right: Accumulator = xs[cut..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), seq.count());
        assert!((left.mean() - seq.mean()).abs() <= 1e-6 * (1.0 + seq.mean().abs()));
        assert!(
            (left.population_variance() - seq.population_variance()).abs()
                <= 1e-4 * (1.0 + seq.population_variance())
        );
    }
}

/// Histograms conserve count and total, and bucket bounds bracket every
/// recorded value.
#[test]
fn histogram_conserves_mass() {
    let mut rng = SimRng::seed_from(0x4157);
    for _ in 0..CASES {
        let len = rng.gen_range(1..200usize);
        let xs: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        assert_eq!(h.count(), xs.len() as u64);
        assert_eq!(h.total(), xs.iter().map(|&x| x as u128).sum::<u128>());
        let bucketed: u64 = h.iter().map(|(_, c)| c).sum();
        assert_eq!(bucketed, xs.len() as u64);
        // Quantile lower bounds are monotone in q.
        let mut prev = 0;
        for q in [0.1, 0.5, 0.9, 1.0] {
            let b = h.quantile_bucket_low(q).unwrap();
            assert!(b >= prev);
            prev = b;
        }
    }
}
