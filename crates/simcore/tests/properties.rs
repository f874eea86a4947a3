//! Randomized invariant tests for the statistics types.
//!
//! Formerly proptest-based; now driven by the in-tree [`SimRng`] so the test
//! suite needs no external crates. Each test draws many random cases from a
//! fixed seed, keeping runs deterministic and failures reproducible.

use tmc_simcore::{Histogram, SimRng};

const CASES: usize = 64;

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
