//! The statistics every reported number goes through.

use repo_benchmark::stats::{
    fast_decile, highest_supported_percentile, iqr_share, median, percentile,
    percentile_or_highest, quartiles, LogHistogram,
};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn a_host_time_reading_is_the_level_of_the_fastest_tenth_of_reps() {
    // Eleven reps; one quiet ceiling, the rest disturbed to varying degree.
    let rates = [
        80.0, 95.0, 100.0, 99.0, 70.0, 100.0, 85.0, 98.0, 60.0, 100.0, 90.0,
    ];
    assert_eq!(fast_decile(&rates, true), 100.0);
    let seconds: Vec<f64> = rates.iter().map(|r| 100.0 / r).collect();
    assert_eq!(fast_decile(&seconds, false), 1.0);
    assert_eq!(fast_decile(&[7.0], true), 7.0);
    assert_eq!(fast_decile(&[], true), 0.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
    //   == [3.5, 13.5, 31.0]
    let v = [46.0, 1.0, 37.0, 2.0, 29.0, 4.0, 22.0, 7.0, 16.0, 11.0];
    assert_eq!(quartiles(&v), Some([3.5, 13.5, 31.0]));
    assert!((iqr_share(&v) - 27.5 / 13.5).abs() < 1e-12);
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(iqr_share(&[1.0]), 0.0);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    // 100 samples: p90 leaves exactly ten beyond, p91 does not.
    assert_eq!(highest_supported_percentile(100), Some(0.9));
    assert_eq!(percentile(&v, 0.9), Some(90.0));
    assert_eq!(percentile(&v, 0.91), None);
    assert_eq!(percentile(&v, 0.5), Some(50.0));
    // Asking for p99 of 100 samples falls back to p90.
    assert_eq!(percentile_or_highest(&v, 0.99), 90.0);
    // 1000 samples support p99.
    let big: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&big, 0.99), Some(990.0));
    // Under twenty samples not even the median qualifies as a percentile;
    // the fallback is the plain median.
    assert_eq!(highest_supported_percentile(19), None);
    assert_eq!(percentile(&v[..19], 0.5), None);
    assert_eq!(percentile_or_highest(&v[..19], 0.99), 10.0);
}

#[test]
fn histogram_is_exact_when_small_and_within_three_percent_when_large() {
    let mut h = LogHistogram::default();
    for ns in 0..64 {
        h.record(ns);
    }
    assert_eq!(h.count(), 64);
    assert_eq!(h.mean(), 31.5);
    assert_eq!(h.percentile_or_highest(0.5), 31.0);

    let mut h = LogHistogram::default();
    for ns in 1..=10_000u64 {
        h.record(ns * 7);
    }
    for (p, exact) in [(0.5, 35_000.0), (0.99, 69_300.0)] {
        let got = h.percentile_or_highest(p);
        assert!(
            (got - exact).abs() / exact < 0.032,
            "p{p}: {got} vs {exact}"
        );
    }
    // The mean is kept exactly, not from buckets.
    assert_eq!(h.mean(), 7.0 * 5000.5);
    // The rule applies to histograms too: 64 samples cap p99 at ~p84.
    let mut few = LogHistogram::default();
    (0..64).for_each(|ns| few.record(ns));
    assert_eq!(few.percentile_or_highest(0.99), 53.0);
    assert_eq!(LogHistogram::default().percentile_or_highest(0.5), 0.0);
}
