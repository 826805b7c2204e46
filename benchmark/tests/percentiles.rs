//! Exact nearest-rank percentiles and the quartiles `compare` uses.

use iconv_api::zipf::mix64;
use iconv_benchmark::stats::{median, nearest_rank, quartiles, MIN_BEYOND};

fn sample(n: usize, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n as u64).map(|i| mix64(seed ^ i) % 100_000).collect();
    v.sort_unstable();
    v
}

#[test]
fn nearest_rank_matches_a_sorted_oracle() {
    for n in [1, 2, 19, 20, 99, 100, 999, 1000, 1234, 5000] {
        let v = sample(n, n as u64);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let beyond = n - rank;
            let want = (q <= 0.5 || beyond >= MIN_BEYOND).then(|| v[rank - 1]);
            assert_eq!(nearest_rank(&v, q), want, "n={n} q={q}");
            if let Some(x) = want {
                // Nearest rank: at least q·n samples at or below, and the
                // value is an actual sample.
                assert!(v.iter().filter(|&&s| s <= x).count() as f64 >= q * n as f64);
                assert!(v.contains(&x));
            }
        }
    }
    assert_eq!(nearest_rank(&[], 0.5), None);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    // p99 of 1,000 samples is rank 990: exactly ten lie beyond it.
    assert!(nearest_rank(&sample(1000, 1), 0.99).is_some());
    // Of 999 the rank is still 990, leaving nine.
    assert!(nearest_rank(&sample(999, 1), 0.99).is_none());
    assert!(nearest_rank(&sample(10_000, 1), 0.999).is_some());
    assert!(nearest_rank(&sample(9_999, 1), 0.999).is_none());
    // The median is reported for any non-empty sample.
    assert_eq!(nearest_rank(&[7], 0.5), Some(7));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(values, n=4), default "exclusive" method.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    assert_eq!(
        quartiles(&[3.5, 1.25, 9.0, 4.0, 2.0, 7.75, 6.5]),
        Some((2.0, 7.75))
    );
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&ten), 5.5);
}
