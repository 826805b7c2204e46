//! Exact order statistics over raw samples.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` at quantile `q` in
/// `(0, 1]`: the sample of rank `ceil(q·n)`. `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank, except for the median,
/// which is reported for any non-empty sample.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Nearest-rank percentile without the samples-beyond rule (the maximum
/// when the sample is too small to support `q`).
pub fn nearest_rank_or_max(sorted: &[u64], q: f64) -> u64 {
    match nearest_rank(sorted, q) {
        Some(v) => v,
        None => sorted.last().copied().unwrap_or(0),
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}
