//! A hand-rolled HDR-style log-linear latency histogram.
//!
//! The server's `stats` ledger needs latency percentiles that are (a)
//! exact in count — every recorded sample lands in exactly one bucket, no
//! sampling, no decay — (b) mergeable across cache-shard stripes and
//! backends by plain bucket-wise addition, and (c) bounded in relative
//! quantile error by the bucket layout alone. The layout is **fixed** (no
//! configuration knobs), so two histograms built anywhere in the fleet
//! always share bucket boundaries and merge losslessly:
//!
//! * Values `0..64` get their own unit-width bucket (exact).
//! * Above that, each power-of-two octave `[2^m, 2^(m+1))` is split into
//!   [`SUB_BUCKETS`] equal linear sub-buckets, so the bucket width at value
//!   `v` is at most `v / 32` — a ≤ 3.2 % relative quantile error.
//! * The full `u64` domain is covered by [`NUM_BUCKETS`] buckets (~15 KiB
//!   of counts), so recording can never overflow the layout.
//!
//! Units are the caller's choice; the serving stack records microseconds.
//!
//! The JSON encoding is sparse (`[index, count]` pairs for non-empty
//! buckets only) and canonical: [`LatencyHist::to_json`] followed by
//! [`LatencyHist::from_json`] is the identity, which the proptest battery
//! pins. Because histograms cross the `stats` wire as bucket indices, the
//! layout is part of the wire format; exact quantile pins in the same
//! battery fix it.

use crate::json::{self, Json};

/// log2 of the linear sub-buckets per octave.
pub const SUB_BITS: u32 = 5;
/// Linear sub-buckets per power-of-two octave (32 → ≤ 1/32 relative error).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total buckets covering the whole `u64` domain.
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUB_BUCKETS as usize;

/// Bucket index for a value. Total and monotone non-decreasing over `u64`.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < 2 * SUB_BUCKETS {
        // Two exact unit-width octaves: values 0..64.
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let e = msb - SUB_BITS; // bucket width is 2^e
        (((e + 1) as u64 * SUB_BUCKETS) + (v >> e) - SUB_BUCKETS) as usize
    }
}

/// Inclusive `(lo, hi)` value range of bucket `index`.
///
/// # Panics
///
/// Panics if `index >= NUM_BUCKETS`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < NUM_BUCKETS, "bucket index {index} out of range");
    if index < 2 * SUB_BUCKETS as usize {
        (index as u64, index as u64)
    } else {
        let e = (index as u64 / SUB_BUCKETS - 1) as u32;
        let off = index as u64 % SUB_BUCKETS;
        let lo = (SUB_BUCKETS + off) << e;
        // The top octave's buckets end at u64::MAX; saturate instead of
        // wrapping past it.
        let width = 1u64.checked_shl(e).unwrap_or(u64::MAX);
        (lo, lo.saturating_add(width - 1))
    }
}

/// Fixed-layout log-linear histogram with exact counts (see the module
/// docs for the bucket layout).
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyHist {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHist")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p50", &self.value_at_quantile(0.50))
            .field("p99", &self.value_at_quantile(0.99))
            .finish_non_exhaustive()
    }
}

impl LatencyHist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of the same value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`0` when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (`0` when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fold another histogram into this one. Because the layout is fixed,
    /// this is exact: merging is equivalent to having recorded every sample
    /// into one histogram (the proptest battery pins the equivalence).
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q·count)`-th smallest sample, clamped to the
    /// recorded maximum. The estimate never undershoots the true sample
    /// and overshoots by at most the bucket width (≤ `value / 32`).
    /// Returns `0` on an empty histogram.
    #[must_use]
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// `[index, count]` pairs for every non-empty bucket, ascending.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Rebuild a histogram from its summary fields and sparse buckets,
    /// validating them (the last step of [`LatencyHist::from_json_value`]).
    ///
    /// # Errors
    ///
    /// Rejects out-of-range or non-ascending bucket indices, a `count` that
    /// does not equal the bucket total, and min/max inconsistent with
    /// emptiness.
    pub fn from_sparse(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: &[(usize, u64)],
    ) -> Result<Self, String> {
        let mut h = Self::new();
        let mut total = 0u64;
        let mut last: Option<usize> = None;
        for &(i, c) in buckets {
            if i >= NUM_BUCKETS {
                return Err(format!("bucket index {i} out of range"));
            }
            if last.is_some_and(|p| p >= i) {
                return Err("bucket indices must be strictly ascending".to_owned());
            }
            if c == 0 {
                return Err(format!("bucket {i} has zero count"));
            }
            last = Some(i);
            h.counts[i] = c;
            total = total
                .checked_add(c)
                .ok_or_else(|| "bucket counts overflow".to_owned())?;
        }
        if total != count {
            return Err(format!("count {count} != bucket total {total}"));
        }
        if count == 0 {
            if sum != 0 || min != 0 || max != 0 {
                return Err("empty histogram with non-zero summary".to_owned());
            }
            return Ok(h);
        }
        if min > max {
            return Err(format!("min {min} > max {max}"));
        }
        h.count = count;
        h.sum = sum;
        h.min = min;
        h.max = max;
        Ok(h)
    }

    /// Canonical compact JSON encoding:
    /// `{"count":C,"sum":S,"min":m,"max":M,"buckets":[[i,c],...]}` with
    /// non-empty buckets only, ascending. [`LatencyHist::from_json`] is its
    /// exact inverse.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 16 * 8);
        out.push_str(&format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            self.count,
            self.sum,
            self.min(),
            self.max
        ));
        let mut first = true;
        for (i, c) in self.nonzero_buckets() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("[{i},{c}]"));
        }
        out.push_str("]}");
        out
    }

    /// Parse the encoding produced by [`LatencyHist::to_json`].
    ///
    /// # Errors
    ///
    /// Malformed JSON, or anything [`LatencyHist::from_json_value`] rejects.
    pub fn from_json(s: &str) -> Result<Self, String> {
        Self::from_json_value(&json::parse(s).map_err(|e| e.to_string())?)
    }

    /// Decode an already-parsed histogram object
    /// (`{"count":..,"sum":..,"min":..,"max":..,"buckets":[[i,c],..]}`) —
    /// the one decoder behind both [`LatencyHist::from_json`] and the
    /// `stats` response's `service_hist` field.
    ///
    /// # Errors
    ///
    /// A missing or non-integer field, malformed bucket pairs, or values
    /// that fail [`LatencyHist::from_sparse`] validation.
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let h = v.as_obj().ok_or("histogram must be an object")?;
        let field = |k: &str| {
            h.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer \"{k}\""))
        };
        let buckets = h
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("missing buckets")?
            .iter()
            .map(|entry| {
                let pair = entry.as_arr().filter(|p| p.len() == 2)?;
                Some((usize::try_from(pair[0].as_u64()?).ok()?, pair[1].as_u64()?))
            })
            .collect::<Option<Vec<(usize, u64)>>>()
            .ok_or("malformed buckets")?;
        Self::from_sparse(
            field("count")?,
            field("sum")?,
            field("min")?,
            field("max")?,
            &buckets,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_total_monotone_and_self_consistent() {
        // Every value below 64 is exact; bucket bounds invert the index.
        for v in 0..64u64 {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v));
        }
        // Probe octave edges and interior points across the whole domain.
        let mut prev = 0usize;
        let mut probes = vec![0u64];
        for m in 5..64u32 {
            let base = 1u64 << m;
            probes.extend([base - 1, base, base + 1, base + base / 2]);
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        for v in probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} for {v}");
            assert!(i >= prev, "index not monotone at {v}");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo},{hi}]");
            // Relative width bound: width <= lo/32 above the linear region.
            if v >= 64 {
                assert!(hi - lo <= lo / 32, "bucket too wide at {v}");
            }
            prev = i;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn record_and_quantiles() {
        let mut h = LatencyHist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.value_at_quantile(0.50);
        let p99 = h.value_at_quantile(0.99);
        assert!((500..=516).contains(&p50), "p50 {p50}");
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(h.value_at_quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.value_at_quantile(0.99), 0);
        assert_eq!(LatencyHist::from_json(&h.to_json()).unwrap(), h);
    }

    #[test]
    fn from_sparse_rejects_malformed() {
        assert!(LatencyHist::from_sparse(1, 0, 0, 0, &[]).is_err());
        assert!(LatencyHist::from_sparse(1, 5, 5, 5, &[(NUM_BUCKETS, 1)]).is_err());
        assert!(LatencyHist::from_sparse(2, 5, 5, 5, &[(3, 1), (3, 1)]).is_err());
        assert!(LatencyHist::from_sparse(2, 5, 5, 5, &[(4, 1), (3, 1)]).is_err());
        assert!(LatencyHist::from_sparse(1, 5, 6, 5, &[(5, 1)]).is_err());
        assert!(LatencyHist::from_sparse(0, 1, 0, 0, &[]).is_err());
        assert!(LatencyHist::from_sparse(1, 5, 5, 5, &[(5, 1)]).is_ok());
    }
}
