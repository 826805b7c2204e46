//! Property battery for the HDR-style latency histogram, against exact
//! oracles:
//!
//! * quantiles vs. a sorted-vector oracle — the estimate never undershoots
//!   the true order statistic and overshoots by at most the width of the
//!   bucket the true value lives in;
//! * `merge(a, b)` is exactly equivalent to recording both streams into
//!   one histogram (full structural equality, not just matching counts);
//! * the compact JSON encoding round-trips to an identical histogram;
//! * exact quantiles of a scripted coordinated-omission scenario, which
//!   pin the bucket layout above the exact range (histograms cross the
//!   `stats` wire as bucket indices, so the layout is part of the wire
//!   format; the oracle checks above are relative to whatever layout is in
//!   place and cannot see it change).
//!
//! Runs under the offline `proptest` shim: deterministic seed, no
//! shrinking — a failing case prints its inputs via the assertion message.

use proptest::prelude::*;

use iconv_api::hist::{bucket_bounds, bucket_index, LatencyHist};
use iconv_api::zipf::mix64;

/// Derive a pseudo-random value stream from `(seed, len)`, spanning many
/// orders of magnitude: each element's top bits pick a shift so streams
/// mix unit-width linear-region values with huge log-region ones.
fn stream(seed: u64, len: usize) -> Vec<u64> {
    (0..len as u64)
        .map(|i| {
            let r = mix64(seed ^ i);
            let shift = (r >> 58) % 60; // 0..=59: values from 64 bits down to ~4
            r >> shift
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Quantile estimates vs. the exact sorted-vector order statistic.
    #[test]
    fn quantiles_match_sorted_oracle(seed in 0u64..u64::MAX, len in 1usize..500) {
        let values = stream(seed, len);
        let mut h = LatencyHist::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), len as u64);
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * len as f64).ceil() as usize).clamp(1, len);
            let exact = sorted[rank - 1];
            let est = h.value_at_quantile(q);
            // Never undershoots the true order statistic...
            prop_assert!(est >= exact, "q={q}: est {est} < exact {exact}");
            // ...and overshoots by at most the width of exact's bucket.
            let (_, hi) = bucket_bounds(bucket_index(exact));
            prop_assert!(est <= hi, "q={q}: est {est} > bucket hi {hi} of {exact}");
        }
    }

    /// merge(a, b) ≡ record-all: structurally identical histograms.
    #[test]
    fn merge_is_record_all(seed_a in 0u64..u64::MAX, seed_b in 0u64..u64::MAX,
                           len_a in 0usize..300, len_b in 0usize..300) {
        let (va, vb) = (stream(seed_a, len_a), stream(seed_b, len_b));
        let mut ha = LatencyHist::new();
        let mut hb = LatencyHist::new();
        let mut all = LatencyHist::new();
        for &v in &va {
            ha.record(v);
            all.record(v);
        }
        for &v in &vb {
            hb.record(v);
            all.record(v);
        }
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(&merged, &all);
        // Merge is symmetric.
        let mut other_way = hb;
        other_way.merge(&ha);
        prop_assert_eq!(&other_way, &all);
    }

    /// to_json → from_json is the identity (empty case covered by len 0).
    #[test]
    fn json_roundtrip_identity(seed in 0u64..u64::MAX, len in 0usize..300) {
        let mut h = LatencyHist::new();
        for &v in &stream(seed, len) {
            h.record(v);
        }
        let encoded = h.to_json();
        let back = LatencyHist::from_json(&encoded).expect("canonical encoding parses");
        prop_assert_eq!(&back, &h);
        // And re-encoding is byte-stable.
        prop_assert_eq!(back.to_json(), encoded);
    }
}

/// Service time of every unremarkable request: 100 µs.
const FAST_NS: u64 = 100_000;
/// The scripted stall: arrival 700 takes 500 ms, i.e. 500 arrivals.
const STALL_AT: u64 = 700;
const STALL_NS: u64 = 500_000_000;
const ARRIVALS: u64 = 2_000;

/// One serial server fed 2,000 arrivals 1 ms apart, each served in
/// `service_ns(i)`. Returns `(intended, naive)` latency histograms in µs:
/// `intended` stamps completion against the scheduled arrival, `naive`
/// against the moment service started, the coordinated-omission mistake
/// of a client that only starts its clock once it can send.
fn serial_server(service_ns: impl Fn(u64) -> u64) -> (LatencyHist, LatencyHist) {
    let (mut intended, mut naive) = (LatencyHist::new(), LatencyHist::new());
    let mut free_at = 0u64;
    for i in 0..ARRIVALS {
        let arrival = i * 1_000_000;
        let start = free_at.max(arrival);
        let done = start + service_ns(i);
        intended.record((done - arrival) / 1000);
        naive.record((done - start) / 1000);
        free_at = done;
    }
    (intended, naive)
}

#[test]
fn intended_time_p99_sees_the_stall_and_naive_does_not() {
    let (intended, naive) = serial_server(|i| if i == STALL_AT { STALL_NS } else { FAST_NS });
    assert_eq!(intended.count(), ARRIVALS);
    assert_eq!(naive.count(), ARRIVALS);
    // The requests queued behind the stall are charged their wait...
    assert_eq!(intended.value_at_quantile(0.99), 483_327);
    // ...which the naive stamp hides. 101, not 100: the estimate is the
    // upper bound of the [100, 101] bucket, and the stalled request keeps
    // `max` from clamping it.
    assert_eq!(naive.value_at_quantile(0.99), 101);
    assert_eq!(naive.max(), STALL_NS / 1000);
    assert_eq!(intended.min(), FAST_NS / 1000);
}

/// With no stall nothing queues, so the two stamps agree exactly.
#[test]
fn without_a_stall_the_policies_agree() {
    let (intended, naive) = serial_server(|_| FAST_NS);
    assert_eq!(intended, naive);
    assert_eq!(intended.value_at_quantile(0.99), 100);
}
