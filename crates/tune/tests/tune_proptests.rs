//! Property tests for the tuner and its persistent cache.
//!
//! * **Persistence** — `to_json`/`from_json` is the identity, and corrupt
//!   input (truncations, byte flips) is rejected with an error, never a
//!   panic.
//! * **Alias pruning and measurement** — `tune` dedups candidates on their
//!   resolved engine and normalized mode and simulates the survivors on
//!   engines built once per target, sharing GPU fetch counts. Recomputing
//!   the search with a set of rendered canonical keys and one fresh
//!   `estimate` per survivor gives the same `candidates`,
//!   `pruned` and `best`, and bit-identical tuned and default cycles, on
//!   random shapes and on every distinct paper shape.
//!
//! Runs under the offline `proptest` shim: deterministic seed, no
//! shrinking — a failing case prints its inputs via the assertion message.

use std::collections::BTreeSet;

use proptest::prelude::*;

use iconv_api::{canonical_key, TpuChip, TuneTarget, TunedConfig};
use iconv_tensor::ConvShape;
use iconv_tune::{candidates, estimate, tune, tune_key, Estimate, TuneCache, ALL_TARGETS};

/// Small-but-varied valid conv shapes (the tuner measures dozens of
/// candidates per case, so keep each simulation cheap).
fn shape_strategy() -> impl proptest::strategy::Strategy<Value = ConvShape> {
    (
        (1usize..=4, 1usize..=64, 4usize..=20),
        (1usize..=64, 1usize..=5),
        (1usize..=2, 0usize..=2),
    )
        .prop_filter_map("buildable shape", |((n, ci, hw_dim), (co, f), (s, p))| {
            ConvShape::new(n, ci, hw_dim, hw_dim, co, f, f)
                .stride(s)
                .pad(p)
                .build()
                .ok()
        })
}

fn target_strategy() -> impl proptest::strategy::Strategy<Value = TuneTarget> {
    prop::sample::select(vec![
        TuneTarget::Tpu { chip: TpuChip::V2 },
        TuneTarget::Tpu { chip: TpuChip::V3 },
        TuneTarget::Gpu,
    ])
}

/// What a search reports: `(candidates, pruned, best)` and the bits of
/// the tuned and default cycles.
type Outcome = (u64, u64, TunedConfig, u64, u64);

/// The outcome of a search whose alias pruning keeps a `BTreeSet` of
/// rendered canonical keys — the string dedup `tune` used before it
/// compared typed values — and which measures each survivor with its own
/// fresh simulation through the evaluator, [`estimate`].
fn string_dedup_search(shape: &ConvShape, target: TuneTarget) -> Outcome {
    let mut seen = BTreeSet::new();
    let mut kept = Vec::new();
    let mut pruned = 0u64;
    for cfg in candidates(target) {
        if cfg.is_valid() && seen.insert(canonical_key(&cfg.to_work(*shape))) {
            kept.push(cfg);
        } else {
            pruned += 1;
        }
    }
    let cycles: Vec<f64> = kept
        .iter()
        .map(|cfg| match estimate(&cfg.to_work(*shape)) {
            Estimate::Tpu(est) => est.cycles as f64,
            Estimate::Gpu(est) => est.cycles,
            Estimate::Tune(est) => panic!("a candidate priced as a search: {est:?}"),
        })
        .collect();
    let mut best = 0usize;
    for (i, &c) in cycles.iter().enumerate() {
        if c < cycles[best] {
            best = i;
        }
    }
    (
        kept.len() as u64,
        pruned,
        kept[best],
        cycles[best].to_bits(),
        cycles[0].to_bits(),
    )
}

fn assert_matches_string_dedup(shape: &ConvShape, target: TuneTarget) {
    let got = tune(shape, target);
    assert_eq!(
        (
            got.candidates,
            got.pruned,
            got.best,
            got.tuned_cycles.to_bits(),
            got.default_cycles.to_bits(),
        ),
        string_dedup_search(shape, target),
        "{shape} {target:?}"
    );
}

/// Every distinct paper shape (batch 8) on every target.
#[test]
fn paper_shapes_prune_like_the_string_dedup() {
    for shape in &iconv_workloads::distinct_shapes(8) {
        for target in ALL_TARGETS {
            assert_matches_string_dedup(shape, target);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Typed dedup and string dedup prune the same candidates, pick the
    /// same winner and report bit-identical cycles.
    #[test]
    fn tune_prunes_like_the_string_dedup(
        shape in shape_strategy(),
        target in target_strategy(),
    ) {
        assert_matches_string_dedup(&shape, target);
    }

    /// The JSON rendering round-trips exactly, and its rendering is a
    /// fixed point (so save/load/save is stable on disk).
    #[test]
    fn cache_json_round_trip_is_identity(
        a in shape_strategy(),
        b in shape_strategy(),
        target in target_strategy(),
    ) {
        let mut cache = TuneCache::new();
        for shape in [&a, &b] {
            let est = tune(shape, target);
            cache.insert(tune_key(shape, target), est);
        }
        let text = cache.to_json();
        let back = TuneCache::from_json(&text);
        prop_assert!(back.is_ok(), "{:?}", back.err());
        let back = back.unwrap();
        prop_assert_eq!(&back, &cache);
        prop_assert_eq!(back.to_json(), text);
    }

    /// Corrupting a valid document never panics the parser: truncations
    /// are always rejected, byte flips either reparse or error.
    #[test]
    fn corrupted_cache_files_are_rejected_without_panic(
        shape in shape_strategy(),
        target in target_strategy(),
        cut_frac in 0.01f64..0.99,
        flip_frac in 0.0f64..1.0,
        flip_byte in 0u8..=255,
    ) {
        let mut cache = TuneCache::new();
        cache.insert(tune_key(&shape, target), tune(&shape, target));
        let text = cache.to_json();

        // Truncation strictly inside the document can never be valid.
        let cut = ((text.len() as f64 * cut_frac) as usize).clamp(1, text.len() - 1);
        let truncated = &text[..cut];
        if truncated.is_empty() || std::str::from_utf8(truncated.as_bytes()).is_ok() {
            prop_assert!(TuneCache::from_json(truncated).is_err(), "cut {}", cut);
        }

        // A flipped byte must be handled — Ok only if it still denotes a
        // well-formed cache, and in no case a panic.
        let mut bytes = text.clone().into_bytes();
        let at = ((bytes.len() as f64 * flip_frac) as usize).min(bytes.len() - 1);
        bytes[at] = flip_byte;
        if let Ok(mutated) = String::from_utf8(bytes) {
            let _ = TuneCache::from_json(&mutated);
        }
    }
}
