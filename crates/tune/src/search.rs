//! The design-space search itself.
//!
//! A tune is a deterministic function of (shape, target): enumerate a
//! fixed candidate grid with the Table-II default configuration first,
//! prune candidates that fail hardware validation or normalize to an
//! already-kept [`iconv_api::Canonical`] (the value a cache key renders),
//! measure the survivors through a [`CycleSource`], and keep
//! the strict minimum with first-in-order tie-breaking. Because candidate 0
//! *is* the default, the winner's cycles are `<=` the default's by
//! construction — the CI gate checks the inequality end to end anyway.

use iconv_api::proto::TuneEstimate;
pub use iconv_api::tuned::{candidates, default_config};
use iconv_api::{canonical, canonical_key, TpuChip, TuneTarget, TunedConfig, Work};
use iconv_tensor::ConvShape;

use crate::source::{CycleCount, CycleSource};

/// Run the design-space search for one layer.
///
/// Deterministic in every argument: the candidate order is fixed, pruning
/// is value-based, and the survivors are measured in one sequential
/// [`CycleSource::estimate_many`] call, which preserves their order. Two
/// calls with the same `(shape, target)` return identical
/// [`TuneEstimate`]s on any bit-deterministic source. A search runs on the
/// calling thread; callers with many searches spread whole searches over
/// their workers.
pub fn tune(src: &dyn CycleSource, shape: &ConvShape, target: TuneTarget) -> TuneEstimate {
    let grid = candidates(target);
    let mut kept: Vec<(TunedConfig, Work)> = Vec::with_capacity(grid.len());
    let mut seen = Vec::with_capacity(grid.len());
    let mut pruned = 0u64;
    for cfg in grid {
        if !cfg.is_valid() {
            pruned += 1;
            continue;
        }
        let work = cfg.to_work(*shape);
        // Candidates that denote the same simulation normalize to the same
        // canonical value (and so key); measuring one of them is measuring
        // all of them. The grid holds at most 73 points, so a linear scan
        // suffices.
        let canon = canonical(&work);
        if seen.contains(&canon) {
            pruned += 1;
        } else {
            seen.push(canon);
            kept.push((cfg, work));
        }
    }

    let works: Vec<Work> = kept.iter().map(|(_, w)| *w).collect();
    let cycles: Vec<f64> = src
        .estimate_many(1, &works)
        .into_iter()
        .map(CycleCount::as_f64)
        .collect();

    // Strict minimum, first-in-order tie-break; index 0 is the default.
    let mut best = 0usize;
    for (i, &c) in cycles.iter().enumerate() {
        if c < cycles[best] {
            best = i;
        }
    }
    TuneEstimate {
        best: kept[best].0,
        tuned_cycles: cycles[best],
        default_cycles: cycles[0],
        candidates: works.len() as u64,
        pruned,
    }
}

/// The work value whose canonical key names this search in every cache:
/// the striped serve cache, the router's hash ring, and the on-disk
/// tune store all key the same bytes.
pub fn tune_work(shape: ConvShape, target: TuneTarget) -> Work {
    Work::Tune { shape, target }
}

/// Convenience: the canonical tune-cache key for `(shape, target)`.
pub fn tune_key(shape: &ConvShape, target: TuneTarget) -> String {
    canonical_key(&tune_work(*shape, target))
}

/// All tune targets, in reporting order.
pub const ALL_TARGETS: [TuneTarget; 3] = [
    TuneTarget::Tpu { chip: TpuChip::V2 },
    TuneTarget::Tpu { chip: TpuChip::V3 },
    TuneTarget::Gpu,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::InProcessSource;

    fn shape() -> ConvShape {
        ConvShape::square(8, 64, 56, 64, 3, 1, 1).unwrap()
    }

    #[test]
    fn candidate_zero_is_the_default_for_every_target() {
        for target in ALL_TARGETS {
            assert_eq!(candidates(target)[0], default_config(target));
        }
    }

    #[test]
    fn tuned_never_beats_nothing_and_never_loses_to_default() {
        let src = InProcessSource::new();
        for target in ALL_TARGETS {
            let est = tune(&src, &shape(), target);
            assert!(
                est.tuned_cycles <= est.default_cycles,
                "{target:?}: tuned {} > default {}",
                est.tuned_cycles,
                est.default_cycles
            );
            assert!(est.candidates > 1);
            assert_eq!(est.best.target(), target);
        }
    }

    #[test]
    fn gpu_grid_prunes_the_infeasible_tile_and_tpu_grid_dedups_groups() {
        let src = InProcessSource::new();
        // The bare 128x128x64 tile fails shared-memory validation for all
        // four algos.
        let gpu = tune(&src, &shape(), TuneTarget::Gpu);
        assert!(gpu.pruned >= 4, "gpu pruned {}", gpu.pruned);
        // ci=64 on 128 rows: auto group 2, so ChannelFirstGrouped(2)
        // aliases ChannelFirst and dedup must catch it.
        let tpu = tune(&src, &shape(), TuneTarget::Tpu { chip: TpuChip::V2 });
        assert!(tpu.pruned >= 1, "tpu pruned {}", tpu.pruned);
    }

    #[test]
    fn tune_key_matches_the_canonical_work_key() {
        let target = TuneTarget::Gpu;
        assert_eq!(
            tune_key(&shape(), target),
            canonical_key(&Work::Tune {
                shape: shape(),
                target
            })
        );
    }
}
