//! The design-space search itself.
//!
//! A tune is a deterministic function of (shape, target): enumerate a
//! fixed candidate grid with the Table-II default configuration first,
//! prune candidates that fail hardware validation or alias an already-kept
//! one (the same [`iconv_api::Canonical`], the value a cache key renders),
//! simulate the survivors, and keep the strict minimum with first-in-order
//! tie-breaking. Because candidate 0 *is* the default, the winner's cycles
//! are `<=` the default's by construction — the CI gate checks the
//! inequality end to end anyway.
//!
//! A grid point's hardware does not depend on the layer, so each target's
//! grid is validated and resolved once per process, with one engine per
//! distinct resolved configuration. A search then only normalizes each
//! candidate's mode for its layer and runs the engines.

use std::sync::OnceLock;

use iconv_api::proto::TuneEstimate;
pub use iconv_api::tuned::{candidates, default_config};
use iconv_api::{canonical_key, tpu_mode, TpuChip, TpuMode, TuneTarget, TunedConfig, Work};
use iconv_core::ConvPass;
use iconv_gpusim::{GpuAlgo, GpuSim, ReuseFetches};
use iconv_tensor::ConvShape;
use iconv_tpusim::Simulator;

/// A target's candidate grid with its hardware resolved.
struct Grid {
    /// [`candidates`] in order, each with the index of its engine, or
    /// `None` when hardware validation rejects it.
    points: Vec<(TunedConfig, Option<usize>)>,
    /// One engine per distinct resolved TPU configuration.
    tpu: Vec<Simulator>,
    /// One engine per distinct resolved GPU configuration.
    gpu: Vec<GpuSim>,
}

/// What a valid candidate simulates on the searched layer: its engine and
/// its mode after the cache key's normalization. The layer and pass are
/// the search's, and engines are deduplicated on configuration equality,
/// so two candidates have equal `Alias`es exactly when their works have
/// equal [`iconv_api::Canonical`]s.
#[derive(PartialEq)]
enum Alias {
    Tpu(usize, TpuMode),
    Gpu(usize, GpuAlgo),
}

impl Grid {
    fn new(target: TuneTarget) -> Self {
        let mut grid = Grid {
            points: Vec::new(),
            tpu: Vec::new(),
            gpu: Vec::new(),
        };
        for cfg in candidates(target) {
            let engine = match cfg {
                TunedConfig::Tpu { hw, .. } => hw.resolve().ok().map(|c| {
                    engine_index(&mut grid.tpu, |s| *s.config() == c, || Simulator::new(c))
                }),
                TunedConfig::Gpu { hw, .. } => hw
                    .resolve()
                    .ok()
                    .map(|c| engine_index(&mut grid.gpu, |s| *s.config() == c, || GpuSim::new(c))),
            };
            grid.points.push((cfg, engine));
        }
        grid
    }

    fn alias(&self, shape: &ConvShape, cfg: TunedConfig, engine: usize) -> Alias {
        match cfg {
            TunedConfig::Tpu { mode, .. } => {
                let rows = self.tpu[engine].config().array.rows;
                Alias::Tpu(engine, tpu_mode(shape, ConvPass::Forward, mode, rows))
            }
            TunedConfig::Gpu { algo, .. } => Alias::Gpu(engine, algo),
        }
    }

    fn cycles(
        &self,
        shape: &ConvShape,
        cfg: TunedConfig,
        engine: usize,
        fetches: &mut ReuseFetches,
    ) -> f64 {
        match cfg {
            TunedConfig::Tpu { mode, .. } => {
                self.tpu[engine].simulate_conv("tune", shape, mode).cycles as f64
            }
            TunedConfig::Gpu { algo, .. } => {
                self.gpu[engine]
                    .simulate_conv_shared("tune", shape, algo, fetches)
                    .timing
                    .cycles
            }
        }
    }
}

/// The index of the engine `is_it` picks out, appending `make()` when
/// there is none yet.
fn engine_index<E>(
    engines: &mut Vec<E>,
    is_it: impl Fn(&E) -> bool,
    make: impl FnOnce() -> E,
) -> usize {
    engines.iter().position(is_it).unwrap_or_else(|| {
        engines.push(make());
        engines.len() - 1
    })
}

/// The resolved grid of `target`, built on first use.
fn grid(target: TuneTarget) -> &'static Grid {
    static GRIDS: [OnceLock<Grid>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let slot = match target {
        TuneTarget::Tpu { chip: TpuChip::V2 } => 0,
        TuneTarget::Tpu { chip: TpuChip::V3 } => 1,
        TuneTarget::Gpu => 2,
    };
    GRIDS[slot].get_or_init(|| Grid::new(target))
}

/// Run the design-space search for one layer.
///
/// Deterministic: the candidate order is fixed, pruning is value-based,
/// and the survivors are simulated in order on the calling thread, so two
/// calls with the same `(shape, target)` return identical
/// [`TuneEstimate`]s. Each survivor's cycles are exactly what
/// [`crate::estimate`] prices its work at: the engines are the
/// same simulators over the same resolved configurations, and the GPU
/// candidates share one [`ReuseFetches`], whose counts a lone estimate
/// would compute the same way. Callers with many searches spread whole
/// searches over their workers.
pub fn tune(shape: &ConvShape, target: TuneTarget) -> TuneEstimate {
    let grid = grid(target);
    let mut kept: Vec<(TunedConfig, usize, Alias)> = Vec::with_capacity(grid.points.len());
    let mut pruned = 0u64;
    for &(cfg, engine) in &grid.points {
        let Some(engine) = engine else {
            pruned += 1;
            continue;
        };
        // Candidates that denote the same simulation have the same alias;
        // measuring one of them is measuring all of them. The grid holds
        // at most 73 points, so a linear scan suffices.
        let alias = grid.alias(shape, cfg, engine);
        if kept.iter().any(|k| k.2 == alias) {
            pruned += 1;
        } else {
            kept.push((cfg, engine, alias));
        }
    }

    let mut fetches = ReuseFetches::new(*shape);
    let cycles: Vec<f64> = kept
        .iter()
        .map(|&(cfg, engine, _)| grid.cycles(shape, cfg, engine, &mut fetches))
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
        candidates: kept.len() as u64,
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
        for target in ALL_TARGETS {
            let est = tune(&shape(), target);
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
        // The bare 128x128x64 tile fails shared-memory validation for all
        // four algos.
        let gpu = tune(&shape(), TuneTarget::Gpu);
        assert!(gpu.pruned >= 4, "gpu pruned {}", gpu.pruned);
        // ci=64 on 128 rows: auto group 2, so ChannelFirstGrouped(2)
        // aliases ChannelFirst and dedup must catch it.
        let tpu = tune(&shape(), TuneTarget::Tpu { chip: TpuChip::V2 });
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
