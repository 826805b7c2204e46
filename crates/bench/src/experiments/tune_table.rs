//! **Tune table** — per-layer design-space search versus the Table-II
//! defaults, across the full CNN workload suite.
//!
//! For every layer of every model, [`iconv_tune::tune`] enumerates the
//! candidate grid (TPU: mode x array x layout x schedule; GPU: algo x
//! block/residency/schedule) and reports the strict-minimum winner next to
//! the paper's fixed configuration. Candidate 0 *is* the default, so tuned
//! cycles can never exceed default cycles — the report shows how much the
//! fixed design points of Table II leave on the table per network, and the
//! AlexNet detail shows *which* design-space moves win per layer. The
//! machine-readable form of the same [`sweep`] is `tunebench` ->
//! `BENCH_tune.json`.

use std::collections::HashMap;

use iconv_api::proto::tpu_mode_wire;
use iconv_api::{TpuChip, TuneTarget, TunedConfig};
use iconv_tensor::ConvShape;
use iconv_tune::{tune, TuneEstimate, ALL_TARGETS};
use iconv_workloads::Model;

use crate::fmt::{banner, header};

/// Reporting label for a target (the Table-II column it replaces).
pub fn target_label(target: TuneTarget) -> &'static str {
    match target {
        TuneTarget::Tpu { chip: TpuChip::V2 } => "tpu-v2",
        TuneTarget::Tpu { chip: TpuChip::V3 } => "tpu-v3",
        TuneTarget::Gpu => "gpu-v100",
    }
}

/// Compact human spelling of a winning configuration.
pub fn describe(cfg: &TunedConfig) -> String {
    match cfg {
        TunedConfig::Tpu { mode, hw } => {
            let mut s = tpu_mode_wire(*mode);
            if let Some(a) = hw.array {
                s.push_str(&format!(" array={a}"));
            }
            if let Some(l) = hw.layout {
                s.push_str(&format!(" layout={l:?}"));
            }
            if let Some(p) = hw.schedule {
                s.push_str(&format!(" sched={p}"));
            }
            s
        }
        TunedConfig::Gpu { algo, hw } => {
            let mut s = algo.to_string();
            if let Some((bm, bn, bk)) = hw.block {
                s.push_str(&format!(" block={bm}x{bn}x{bk}"));
            }
            if let Some(b) = hw.blocks_per_sm {
                s.push_str(&format!(" resident={b}"));
            }
            if let Some(p) = hw.schedule {
                s.push_str(&format!(" sched={p}"));
            }
            s
        }
    }
}

/// One search per layer of every model on every target, as
/// `(target, [model][layer])` in [`ALL_TARGETS`] and `models` order. The
/// model tables repeat shapes (276 layers over 159 distinct shapes at
/// batch 8), and a search is a pure function of (shape, target), so each
/// distinct pair is searched once and repeats reuse its estimate.
///
/// The distinct pairs are independent tasks spread over `jobs` workers;
/// `jobs == 1` searches them in order on the calling thread. The estimates
/// go back in (target, model, layer) order, so the result is identical for
/// every worker count.
pub fn sweep(models: &[Model], jobs: usize) -> Vec<(TuneTarget, Vec<Vec<TuneEstimate>>)> {
    // Distinct shapes in first-seen order, and each layer's index into them.
    let mut shapes: Vec<ConvShape> = Vec::new();
    let mut index: HashMap<ConvShape, usize> = HashMap::new();
    let layer_shapes: Vec<Vec<usize>> = models
        .iter()
        .map(|m| {
            m.layers
                .iter()
                .map(|l| {
                    *index.entry(l.shape).or_insert_with(|| {
                        shapes.push(l.shape);
                        shapes.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    let pairs: Vec<(TuneTarget, ConvShape)> = ALL_TARGETS
        .iter()
        .flat_map(|&target| shapes.iter().map(move |&shape| (target, shape)))
        .collect();
    let searched = iconv_par::par_map_jobs(jobs, &pairs, |(target, shape)| tune(shape, *target));
    ALL_TARGETS
        .iter()
        .enumerate()
        .map(|(ti, &target)| {
            let row = &searched[ti * shapes.len()..(ti + 1) * shapes.len()];
            let per_model = layer_shapes
                .iter()
                .map(|layers| layers.iter().map(|&si| row[si]).collect())
                .collect();
            (target, per_model)
        })
        .collect()
}

/// Render the experiment's full report, spreading the sweep over `jobs`
/// workers.
pub fn report(jobs: usize) -> String {
    let mut out = String::new();
    let models = iconv_workloads::all_models(8);
    let sweep = sweep(&models, jobs);

    for (target, per_model) in &sweep {
        banner(
            &mut out,
            &format!(
                "Tuned vs Table-II default cycles, target {} (batch 8)",
                target_label(*target)
            ),
        );
        header(
            &mut out,
            &[
                "model",
                "layers",
                "improved",
                "default Mcyc",
                "tuned Mcyc",
                "speedup",
            ],
            &[12, 6, 8, 12, 12, 7],
        );
        for (m, ests) in models.iter().zip(per_model) {
            let mut default = 0.0f64;
            let mut tuned = 0.0f64;
            let mut improved = 0usize;
            for (l, est) in m.layers.iter().zip(ests) {
                default += est.default_cycles * l.count as f64;
                tuned += est.tuned_cycles * l.count as f64;
                if est.tuned_cycles < est.default_cycles {
                    improved += 1;
                }
            }
            crate::outln!(
                out,
                "{:>12}  {:>6}  {:>8}  {:>12.2}  {:>12.2}  {:>7.3}",
                m.name,
                m.layers.len(),
                improved,
                default / 1e6,
                tuned / 1e6,
                default / tuned
            );
        }
    }

    // Per-layer detail for one network: which design-space move wins where.
    let alexnet = &models[0];
    banner(
        &mut out,
        &format!("{} per-layer winners, target tpu-v2", alexnet.name),
    );
    header(
        &mut out,
        &["layer", "default", "tuned", "speedup", "best config"],
        &[8, 10, 10, 7, 30],
    );
    let v2 = TuneTarget::Tpu { chip: TpuChip::V2 };
    let (_, v2_models) = sweep
        .iter()
        .find(|(target, _)| *target == v2)
        .expect("the sweep covers tpu-v2");
    for (l, est) in alexnet.layers.iter().zip(&v2_models[0]) {
        crate::outln!(
            out,
            "{:>8}  {:>10.0}  {:>10.0}  {:>7.3}  {}",
            l.name,
            est.default_cycles,
            est.tuned_cycles,
            est.default_cycles / est.tuned_cycles,
            describe(&est.best)
        );
    }
    out
}

/// Run the experiment on [`iconv_par::default_jobs`] workers, printing
/// the report.
pub fn run() {
    print!("{}", report(iconv_par::default_jobs()));
}
