//! Per-experiment trace capture for `expall --trace`.
//!
//! Each paper experiment gets one cheap, *representative* traced run — not
//! a re-execution of the full sweep — recorded into an
//! [`iconv_trace::Recorder`]. The recorders serialize to Chrome-trace JSON
//! (one file per experiment id, loadable in Perfetto / `chrome://tracing`)
//! and roll up into the `counters` object of `results/summary.json`.
//!
//! Everything here is deterministic: the builders fan out across workers
//! via [`iconv_par::par_map_jobs`] (which preserves input order) and each
//! builder runs its simulations sequentially, so the recorded spans and
//! counters are byte-identical for every worker count.

use iconv_dram::{BankSim, DramConfig, Request};
use iconv_gpusim::{GpuAlgo, GpuConfig, GpuSim};
use iconv_tpusim::{SimMode, Simulator, TpuConfig};
use iconv_trace::Recorder;

/// Batch size for the representative runs — small enough that the whole
/// trace pass costs a fraction of one experiment.
const BATCH: usize = 8;

fn tpu() -> Simulator {
    Simulator::new(TpuConfig::tpu_v2())
}

fn gpu() -> GpuSim {
    GpuSim::new(GpuConfig::v100())
}

fn table1(rec: &mut Recorder) {
    // Explicit-im2col memory accounting: trace the explicit lowering of
    // each Table I model so the transform cycles/bytes are visible.
    let sim = tpu();
    for m in iconv_workloads::table1_models(BATCH) {
        sim.simulate_model_traced(&m, SimMode::Explicit, rec);
    }
}

fn fig02(rec: &mut Recorder) {
    // Explicit vs implicit: the same model under both lowerings.
    let sim = tpu();
    let model = iconv_workloads::resnet50(BATCH);
    sim.simulate_model_traced(&model, SimMode::ChannelFirst, rec);
    sim.simulate_model_traced(&model, SimMode::Explicit, rec);
}

fn fig04(rec: &mut Recorder) {
    // Stride sensitivity: representative ResNet layers on both machines.
    let sim = tpu();
    let g = gpu();
    for stride in [1usize, 2] {
        for l in iconv_workloads::resnet_representative_layers(BATCH, stride) {
            sim.simulate_conv_traced(&l.name, &l.shape, SimMode::ChannelFirst, rec);
            g.simulate_conv_traced(&l.name, &l.shape, GpuAlgo::CudnnImplicit, rec);
        }
    }
}

fn fig13(rec: &mut Recorder) {
    // GEMM validation: a subset of the sweep through the traced GEMM path.
    let sim = tpu();
    for (i, &(m, n, k)) in crate::experiments::fig13::gemm_sweep().iter().enumerate() {
        if i % 4 == 0 {
            sim.simulate_gemm_traced(&format!("gemm {m}x{n}x{k}"), m, n, k, rec);
        }
    }
}

fn fig14(rec: &mut Recorder) {
    // Multi-tile sweep on the paper's probe layer.
    let sim = tpu();
    let shape = iconv_tensor::ConvShape::square(8, 8, 128, 128, 3, 1, 1).expect("valid layer");
    for tiles in 1..=4usize {
        sim.simulate_conv_traced(
            &format!("probe x{tiles}"),
            &shape,
            SimMode::ChannelFirstGrouped(tiles),
            rec,
        );
    }
}

fn fig15(rec: &mut Recorder) {
    // Layer-wise validation: every model under the channel-first schedule.
    let sim = tpu();
    for m in iconv_workloads::all_models(BATCH) {
        sim.simulate_model_traced(&m, SimMode::ChannelFirst, rec);
    }
}

fn fig16(rec: &mut Recorder) {
    // DSE: one word-size point of the SRAM sweep plus the bank-level DRAM
    // simulator on a sequential and a same-bank (row-thrashing) stream.
    let sim = Simulator::new(TpuConfig::tpu_v2().with_word_elems(8));
    let model = iconv_workloads::vgg16(BATCH);
    sim.simulate_model_traced(&model, SimMode::ChannelFirst, rec);

    let cfg = DramConfig::hbm_tpu_v2();
    let seq: Vec<Request> = (0..64).map(|i| Request::new(i * 256, 256)).collect();
    let stride = cfg.row_bytes * cfg.banks;
    let thrash: Vec<Request> = (0..64).map(|i| Request::new(i * stride, 256)).collect();
    BankSim::new(cfg).run_traced(&seq, rec);
    BankSim::new(cfg).run_traced(&thrash, rec);
}

fn fig17(rec: &mut Recorder) {
    // GPU parity: one model under cuDNN-implicit and the paper's method.
    let g = gpu();
    let model = iconv_workloads::alexnet(BATCH);
    for l in &model.layers {
        g.simulate_conv_traced(&l.name, &l.shape, GpuAlgo::CudnnImplicit, rec);
        g.simulate_conv_traced(
            &l.name,
            &l.shape,
            GpuAlgo::ChannelFirst { reuse: true },
            rec,
        );
    }
}

fn fig18(rec: &mut Recorder) {
    // Strided layers on the GPU, both algorithms.
    let g = gpu();
    for l in iconv_workloads::resnet50(BATCH)
        .strided_layers()
        .into_iter()
        .filter(|l| l.shape.ci >= 16)
    {
        g.simulate_conv_traced(&l.name, &l.shape, GpuAlgo::CudnnImplicit, rec);
        g.simulate_conv_traced(
            &l.name,
            &l.shape,
            GpuAlgo::ChannelFirst { reuse: true },
            rec,
        );
    }
}

fn tune_trace(rec: &mut Recorder) {
    // Design-space search: for one representative strided layer, trace the
    // Table-II default and the tuned winner of each target side by side,
    // so the before/after spans land in the same file.
    use iconv_tune::{default_config, tune, TunedConfig, ALL_TARGETS};
    let shape = iconv_workloads::alexnet(BATCH).layers[0].shape;
    for target in ALL_TARGETS {
        let est = tune(&shape, target);
        for (tag, cfg) in [("default", default_config(target)), ("tuned", est.best)] {
            let name = format!("tune {tag}");
            match cfg {
                TunedConfig::Tpu { mode, hw } => {
                    Simulator::new(iconv_api::resolve_tpu(&hw))
                        .simulate_conv_traced(&name, &shape, mode, rec);
                }
                TunedConfig::Gpu { algo, hw } => {
                    GpuSim::new(iconv_api::resolve_gpu(&hw))
                        .simulate_conv_traced(&name, &shape, algo, rec);
                }
            }
        }
    }
}

fn passes(rec: &mut Recorder) {
    // Backward/transposed passes plus the indirect-buffer lowering on one
    // representative layer each, so the per-pass phase spans are visible.
    use iconv_core::{ConvPass, ALL_PASSES};
    let sim = tpu();
    let g = gpu();
    let shape = iconv_workloads::alexnet(BATCH).layers[1].shape;
    for &pass in &ALL_PASSES {
        sim.simulate_pass_traced(
            &format!("alexnet conv2 {pass}"),
            &shape,
            pass,
            SimMode::ChannelFirst,
            rec,
        );
    }
    sim.simulate_conv_traced("alexnet conv2 indirect", &shape, SimMode::Indirect, rec);
    g.simulate_conv_traced("alexnet conv2 indirect", &shape, GpuAlgo::Indirect, rec);
    let up = &iconv_workloads::unet(BATCH).layers[10];
    sim.simulate_pass_traced(
        &format!("unet {} transpose", up.name),
        &up.shape,
        ConvPass::Transpose,
        SimMode::ChannelFirst,
        rec,
    );
}

/// One trace capture: the experiment id and its builder.
pub type TraceBuilder = (&'static str, fn(&mut Recorder));

/// One trace builder per paper experiment, in figure order (the ids match
/// [`crate::par::EXPERIMENTS`]).
pub const TRACES: &[TraceBuilder] = &[
    ("table1", table1),
    ("fig02", fig02),
    ("fig04", fig04),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("fig18", fig18),
    ("tune", tune_trace),
    ("passes", passes),
];

/// Build every experiment trace on `jobs` workers. Output order and
/// content are independent of `jobs`.
pub fn build_traces(jobs: usize) -> Vec<(&'static str, Recorder)> {
    iconv_par::par_map_jobs(jobs, TRACES, |&(id, build)| {
        let mut rec = Recorder::new();
        build(&mut rec);
        (id, rec)
    })
}

/// Flatten the recorders' counters into `"<id>.<counter>"` rows, in
/// experiment order then counter-name order — the `counters` object of
/// `results/summary.json`.
pub fn rollup(traces: &[(&'static str, Recorder)]) -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for (id, rec) in traces {
        for (name, value) in rec.counters() {
            rows.push((format!("{id}.{name}"), *value));
        }
    }
    rows
}

/// Write one Chrome-trace JSON file per experiment into `dir`
/// (`<dir>/<id>.json`), creating the directory if needed.
pub fn write_chrome_traces(
    dir: &std::path::Path,
    traces: &[(&'static str, Recorder)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (id, rec) in traces {
        std::fs::write(dir.join(format!("{id}.json")), rec.to_chrome_json())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_records_something() {
        let traces = build_traces(2);
        assert_eq!(traces.len(), crate::par::EXPERIMENTS.len());
        for ((id, rec), (exp_id, _)) in traces.iter().zip(crate::par::EXPERIMENTS) {
            assert_eq!(id, exp_id, "trace ids must track the experiment list");
            assert!(!rec.is_empty(), "{id} recorded nothing");
            assert!(!rec.counters().is_empty(), "{id} has no counters");
        }
    }

    #[test]
    fn rollup_prefixes_and_preserves_values() {
        let traces = build_traces(1);
        let rows = rollup(&traces);
        assert!(rows.iter().any(|(k, _)| k == "fig13.tpusim.cycles"));
        assert!(rows.iter().any(|(k, _)| k == "fig16.dram.row_hits"));
        assert!(rows.iter().any(|(k, _)| k == "fig17.gpusim.cycles"));
        let fig13 = &traces.iter().find(|(id, _)| *id == "fig13").unwrap().1;
        let direct = fig13.counters()["tpusim.cycles"];
        let rolled = rows
            .iter()
            .find(|(k, _)| k == "fig13.tpusim.cycles")
            .unwrap()
            .1;
        assert_eq!(direct, rolled);
    }

    #[test]
    fn chrome_files_appear_on_disk() {
        let dir = std::env::temp_dir().join("iconv-trace-test");
        let _ = std::fs::remove_dir_all(&dir);
        let traces: Vec<_> = build_traces(1).into_iter().take(2).collect();
        write_chrome_traces(&dir, &traces).unwrap();
        for (id, _) in &traces {
            let body = std::fs::read_to_string(dir.join(format!("{id}.json"))).unwrap();
            assert!(body.contains("\"traceEvents\": ["), "{id}");
            assert!(body.starts_with('{'), "{id}");
            assert!(body.trim_end().ends_with('}'), "{id}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
