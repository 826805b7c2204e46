//! End-to-end determinism of the parallel experiment engine: fan-out must
//! never change what `expall` prints or what `results/summary.json` records.

use iconv_bench::experiments::tune_table::sweep;
use iconv_bench::{par, summary, traces};

/// Every experiment report is byte-identical between a sequential run and a
/// 4-worker run, and arrives in figure order. The slowest experiments
/// (fig17/fig18 GPU sweeps, the full tune-table report) are skipped here to
/// keep the debug-mode suite fast. The tune sweep's fan-out is pinned by
/// `tune_sweep_identical_across_worker_counts`, and the CI `experiments`
/// job `cmp`s the release `expall` stdout at `--jobs 1`, `2` and `3`,
/// which covers all three.
#[test]
fn experiment_reports_identical_across_worker_counts() {
    let set: Vec<_> = par::EXPERIMENTS
        .iter()
        .copied()
        .filter(|(n, _)| *n != "fig17" && *n != "fig18" && *n != "tune")
        .collect();
    let seq = par::run_set(1, &set);
    let par4 = par::run_set(4, &set);
    assert_eq!(seq.len(), par4.len());
    for ((s, p), (name, _)) in seq.iter().zip(&par4).zip(&set) {
        assert_eq!(s.name, *name, "order drift");
        assert_eq!(p.name, *name, "order drift");
        assert!(!s.report.is_empty(), "{name} rendered nothing");
        assert_eq!(s.report, p.report, "report drift for {name}");
    }
}

/// The tune sweep spreads its distinct (target, shape) searches over the
/// workers and puts the estimates back in (target, model, layer) order:
/// the result is identical for 1 and 4 workers.
#[test]
fn tune_sweep_identical_across_worker_counts() {
    let models = iconv_workloads::all_models(8);
    let seq = sweep(&models, 1);
    assert_eq!(seq.len(), iconv_tune::ALL_TARGETS.len());
    assert_eq!(seq, sweep(&models, 4), "tune sweep depends on worker count");
}

/// The headline-metric JSON — the part of `results/summary.json` that is
/// the determinism surface — is byte-identical for 1 and 4 workers.
#[test]
fn metrics_json_identical_across_worker_counts() {
    let a = summary::to_json(&summary::compute_jobs(1));
    let b = summary::to_json(&summary::compute_jobs(4));
    assert_eq!(a, b, "summary metrics depend on worker count");
}

/// The timings-augmented document embeds the metrics body unchanged and
/// adds one entry per experiment.
#[test]
fn timings_json_embeds_identical_metrics() {
    let s = summary::compute_jobs(2);
    let plain = summary::to_json(&s);
    let timed = summary::to_json_with_timings(&s, &[("table1", 0.25), ("fig02", 1.5)]);
    let metrics_body = plain
        .strip_suffix("\n}\n")
        .expect("metrics json shape changed");
    assert!(
        timed.starts_with(&format!("{metrics_body},\n")),
        "timings document must embed the metrics body byte-for-byte"
    );
    assert!(timed.contains("\"timings\": {"));
    assert!(timed.contains("\"table1\": 0.250"));
    assert!(timed.contains("\"fig02\": 1.500"));
}

/// The rolled-up trace counters — the other deterministic block of
/// `results/summary.json` — are identical for 1 and 4 workers, span every
/// simulator namespace, and embed into the full document without touching
/// the metrics body.
#[test]
fn trace_counters_identical_across_worker_counts() {
    let seq = traces::rollup(&traces::build_traces(1));
    let par4 = traces::rollup(&traces::build_traces(4));
    assert_eq!(seq, par4, "trace counters depend on worker count");
    for ns in ["tpusim.", "gpusim.", "dram.", "sram."] {
        assert!(
            seq.iter().any(|(k, _)| k.contains(ns)),
            "no {ns} counters in the rollup"
        );
    }

    let s = summary::compute_jobs(2);
    let plain = summary::to_json(&s);
    let full = summary::to_json_full(&s, &seq, &[("table1", 0.25)]);
    let metrics_body = plain
        .strip_suffix("\n}\n")
        .expect("metrics json shape changed");
    assert!(
        full.starts_with(&format!("{metrics_body},\n")),
        "full document must embed the metrics body byte-for-byte"
    );
    assert!(full.contains("\"counters\": {"));
    assert!(full.contains("\"fig13.tpusim.cycles\": "));
}
