//! The `offline` workload: a closed loop of one `expall --jobs 2` child at
//! a time, each in a scratch working directory under `benchmark/out/`, so
//! the committed `results/` are never rewritten.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use iconv_api::json::{self, Json};
use iconv_api::stable_hash64;

use crate::child::{out_dir, run_to_end, Bins};
use crate::metrics::Measured;
use crate::report::RunResult;
use crate::stats::{median, nearest_rank_or_max};

/// Worker threads `expall` runs with.
pub const JOBS: usize = 2;
/// Longest one `expall` run may take before the benchmark gives up.
const EXPALL_TIMEOUT: Duration = Duration::from_secs(120);

/// One finished `expall` run.
pub struct Expall {
    /// Its stdout: every experiment report, in figure order.
    pub stdout: Vec<u8>,
    /// Wall seconds, spawn to exit.
    pub wall_s: f64,
    /// Peak RSS, kibibytes.
    pub peak_kb: u64,
    /// fig15b layer-wise MAE from the `summary.json` it wrote.
    pub mae_pct: f64,
}

/// A fresh, empty scratch directory for this process.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = out_dir().join(format!("{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Run `expall --jobs 2` once in `cwd` and read back its summary.
pub fn expall(bins: &Bins, cwd: &Path) -> Result<Expall, String> {
    let summary = cwd.join("results").join("summary.json");
    // Proves the run wrote its own summary.
    let _ = std::fs::remove_file(&summary);
    let args = vec!["--jobs".to_owned(), JOBS.to_string()];
    let (stdout, status, wall_s, peak_kb) =
        run_to_end("expall", &bins.expall, &args, cwd, EXPALL_TIMEOUT)?;
    if !status.success() {
        return Err(format!("expall exited with {status}"));
    }
    let text = std::fs::read_to_string(&summary)
        .map_err(|e| format!("expall wrote no {}: {e}", summary.display()))?;
    Ok(Expall {
        stdout,
        wall_s,
        peak_kb,
        mae_pct: fig15b_mae(&text)?,
    })
}

/// The measured fig15b MAE in a `summary.json`.
fn fig15b_mae(summary: &str) -> Result<f64, String> {
    let root = json::parse(summary).map_err(|e| format!("summary.json: {e}"))?;
    root.as_obj()
        .and_then(|o| o.get("metrics"))
        .and_then(Json::as_arr)
        .and_then(|ms| {
            ms.iter().find(|m| {
                m.as_obj().and_then(|o| o.get("id")).and_then(Json::as_str) == Some("fig15b")
            })
        })
        .and_then(|m| m.as_obj()?.get("measured")?.as_f64())
        .ok_or_else(|| "summary.json has no fig15b metric".to_owned())
}

/// The reports an in-process `par::run_experiments` prints, concatenated:
/// the oracle for `expall`'s stdout.
pub fn oracle_stdout(runs: &[iconv_bench::par::ExperimentRun]) -> Vec<u8> {
    runs.iter()
        .flat_map(|r| r.report.as_bytes().iter().copied())
        .collect()
}

/// The untraced run: one cold `expall` as set-up, then back-to-back runs
/// while the next is expected to end within `seconds`, then the output
/// checks against an in-process run of every experiment.
pub fn run(bins: &Bins, seconds: f64) -> Result<RunResult, String> {
    let dir = scratch_dir("offline")?;
    let first = expall(bins, &dir)?;
    let setup_s = first.wall_s;
    let mut walls = Vec::new();
    let mut peak_kb = 0;
    let mut problems = Vec::new();
    let t0 = Instant::now();
    loop {
        let r = expall(bins, &dir)?;
        if r.stdout != first.stdout {
            problems.push("expall stdout differs between runs".to_owned());
        }
        if r.mae_pct.to_bits() != first.mae_pct.to_bits() {
            problems.push(format!(
                "fig15b MAE moved between runs: {} vs {}",
                first.mae_pct, r.mae_pct
            ));
        }
        walls.push(r.wall_s);
        peak_kb = peak_kb.max(r.peak_kb);
        if t0.elapsed().as_secs_f64() + r.wall_s > seconds {
            break;
        }
    }
    if oracle_stdout(&iconv_bench::par::run_experiments(JOBS)) != first.stdout {
        problems.push("expall stdout differs from in-process run_experiments".to_owned());
    }
    let _ = std::fs::remove_dir_all(&dir);
    let mut sorted_ms: Vec<u64> = walls.iter().map(|w| (w * 1e6) as u64).collect();
    sorted_ms.sort_unstable();
    let n = walls.len() as u64;
    Ok(RunResult {
        workload: "offline",
        metrics: vec![
            Measured::e2e("p50_ms", median(&walls) * 1e3),
            Measured::e2e("p99_ms", nearest_rank_or_max(&sorted_ms, 0.99) as f64 / 1e3),
            Measured::e2e("setup_s", setup_s),
            Measured::e2e("rss_mb", peak_kb as f64 / 1024.0),
            Measured::e2e("wall_s", median(&walls)),
            Measured::e2e("model_mae_pct", first.mae_pct),
        ],
        steps: Vec::new(),
        attempted: n,
        failed: 0,
        problems,
        notes: vec![(
            "stdout_digest".to_owned(),
            format!(
                "{:016x}",
                stable_hash64(&String::from_utf8_lossy(&first.stdout))
            ),
        )],
    })
}
