//! Parallel experiment fan-out.
//!
//! Every experiment renders its report into a `String` (see
//! [`crate::fmt`]), so `expall` can execute the full set on worker threads
//! and then print the buffers in figure order — the bytes on stdout are
//! identical to a sequential run regardless of the worker count.
//!
//! Worker count: `--jobs N` on the command line beats the `ICONV_JOBS`
//! environment variable, which beats [`iconv_par::default_jobs`].

use std::time::Instant;

/// One runnable experiment: its id and report renderer. The renderer is
/// handed the run's worker count; an experiment with independent inner
/// tasks (the tune sweep) spreads them over it, and the others ignore it.
pub type Experiment = (&'static str, fn(usize) -> String);

/// Result of one experiment executed by [`run_experiments`].
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Experiment id (`table1`, `fig02`, …).
    pub name: &'static str,
    /// The rendered report, exactly as the standalone binary prints it.
    pub report: String,
    /// Wall-clock seconds this experiment took on its worker.
    pub seconds: f64,
}

/// Every paper experiment in figure order — the order `expall` prints.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", |_| crate::experiments::table1::report()),
    ("fig02", |_| crate::experiments::fig02::report()),
    ("fig04", |_| crate::experiments::fig04::report()),
    ("fig13", |_| crate::experiments::fig13::report()),
    ("fig14", |_| crate::experiments::fig14::report()),
    ("fig15", |_| crate::experiments::fig15::report()),
    ("fig16", |_| crate::experiments::fig16::report()),
    ("fig17", |_| crate::experiments::fig17::report()),
    ("fig18", |_| crate::experiments::fig18::report()),
    ("tune", crate::experiments::tune_table::report),
    ("passes", |_| crate::experiments::passes::report()),
];

/// Run a set of experiments on `jobs` workers, returning results in the
/// input order with per-experiment wall-clock timings. Each renderer is
/// also handed `jobs`, so `jobs == 1` runs everything on the calling
/// thread.
pub fn run_set(jobs: usize, set: &[Experiment]) -> Vec<ExperimentRun> {
    iconv_par::par_map_jobs(jobs, set, |&(name, f)| {
        let t0 = Instant::now();
        let report = f(jobs);
        ExperimentRun {
            name,
            report,
            seconds: t0.elapsed().as_secs_f64(),
        }
    })
}

/// Run all paper experiments ([`EXPERIMENTS`]) on `jobs` workers.
pub fn run_experiments(jobs: usize) -> Vec<ExperimentRun> {
    run_set(jobs, EXPERIMENTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parallel and sequential fan-out produce byte-identical reports —
    /// the determinism guarantee `expall` builds on. Uses the two cheapest
    /// experiments to keep the unit suite fast; the full-set check lives in
    /// `tests/determinism.rs`.
    #[test]
    fn parallel_reports_match_sequential() {
        let set: Vec<_> = EXPERIMENTS
            .iter()
            .copied()
            .filter(|(n, _)| *n == "table1" || *n == "fig04")
            .collect();
        let seq = run_set(1, &set);
        let par = run_set(4, &set);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.report, p.report, "report drift for {}", s.name);
        }
    }
}
