//! Run every experiment runner (Table I + Figs. 2-18) fanned out across
//! worker threads, then the headline-metric summary.
//!
//! Stdout is byte-identical to a sequential run for any worker count:
//! experiments render into buffers which are printed in figure order.
//! Worker count: `--jobs N` beats `ICONV_JOBS`, which beats the core count.
//! Per-experiment wall-clock timings go to stderr and into the `timings`
//! key of `results/summary.json`; per-experiment trace counters land in its
//! `counters` key, and `--trace DIR` additionally writes one Chrome-trace
//! JSON per experiment into `DIR` (open in Perfetto or `chrome://tracing`).

use iconv_bench::serve_source::ServeSource;
use iconv_bench::{cli, par, summary, traces};

/// Build the summary, optionally routing layer estimates through an
/// `iconv-serve` server. A remote address uses that server; otherwise an
/// in-process one is spawned for the duration of the summary. Either way
/// the result is byte-identical to the in-process computation (pinned by
/// `tests/via_serve.rs`).
fn compute_summary(jobs: usize, args: &cli::ExpallArgs) -> summary::Summary {
    if !args.via_serve {
        return summary::compute_jobs(jobs);
    }
    match &args.serve_addr {
        Some(addr) => {
            let src = ServeSource::connect(addr).unwrap_or_else(|err| {
                eprintln!("expall: cannot reach serve endpoint {addr}: {err}");
                std::process::exit(1);
            });
            let s = summary::compute_jobs_with(jobs, &src);
            let st = src.stats();
            eprintln!(
                "[via-serve {addr}: {} requests, {} hits, {} misses]",
                st.requests, st.hits, st.misses
            );
            s
        }
        None => {
            let handle = iconv_serve::spawn(iconv_serve::ServerConfig {
                workers: jobs,
                ..iconv_serve::ServerConfig::default()
            })
            .unwrap_or_else(|err| {
                eprintln!("expall: cannot spawn in-process serve: {err}");
                std::process::exit(1);
            });
            let addr = handle.local_addr().to_string();
            let src = ServeSource::connect(&addr).unwrap_or_else(|err| {
                eprintln!("expall: cannot reach in-process serve: {err}");
                std::process::exit(1);
            });
            let s = summary::compute_jobs_with(jobs, &src);
            drop(src);
            let st = handle.shutdown();
            eprintln!(
                "[via-serve (in-process): {} requests, {} hits, {} misses]",
                st.requests, st.hits, st.misses
            );
            s
        }
    }
}

fn main() {
    let args = match cli::parse_expall_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("expall: {err}");
            std::process::exit(2);
        }
    };
    let jobs = args.jobs.unwrap_or_else(iconv_par::default_jobs);
    let t0 = std::time::Instant::now();

    let runs = par::run_experiments(jobs);
    for r in &runs {
        print!("{}", r.report);
    }

    let t_trace = std::time::Instant::now();
    let recs = traces::build_traces(jobs);
    let counters = traces::rollup(&recs);
    if let Some(dir) = &args.trace_dir {
        let dir = std::path::Path::new(dir);
        match traces::write_chrome_traces(dir, &recs) {
            Ok(()) => eprintln!("[wrote {} chrome traces to {}]", recs.len(), dir.display()),
            Err(err) => eprintln!("[could not write traces to {}: {err}]", dir.display()),
        }
    }

    let t_summary = std::time::Instant::now();
    let summary = compute_summary(jobs, &args);
    let mut timings: Vec<(&str, f64)> = runs.iter().map(|r| (r.name, r.seconds)).collect();
    timings.push(("traces", (t_summary - t_trace).as_secs_f64()));
    timings.push(("summary", t_summary.elapsed().as_secs_f64()));

    // Machine-readable headline metrics + counters + timings for regression
    // tracking.
    let json = summary::to_json_full(&summary, &counters, &timings);
    match std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/summary.json", &json))
    {
        Ok(()) => eprintln!("\n[wrote results/summary.json]"),
        Err(err) => eprintln!("\n[could not write results/summary.json: {err}]"),
    }

    eprintln!("[per-experiment wall-clock, {jobs} worker(s)]");
    for (name, secs) in &timings {
        eprintln!("  {name:>10}  {:>8.1} ms", secs * 1e3);
    }
    eprintln!(
        "[expall completed in {:.1} ms]",
        t0.elapsed().as_secs_f64() * 1e3
    );
}
