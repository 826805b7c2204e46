//! `served` — the long-running estimate server.
//!
//! Prints `listening on <addr>` once the socket is bound, then serves
//! until a client sends the `shutdown` op, at which point it drains
//! in-flight work, answers everything it accepted, and exits with a final
//! counter report on stderr.

use std::sync::Arc;

use iconv_faults::FaultPlan;
use iconv_serve::server::{spawn, ServerConfig};

const USAGE: &str = "usage: served [--addr HOST:PORT] [--workers N] [--queue N] [--cache N] \
     [--cache-shards N] [--tune-cache PATH] [--fault-plan SPEC]\n       SPEC \
     e.g. seed=42,rate=0.05 (per-site keys: read,write,partial,delay,panic,deadline; delay-ms=N)";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7070".to_owned(),
        ..ServerConfig::default()
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value; {USAGE}"))
        };
        let positive = |name: &str, v: String| {
            v.parse::<usize>()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| format!("{name} needs a positive integer (got {v:?}); {USAGE}"))
        };
        match a.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--workers" => cfg.workers = positive("--workers", value("--workers")?)?,
            "--queue" => cfg.queue_capacity = positive("--queue", value("--queue")?)?,
            "--cache" => cfg.cache_capacity = positive("--cache", value("--cache")?)?,
            "--cache-shards" => {
                cfg.cache_shards = positive("--cache-shards", value("--cache-shards")?)?;
            }
            "--tune-cache" => {
                cfg.tune_cache_path = Some(std::path::PathBuf::from(value("--tune-cache")?));
            }
            "--fault-plan" => {
                let spec = value("--fault-plan")?;
                let plan = FaultPlan::parse(&spec)
                    .map_err(|e| format!("--fault-plan {spec:?}: {e}; {USAGE}"))?;
                cfg.faults = Some(Arc::new(plan));
            }
            other => return Err(format!("unknown argument {other:?}; {USAGE}")),
        }
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(err) => {
            eprintln!("served: {err}");
            std::process::exit(2);
        }
    };
    let workers = cfg.workers;
    let faults = cfg.faults.clone();
    let handle = match spawn(cfg) {
        Ok(h) => h,
        Err(err) => {
            eprintln!("served: bind failed: {err}");
            std::process::exit(1);
        }
    };
    let faulted = faults.is_some();
    println!("listening on {}", handle.local_addr());
    // Line-buffered stdout may sit on that line forever under redirection;
    // scripts wait for it, so push it out now.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!(
        "served: {workers} worker(s){}; send {{\"op\":\"shutdown\"}} to stop",
        if faulted { ", fault plan ARMED" } else { "" }
    );

    handle.wait_shutdown_requested();
    let stats = handle.shutdown();
    eprintln!(
        "served: drained; requests={} hits={} misses={} evictions={} busy={} deadline={} parse={} \
         batches={} batch_items={} tunes={} tune_searches={} worker_crashes={}",
        stats.requests,
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.busy_rejections,
        stats.deadline_expired,
        stats.parse_errors,
        stats.batches,
        stats.batch_items,
        stats.tunes,
        stats.tune_searches,
        stats.worker_crashes
    );
    if let Some(plan) = faults {
        let c = plan.counters();
        eprintln!(
            "served: faults injected={} observed={} conserved={}",
            c.injected_total(),
            c.observed_total(),
            c.conserved()
        );
    }
}
