//! `loadgen` — closed-loop load generator for `served`.
//!
//! Replays the paper's workload table (every layer of the seven CNNs,
//! each under four estimators: TPU channel-first, TPU explicit, GPU
//! cuDNN-implicit, GPU channel-first+reuse) against a server, at a
//! configurable connection count and pipelining window, for several
//! passes. Pass 1 is the cold pass (all cache misses); later passes
//! measure the warm cache. `--batch N` switches the framing from one
//! request line per estimate to `batch` requests of N items each. Prints
//! a per-pass throughput/latency/hit-rate table, then always runs a
//! **compare phase** — cold single-request lockstep vs. one cold
//! whole-table batch, each on a fresh in-process server — and writes the
//! machine-readable report to `BENCH_serve.json`.
//!
//! By default it spawns an in-process server so `cargo run --bin loadgen`
//! is self-contained; `--addr` points it at an external target instead.
//! Open-loop latency under a fixed offered rate is the `iconv-benchmark`
//! package's job (`benchmark/`), not this binary's.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use iconv_api::table::pass_leg_works;
use iconv_serve::cache::{Body, LruCache, StripedCache};
use iconv_serve::cli::{parse_loadgen_args, LoadgenArgs};
use iconv_serve::client::{Client, DEFAULT_CONNECT_TIMEOUT};
use iconv_serve::protocol::{
    encode_estimate, encode_sweep, EstimateRequest, Response, StatsSnapshot, SweepSpec,
    SweepTarget, Work,
};
use iconv_serve::server::{spawn, ServerConfig};

/// One closed-loop connection, single-request framing: keep up to `window`
/// requests outstanding, read one, top the window back up. Returns
/// (responses, typed errors).
fn run_chunk(addr: &str, lines: &[String], window: usize) -> (u64, u64) {
    let Ok(mut client) = Client::connect(addr) else {
        eprintln!("loadgen: connect to {addr} failed");
        return (0, lines.len() as u64);
    };
    let (mut sent, mut recvd, mut errors) = (0usize, 0usize, 0u64);
    while recvd < lines.len() {
        while sent < lines.len() && sent - recvd < window {
            if client.send_line(&lines[sent]).is_err() {
                return (recvd as u64, errors + (lines.len() - recvd) as u64);
            }
            sent += 1;
        }
        if client.flush().is_err() {
            return (recvd as u64, errors + (lines.len() - recvd) as u64);
        }
        match client.recv_response() {
            Ok(Response::Error { kind, detail, .. }) => {
                errors += 1;
                recvd += 1;
                eprintln!("loadgen: server error {kind}: {detail}");
            }
            Ok(_) => recvd += 1,
            Err(e) => {
                eprintln!("loadgen: receive failed: {e}");
                return (recvd as u64, errors + (lines.len() - recvd) as u64);
            }
        }
    }
    (recvd as u64, errors)
}

/// One closed-loop connection, batched framing: the chunk's work table is
/// partitioned into `batch`-item requests, each answered by its item span
/// plus a summary. Returns (item responses, item errors).
fn run_chunk_batched(addr: &str, works: &[Work], batch: usize) -> (u64, u64) {
    let Ok(mut client) = Client::connect(addr) else {
        eprintln!("loadgen: connect to {addr} failed");
        return (0, works.len() as u64);
    };
    let (mut recvd, mut errors) = (0u64, 0u64);
    for group in works.chunks(batch) {
        match client.batch(group, None) {
            Ok(replies) => {
                for reply in replies {
                    recvd += 1;
                    if let Err((kind, detail)) = reply {
                        errors += 1;
                        eprintln!("loadgen: server error {kind}: {detail}");
                    }
                }
            }
            Err(e) => {
                eprintln!("loadgen: batch failed: {e}");
                return (recvd, errors + (works.len() as u64 - recvd));
            }
        }
    }
    (recvd, errors)
}

struct PassReport {
    requests: u64,
    errors: u64,
    hits: u64,
    misses: u64,
    wall_seconds: f64,
    throughput_rps: f64,
    hit_rate: f64,
    mean_latency_us: f64,
}

fn run_pass(addr: &str, works: &[Work], args: &LoadgenArgs, control: &mut Client) -> PassReport {
    let lines: Vec<String> = if args.batch == 0 {
        works
            .iter()
            .map(|&work| {
                encode_estimate(&EstimateRequest {
                    id: None,
                    work,
                    deadline_ms: None,
                })
            })
            .collect()
    } else {
        Vec::new()
    };
    let before = control.stats().expect("stats RPC");
    let t0 = Instant::now();
    let results: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let work_chunks = chunk_evenly(works, args.concurrency);
        // Batched framing encodes per chunk, so there are no request lines
        // to split; hand every connection an empty (unused) line slice.
        let line_chunks = if args.batch == 0 {
            chunk_evenly(&lines, args.concurrency)
        } else {
            vec![&lines[..]; work_chunks.len()]
        };
        let handles: Vec<_> = work_chunks
            .into_iter()
            .zip(line_chunks)
            .map(|(work_chunk, line_chunk)| {
                scope.spawn(move || {
                    if args.batch == 0 {
                        run_chunk(addr, line_chunk, args.window)
                    } else {
                        run_chunk_batched(addr, work_chunk, args.batch)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chunk thread"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let after = control.stats().expect("stats RPC");
    let responses: u64 = results.iter().map(|(r, _)| r).sum();
    let errors: u64 = results.iter().map(|(_, e)| e).sum();
    let served = after.requests - before.requests;
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    PassReport {
        requests: responses,
        errors,
        hits,
        misses,
        wall_seconds: wall,
        throughput_rps: responses as f64 / wall.max(1e-9),
        hit_rate: if served == 0 {
            0.0
        } else {
            hits as f64 / served as f64
        },
        mean_latency_us: if served == 0 {
            0.0
        } else {
            (after.service_hist.sum() - before.service_hist.sum()) as f64 / served as f64
        },
    }
}

fn chunk_evenly<T>(items: &[T], parts: usize) -> Vec<&[T]> {
    let parts = parts.min(items.len()).max(1);
    let base = items.len() / parts;
    let extra = items.len() % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(&items[start..start + len]);
        start += len;
    }
    out
}

struct Compare {
    requests: usize,
    cold_single_rps: f64,
    cold_batched_rps: f64,
    batched_over_single_cold: f64,
}

/// The compare-phase workload: a sweep of small GPU conv shapes. Small
/// spatial extents keep the analytic estimator in the microsecond range,
/// so cold throughput on these measures protocol and dispatch overhead —
/// exactly what batching amortizes. (The paper workload's layers are
/// evaluation-bound at the millisecond scale; on them the framing
/// difference drowns in compute and the comparison says nothing.)
fn compare_sweep() -> (SweepSpec, Vec<Work>) {
    let base = iconv_tensor::ConvShape::square(1, 3, 8, 16, 3, 1, 1).expect("compare base shape");
    let mut spec = SweepSpec::new(
        base,
        SweepTarget::Gpu {
            algo: iconv_gpusim::GpuAlgo::CudnnImplicit,
        },
    );
    spec.cis = (1..=64).collect();
    spec.strides = vec![1, 2];
    spec.dilations = vec![1, 2];
    let works = spec.expand().expect("compare sweep expands");
    (spec, works)
}

/// Head-to-head framing comparison on the dispatch-bound sweep from
/// [`compare_sweep`]. Both sides run cold on their own fresh in-process
/// server: one `conv` request per item in strict lockstep vs. the whole
/// sweep as a single compact `batch` request.
fn run_compare(workers: usize) -> Compare {
    let (spec, works) = compare_sweep();
    let fresh_server = || {
        spawn(ServerConfig {
            workers,
            ..ServerConfig::default()
        })
        .expect("spawn compare server")
    };

    let cold_single_rps = {
        let handle = fresh_server();
        let addr = handle.local_addr().to_string();
        let mut client =
            Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("compare connect");
        let t0 = Instant::now();
        for &work in &works {
            let line = encode_estimate(&EstimateRequest {
                id: None,
                work,
                deadline_ms: None,
            });
            client.call(&line).expect("compare single estimate");
        }
        let wall = t0.elapsed().as_secs_f64();
        handle.shutdown();
        works.len() as f64 / wall.max(1e-9)
    };

    let cold_batched_rps = {
        let handle = fresh_server();
        let addr = handle.local_addr().to_string();
        let mut client =
            Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("compare connect");
        let t0 = Instant::now();
        client
            .send_line(&encode_sweep(None, &spec, None))
            .expect("compare sweep send");
        client.flush().expect("compare sweep flush");
        let mut lines = 0usize;
        for _ in 0..=works.len() {
            let line = client.recv_line().expect("compare sweep recv");
            assert!(
                !line.contains("\"error\""),
                "compare sweep item failed: {line}"
            );
            lines += 1;
        }
        let wall = t0.elapsed().as_secs_f64();
        handle.shutdown();
        assert_eq!(lines, works.len() + 1, "item span plus summary");
        works.len() as f64 / wall.max(1e-9)
    };

    Compare {
        requests: works.len(),
        cold_single_rps,
        cold_batched_rps,
        batched_over_single_cold: cold_batched_rps / cold_single_rps.max(1e-9),
    }
}

struct CacheCompare {
    threads: usize,
    keys: usize,
    striped_shards: usize,
    global_ops_per_sec: f64,
    striped_ops_per_sec: f64,
    striped_over_global: f64,
}

/// Head-to-head warm-hit hammer: the old cache design (one global
/// `Mutex<LruCache<String>>` whose every hit clones the full response
/// body under the lock) vs. the striped cache (independent shard locks,
/// `Arc` bodies — a hit is a refcount bump). `threads` closed loops read
/// a hot key set as fast as they can; the ratio is the part of the
/// cache-lock bottleneck that striping + shared bodies removed.
fn run_cache_compare(threads: usize) -> CacheCompare {
    const KEYS: usize = 64;
    // Generous on purpose: the hot set must fit even its most skewed
    // shard, so both sides run pure warm hits (capacity is split across
    // shards, and 64 keys do not land 4-per-shard exactly).
    const CAPACITY: usize = 1024;
    const OPS_PER_THREAD: usize = 100_000;
    // A representative body: the rendering of a real TPU estimate
    // response — what the old cache memcpy'd (plus an allocation) on
    // every single hit.
    let body: String = format!(
        "\"ok\":true,\"est\":{{\"cycles\":123456789,\"macs\":987654321,\
         \"tiles\":4096,\"sram_bytes\":262144,\"dram_bytes\":1048576,\
         \"utilization\":\"0.8734\",\"schedule\":\"double-buffered\",\
         \"pipeline\":{:?}}}",
        (0..8).map(|i| i * 17).collect::<Vec<usize>>()
    );
    let keys: Vec<String> = (0..KEYS)
        .map(|k| format!("tpuv3;conv;n1c64h56w56k64r3s3;mode=cf;key-{k}"))
        .collect();

    let hammer = |get: &(dyn Fn(&str) -> usize + Sync)| -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let keys = &keys;
                    scope.spawn(move || {
                        let mut got = 0usize;
                        for i in 0..OPS_PER_THREAD {
                            got += get(&keys[(i + t) % KEYS]);
                        }
                        assert_eq!(got, OPS_PER_THREAD, "every warm get must hit");
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("hammer thread");
            }
        });
        (threads * OPS_PER_THREAD) as f64 / t0.elapsed().as_secs_f64().max(1e-9)
    };

    let global_ops_per_sec = {
        let cache = Mutex::new(LruCache::<String>::new(CAPACITY));
        for key in &keys {
            cache.lock().unwrap().insert(key.clone(), body.clone());
        }
        hammer(&|key| {
            // The pre-striping hit path: full body clone while holding
            // the one lock every other connection needs.
            let cloned: Option<String> = cache.lock().unwrap().get(key);
            usize::from(cloned.is_some())
        })
    };

    let striped_shards = StripedCache::DEFAULT_SHARDS;
    let striped_ops_per_sec = {
        let cache = StripedCache::new(CAPACITY, striped_shards);
        let shared: Body = Arc::from(body.as_str());
        for key in &keys {
            cache.insert(key.clone(), Arc::clone(&shared));
        }
        hammer(&|key| usize::from(cache.get(key).is_some()))
    };

    CacheCompare {
        threads,
        keys: KEYS,
        striped_shards,
        global_ops_per_sec,
        striped_ops_per_sec,
        striped_over_global: striped_ops_per_sec / global_ops_per_sec.max(1e-9),
    }
}

fn write_report(
    args: &LoadgenArgs,
    n_requests: usize,
    final_stats: &StatsSnapshot,
    passes: &[PassReport],
    compare: &Compare,
    cache_compare: &CacheCompare,
) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"bench\": \"serve\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"concurrency\": {}, \"window\": {}, \"passes\": {}, \
         \"requests_per_pass\": {}, \"workers\": {}, \"batch\": {}}},\n",
        args.concurrency, args.window, args.passes, n_requests, final_stats.workers, args.batch
    ));
    out.push_str("  \"passes\": [\n");
    for (i, p) in passes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"pass\": {}, \"requests\": {}, \"errors\": {}, \"hits\": {}, \
             \"misses\": {}, \"wall_seconds\": {:.6}, \"throughput_rps\": {:.1}, \
             \"hit_rate\": {:.4}, \"mean_latency_us\": {:.1}}}{}\n",
            i,
            p.requests,
            p.errors,
            p.hits,
            p.misses,
            p.wall_seconds,
            p.throughput_rps,
            p.hit_rate,
            p.mean_latency_us,
            if i + 1 < passes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let second_hit = passes.get(1).map_or(0.0, |p| p.hit_rate);
    let warm_over_cold = match (passes.first(), passes.last()) {
        (Some(cold), Some(warm)) if passes.len() > 1 && cold.throughput_rps > 0.0 => {
            warm.throughput_rps / cold.throughput_rps
        }
        _ => 1.0,
    };
    out.push_str(&format!("  \"second_pass_hit_rate\": {second_hit:.4},\n"));
    out.push_str(&format!(
        "  \"warm_over_cold_throughput\": {warm_over_cold:.2},\n"
    ));
    out.push_str(&format!(
        "  \"compare\": {{\"requests\": {}, \"cold_single_rps\": {:.1}, \
         \"cold_batched_rps\": {:.1}, \"batched_over_single_cold\": {:.2}}},\n",
        compare.requests,
        compare.cold_single_rps,
        compare.cold_batched_rps,
        compare.batched_over_single_cold
    ));
    out.push_str(&format!(
        "  \"cache_compare\": {{\"threads\": {}, \"keys\": {}, \"striped_shards\": {}, \
         \"global_ops_per_sec\": {:.1}, \"striped_ops_per_sec\": {:.1}, \
         \"striped_over_global\": {:.2}}},\n",
        cache_compare.threads,
        cache_compare.keys,
        cache_compare.striped_shards,
        cache_compare.global_ops_per_sec,
        cache_compare.striped_ops_per_sec,
        cache_compare.striped_over_global
    ));
    out.push_str(&format!(
        "  \"final_stats\": {{\"requests\": {}, \"hits\": {}, \"misses\": {}, \
         \"evictions\": {}, \"cache_entries\": {}, \"busy_rejections\": {}, \
         \"latency_us_max\": {}, \"batches\": {}, \"batch_items\": {}, \
         \"batch_hits\": {}, \"batch_misses\": {}, \"batch_errors\": {}}}\n}}\n",
        final_stats.requests,
        final_stats.hits,
        final_stats.misses,
        final_stats.evictions,
        final_stats.cache_entries,
        final_stats.busy_rejections,
        final_stats.service_hist.max(),
        final_stats.batches,
        final_stats.batch_items,
        final_stats.batch_hits,
        final_stats.batch_misses,
        final_stats.batch_errors
    ));
    std::fs::write(&args.out, out)
}

fn main() {
    let args = match parse_loadgen_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(err) => {
            eprintln!("loadgen: {err}");
            std::process::exit(2);
        }
    };
    // Either connect out, or boot an in-process server.
    let (addr, local) = match &args.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let handle = spawn(ServerConfig {
                workers: args.workers,
                ..ServerConfig::default()
            })
            .expect("spawn in-process server");
            (handle.local_addr().to_string(), Some(handle))
        }
    };
    let mut control = match Client::connect_retry(&addr, args.connect_timeout) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: cannot reach {addr}: {e}");
            std::process::exit(1);
        }
    };
    let works = pass_leg_works(args.small, &args.pass).expect("pass validated at parse");
    eprintln!(
        "loadgen: {} requests/pass x {} passes, {} connection(s), {}",
        works.len(),
        args.passes,
        args.concurrency,
        if args.batch == 0 {
            format!("window {}", args.window)
        } else {
            format!("batches of {}", args.batch)
        }
    );

    let mut passes = Vec::with_capacity(args.passes);
    for i in 0..args.passes {
        let p = run_pass(&addr, &works, &args, &mut control);
        eprintln!(
            "  pass {i}: {:>6} req in {:>7.3}s  {:>9.1} req/s  hit-rate {:>5.1}%  \
             mean latency {:>8.1}us{}",
            p.requests,
            p.wall_seconds,
            p.throughput_rps,
            100.0 * p.hit_rate,
            p.mean_latency_us,
            if p.errors > 0 {
                format!("  ({} errors)", p.errors)
            } else {
                String::new()
            }
        );
        passes.push(p);
    }

    let final_stats = control.stats().expect("stats RPC");
    if passes.len() > 1 {
        let cold = passes[0].throughput_rps;
        let warm = passes.last().unwrap().throughput_rps;
        eprintln!(
            "loadgen: warm/cold throughput {:.1}x, second-pass hit rate {:.1}%",
            warm / cold.max(1e-9),
            100.0 * passes[1].hit_rate
        );
    }

    // Framing comparison on fresh in-process servers (independent of
    // --addr: the point is the framing, not the target server's state).
    let compare = run_compare(args.workers);
    eprintln!(
        "loadgen: compare ({} GPU requests, cold): single {:.0} req/s, batched {:.0} req/s \
         ({:.1}x)",
        compare.requests,
        compare.cold_single_rps,
        compare.cold_batched_rps,
        compare.batched_over_single_cold
    );

    // Striped-vs-global warm-hit comparison (in-process, independent of
    // the target server: the point is the cache's lock architecture).
    let cache_compare = run_cache_compare(args.concurrency);
    eprintln!(
        "loadgen: cache compare ({} threads, {} hot keys): global-lock {:.2}M ops/s, \
         striped {:.2}M ops/s ({:.1}x)",
        cache_compare.threads,
        cache_compare.keys,
        cache_compare.global_ops_per_sec / 1e6,
        cache_compare.striped_ops_per_sec / 1e6,
        cache_compare.striped_over_global
    );

    match write_report(
        &args,
        works.len(),
        &final_stats,
        &passes,
        &compare,
        &cache_compare,
    ) {
        Ok(()) => eprintln!("loadgen: wrote {}", args.out),
        Err(e) => {
            eprintln!("loadgen: could not write {}: {e}", args.out);
            std::process::exit(1);
        }
    }
    if args.shutdown {
        let _ = control.shutdown_server();
    }
    if let Some(handle) = local {
        handle.shutdown();
    }
    let errors: u64 = passes.iter().map(|p| p.errors).sum();
    if errors > 0 {
        eprintln!("loadgen: {errors} request(s) failed");
        std::process::exit(1);
    }
}
