//! `tune` as a first-class serve op, end to end:
//!
//! * **Byte-identity** — one `(shape, target)` has one answer, whatever the
//!   worker count, the shard count, or whether the request crossed a
//!   `routed` front-end; `"hw":"tuned"` estimates are byte-identical to the
//!   concrete estimate the winning config denotes.
//! * **Ledger** — `tunes == tune_searches + tune_cached` at every quiescent
//!   point, through single requests, batch framing, and store hits.
//! * **Persistence** — a server with `--tune-cache` saves its store on
//!   shutdown and boots warm: the next boot answers tunes without a search
//!   and refuses to boot at all on a corrupt cache file.

use std::time::Duration;

use iconv_serve::client::RetryPolicy;
use iconv_serve::protocol::{encode_estimate, encode_tuned_estimate};
use iconv_serve::router::{spawn_router, RouterConfig};
use iconv_serve::{
    spawn, Client, Estimate, EstimateRequest, Response, ServerConfig, TpuChip, TuneEstimate,
    TuneTarget, Work, DEFAULT_CONNECT_TIMEOUT,
};
use iconv_tensor::ConvShape;

/// One `tune` op's search result.
fn tune(c: &mut Client, shape: ConvShape, target: TuneTarget) -> TuneEstimate {
    match c.estimate(&Work::Tune { shape, target }).expect("tune") {
        Estimate::Tune(est) => est,
        other => panic!("a tune answered {other:?}"),
    }
}

fn shapes() -> Vec<ConvShape> {
    vec![
        ConvShape::square(1, 16, 14, 16, 3, 1, 1).unwrap(),
        ConvShape::square(2, 32, 8, 24, 3, 1, 1).unwrap(),
        ConvShape::square(1, 8, 10, 8, 1, 1, 0).unwrap(),
    ]
}

fn targets() -> Vec<TuneTarget> {
    vec![
        TuneTarget::Tpu { chip: TpuChip::V2 },
        TuneTarget::Tpu { chip: TpuChip::V3 },
        TuneTarget::Gpu,
    ]
}

/// Replay every `(shape, target)` as a `tune` op plus a `"hw":"tuned"`
/// conv, returning raw response lines in request order.
fn replay_tunes(addr: &str, shapes: &[ConvShape], targets: &[TuneTarget]) -> Vec<String> {
    let mut c = Client::connect_retry(addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    let mut out = Vec::new();
    for (i, shape) in shapes.iter().enumerate() {
        for (j, target) in targets.iter().enumerate() {
            let id = format!("t{i}-{j}");
            let line = encode_estimate(&EstimateRequest {
                id: Some(id),
                work: Work::Tune {
                    shape: *shape,
                    target: *target,
                },
                deadline_ms: None,
            });
            c.send_line(&line).expect("send");
            c.flush().expect("flush");
            out.push(c.recv_line().expect("recv"));
            let id = format!("e{i}-{j}");
            let line = encode_tuned_estimate(Some(&id), shape, target, None);
            c.send_line(&line).expect("send");
            c.flush().expect("flush");
            out.push(c.recv_line().expect("recv"));
        }
    }
    out
}

#[test]
fn tune_is_byte_identical_across_workers_shards_and_routed() {
    let shapes = shapes();
    let targets = targets();

    let mut reference: Option<Vec<String>> = None;
    for (workers, shards) in [(1usize, 1usize), (4, 0)] {
        let handle = spawn(ServerConfig {
            workers,
            cache_shards: shards,
            ..ServerConfig::default()
        })
        .expect("spawn server");
        let got = replay_tunes(&handle.local_addr().to_string(), &shapes, &targets);
        let stats = handle.shutdown();
        assert_eq!(
            stats.tunes,
            stats.tune_searches + stats.tune_cached,
            "{workers}w/{shards}s: tune ledger leaked"
        );
        // One search per distinct tune key: the tune op leads it, the
        // tuned conv replays the store.
        assert_eq!(stats.tune_searches, (shapes.len() * targets.len()) as u64);
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "bytes changed at {workers}w/{shards}s"),
        }
    }
    let reference = reference.unwrap();

    // Through a routed fleet: same bytes, and tune affinity keeps each
    // key's search on one backend (fleet-wide searches == distinct keys).
    let backends: Vec<_> = (0..3)
        .map(|_| spawn(ServerConfig::default()).expect("spawn backend"))
        .collect();
    let router = spawn_router(RouterConfig {
        backends: backends
            .iter()
            .map(|h| h.local_addr().to_string())
            .collect(),
        breaker_threshold: 2,
        breaker_backoff: RetryPolicy {
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(100),
            ..RetryPolicy::default()
        },
        health_interval: Duration::from_millis(50),
        connect_timeout: Duration::from_millis(200),
        ..RouterConfig::default()
    })
    .expect("spawn router");
    let got = replay_tunes(&router.local_addr().to_string(), &shapes, &targets);
    assert_eq!(got, reference, "routed fleet changed tune bytes");
    router.shutdown();
    let mut searches = 0;
    for b in backends {
        let stats = b.shutdown();
        assert_eq!(stats.tunes, stats.tune_searches + stats.tune_cached);
        searches += stats.tune_searches;
    }
    assert_eq!(searches, (shapes.len() * targets.len()) as u64);
}

#[test]
fn tuned_estimate_matches_the_concrete_work_it_denotes() {
    let shape = shapes()[0];
    let handle = spawn(ServerConfig::default()).expect("spawn server");
    let addr = handle.local_addr().to_string();
    let mut c = Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    for target in targets() {
        let est = tune(&mut c, shape, target);
        assert!(
            est.tuned_cycles <= est.default_cycles,
            "{target:?}: tuned {} > default {}",
            est.tuned_cycles,
            est.default_cycles
        );
        // The tuned conv's bytes equal the concrete estimate's bytes for
        // the winning config, id for id.
        let concrete = encode_estimate(&EstimateRequest {
            id: Some("x".into()),
            work: est.best.to_work(shape),
            deadline_ms: None,
        });
        c.send_line(&concrete).expect("send");
        c.flush().expect("flush");
        let want = c.recv_line().expect("recv");
        let tuned = encode_tuned_estimate(Some("x"), &shape, &target, None);
        c.send_line(&tuned).expect("send");
        c.flush().expect("flush");
        assert_eq!(c.recv_line().expect("recv"), want, "{target:?}");
    }
    handle.shutdown();
}

#[test]
fn batch_framed_tunes_keep_the_ledger_conserved() {
    let shapes = shapes();
    let handle = spawn(ServerConfig::default()).expect("spawn server");
    let addr = handle.local_addr().to_string();
    let mut c = Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");

    // A batch mixing tunes (with an intra-batch duplicate) and a plain
    // conv: the duplicate collapses onto one search and counts as cached.
    let works = vec![
        Work::Tune {
            shape: shapes[0],
            target: TuneTarget::Tpu { chip: TpuChip::V2 },
        },
        Work::TpuConv {
            shape: shapes[1],
            mode: iconv_tpusim::SimMode::ChannelFirst,
            hw: Default::default(),
        },
        Work::Tune {
            shape: shapes[0],
            target: TuneTarget::Tpu { chip: TpuChip::V2 },
        },
        Work::Tune {
            shape: shapes[1],
            target: TuneTarget::Gpu,
        },
    ];
    let results = c.batch(&works, None).expect("batch");
    assert_eq!(results.len(), works.len());
    for r in &results {
        assert!(r.is_ok(), "batch item failed: {r:?}");
    }
    // Replaying the same batch is all cached.
    let again = c.batch(&works, None).expect("batch again");
    assert_eq!(again.len(), works.len());

    let stats = handle.shutdown();
    assert_eq!(stats.tunes, stats.tune_searches + stats.tune_cached);
    assert_eq!(stats.tune_searches, 2, "two distinct tune keys");
    assert_eq!(stats.tunes, 6, "three tune items per batch, two batches");
    assert_eq!(
        stats.batch_hits + stats.batch_misses + stats.batch_errors,
        stats.batch_items
    );
}

#[test]
fn tune_cache_file_survives_restart_and_rejects_corruption() {
    let dir = std::env::temp_dir().join(format!("iconv-tune-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("tune_cache.json");
    let _ = std::fs::remove_file(&path);
    let shape = shapes()[0];
    let target = TuneTarget::Tpu { chip: TpuChip::V2 };

    // Boot 1: cold store, one search, saved on shutdown.
    let cfg = || ServerConfig {
        tune_cache_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let handle = spawn(cfg()).expect("spawn cold");
    let addr = handle.local_addr().to_string();
    let mut c = Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    let cold = tune(&mut c, shape, target);
    let stats = handle.shutdown();
    assert_eq!(stats.tune_searches, 1);
    assert!(path.exists(), "shutdown must persist the tune store");

    // Boot 2: warm store — same answer, zero searches, and the seeded
    // response cache makes the tune op itself a hit.
    let handle = spawn(cfg()).expect("spawn warm");
    let addr = handle.local_addr().to_string();
    let mut c = Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    let warm = tune(&mut c, shape, target);
    assert_eq!(warm, cold, "restart changed the tuned answer");
    let resp = c
        .call(&encode_tuned_estimate(Some("w"), &shape, &target, None))
        .expect("tuned conv");
    assert!(
        !matches!(resp, Response::Error { .. }),
        "tuned conv failed warm: {resp:?}"
    );
    let stats = handle.shutdown();
    assert_eq!(stats.tune_searches, 0, "warm boot must not re-search");
    assert_eq!(stats.tunes, stats.tune_cached);

    // Boot 3: corrupt file refuses boot instead of serving cold silently.
    std::fs::write(&path, "{\"version\":1,\"entries\":[garbage").expect("corrupt");
    match spawn(cfg()) {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}"),
        Ok(_) => panic!("corrupt tune cache must refuse boot"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}
