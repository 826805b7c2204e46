//! Single-flight regression: two connections missing the same key at the
//! same time must run **one** simulation — the second caller joins the
//! first's flight and is counted as a hit. Before single-flight, this
//! exact shape (a popular key arriving on N connections while cold)
//! simulated N times and counted N misses: the thundering-herd form of
//! the cache-lock bottleneck.
//!
//! The race is made deterministic with a runway: a single-worker server
//! is first loaded with a large batch of *distinct* heavy layers on a
//! third connection, so the racing key's leader job sits in the queue —
//! still in flight — while the second connection admits and joins.
//!
//! The same holds for the design-space search behind `"hw":"tuned"`: two
//! first-time askers for one layer share one search, and so do a plain
//! `tune` op and a tuned conv of the same layer. The runner that searches
//! stores the winner before it completes the flight, which is where the
//! tuned conv that joined it reads the winner from.

use iconv_api::table::workload_works;
use iconv_serve::engine::evaluate;
use iconv_serve::protocol::{
    encode_batch, encode_estimate, encode_tuned_estimate, finish_response, parse_response,
};
use iconv_serve::{
    spawn, Client, EstimateRequest, Response, ServerConfig, ServerHandle, TpuChip, TuneTarget,
    Work, DEFAULT_CONNECT_TIMEOUT,
};
use iconv_tensor::ConvShape;
use iconv_tpusim::SimMode;

/// The racing request: a layer that is *not* in the workload table, so
/// the runway batch can never have cached it.
fn racing_shape() -> ConvShape {
    ConvShape::new(1, 96, 31, 31, 96, 3, 3)
        .stride(1)
        .pad(1)
        .build()
        .expect("buildable shape")
}

fn racing_work() -> Work {
    Work::TpuConv {
        shape: racing_shape(),
        mode: SimMode::ChannelFirst,
        hw: iconv_serve::TpuHwSpec::default(),
    }
}

/// Spawn a single-worker server, load it with the runway, and race `line_a`
/// and `line_b` from two fresh connections. Returns both replies, the
/// runway length, and the handle (runway drained, so shutdown sees a quiet
/// server).
fn race_on_runway(line_a: &str, line_b: &str) -> (String, String, u64, ServerHandle) {
    let handle = spawn(ServerConfig {
        workers: 1,
        cache_capacity: 4096,
        ..ServerConfig::default()
    })
    .expect("spawn serve");
    let addr = handle.local_addr().to_string();

    // Runway: every distinct layer of the paper's workload table (deduped
    // by canonical key, so each is exactly one miss), pipelined as one
    // batch and left unread. The single worker grinds through these while
    // the race below happens at connection-handler speed.
    let mut seen = std::collections::HashSet::new();
    let runway: Vec<Work> = workload_works(false)
        .into_iter()
        .filter(|w| seen.insert(iconv_serve::canonical_key(w)))
        .collect();
    assert!(runway.len() >= 32, "runway too short to be convincing");
    let mut loader = Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    loader
        .send_line(&encode_batch(None, &runway, None))
        .expect("send runway");
    loader.flush().expect("flush runway");
    // Its first item line proves the runway's admission pass is over and
    // the worker is busy, so A's job below queues instead of running at
    // once.
    loader.recv_line().expect("first runway item");

    // The race: the same uncached key from two connections. Connection A's
    // handler admits as leader and queues the job behind the runway;
    // connection B's handler then finds the flight open and joins it.
    let mut a = Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    let mut b = Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    a.send_line(line_a).expect("send a");
    a.flush().expect("flush a");
    b.send_line(line_b).expect("send b");
    b.flush().expect("flush b");

    let ra = a.recv_line().expect("a answered");
    let rb = b.recv_line().expect("b answered");

    // The rest of the runway: its remaining items plus the summary.
    for _ in 0..runway.len() {
        loader.recv_line().expect("runway item");
    }
    (ra, rb, runway.len() as u64, handle)
}

#[test]
fn concurrent_misses_of_one_key_simulate_once() {
    let line = encode_estimate(&EstimateRequest {
        id: None,
        work: racing_work(),
        deadline_ms: None,
    });
    let (ra, rb, runway_n, handle) = race_on_runway(&line, &line);
    assert_eq!(ra, rb, "joiner must read the leader's exact bytes");
    assert!(ra.contains("\"ok\":true"), "the race must succeed: {ra}");

    let stats = handle.shutdown();
    // The runway's layers are distinct so each is a miss; the racing key
    // must add exactly ONE more miss (the leader) and ONE hit (the joiner).
    // Without single-flight this reads misses == runway + 2, hits == 0.
    assert_eq!(
        stats.misses,
        runway_n + 1,
        "exactly one simulation for the racing key"
    );
    assert_eq!(stats.hits, 1, "the second caller counts as a hit");
    assert_eq!(
        stats.requests,
        runway_n + 2,
        "2 estimate requests + {runway_n} batch items served"
    );
    assert_eq!(
        stats.hits + stats.misses,
        stats.requests,
        "every served request hit or missed — the ledger is conserved"
    );
}

#[test]
fn concurrent_tuned_misses_of_one_layer_search_once() {
    let target = TuneTarget::Tpu { chip: TpuChip::V2 };
    let line = encode_tuned_estimate(None, &racing_shape(), &target, None);
    let (ra, rb, _, handle) = race_on_runway(&line, &line);
    assert_eq!(ra, rb, "joiner must read the leader's exact bytes");
    assert!(ra.contains("\"ok\":true"), "the race must succeed: {ra}");

    let stats = handle.shutdown();
    // The second store miss joins the first's search instead of running
    // its own; without single-flight this reads tune_searches == 2.
    assert_eq!(stats.tune_searches, 1, "exactly one search for the layer");
    assert_eq!(stats.tune_cached, 1, "the joiner's resolve is cached");
    assert_eq!(stats.tunes, stats.tune_searches + stats.tune_cached);
    assert_eq!(stats.hits + stats.misses, stats.requests);
}

#[test]
fn a_tuned_conv_and_a_tune_of_one_layer_search_once() {
    let shape = racing_shape();
    let target = TuneTarget::Tpu { chip: TpuChip::V2 };
    let tune = encode_estimate(&EstimateRequest {
        id: None,
        work: Work::Tune { shape, target },
        deadline_ms: None,
    });
    let tuned = encode_tuned_estimate(None, &shape, &target, None);
    let (ra, rb, _, handle) = race_on_runway(&tune, &tuned);
    let Ok(Response::Tune { est, .. }) = parse_response(&ra) else {
        panic!("the tune must succeed: {ra}");
    };
    // The tuned conv answers with the bytes of the winner's own estimate.
    let concrete = finish_response(None, &evaluate(&est.best.to_work(shape)));
    assert_eq!(rb, concrete, "tuned conv vs the winner's concrete estimate");

    let stats = handle.shutdown();
    // Whichever line leads the search, the other joins it or reads the
    // store; without single-flight this reads tune_searches == 2.
    assert_eq!(stats.tune_searches, 1, "exactly one search for the layer");
    assert_eq!(stats.tunes, 2, "the tune and the tuned conv's resolve");
    assert_eq!(stats.tunes, stats.tune_searches + stats.tune_cached);
    assert_eq!(stats.hits + stats.misses, stats.requests);
}
