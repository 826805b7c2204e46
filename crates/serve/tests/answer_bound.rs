//! A client that keeps sending and never reads holds a bounded share of a
//! server. A connection owes its client at most `MAX_OWED_LINES` unwritten
//! answer lines; past that its reader stops reading and TCP pushes back on
//! the client. So the request ledger stops growing, at the bound plus what
//! the sockets between server and client can hold. That allowance comes
//! from the kernel's TCP buffer limits, read from `/proc/sys`, which makes
//! this file Linux-only. The same client cannot hold a graceful shutdown
//! open either.
#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use iconv_serve::{spawn, spawn_router, Client, RouterConfig, ServerConfig, MAX_OWED_LINES};

/// Sweep lines the flooding client sends at most.
const LINES: usize = 4_000;
/// Items per sweep: 16 input-channel counts × 4 strides × 4 dilations.
const ITEMS: usize = 256;
/// How long `shutdown` may take while a client that never reads is
/// connected: the one-second drain bound plus slack.
const SHUTDOWN_BOUND: Duration = Duration::from_secs(5);

fn sweep_line() -> String {
    let cis: Vec<String> = (1..=16).map(|c| c.to_string()).collect();
    format!(
        concat!(
            r#"{{"op":"batch","sweep":{{"target":"tpu","mode":"channel-first","#,
            r#""layer":{{"n":1,"ci":8,"hi":14,"wi":14,"co":16,"hf":3,"wf":3,"pad":1}},"#,
            r#""cis":[{}],"strides":[1,2,3,4],"dilations":[1,2,3,4]}}}}"#
        ),
        cis.join(",")
    )
}

/// Send one sweep, so that every later one is answered from the cache, and
/// return the length of its shortest item line, newline included.
fn warm(addr: &str) -> u64 {
    let mut c = Client::connect(addr).expect("connect");
    c.send_line(&sweep_line()).expect("send");
    c.flush().expect("flush");
    let lines: Vec<String> = (0..=ITEMS).map(|_| c.recv_line().expect("recv")).collect();
    let summary = format!(r#""batch":{{"items":{ITEMS},"errors":0}}"#);
    assert!(lines[ITEMS].contains(&summary), "{}", lines[ITEMS]);
    lines[..ITEMS]
        .iter()
        .map(|l| l.len() as u64 + 1)
        .min()
        .expect("items")
}

/// Connect and send sweep lines without ever reading, until a send times
/// out or `LINES` lines are out.
fn flood(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .expect("write timeout");
    let line = format!("{}\n", sweep_line());
    for _ in 0..LINES {
        if stream.write_all(line.as_bytes()).is_err() {
            break;
        }
    }
    stream
}

/// Poll `requests` on `addr` until it holds still for half a second, and
/// return it; fail as soon as it passes `limit`.
fn plateau(addr: &str, limit: u64) -> u64 {
    let mut c = Client::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(60);
    let (mut last, mut since) = (u64::MAX, Instant::now());
    loop {
        let now = c.stats().expect("stats").requests;
        assert!(
            now <= limit,
            "requests reached {now}, over the bound {limit}"
        );
        if now != last {
            (last, since) = (now, Instant::now());
        } else if since.elapsed() >= Duration::from_millis(500) {
            return now;
        }
        assert!(Instant::now() < deadline, "requests never held still");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The most items a server can have answered for a client that never
/// reads, past the `ITEMS` of the warm-up: every line it owes, plus the
/// item lines of `min_line` bytes that the writer's 8 KiB buffer and the
/// largest send and receive buffers the kernel grows a TCP socket to can
/// hold between them.
fn limit(min_line: u64) -> u64 {
    let max = |knob: &str| -> u64 {
        let path = format!("/proc/sys/net/ipv4/{knob}");
        let values = std::fs::read_to_string(&path).expect("read a TCP buffer limit");
        let last = values.split_whitespace().last().expect("min, default, max");
        last.parse().expect("a byte count")
    };
    let sockets = max("tcp_wmem") + max("tcp_rmem") + 8 * 1024;
    ITEMS as u64 + MAX_OWED_LINES as u64 + sockets / min_line + 1
}

/// Run `shutdown` on a thread of its own and wait up to `SHUTDOWN_BOUND`.
fn assert_bounded(shutdown: impl FnOnce() + Send + 'static) {
    let (done, finished) = channel();
    std::thread::spawn(move || {
        shutdown();
        let _ = done.send(());
    });
    assert!(
        finished.recv_timeout(SHUTDOWN_BOUND).is_ok(),
        "shutdown still running after {SHUTDOWN_BOUND:?} with a client that never reads"
    );
}

#[test]
fn a_client_that_never_reads_holds_a_bounded_share_of_served() {
    let server = spawn(ServerConfig::default()).expect("spawn");
    let addr = server.local_addr().to_string();
    let limit = limit(warm(&addr));
    let flood = flood(&addr);
    let held = plateau(&addr, limit);
    assert!(held > ITEMS as u64, "the flood was never admitted");
    drop(flood);
    server.shutdown();
}

#[test]
fn through_routed_the_backend_stays_bounded_too() {
    let backend = spawn(ServerConfig::default()).expect("spawn backend");
    let backend_addr = backend.local_addr().to_string();
    let router = spawn_router(RouterConfig {
        backends: vec![backend_addr.clone()],
        ..RouterConfig::default()
    })
    .expect("spawn router");
    let addr = router.local_addr().to_string();
    let limit = limit(warm(&addr));
    let flood = flood(&addr);
    let held = plateau(&backend_addr, limit);
    assert!(held > ITEMS as u64, "the flood never reached the backend");
    drop(flood);
    router.shutdown();
    backend.shutdown();
}

#[test]
fn served_shutdown_does_not_wait_for_a_client_that_never_reads() {
    let server = spawn(ServerConfig::default()).expect("spawn");
    let addr = server.local_addr().to_string();
    warm(&addr);
    let flood = flood(&addr);
    plateau(&addr, u64::MAX);
    assert_bounded(move || {
        server.shutdown();
    });
    drop(flood);
}

#[test]
fn routed_shutdown_does_not_wait_for_a_client_that_never_reads() {
    let backend = spawn(ServerConfig::default()).expect("spawn backend");
    let backend_addr = backend.local_addr().to_string();
    let router = spawn_router(RouterConfig {
        backends: vec![backend_addr.clone()],
        ..RouterConfig::default()
    })
    .expect("spawn router");
    let addr = router.local_addr().to_string();
    warm(&addr);
    let flood = flood(&addr);
    plateau(&backend_addr, u64::MAX);
    assert_bounded(move || {
        router.shutdown();
    });
    drop(flood);
    backend.shutdown();
}
