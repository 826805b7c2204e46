//! A long-running server must not hold a descriptor per connection it ever
//! accepted: `routed`'s health loop alone opens a connection to each
//! backend every 250 ms. Open descriptors belong to the whole process, so
//! this check has a test binary of its own.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use iconv_serve::router::{spawn_router, RouterConfig};
use iconv_serve::{spawn, Client, ServerConfig};

/// Connect–ping–close cycles against each listener.
const CYCLES: usize = 200;
/// Descriptors the count may stay above where it started: a health probe
/// or a connection still closing.
const SLACK: usize = 8;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .count()
}

#[test]
fn ended_connections_release_their_descriptors() {
    let backend = spawn(ServerConfig::default()).expect("spawn served");
    let router = spawn_router(RouterConfig {
        backends: vec![backend.local_addr().to_string()],
        health_interval: Duration::from_secs(60),
        ..RouterConfig::default()
    })
    .expect("spawn routed");
    let before = open_fds();
    for _ in 0..CYCLES {
        let mut c = Client::connect(backend.local_addr()).expect("connect served");
        c.ping().expect("ping served");
        // Through the router, `stats` also opens a link to the backend.
        let mut c = Client::connect(router.local_addr()).expect("connect routed");
        c.ping().expect("ping routed");
        c.stats().expect("stats routed");
    }
    // The servers' connection threads end shortly after each client closes.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut now = open_fds();
    while now > before + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        now = open_fds();
    }
    assert!(
        now <= before + SLACK,
        "{now} descriptors open after {CYCLES} closed connections to each of served \
         and routed, {before} before"
    );
    router.shutdown();
    backend.shutdown();
}
