//! The router's pipeline, pinned by ordering rather than timing. Fake
//! backends — plain listeners that speak just enough protocol, `ping`
//! included for the health loop — hold answers until a later line has
//! arrived, which only a router that sends before it gathers can deliver:
//! a batch's sub-batches are all sent before any answer is read, and a
//! connection's next line is forwarded before the previous answer is back.
//! Failover under pipelining, prompt failover from a backend that refuses
//! connections, failover of a line already sent to a backend that never
//! answers, shutdown of listeners bound to an unspecified address, a
//! prompt shutdown under a long health interval, and a health probe that
//! gives up on a backend that never answers are pinned here too.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iconv_api::table::workload_works;
use iconv_api::HashRing;
use iconv_serve::client::RetryPolicy;
use iconv_serve::protocol::{
    encode_batch, encode_estimate, encode_simple, finish_response, parse_request, pong_body,
};
use iconv_serve::router::{spawn_router, BreakerState, RouterConfig, RouterHandle, DEFAULT_VNODES};
use iconv_serve::{
    canonical_key, spawn, Client, EstimateRequest, Request, ServerConfig, Work,
    DEFAULT_CONNECT_TIMEOUT,
};

/// How long a fake holds an answer for the line it waits on.
const HOLD: Duration = Duration::from_secs(5);

/// One connection to a fake backend.
struct FakeConn {
    reader: BufReader<TcpStream>,
    out: TcpStream,
    pings: Sender<()>,
}

impl FakeConn {
    /// The next request line, answering any `ping` on the way; `None` at
    /// EOF or when the read timeout passes.
    fn next(&mut self) -> Option<String> {
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line).ok()? == 0 {
                return None;
            }
            if !matches!(parse_request(line.trim_end()), Ok(Request::Ping { .. })) {
                return Some(line.trim_end().to_owned());
            }
            self.send(&finish_response(None, &pong_body()));
            let _ = self.pings.send(());
        }
    }

    fn send(&mut self, line: &str) {
        let _ = writeln!(self.out, "{line}");
    }

    fn set_timeout(&self, timeout: Option<Duration>) {
        self.out.set_read_timeout(timeout).expect("set timeout");
    }
}

/// A fake backend: every connection is handed to `handle` on a thread of
/// its own. Its pings arrive on `pings`.
struct Fake {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    pings: Receiver<()>,
}

impl Fake {
    fn spawn(handle: impl Fn(FakeConn) + Send + Sync + 'static) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake");
        let addr = listener.local_addr().expect("fake addr");
        let stop = Arc::new(AtomicBool::new(false));
        let (pings_tx, pings) = channel();
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                std::thread::scope(|s| {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(out) = stream else { continue };
                        let reader = BufReader::new(out.try_clone().expect("clone"));
                        let conn = FakeConn {
                            reader,
                            out,
                            pings: pings_tx.clone(),
                        };
                        let handle = &handle;
                        s.spawn(move || handle(conn));
                    }
                });
            })
        };
        Self {
            addr,
            stop,
            acceptor: Some(acceptor),
            pings,
        }
    }

    fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Stop accepting and wait for every connection's handler to end.
    fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        self.acceptor.take().expect("running").join().expect("fake");
    }
}

/// Counts arrivals; each arriver waits up to [`HOLD`] for all of them.
#[derive(Default)]
struct Rendezvous {
    arrived: Mutex<usize>,
    cv: Condvar,
}

impl Rendezvous {
    /// Arrive, then wait for `n` arrivals in all; false if they never came.
    fn arrive(&self, n: usize) -> bool {
        let mut arrived = self.arrived.lock().expect("rendezvous");
        *arrived += 1;
        self.cv.notify_all();
        let (arrived, _) = self
            .cv
            .wait_timeout_while(arrived, HOLD, |a| *a < n)
            .expect("rendezvous");
        *arrived >= n
    }
}

fn router(backends: Vec<String>) -> RouterHandle {
    spawn_router(RouterConfig {
        backends,
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
    .expect("spawn router")
}

/// Distinct paper-workload items.
fn works(n: usize) -> Vec<Work> {
    let mut seen = HashSet::new();
    workload_works(true)
        .into_iter()
        .filter(|w| seen.insert(canonical_key(w)))
        .take(n)
        .collect()
}

/// Items of a batch request line (`None` for any other line).
fn batch_items(line: &str) -> Option<usize> {
    match parse_request(line) {
        Ok(Request::Batch { items, .. }) => Some(items.len()),
        _ => None,
    }
}

/// Send every line at once, then read `n` answer lines.
fn pipelined(addr: &str, lines: &[String], n: usize) -> Vec<String> {
    let mut c = Client::connect_retry(addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    for line in lines {
        c.send_line(line).expect("send");
    }
    c.flush().expect("flush");
    (0..n).map(|_| c.recv_line().expect("recv")).collect()
}

#[test]
fn batch_is_sent_to_every_backend_before_any_answer_is_read() {
    // Each fake holds its sub-batch's answer until both have received one.
    let rendezvous = Arc::new(Rendezvous::default());
    let met = Arc::new(Mutex::new(Vec::new()));
    let fake = |tag: &'static str| {
        let (rendezvous, met) = (Arc::clone(&rendezvous), Arc::clone(&met));
        Fake::spawn(move |mut conn| {
            while let Some(line) = conn.next() {
                let n = batch_items(&line).expect("sub-batch");
                let all_arrived = rendezvous.arrive(2);
                met.lock().expect("met").push(all_arrived);
                for j in 0..n {
                    conn.send(&format!(r#"{{"item":{j},"ok":true,"from":"{tag}"}}"#));
                }
                conn.send(&format!(
                    r#"{{"ok":true,"batch":{{"items":{n},"errors":0}}}}"#
                ));
            }
        })
    };
    let fakes = [fake("a"), fake("b")];
    let router = router(fakes.iter().map(Fake::addr).collect());

    let ring = HashRing::new(2, DEFAULT_VNODES);
    let works = works(12);
    let owners: Vec<usize> = works
        .iter()
        .map(|w| ring.route(&canonical_key(w)))
        .collect();
    assert!(owners.contains(&0) && owners.contains(&1), "{owners:?}");
    let lines = pipelined(
        &router.local_addr().to_string(),
        &[encode_batch(Some("b"), &works, None)],
        works.len() + 1,
    );

    assert_eq!(*met.lock().expect("met"), [true, true], "no rendezvous");
    for (i, owner) in owners.iter().enumerate() {
        let from = ["a", "b"][*owner];
        let want = format!(r#"{{"id":"b","item":{i},"ok":true,"from":"{from}"}}"#);
        assert_eq!(lines[i], want);
    }
    assert!(lines[works.len()].contains(r#""batch":{"items":12,"errors":0}"#));
    router.shutdown();
    fakes.into_iter().for_each(Fake::stop);
}

#[test]
fn next_line_is_forwarded_before_the_previous_answer_returns() {
    // The fake answers the first single only once the second has arrived.
    let second_first = Arc::new(Mutex::new(None));
    let fake = {
        let second_first = Arc::clone(&second_first);
        Fake::spawn(move |mut conn| {
            let Some(first) = conn.next() else { return };
            conn.set_timeout(Some(HOLD));
            let second = conn.next();
            conn.set_timeout(None);
            *second_first.lock().expect("flag") = Some(second.is_some());
            for line in [Some(first), second].into_iter().flatten() {
                let id = match parse_request(&line) {
                    Ok(Request::Estimate(req)) => req.id.expect("id"),
                    other => panic!("{other:?}"),
                };
                conn.send(&format!(r#"{{"id":"{id}","ok":true}}"#));
            }
            if let Some(line) = conn.next() {
                panic!("unexpected {line}");
            }
        })
    };
    let router = router(vec![fake.addr()]);
    let works = works(2);
    let lines: Vec<String> = ["first", "second"]
        .iter()
        .zip(&works)
        .map(|(id, w)| {
            encode_estimate(&EstimateRequest {
                id: Some((*id).to_owned()),
                work: *w,
                deadline_ms: None,
            })
        })
        .collect();
    let answers = pipelined(&router.local_addr().to_string(), &lines, 2);
    assert_eq!(
        *second_first.lock().expect("flag"),
        Some(true),
        "the second line did not reach the backend before the first answer left it"
    );
    assert_eq!(
        answers,
        [
            r#"{"id":"first","ok":true}"#,
            r#"{"id":"second","ok":true}"#
        ]
    );
    router.shutdown();
    fake.stop();
}

#[test]
fn a_backend_dropping_mid_answer_loses_no_pipelined_line() {
    let works = works(20);
    assert_eq!(works.len(), 20);
    let (head, tail) = (&works[..10], &works[5..]);
    let lines: Vec<String> = vec![
        encode_batch(Some("b0"), head, None),
        encode_estimate(&EstimateRequest {
            id: Some("s0".to_owned()),
            work: works[0],
            deadline_ms: None,
        }),
        encode_batch(Some("b1"), tail, None),
        encode_estimate(&EstimateRequest {
            id: Some("s1".to_owned()),
            work: works[13],
            deadline_ms: None,
        }),
        encode_batch(Some("b2"), &works, None),
    ];
    let n_answers = (head.len() + 1) + 1 + (tail.len() + 1) + 1 + (works.len() + 1);

    let reference = spawn(ServerConfig::default()).expect("spawn reference");
    let want = pipelined(&reference.local_addr().to_string(), &lines, n_answers);
    reference.shutdown();

    // Backend 0 is a proxy in front of a real server that answers its
    // first sub-batch with one item line and then closes the connection.
    let upstream = spawn(ServerConfig::default()).expect("spawn upstream");
    let other = spawn(ServerConfig::default()).expect("spawn backend");
    let cut = Arc::new(AtomicBool::new(false));
    let proxy = {
        let (upstream, cut) = (upstream.local_addr().to_string(), Arc::clone(&cut));
        Fake::spawn(move |mut conn| {
            let mut up = Client::connect(&upstream).expect("connect upstream");
            while let Some(line) = conn.next() {
                let n = batch_items(&line).map_or(1, |n| n + 1);
                up.send_line(&line).expect("send upstream");
                up.flush().expect("flush upstream");
                let answers: Vec<String> = (0..n).map(|_| up.recv_line().expect("recv")).collect();
                if n > 1 && !cut.swap(true, Ordering::SeqCst) {
                    conn.send(&answers[0]);
                    return;
                }
                answers.iter().for_each(|a| conn.send(a));
            }
        })
    };
    let router = router(vec![proxy.addr(), other.local_addr().to_string()]);
    let got = pipelined(&router.local_addr().to_string(), &lines, n_answers);
    assert!(
        cut.load(Ordering::SeqCst),
        "the proxy never cut a sub-batch"
    );
    assert_eq!(got, want);
    let stats = router.stats();
    assert!(stats.failovers > 0, "{stats:?}");
    assert_eq!(stats.unrouted, 0, "{stats:?}");
    router.shutdown();
    proxy.stop();
    upstream.shutdown();
    other.shutdown();
}

#[test]
fn listeners_on_unspecified_addresses_shut_down_promptly() {
    let backend = spawn(ServerConfig {
        addr: "0.0.0.0:0".to_owned(),
        ..ServerConfig::default()
    })
    .expect("spawn backend");
    let port = backend.local_addr().port();
    let router = spawn_router(RouterConfig {
        listen_addr: "0.0.0.0:0".to_owned(),
        backends: vec![format!("127.0.0.1:{port}")],
        ..RouterConfig::default()
    })
    .expect("spawn router");
    let mut c = Client::connect(("127.0.0.1", router.local_addr().port())).expect("connect");
    c.ping().expect("ping through the router");
    drop(c);

    let t0 = Instant::now();
    router.shutdown();
    backend.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
}

#[test]
fn shutdown_does_not_wait_out_the_health_interval() {
    let fake = Fake::spawn(|mut conn| while conn.next().is_some() {});
    let router = spawn_router(RouterConfig {
        backends: vec![fake.addr()],
        health_interval: Duration::from_secs(10),
        ..RouterConfig::default()
    })
    .expect("spawn router");
    // The first probe round is done: the health loop is now between rounds.
    fake.pings.recv_timeout(HOLD).expect("a health probe");
    let t0 = Instant::now();
    router.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    fake.stop();
}

#[test]
fn a_backend_that_refuses_connections_fails_over_at_once() {
    // A port bound and closed again: every connect to it is refused.
    let dead = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("dead addr").to_string()
    };
    let live = spawn(ServerConfig::default()).expect("spawn backend");
    let live_addr = live.local_addr().to_string();
    let router = spawn_router(RouterConfig {
        backends: vec![live_addr.clone(), dead],
        health_interval: Duration::from_secs(60),
        ..RouterConfig::default()
    })
    .expect("spawn router");
    let ring = HashRing::new(2, DEFAULT_VNODES);
    let work = works(64)
        .into_iter()
        .find(|w| ring.route(&canonical_key(w)) == 1)
        .expect("a key the dead backend owns");
    let line = encode_estimate(&EstimateRequest {
        id: Some("dead".to_owned()),
        work,
        deadline_ms: None,
    });
    // The healthy answer, from the backend the key fails over to; it is now
    // cached there, so the timed answer below costs no simulation.
    let want = pipelined(&live_addr, std::slice::from_ref(&line), 1);
    let addr = router.local_addr().to_string();

    let t0 = Instant::now();
    let got = pipelined(&addr, &[line], 1);
    let took = t0.elapsed();
    assert_eq!(got, want);
    assert!(
        took < Duration::from_millis(100),
        "the first line keyed to the dead backend took {took:?}"
    );

    let t0 = Instant::now();
    let ack = pipelined(&addr, &[encode_simple("shutdown", None)], 1);
    let took = t0.elapsed();
    assert!(ack[0].contains(r#""shutdown":true"#), "{ack:?}");
    assert!(
        took < Duration::from_millis(100),
        "a shutdown through the fleet took {took:?}"
    );
    router.shutdown();
    live.shutdown();
}

#[test]
fn a_backend_that_never_answers_fails_its_health_probe() {
    // Bound but never accepting: connects complete in the listen backlog,
    // and no answer ever comes back.
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind");
    let live = spawn(ServerConfig::default()).expect("spawn backend");
    let router = spawn_router(RouterConfig {
        backends: vec![
            live.local_addr().to_string(),
            silent.local_addr().expect("silent addr").to_string(),
        ],
        health_interval: Duration::from_millis(50),
        connect_timeout: Duration::from_millis(100),
        ..RouterConfig::default()
    })
    .expect("spawn router");
    let deadline = Instant::now() + HOLD;
    while router.breaker_states()[1] != BreakerState::Open && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let states = router.breaker_states();

    // Shut down on a helper thread, so that a hung health thread fails the
    // test instead of hanging it; the helper is joined once it has returned.
    let (done, finished) = channel();
    let helper = std::thread::spawn(move || {
        router.shutdown();
        done.send(()).ok();
    });
    let shut = finished.recv_timeout(Duration::from_secs(2));
    live.shutdown();
    assert_eq!(states[1], BreakerState::Open, "breakers: {states:?}");
    assert!(shut.is_ok(), "router shutdown took over 2 s");
    helper.join().expect("shutdown helper panicked");
}

#[test]
fn a_line_sent_to_a_backend_that_never_answers_fails_over() {
    // Bound but never accepting: the connect and the send complete in the
    // kernel's buffers, and no answer ever comes back.
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind");
    let live = spawn(ServerConfig::default()).expect("spawn backend");
    let live_addr = live.local_addr().to_string();
    let router = spawn_router(RouterConfig {
        backends: vec![
            silent.local_addr().expect("silent addr").to_string(),
            live_addr.clone(),
        ],
        health_interval: Duration::from_secs(60),
        connect_timeout: Duration::from_millis(300),
        ..RouterConfig::default()
    })
    .expect("spawn router");
    let ring = HashRing::new(2, DEFAULT_VNODES);
    let work = works(64)
        .into_iter()
        .find(|w| ring.route(&canonical_key(w)) == 0)
        .expect("a key the silent backend owns");
    let line = encode_estimate(&EstimateRequest {
        id: Some("silent".to_owned()),
        work,
        deadline_ms: None,
    });
    // `served`'s answer, now cached there.
    let want = pipelined(&live_addr, std::slice::from_ref(&line), 1);

    // Ask on a helper thread, so that a router that waits on the silent
    // backend for good fails the test instead of hanging it.
    let addr = router.local_addr().to_string();
    let (done, answered) = channel();
    let helper = std::thread::spawn(move || {
        done.send(pipelined(&addr, &[line], 1)).ok();
    });
    let got = answered
        .recv_timeout(Duration::from_secs(2))
        .expect("the line keyed to the silent backend was not answered within 2 s");
    helper.join().expect("client helper panicked");
    assert_eq!(got, want, "the answer must be the live backend's bytes");
    let stats = router.shutdown();
    live.shutdown();
    assert!(stats.failovers >= 1, "no failover: {stats:?}");
    drop(silent);
}
