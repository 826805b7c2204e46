//! The cache-affinity router: a front-end that consistent-hashes canonical
//! keys across a fleet of `served` backends.
//!
//! One `served` process striped sixteen ways still tops out at one
//! machine's worth of cache; the router scales the *fleet* the same way
//! the [`crate::cache::StripedCache`] scales the locks — by hashing the
//! canonical key ([`iconv_api::stable_hash64`], the same function the
//! shards use) onto a [`HashRing`] of backends. Every request for a key
//! lands on the same backend, so each backend's cache stays hot for its
//! own key range, and losing a backend moves only that backend's keys
//! (the consistent-hashing property).
//!
//! # Forwarding model
//!
//! Each client connection is pipelined, the way `served`'s are: a
//! **reader** thread parses each line and forwards it at once, and a
//! **writer** thread gathers the backends' answers and writes them back in
//! request order. The reader runs at most [`PIPELINE_DEPTH`] requests
//! ahead, so a client that never reads stalls only its own reader. Each
//! (client connection, backend) pair shares one backend connection: the
//! reader sends on it and the writer reads from it, so every backend
//! answers in send order and no sequence numbers are needed.
//!
//! Single estimates are forwarded **verbatim** — the backend sees the
//! client's exact bytes (id included), so the relayed response is
//! byte-identical to talking to that backend directly. A `batch` is
//! scattered: items are grouped by owning backend, every sub-batch is sent
//! id-free before any answer is read, and the item lines are rebuilt with
//! the client's id and original item indices — the same rendering `served`
//! itself uses, so the assembled stream is byte-identical to a single
//! server's. `stats` and `shards` are likewise sent to every backend
//! before any answer is read: `stats` merges the snapshots
//! ([`StatsSnapshot::merge`]) and `shards` concatenates the fleet's
//! per-shard counters with renumbered shard ids. `ping` is answered
//! locally. `shutdown` is broadcast, and the router starts draining as soon
//! as it is sent, so a later line on the same connection is refused.
//!
//! A failed send or gather drops that backend connection (the reader
//! reconnects on its next send) and counts against the backend's breaker.
//! The writer then re-issues the lost single or sub-batch on connections of
//! its own, where it is the only line in flight, walking the key's
//! failover order — so answers stay byte-identical and no item is lost.
//!
//! # Failure containment
//!
//! Each backend has a [`Breaker`] — a circuit breaker whose open
//! intervals follow the [`RetryPolicy`] backoff schedule (the same capped
//! exponential + deterministic jitter the [`crate::client::RetryClient`]
//! sleeps). `threshold` consecutive failures open the circuit; after the
//! backoff elapses one probe is allowed through (half-open), and its
//! outcome closes or re-opens the breaker with a longer interval. A
//! request whose primary is open walks the key's
//! [`HashRing::failover_order`] — estimates re-issue safely because they
//! are idempotent under canonical keys. Only when *no* backend accepts
//! the work does the client see an error (`busy`, detail "no healthy
//! backend" — retryable, exactly like queue overload). A background
//! health thread pings each backend so breakers recover without client
//! traffic.
//!
//! # Fault seams
//!
//! When [`RouterConfig::faults`] is armed, the router↔backend hop
//! consults two sites: `route-send` (the forward write fails as if the
//! backend dropped) and `route-recv` (the relay read fails likewise).
//! Both feed the same failover machinery as real socket errors, so chaos
//! runs exercise the breaker paths. Each site follows its plan's seeded
//! decision stream; which line a decision lands on depends on how a
//! connection's reader (pipelined sends) and writer (gathers and
//! re-issues) interleave.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, ErrorKind as IoErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iconv_api::{canonical_key, HashRing};
use iconv_faults::{FaultPoint, FaultSite};

use crate::client::{connect_retry, Client, RetryPolicy};
use crate::protocol::{
    self, batch_refusal, batch_summary_body, encode_batch, encode_simple, error_body,
    finish_item_response, finish_response, pong_body, shards_body, shutdown_body, stats_body,
    ErrorKind, EstimateRequest, Request, Response, ShardStat, StatsSnapshot, Work,
};
use crate::server::{
    accept_loop, line_too_long_response, read_request_line, wake_acceptor, Connections, Half,
    RequestLine,
};

/// Default virtual nodes per backend on the ring.
pub const DEFAULT_VNODES: usize = 64;

/// Requests a client connection's reader may run ahead of its writer.
pub const PIPELINE_DEPTH: usize = 128;

/// Router tunables.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub listen_addr: String,
    /// Backend `served` addresses, in ring order. Must be non-empty.
    pub backends: Vec<String>,
    /// Virtual nodes per backend (`0` means [`DEFAULT_VNODES`]).
    pub vnodes: usize,
    /// Consecutive failures that open a backend's circuit breaker.
    pub breaker_threshold: u32,
    /// Backoff schedule for open intervals (attempts field unused).
    pub breaker_backoff: RetryPolicy,
    /// Health-probe period.
    pub health_interval: Duration,
    /// Connect-retry budget per backend exchange.
    pub connect_timeout: Duration,
    /// Armed fault plan consulted at the router↔backend seams.
    pub faults: Option<Arc<dyn FaultPoint>>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            listen_addr: "127.0.0.1:0".to_owned(),
            backends: Vec::new(),
            vnodes: 0,
            breaker_threshold: 3,
            breaker_backoff: RetryPolicy::default(),
            health_interval: Duration::from_millis(250),
            connect_timeout: Duration::from_secs(1),
            faults: None,
        }
    }
}

/// Circuit-breaker state, exposed for stats and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are refused until the backoff elapses.
    Open,
    /// Backoff elapsed: one probe in flight decides the next state.
    HalfOpen,
}

struct BreakerInner {
    state: BreakerState,
    /// Consecutive failures while closed.
    fails: u32,
    /// Consecutive open periods (the backoff exponent).
    attempt: u32,
    /// While open: the earliest instant a probe may pass.
    until: Instant,
}

/// A per-backend circuit breaker. Open intervals follow the
/// [`RetryPolicy`] backoff schedule, salted by the backend index so a
/// fleet of breakers doesn't probe in lockstep.
pub struct Breaker {
    threshold: u32,
    policy: RetryPolicy,
    salt: u64,
    inner: Mutex<BreakerInner>,
}

impl Breaker {
    /// A closed breaker that opens after `threshold` consecutive failures.
    #[must_use]
    pub fn new(threshold: u32, policy: RetryPolicy, salt: u64) -> Self {
        Self {
            threshold: threshold.max(1),
            policy,
            salt,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                fails: 0,
                attempt: 0,
                until: Instant::now(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// May a request pass? An open breaker whose backoff has elapsed
    /// transitions to half-open and lets the caller through as the probe.
    pub fn allow(&self) -> bool {
        let mut b = self.lock();
        match b.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if Instant::now() >= b.until {
                    b.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Report a successful exchange: the breaker closes fully.
    pub fn on_success(&self) {
        let mut b = self.lock();
        b.state = BreakerState::Closed;
        b.fails = 0;
        b.attempt = 0;
    }

    /// Report a failed exchange: closed breakers count toward the
    /// threshold; a failed half-open probe re-opens with a longer
    /// backoff.
    pub fn on_failure(&self) {
        let mut b = self.lock();
        match b.state {
            BreakerState::Closed => {
                b.fails += 1;
                if b.fails >= self.threshold {
                    Self::open(&mut b, &self.policy, self.salt);
                }
            }
            BreakerState::HalfOpen => Self::open(&mut b, &self.policy, self.salt),
            BreakerState::Open => {}
        }
    }

    fn open(b: &mut BreakerInner, policy: &RetryPolicy, salt: u64) {
        b.state = BreakerState::Open;
        b.until = Instant::now() + policy.backoff(b.attempt, salt);
        b.attempt = b.attempt.saturating_add(1);
        b.fails = 0;
    }

    /// Current state (open breakers are reported open even when their
    /// backoff has elapsed — only a passing request flips them).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }
}

/// Router-local counters (backend traffic is accounted by the backends
/// themselves and surfaced through the merged `stats` op).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Request lines forwarded to a backend (sub-batches count once).
    pub forwarded: u64,
    /// Exchanges answered by a non-primary backend.
    pub failovers: u64,
    /// Requests (or batch items) refused because no backend was healthy.
    pub unrouted: u64,
    /// Client lines that failed to parse.
    pub parse_errors: u64,
}

#[derive(Default)]
struct Counters {
    forwarded: AtomicU64,
    failovers: AtomicU64,
    unrouted: AtomicU64,
    parse_errors: AtomicU64,
}

struct RouterShared {
    ring: HashRing,
    backends: Vec<String>,
    breakers: Vec<Breaker>,
    counters: Counters,
    connect_timeout: Duration,
    faults: Option<Arc<dyn FaultPoint>>,
    shutting_down: AtomicBool,
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    conns: Arc<Connections>,
}

impl RouterShared {
    fn request_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let mut req = self
            .shutdown_requested
            .lock()
            .expect("shutdown flag poisoned");
        *req = true;
        drop(req);
        self.shutdown_cv.notify_all();
    }

    fn stats(&self) -> RouterStats {
        RouterStats {
            forwarded: self.counters.forwarded.load(Ordering::Relaxed),
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            unrouted: self.counters.unrouted.load(Ordering::Relaxed),
            parse_errors: self.counters.parse_errors.load(Ordering::Relaxed),
        }
    }

    /// Whether the fault plan, if armed, injects a failure at `site`.
    fn injected(&self, site: FaultSite) -> bool {
        self.faults.as_ref().is_some_and(|f| {
            let hit = f.decide(site).is_some();
            if hit {
                f.observe(site);
            }
            hit
        })
    }

    /// A request no backend would take: counted, and answered `busy`.
    fn unrouted(&self) -> String {
        self.counters.unrouted.fetch_add(1, Ordering::Relaxed);
        error_body(ErrorKind::Busy, "no healthy backend")
    }
}

/// A running router. Call [`RouterHandle::shutdown`] for graceful
/// teardown.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    acceptor: Option<JoinHandle<()>>,
    health: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Router-local counter snapshot.
    pub fn stats(&self) -> RouterStats {
        self.shared.stats()
    }

    /// Current breaker state per backend, in backend order.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.shared.breakers.iter().map(Breaker::state).collect()
    }

    /// Block until some client sends the `shutdown` op (or
    /// [`RouterHandle::request_shutdown`] is called locally).
    pub fn wait_shutdown_requested(&self) {
        let mut req = self
            .shared
            .shutdown_requested
            .lock()
            .expect("flag poisoned");
        while !*req {
            req = self.shared.shutdown_cv.wait(req).expect("flag poisoned");
        }
    }

    /// Begin refusing new work, as if a `shutdown` op had arrived.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Graceful teardown: stop accepting, close client connections, join
    /// every thread. Backends are *not* shut down unless a client's
    /// `shutdown` op already broadcast one.
    pub fn shutdown(mut self) -> RouterStats {
        self.shared.request_shutdown();
        if let Some(h) = self.acceptor.take() {
            wake_acceptor(self.addr);
            let _ = h.join();
        }
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
        self.shared.conns.close_all();
        self.shared.stats()
    }
}

/// Spawn a router on `cfg.listen_addr` over `cfg.backends`.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable, or
/// `InvalidInput` when no backends are configured.
pub fn spawn_router(cfg: RouterConfig) -> io::Result<RouterHandle> {
    if cfg.backends.is_empty() {
        return Err(io::Error::new(
            IoErrorKind::InvalidInput,
            "router needs at least one --backend",
        ));
    }
    let listener = TcpListener::bind(&cfg.listen_addr)?;
    let addr = listener.local_addr()?;
    let vnodes = if cfg.vnodes == 0 {
        DEFAULT_VNODES
    } else {
        cfg.vnodes
    };
    let breakers = (0..cfg.backends.len())
        .map(|b| Breaker::new(cfg.breaker_threshold, cfg.breaker_backoff, b as u64))
        .collect();
    let shared = Arc::new(RouterShared {
        ring: HashRing::new(cfg.backends.len(), vnodes),
        backends: cfg.backends,
        breakers,
        counters: Counters::default(),
        connect_timeout: cfg.connect_timeout,
        faults: cfg.faults,
        shutting_down: AtomicBool::new(false),
        shutdown_requested: Mutex::new(false),
        shutdown_cv: Condvar::new(),
        conns: Arc::default(),
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("iconv-route-accept".to_owned())
            .spawn(move || {
                accept_loop(&listener, &shared.shutting_down, "routed", |stream| {
                    start_connection(stream, &shared)
                });
            })
            .expect("spawn acceptor")
    };
    let health = {
        let shared = Arc::clone(&shared);
        let interval = cfg.health_interval;
        std::thread::Builder::new()
            .name("iconv-route-health".to_owned())
            .spawn(move || health_loop(&shared, interval))
            .expect("spawn health thread")
    };
    Ok(RouterHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        health: Some(health),
    })
}

/// Probe every backend each interval so breakers recover (and trip)
/// without client traffic. A probe is one fresh connection and one ping —
/// it deliberately bypasses `allow()`'s half-open transition only for
/// breakers still inside their backoff window. The wait between rounds
/// ends early when shutdown is requested.
fn health_loop(shared: &RouterShared, interval: Duration) {
    let flag = || {
        shared
            .shutdown_requested
            .lock()
            .expect("shutdown flag poisoned")
    };
    let mut stop = flag();
    while !*stop {
        drop(stop);
        for (b, addr) in shared.backends.iter().enumerate() {
            if !shared.breakers[b].allow() {
                continue;
            }
            let ok = Client::connect(addr)
                .ok()
                .is_some_and(|mut c| c.ping().is_ok());
            if ok {
                shared.breakers[b].on_success();
            } else {
                shared.breakers[b].on_failure();
            }
        }
        stop = shared
            .shutdown_cv
            .wait_timeout_while(flag(), interval, |stop| !*stop)
            .expect("shutdown flag poisoned")
            .0;
    }
}

fn start_connection(stream: TcpStream, shared: &Arc<RouterShared>) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let read_half = stream.try_clone()?;
    let registered = stream.try_clone()?;
    let (tx, rx) = sync_channel(PIPELINE_DEPTH);
    let writer: Half = {
        let shared = Arc::clone(shared);
        Box::new(move || writer_loop(stream, &shared, &rx))
    };
    let reader: Half = {
        let shared = Arc::clone(shared);
        Box::new(move || reader_loop(read_half, &shared, &tx))
    };
    shared.conns.start(
        registered,
        [("iconv-route-write", writer), ("iconv-route-read", reader)],
    )
}

/// One connection to a backend. On the pipeline, a client connection's
/// reader sends on it and its writer gathers the answers, which the
/// backend returns in send order; the writer's re-issue links are used by
/// the writer alone.
struct Link {
    out: TcpStream,
    input: Mutex<BufReader<TcpStream>>,
    /// Set once a send or gather on the link fails. An answer may then be
    /// half read, so no later line is sent or gathered on it.
    broken: AtomicBool,
}

impl Link {
    fn connect(addr: &str, timeout: Duration) -> io::Result<Arc<Self>> {
        let out = connect_retry(addr, timeout)?;
        out.set_nodelay(true).ok();
        let input = Mutex::new(BufReader::new(out.try_clone()?));
        Ok(Arc::new(Self {
            out,
            input,
            broken: AtomicBool::new(false),
        }))
    }

    fn is_broken(&self) -> bool {
        self.broken.load(Ordering::SeqCst)
    }

    fn send(&self, shared: &RouterShared, line: &str) -> io::Result<()> {
        if shared.injected(FaultSite::RouteSend) {
            return Err(io::Error::other("injected route-send failure"));
        }
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        (&self.out).write_all(&bytes)
    }

    fn recv(&self, shared: &RouterShared, n: usize) -> io::Result<Vec<String>> {
        let mut input = self.input.lock().expect("link input poisoned");
        (0..n)
            .map(|_| {
                if shared.injected(FaultSite::RouteRecv) {
                    return Err(io::Error::other("injected route-recv failure"));
                }
                let mut line = String::new();
                if input.read_line(&mut line)? == 0 {
                    return Err(io::Error::new(
                        IoErrorKind::UnexpectedEof,
                        "backend closed the connection",
                    ));
                }
                line.truncate(line.trim_end_matches(['\n', '\r']).len());
                Ok(line)
            })
            .collect()
    }

    /// Mark the link broken and close it. True for the first caller only,
    /// so one broken link counts once against its backend's breaker.
    fn break_off(&self) -> bool {
        let first = !self.broken.swap(true, Ordering::SeqCst);
        if first {
            let _ = self.out.shutdown(Shutdown::Both);
        }
        first
    }
}

/// A line sent to one backend, whose answer the writer gathers.
struct Sent {
    backend: usize,
    /// The link the line went out on; `None` when connecting or sending
    /// failed, which was counted against the breaker then.
    link: Option<Arc<Link>>,
}

impl Sent {
    /// The `n` answer lines, or `None` if the line was not sent, its link
    /// broke before, or reading fails now (see [`Sent::fail`]).
    fn gather(&self, shared: &RouterShared, n: usize) -> Option<Vec<String>> {
        let link = self.link.as_ref().filter(|l| !l.is_broken())?;
        let lines = link.recv(shared, n);
        if lines.is_err() {
            self.fail(shared);
        }
        lines.ok()
    }

    /// A sub-batch's item bodies, gathered and split; a malformed answer
    /// fails the link.
    fn gather_batch(&self, shared: &RouterShared, n: usize) -> Option<Vec<String>> {
        let bodies = split_batch_lines(&self.gather(shared, n + 1)?, n);
        if bodies.is_err() {
            self.fail(shared);
        }
        bodies.ok()
    }

    /// Give up on the line's link, counting against the backend's breaker
    /// unless the link had already been given up.
    fn fail(&self, shared: &RouterShared) {
        if self.link.as_ref().is_some_and(|l| l.break_off()) {
            shared.breakers[self.backend].on_failure();
        }
    }
}

/// Send `line` to backend `b` on `links[b]`, connecting first when the
/// link is missing or broken. A failure to connect or send counts against
/// the backend's breaker.
fn send(shared: &RouterShared, links: &mut [Option<Arc<Link>>], b: usize, line: &str) -> Sent {
    let failed = Sent {
        backend: b,
        link: None,
    };
    let link = match &links[b] {
        Some(link) if !link.is_broken() => Arc::clone(link),
        _ => match Link::connect(&shared.backends[b], shared.connect_timeout) {
            Ok(link) => links[b].insert(link).clone(),
            Err(_) => {
                links[b] = None;
                shared.breakers[b].on_failure();
                return failed;
            }
        },
    };
    if link.send(shared, line).is_err() {
        if link.break_off() {
            shared.breakers[b].on_failure();
        }
        return failed;
    }
    Sent {
        backend: b,
        link: Some(link),
    }
}

/// The ops sent to several backends at once.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FleetOp {
    Stats,
    Shards,
    Shutdown,
}

/// What the writer owes the client for one request line, and what it must
/// gather from the backends to answer it.
enum Plan {
    /// Lines the router answers itself.
    Local(Vec<String>),
    /// A single estimate, forwarded verbatim to position `nth` of its key's
    /// failover `order`.
    Single {
        id: Option<String>,
        line: String,
        order: Vec<usize>,
        nth: usize,
        sent: Sent,
    },
    /// A batch scattered by key ownership: its sub-batches, each with the
    /// items it carries, and the bodies of items no backend would take.
    Batch {
        id: Option<String>,
        items: Vec<Work>,
        deadline_ms: Option<u64>,
        bodies: Vec<Option<String>>,
        subs: Vec<(Sent, Vec<usize>)>,
    },
    /// `stats`, `shards` or `shutdown`, sent to several backends.
    Fleet {
        op: FleetOp,
        id: Option<String>,
        sent: Vec<Sent>,
    },
}

/// The reader half of a client connection: parse each line, send what it
/// needs to the backends at once, and queue its plan for the writer. A
/// full queue stalls only this reader.
fn reader_loop(stream: TcpStream, shared: &RouterShared, plans: &SyncSender<Plan>) {
    let mut reader = BufReader::new(stream);
    let mut links: Vec<Option<Arc<Link>>> = vec![None; shared.backends.len()];
    let mut buf = Vec::new();
    loop {
        let plan = match read_request_line(&mut reader, &mut buf) {
            RequestLine::Line(line) if line.trim().is_empty() => continue,
            RequestLine::Line(line) => plan(line.trim_end(), shared, &mut links),
            RequestLine::TooLong => {
                shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
                let _ = plans.send(Plan::Local(vec![line_too_long_response()]));
                return;
            }
            RequestLine::Closed => return,
        };
        if plans.send(plan).is_err() {
            return;
        }
    }
}

/// Parse one client line and send whatever it needs to the backends.
fn plan(line: &str, shared: &RouterShared, links: &mut [Option<Arc<Link>>]) -> Plan {
    let req = match protocol::parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
            let body = error_body(e.kind, &e.detail);
            return Plan::Local(vec![finish_response(e.id.as_deref(), &body)]);
        }
    };
    let draining = shared.shutting_down.load(Ordering::SeqCst);
    let refusal = || error_body(ErrorKind::ShuttingDown, "router is draining");
    let (id, route) = match req {
        Request::Ping { id } => {
            return Plan::Local(vec![finish_response(id.as_deref(), &pong_body())])
        }
        Request::Stats { id } => return fan_out(shared, links, FleetOp::Stats, id),
        Request::Shards { id } => return fan_out(shared, links, FleetOp::Shards, id),
        Request::Shutdown { id } => {
            let plan = fan_out(shared, links, FleetOp::Shutdown, id);
            // Draining from here: a later line on this connection is
            // refused even before the backends have answered.
            shared.request_shutdown();
            return plan;
        }
        Request::Estimate(EstimateRequest { id, work, .. }) => (id, work),
        // Keyed by the layer's *tune* key, so one backend owns a layer's
        // search, its tune-store entry, and every `"hw":"tuned"` estimate
        // derived from it — the affinity the plain `tune` op gets.
        Request::TunedEstimate {
            id, shape, target, ..
        } => (id, Work::Tune { shape, target }),
        Request::Batch {
            id,
            items,
            deadline_ms,
        } => {
            if draining {
                return Plan::Local(batch_refusal(id.as_deref(), items.len(), &refusal()));
            }
            let mut bodies = vec![None; items.len()];
            let subs = scatter(
                shared,
                links,
                &items,
                deadline_ms,
                0..items.len(),
                &mut bodies,
            );
            return Plan::Batch {
                id,
                items,
                deadline_ms,
                bodies,
                subs,
            };
        }
    };
    // A single estimate goes verbatim to the first backend on its key's
    // failover order whose breaker admits it.
    let body = if draining {
        refusal()
    } else {
        let order = shared.ring.failover_order(&canonical_key(&route));
        if let Some(nth) = order.iter().position(|&b| shared.breakers[b].allow()) {
            let sent = send(shared, links, order[nth], line);
            return Plan::Single {
                id,
                line: line.to_owned(),
                order,
                nth,
                sent,
            };
        }
        shared.unrouted()
    };
    Plan::Local(vec![finish_response(id.as_deref(), &body)])
}

/// Send a fleet op to every backend whose breaker admits it; a `shutdown`
/// goes to all of them, since a draining fleet should not leave a flaky
/// backend running.
fn fan_out(
    shared: &RouterShared,
    links: &mut [Option<Arc<Link>>],
    op: FleetOp,
    id: Option<String>,
) -> Plan {
    let line = encode_simple(
        match op {
            FleetOp::Stats => "stats",
            FleetOp::Shards => "shards",
            FleetOp::Shutdown => "shutdown",
        },
        None,
    );
    let sent = (0..shared.backends.len())
        .filter(|&b| op == FleetOp::Shutdown || shared.breakers[b].allow())
        .map(|b| send(shared, links, b, &line))
        .collect();
    Plan::Fleet { op, id, sent }
}

/// Group the items `idxs` by the first backend on each key's failover
/// order whose breaker admits it, and send each group as an id-free
/// sub-batch on `links`. An item no backend will take is answered `busy`
/// in `bodies`, mirroring queue overload.
fn scatter(
    shared: &RouterShared,
    links: &mut [Option<Arc<Link>>],
    items: &[Work],
    deadline_ms: Option<u64>,
    idxs: impl IntoIterator<Item = usize>,
    bodies: &mut [Option<String>],
) -> Vec<(Sent, Vec<usize>)> {
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in idxs {
        let target = shared
            .ring
            .failover_order(&canonical_key(&items[i]))
            .into_iter()
            .find(|&b| shared.breakers[b].allow());
        match target {
            Some(b) => groups.entry(b).or_default().push(i),
            None => bodies[i] = Some(shared.unrouted()),
        }
    }
    groups
        .into_iter()
        .map(|(b, idxs)| {
            let works: Vec<Work> = idxs.iter().map(|&i| items[i]).collect();
            let sent = send(shared, links, b, &encode_batch(None, &works, deadline_ms));
            (sent, idxs)
        })
        .collect()
}

/// The writer half of a client connection: answer each plan in request
/// order, gathering from the backends. Each answer is flushed at once,
/// since gathering the next plan's may block on a backend. A line the
/// pipeline loses is re-issued on `own`, the writer's links, where it is
/// the only line in flight.
fn writer_loop(stream: TcpStream, shared: &RouterShared, plans: &Receiver<Plan>) {
    let mut out = BufWriter::new(stream);
    let mut own: Vec<Option<Arc<Link>>> = vec![None; shared.backends.len()];
    while let Ok(plan) = plans.recv() {
        for line in answer(plan, shared, &mut own) {
            if out.write_all(line.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
                return;
            }
        }
        if out.flush().is_err() {
            return;
        }
    }
    // The reader has stopped and every owed line is written: send EOF now,
    // not when the registry drops its dup of the stream.
    let _ = out.get_ref().shutdown(Shutdown::Write);
}

/// Gather one plan's answers and render its response lines.
fn answer(plan: Plan, shared: &RouterShared, own: &mut [Option<Arc<Link>>]) -> Vec<String> {
    match plan {
        Plan::Local(lines) => lines,
        Plan::Single {
            id,
            line,
            order,
            nth,
            sent,
        } => {
            let relayed = relay_single(shared, own, &order, nth, sent, &line);
            vec![relayed.unwrap_or_else(|| finish_response(id.as_deref(), &shared.unrouted()))]
        }
        Plan::Batch {
            id,
            items,
            deadline_ms,
            mut bodies,
            subs,
        } => {
            relay_batch(shared, own, &items, deadline_ms, &mut bodies, subs);
            let id = id.as_deref();
            let mut errors = 0u64;
            let mut lines: Vec<String> = bodies
                .iter()
                .enumerate()
                .map(|(i, body)| {
                    let body = body.as_deref().expect("every item answered");
                    if body.starts_with("\"ok\":false") {
                        errors += 1;
                    }
                    finish_item_response(id, i, body)
                })
                .collect();
            let summary = batch_summary_body(bodies.len() as u64, errors);
            lines.push(finish_response(id, &summary));
            lines
        }
        Plan::Fleet { op, id, sent } => vec![finish_response(
            id.as_deref(),
            &gather_fleet(shared, op, &sent),
        )],
    }
}

/// Relay a single's answer from position `nth` of its failover `order`,
/// where `sent` went. If that fails, walk the rest of the order in
/// lockstep on the writer's own links. `None` when no backend answers.
fn relay_single(
    shared: &RouterShared,
    own: &mut [Option<Arc<Link>>],
    order: &[usize],
    nth: usize,
    sent: Sent,
    line: &str,
) -> Option<String> {
    let mut pending = Some(sent);
    for (pos, &b) in order.iter().enumerate().skip(nth) {
        let sent = match pending.take() {
            Some(sent) => sent,
            None if shared.breakers[b].allow() => send(shared, own, b, line),
            None => continue,
        };
        if let Some(mut lines) = sent.gather(shared, 1) {
            shared.breakers[b].on_success();
            shared.counters.forwarded.fetch_add(1, Ordering::Relaxed);
            if pos > 0 {
                shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
            }
            return lines.pop();
        }
    }
    None
}

/// Gather every sub-batch into `bodies`. Items of a failed sub-batch are
/// scattered again on the writer's own links, walking their keys'
/// failover orders (estimates are idempotent under canonical keys), until
/// every item has a body.
fn relay_batch(
    shared: &RouterShared,
    own: &mut [Option<Arc<Link>>],
    items: &[Work],
    deadline_ms: Option<u64>,
    bodies: &mut [Option<String>],
    mut subs: Vec<(Sent, Vec<usize>)>,
) {
    while !subs.is_empty() {
        let mut unresolved = Vec::new();
        for (sent, idxs) in subs {
            match sent.gather_batch(shared, idxs.len()) {
                Some(item_bodies) => {
                    shared.breakers[sent.backend].on_success();
                    shared.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                    for (i, body) in idxs.into_iter().zip(item_bodies) {
                        bodies[i] = Some(body);
                    }
                }
                None => {
                    shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    unresolved.extend(idxs);
                }
            }
        }
        subs = scatter(shared, own, items, deadline_ms, unresolved, bodies);
    }
}

/// The body answering a fleet op: every answering backend's `stats`
/// merged ([`StatsSnapshot::merge`]), or their `shards` concatenated and
/// renumbered so the fleet reads as one wide striped cache; `busy` when no
/// backend answers. A `shutdown` is acknowledged once every backend has
/// answered or failed.
fn gather_fleet(shared: &RouterShared, op: FleetOp, sent: &[Sent]) -> String {
    if op == FleetOp::Shutdown {
        for s in sent {
            let _ = s.gather(shared, 1);
        }
        return shutdown_body();
    }
    let mut merged = StatsSnapshot::default();
    let mut shards: Vec<ShardStat> = Vec::new();
    let mut seen = 0usize;
    for s in sent {
        let Some(lines) = s.gather(shared, 1) else {
            continue;
        };
        match (op, protocol::parse_response(&lines[0])) {
            (FleetOp::Stats, Ok(Response::Stats { stats, .. })) => merged.merge(&stats),
            (FleetOp::Shards, Ok(Response::Shards { shards: more, .. })) => shards.extend(more),
            _ => {
                shared.breakers[s.backend].on_failure();
                continue;
            }
        }
        shared.breakers[s.backend].on_success();
        seen += 1;
    }
    if seen == 0 {
        return shared.unrouted();
    }
    if op == FleetOp::Stats {
        return stats_body(&merged);
    }
    for (k, s) in shards.iter_mut().enumerate() {
        s.shard = k as u64;
    }
    shards_body(&shards)
}

/// Decode one sub-batch exchange: `n` item lines (`{"item":j,<body>}` —
/// the id-free rendering, since sub-batches are sent without an id)
/// followed by the summary. Returns the extracted bodies in sub-batch
/// order.
fn split_batch_lines(lines: &[String], n: usize) -> Result<Vec<String>, String> {
    if lines.len() != n + 1 {
        return Err(format!("expected {} lines, got {}", n + 1, lines.len()));
    }
    let mut out = Vec::with_capacity(n);
    for (j, line) in lines[..n].iter().enumerate() {
        let prefix = format!("{{\"item\":{j},");
        let body = line
            .strip_prefix(prefix.as_str())
            .and_then(|rest| rest.strip_suffix('}'))
            .ok_or_else(|| format!("malformed batch item line: {line:?}"))?;
        out.push(body.to_owned());
    }
    if !lines[n].contains("\"batch\":") {
        return Err(format!("missing batch summary: {:?}", lines[n]));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_and_recovers() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let b = Breaker::new(3, policy, 0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        b.on_failure();
        assert!(b.allow(), "below threshold stays closed");
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // Within the backoff window nothing passes; after it one probe does.
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.allow(), "elapsed backoff admits a probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_with_longer_backoff() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        let b = Breaker::new(1, policy, 7);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(3));
        assert!(b.allow());
        b.on_failure(); // the probe failed
        assert_eq!(b.state(), BreakerState::Open);
        // Attempt counter grew, so the second window is at least as long
        // as the first's ceiling permits (both jittered; just re-probe).
        std::thread::sleep(Duration::from_millis(10));
        assert!(b.allow());
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn split_batch_lines_extracts_bodies_in_order() {
        let lines = vec![
            "{\"item\":0,\"ok\":true,\"x\":1}".to_owned(),
            "{\"item\":1,\"ok\":false,\"error\":\"deadline\",\"detail\":\"d\"}".to_owned(),
            "{\"ok\":true,\"batch\":{\"items\":2,\"errors\":1}}".to_owned(),
        ];
        let bodies = split_batch_lines(&lines, 2).unwrap();
        assert_eq!(bodies[0], "\"ok\":true,\"x\":1");
        assert!(bodies[1].starts_with("\"ok\":false"));
        // Wrong count, wrong prefix, or a missing summary are all errors.
        assert!(split_batch_lines(&lines, 1).is_err());
        assert!(split_batch_lines(&lines[1..], 2).is_err());
    }

    #[test]
    fn router_requires_backends() {
        match spawn_router(RouterConfig::default()) {
            Err(e) => assert_eq!(e.kind(), IoErrorKind::InvalidInput),
            Ok(_) => panic!("empty backend list must be rejected"),
        }
    }
}
