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
//! Client connections run on the pipeline `served`'s do (the `conn`
//! module): the reader forwards each line once it holds the line's answer
//! credits, and the writer gathers the backends' answers in request order.
//! Each (client connection, backend) pair shares one backend connection,
//! so every backend answers in send order.
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
//! A connect is one attempt, so a dead backend fails at once. A failed
//! connect, send or gather drops that backend connection (the reader
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
use std::io::{self, BufRead, BufReader, ErrorKind as IoErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iconv_api::{canonical_key, HashRing};
use iconv_faults::{FaultPoint, FaultSite};

use crate::client::{Client, RetryPolicy};
use crate::conn::{Acceptor, Bodies, Gate, Slot, Tier};
use crate::protocol::{
    self, encode_batch, encode_simple, error_body, finish_response, pong_body, shards_body,
    shutdown_body, stats_body, ErrorKind, EstimateRequest, Request, Response, ShardStat,
    StatsSnapshot, Work,
};

/// Default virtual nodes per backend on the ring.
pub const DEFAULT_VNODES: usize = 64;

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
    /// Bound on one connect attempt to a backend, and on each read and
    /// write on a backend connection (non-zero). A refused or timed-out
    /// connect is not retried: it counts against the backend's breaker,
    /// and the line fails over to the next backend. A backend that accepts
    /// but sends nothing for this long fails the same way: a line already
    /// sent to it fails over, and a health probe to it fails.
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
    gate: Gate,
}

impl RouterShared {
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
    shared: Arc<RouterShared>,
    acceptor: Acceptor,
    health: JoinHandle<()>,
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.addr
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
        self.shared.gate.wait(Duration::MAX);
    }

    /// Begin refusing new work, as if a `shutdown` op had arrived.
    pub fn request_shutdown(&self) {
        self.shared.gate.request_shutdown();
    }

    /// Graceful teardown: stop accepting, close client connections, join
    /// every thread. Backends are *not* shut down unless a client's
    /// `shutdown` op already broadcast one.
    pub fn shutdown(self) -> RouterStats {
        self.shared.gate.request_shutdown();
        self.acceptor.stop();
        let _ = self.health.join();
        self.shared.gate.close_all();
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
        gate: Gate::default(),
    });
    let acceptor = Acceptor::spawn(listener, &shared)?;
    let health = {
        let shared = Arc::clone(&shared);
        let interval = cfg.health_interval;
        std::thread::Builder::new()
            .name("iconv-route-health".to_owned())
            .spawn(move || health_loop(&shared, interval))
            .expect("spawn health thread")
    };
    Ok(RouterHandle {
        shared,
        acceptor,
        health,
    })
}

/// Probe every backend each interval so breakers recover (and trip)
/// without client traffic. A probe is one fresh connection and one ping —
/// it deliberately bypasses `allow()`'s half-open transition only for
/// breakers still inside their backoff window. The wait between rounds
/// ends early when shutdown is requested.
fn health_loop(shared: &RouterShared, interval: Duration) {
    loop {
        for (b, addr) in shared.backends.iter().enumerate() {
            if !shared.breakers[b].allow() {
                continue;
            }
            if probe(addr, shared.connect_timeout) {
                shared.breakers[b].on_success();
            } else {
                shared.breakers[b].on_failure();
            }
        }
        if shared.gate.wait(interval) {
            return;
        }
    }
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

/// One connect attempt to each address `addr` resolves to, each bounded by
/// `timeout`, so a dead backend fails at once.
fn connect_once(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = io::Error::new(IoErrorKind::InvalidInput, "no address to connect to");
    addr.to_socket_addrs()?
        .find_map(|a| {
            TcpStream::connect_timeout(&a, timeout)
                .map_err(|e| last = e)
                .ok()
        })
        .ok_or(last)
}

/// One health probe: a connect, a `ping` and its answer, each bounded by
/// `timeout`. Any error, a timeout included, fails the probe.
fn probe(addr: &str, timeout: Duration) -> bool {
    connect_once(addr, timeout).is_ok_and(|s| {
        s.set_read_timeout(Some(timeout)).is_ok()
            && s.set_write_timeout(Some(timeout)).is_ok()
            && Client::from_stream(s).is_ok_and(|mut c| c.ping().is_ok())
    })
}

impl Link {
    /// One connect attempt (see [`connect_once`]); every later read and
    /// write on the link is bounded by the same `timeout`, so a backend
    /// that stops answering fails the line instead of holding it.
    fn connect(addr: &str, timeout: Duration) -> io::Result<Arc<Self>> {
        let out = connect_once(addr, timeout)?;
        out.set_read_timeout(Some(timeout))?;
        out.set_write_timeout(Some(timeout))?;
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

    /// A single's body: its answer line inside `envelope` and the closing
    /// brace. A malformed answer fails the link.
    fn gather_single(&self, shared: &RouterShared, envelope: &str) -> Option<String> {
        let line = self.gather(shared, 1)?.pop()?;
        let body = unwrap_body(&line, envelope).map(str::to_owned);
        if body.is_none() {
            self.fail(shared);
        }
        body
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

/// A client connection's links, one per backend, made on first use. The
/// reader sends on its own, and the writer re-issues lost lines on its
/// own, where each is the only line in flight.
type Links = Vec<Option<Arc<Link>>>;

/// Send `line` to backend `b` on `links[b]`, connecting first when the
/// link is missing or broken. A failure to connect or send counts against
/// the backend's breaker.
fn send(shared: &RouterShared, links: &mut Links, b: usize, line: &str) -> Sent {
    links.resize(shared.backends.len(), None);
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

/// What the writer gathers from the backends to answer one request line.
enum Plan {
    Single(Single),
    Batch(Batch),
    /// `stats`, `shards` or `shutdown`, sent to several backends.
    Fleet(FleetOp, Vec<Sent>),
}

/// A single estimate, forwarded verbatim to position `nth` of its key's
/// failover `order`. Its answer line is the body inside `envelope` (the
/// opening brace and the echoed id) and the closing brace.
struct Single {
    envelope: String,
    line: String,
    order: Vec<usize>,
    nth: usize,
    sent: Sent,
}

/// A batch scattered by key ownership: its sub-batches, each with the
/// items it carries, and the bodies of items no backend would take.
struct Batch {
    items: Vec<Work>,
    deadline_ms: Option<u64>,
    bodies: Vec<Option<String>>,
    subs: Vec<(Sent, Vec<usize>)>,
}

/// A slot's bodies still on the backends: the plan until the writer
/// gathers it, then the gathered bodies.
struct Gather(Option<Plan>, std::vec::IntoIter<String>);

/// A slot whose bodies the writer gathers by `plan`.
fn gather_slot(id: Option<String>, batch: Option<usize>, plan: Plan) -> Slot<RouterShared> {
    let bodies = Bodies::Pending(Gather(Some(plan), Vec::new().into_iter()));
    Slot { id, batch, bodies }
}

impl Tier for RouterShared {
    const NAME: &'static str = "iconv-route";
    type Body = String;
    type Pending = Gather;
    type Reader = Links;
    type Writer = Links;

    fn gate(&self) -> &Gate {
        &self.gate
    }

    fn parse_error(&self) {
        self.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Answer `ping` locally, and send whatever else the request needs to
    /// the backends at once.
    fn admit(
        self: &Arc<Self>,
        req: Request,
        line: &str,
        _: Instant,
        links: &mut Self::Reader,
    ) -> Slot<Self> {
        let draining = self.gate.draining();
        let refusal = || error_body(ErrorKind::ShuttingDown, "router is draining");
        let (id, route) = match req {
            Request::Ping { id } => return Slot::one(id, pong_body()),
            Request::Stats { id } => return fan_out(self, links, FleetOp::Stats, id),
            Request::Shards { id } => return fan_out(self, links, FleetOp::Shards, id),
            Request::Shutdown { id } => {
                let slot = fan_out(self, links, FleetOp::Shutdown, id);
                // Draining from here: a later line on this connection is
                // refused even before the backends have answered.
                self.gate.request_shutdown();
                return slot;
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
                let n = items.len();
                if draining {
                    return Slot::ready(id, Some(n), vec![refusal(); n]);
                }
                let mut bodies = vec![None; n];
                let subs = scatter(self, links, &items, deadline_ms, 0..n, &mut bodies);
                let plan = Plan::Batch(Batch {
                    items,
                    deadline_ms,
                    bodies,
                    subs,
                });
                return gather_slot(id, Some(n), plan);
            }
        };
        if draining {
            return Slot::one(id, refusal());
        }
        // A single estimate goes verbatim to the first backend on its key's
        // failover order whose breaker admits it.
        let order = self.ring.failover_order(&canonical_key(&route));
        let Some(nth) = order.iter().position(|&b| self.breakers[b].allow()) else {
            return Slot::one(id, self.unrouted());
        };
        let sent = send(self, links, order[nth], line);
        let mut envelope = finish_response(id.as_deref(), "");
        envelope.pop();
        let plan = Plan::Single(Single {
            envelope,
            line: line.to_owned(),
            order,
            nth,
            sent,
        });
        gather_slot(id, None, plan)
    }

    /// Gather the plan's bodies from the backends when the writer waits for
    /// them; a gather always blocks, so the writer flushes before it.
    fn body(&self, g: &mut Gather, _: usize, wait: bool, own: &mut Links) -> Option<String> {
        g.1 = match g.0.take_if(|_| wait) {
            None => return g.1.next(),
            Some(Plan::Single(single)) => {
                vec![single.relay(self, own).unwrap_or_else(|| self.unrouted())]
            }
            Some(Plan::Batch(batch)) => batch.relay(self, own),
            Some(Plan::Fleet(op, sent)) => vec![gather_fleet(self, op, &sent)],
        }
        .into_iter();
        g.1.next()
    }
}

/// Send a fleet op to every backend whose breaker admits it; a `shutdown`
/// goes to all of them, since a draining fleet should not leave a flaky
/// backend running.
fn fan_out(
    shared: &RouterShared,
    links: &mut Links,
    op: FleetOp,
    id: Option<String>,
) -> Slot<RouterShared> {
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
    gather_slot(id, None, Plan::Fleet(op, sent))
}

/// Group the items `idxs` by the first backend on each key's failover
/// order whose breaker admits it, and send each group as an id-free
/// sub-batch on `links`. An item no backend will take is answered `busy`
/// in `bodies`, mirroring queue overload.
fn scatter(
    shared: &RouterShared,
    links: &mut Links,
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

impl Single {
    /// Relay the body from position `nth` of the failover order, where
    /// `sent` went. If that fails, walk the rest of the order in lockstep on
    /// the writer's own links. `None` when no backend answers.
    fn relay(self, shared: &RouterShared, own: &mut Links) -> Option<String> {
        let mut pending = Some(self.sent);
        for (pos, &b) in self.order.iter().enumerate().skip(self.nth) {
            let sent = match pending.take() {
                Some(sent) => sent,
                None if shared.breakers[b].allow() => send(shared, own, b, &self.line),
                None => continue,
            };
            if let Some(body) = sent.gather_single(shared, &self.envelope) {
                shared.breakers[b].on_success();
                shared.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                if pos > 0 {
                    shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                }
                return Some(body);
            }
        }
        None
    }
}

impl Batch {
    /// Gather every sub-batch's bodies. Items of a failed sub-batch are
    /// scattered again on the writer's own links, walking their keys'
    /// failover orders (estimates are idempotent under canonical keys),
    /// until every item has a body.
    fn relay(mut self, shared: &RouterShared, own: &mut Links) -> Vec<String> {
        while !self.subs.is_empty() {
            let mut unresolved = Vec::new();
            for (sent, idxs) in std::mem::take(&mut self.subs) {
                match sent.gather_batch(shared, idxs.len()) {
                    Some(item_bodies) => {
                        shared.breakers[sent.backend].on_success();
                        shared.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                        for (i, body) in idxs.into_iter().zip(item_bodies) {
                            self.bodies[i] = Some(body);
                        }
                    }
                    None => {
                        shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                        unresolved.extend(idxs);
                    }
                }
            }
            let (items, deadline_ms) = (&self.items, self.deadline_ms);
            self.subs = scatter(
                shared,
                own,
                items,
                deadline_ms,
                unresolved,
                &mut self.bodies,
            );
        }
        let answered = self.bodies.into_iter();
        answered.map(|b| b.expect("every item answered")).collect()
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
        let body = unwrap_body(line, &format!("{{\"item\":{j},"))
            .ok_or_else(|| format!("malformed batch item line: {line:?}"))?;
        out.push(body.to_owned());
    }
    if !lines[n].contains("\"batch\":") {
        return Err(format!("missing batch summary: {:?}", lines[n]));
    }
    Ok(out)
}

/// The body inside an answer line: what follows `prefix`, without the
/// closing brace.
fn unwrap_body<'a>(line: &'a str, prefix: &str) -> Option<&'a str> {
    line.strip_prefix(prefix)?.strip_suffix('}')
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
