//! The TCP server: the shared report cache and the worker-pool dispatch
//! path, behind the connection pipeline `served` and `routed` share (the
//! `conn` module). Each connection's reader runs admission: cache hits are
//! answered inline, misses go to the shared [`WorkerPool`]. The pool is the
//! only place simulations run; its bounded queue is the overload valve — a
//! full queue turns into an immediate `busy` error, never a blocked reader.
//!
//! # Cache, striping, and single-flight
//!
//! The report cache is a [`StripedCache`]: N independent LRU shards
//! selected by the stable hash of the canonical key, so connections
//! touching different keys never serialize on one global lock, and hit
//! bodies are shared `Arc<str>` handles cloned by pointer rather than by
//! content. Concurrent misses on the *same* key collapse via the cache's
//! per-shard single-flight registry: the first requester leads the one
//! simulation, later requesters join as waiters whose response callbacks
//! fire when the leader completes. A leader must complete its flight on
//! **every** path (success, deadline, storm, panic, pool refusal) — a
//! leaked flight would strand its followers forever.
//!
//! # Counter discipline
//!
//! `hits` and `misses` live in the cache's per-shard counters (the
//! `shards` op exposes them; their sums are the global `stats` numbers).
//! Every delivered item is counted in one place, `Run::settle`, whichever
//! path delivered it. A miss is counted exactly once per simulation
//! actually run, by the leader; every other success — the reader's inline
//! lookup, a dedup follower, a single-flight follower whose bytes came
//! from the cache-to-be — is a hit. Rejections (busy / deadline / parse /
//! bad-request / shutting-down) increment their own counters and are
//! excluded from `requests`; a follower whose leader fails inherits the
//! same typed error and is accounted as the same kind of rejection. So
//! `hits + misses == requests` holds exactly at any quiescent point — the
//! `stats` RPC invariant the determinism test pins. Every tune answer,
//! including the resolve step of a `"hw":"tuned"` conv, is counted once as
//! a search or as cached, so `tunes == tune_searches + tune_cached`.
//!
//! # One request pipeline
//!
//! A single `conv`/`gemm`/`tune`, a `"hw":"tuned"` conv and a `batch` all
//! become one `Run`: an item list whose bodies are settled in any order and
//! written in item order. A single is a batch of one that only the writer
//! frames apart (no item tag, no summary); its batch counters stay put.
//!
//! Admission runs on the reader: drain refusal, canonical key, inline
//! cache hit (no worker slot), intra-request dedup (the first item is the
//! miss, duplicates are hits), then single-flight join or lead. Led
//! simulations form the request's work list, drained by at most one
//! runner job per worker; a runner re-enqueues its continuation at the
//! *back* of the pool FIFO only while the list is non-empty, so a giant
//! sweep cannot starve interleaved requests and a single miss costs
//! exactly one pool job. A `"hw":"tuned"` conv resolves first: from the
//! tune store, or by leading or joining the ordinary `tune` flight on the
//! layer's tune key, after which the item re-enters admission with the
//! concrete work the winner denotes. The batch counters keep
//! `batch_hits + batch_misses + batch_errors == batch_items` at any
//! quiescent point.
//!
//! # Fault seams
//!
//! When [`ServerConfig::faults`] carries an armed [`FaultPoint`], the
//! server consults it at every I/O and dispatch seam: per request line
//! read (`read`), per response line written (`write`, `partial`, `delay`),
//! and per simulation dispatched (`panic`, `deadline`). Every seam is a
//! single `Option` branch when unarmed — the production path pays nothing.
//! Injected socket faults shut the stream down `Both` ways explicitly
//! because the connection registry holds a dup'd handle that would
//! otherwise keep the FD open while the connection lives; injected panics
//! are raised *inside* the dispatch `catch_unwind` so the client always
//! receives a typed `worker-crashed` response instead of an item its writer
//! waits for forever.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use iconv_faults::{FaultPoint, FaultSite};
use iconv_par::{Job, PoolBusy, WorkerPool};
use iconv_trace::TraceSink;

use iconv_api::canonical_key;

use crate::cache::{Admission, Body, FlightOutcome, StripedCache};
use crate::conn::{Acceptor, Bodies, Gate, Slot, Tier};
use crate::protocol::{
    self, error_body, pong_body, shards_body, shutdown_body, stats_body, ErrorKind, Estimate,
    LatencyHist, Request, StatsSnapshot, TuneEstimate, Work,
};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads running simulations; also the most runner jobs one
    /// request may hold in the pool at once.
    pub workers: usize,
    /// Bounded job-queue capacity (overload backpressure threshold).
    pub queue_capacity: usize,
    /// Report-cache capacity in entries (spread across the shards).
    pub cache_capacity: usize,
    /// Lock shards in the report cache (`served --cache-shards`). `0`
    /// means [`StripedCache::DEFAULT_SHARDS`]; `1` is one lock over the
    /// whole cache.
    pub cache_shards: usize,
    /// Armed fault plan consulted at the I/O and dispatch seams (see the
    /// module-level *Fault seams* notes). `None` — the production default
    /// — compiles every seam down to a branch on this `Option`.
    pub faults: Option<Arc<dyn FaultPoint>>,
    /// Persistent tune-store path (`served --tune-cache`). Loaded at boot
    /// — seeding both the best-config store and the response cache, so a
    /// warm boot answers tunes without re-searching — and saved back on
    /// graceful shutdown. `None` keeps tunes process-local.
    pub tune_cache_path: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: iconv_par::default_jobs(),
            queue_capacity: 1024,
            cache_capacity: 16 * 1024,
            cache_shards: 0,
            faults: None,
            tune_cache_path: None,
        }
    }
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    busy: AtomicU64,
    deadline: AtomicU64,
    parse_errors: AtomicU64,
    batches: AtomicU64,
    batch_items: AtomicU64,
    batch_hits: AtomicU64,
    batch_misses: AtomicU64,
    batch_errors: AtomicU64,
    worker_crashes: AtomicU64,
    /// Completed design-space searches answered, however they arrived
    /// (`tune` op, batch item, or the implicit search behind
    /// `"hw":"tuned"`). Ledger: `tunes == tune_searches + tune_cached`.
    tunes: AtomicU64,
    /// Tunes that actually ran the search (cache/store misses).
    tune_searches: AtomicU64,
    /// Tunes answered from the cache, the tune store, or a joined flight.
    tune_cached: AtomicU64,
    /// Service-time histograms, striped by cache shard so concurrent
    /// recorders contend no harder than the cache itself; the `stats` op
    /// merges the stripes (exact — the layout is fixed). Sized to the
    /// cache's shard count at spawn.
    service_hists: Vec<Mutex<LatencyHist>>,
}

impl Counters {
    fn with_stripes(n: usize) -> Self {
        Self {
            service_hists: (0..n.max(1))
                .map(|_| Mutex::new(LatencyHist::new()))
                .collect(),
            ..Self::default()
        }
    }

    /// Record one successful request's service time, stamped from `since`
    /// (request receipt). `stripe` is the request's cache-shard index —
    /// already in hand at every call site — so recording contends only
    /// with requests of the same shard.
    fn record_latency(&self, since: Instant, stripe: usize) {
        let us = since.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let slot = stripe % self.service_hists.len();
        self.service_hists[slot]
            .lock()
            .expect("latency stripe poisoned")
            .record(us);
    }

    /// Count one tune answered: a search that ran, or one served from the
    /// cache, the tune store or a joined flight. Every tune delivery goes
    /// through here, which keeps `tunes == tune_searches + tune_cached`.
    fn count_tune(&self, searched: bool) {
        self.tunes.fetch_add(1, Ordering::Relaxed);
        let ledger = if searched {
            &self.tune_searches
        } else {
            &self.tune_cached
        };
        ledger.fetch_add(1, Ordering::Relaxed);
    }

    /// Merge every stripe into one histogram (the `stats` view).
    fn merged_hist(&self) -> LatencyHist {
        let mut all = LatencyHist::new();
        for stripe in &self.service_hists {
            all.merge(&stripe.lock().expect("latency stripe poisoned"));
        }
        all
    }
}

struct Shared {
    counters: Counters,
    cache: StripedCache,
    pool: WorkerPool,
    workers: usize,
    /// Armed fault plan, if any (see [`ServerConfig::faults`]).
    faults: Option<Arc<dyn FaultPoint>>,
    /// Best-config results of every completed design-space search, keyed
    /// by canonical tune key — what `"hw":"tuned"` requests consult, and
    /// what `--tune-cache` persists across restarts.
    tune_store: Mutex<iconv_tune::TuneCache>,
    /// Where to save the tune store on graceful shutdown.
    tune_cache_path: Option<std::path::PathBuf>,
    gate: Gate,
}

impl Shared {
    fn tune_store(&self) -> MutexGuard<'_, iconv_tune::TuneCache> {
        self.tune_store.lock().expect("tune store poisoned")
    }

    fn snapshot(&self) -> StatsSnapshot {
        let c = &self.counters;
        let (queue_depth, in_flight) =
            (self.pool.queue_depth() as u64, self.pool.in_flight() as u64);
        let (faults_injected, faults_observed) = self.faults.as_ref().map_or((0, 0), |f| {
            let fc = f.counters();
            (fc.injected_total(), fc.observed_total())
        });
        StatsSnapshot {
            requests: c.served.load(Ordering::Relaxed),
            hits: self.cache.hits(),
            misses: self.cache.misses(),
            evictions: self.cache.evictions(),
            cache_entries: self.cache.len() as u64,
            cache_capacity: self.cache.capacity() as u64,
            queue_depth,
            in_flight,
            busy_rejections: c.busy.load(Ordering::Relaxed),
            deadline_expired: c.deadline.load(Ordering::Relaxed),
            parse_errors: c.parse_errors.load(Ordering::Relaxed),
            workers: self.workers as u64,
            batches: c.batches.load(Ordering::Relaxed),
            batch_items: c.batch_items.load(Ordering::Relaxed),
            batch_hits: c.batch_hits.load(Ordering::Relaxed),
            batch_misses: c.batch_misses.load(Ordering::Relaxed),
            batch_errors: c.batch_errors.load(Ordering::Relaxed),
            worker_crashes: c.worker_crashes.load(Ordering::Relaxed),
            faults_injected,
            faults_observed,
            tunes: c.tunes.load(Ordering::Relaxed),
            tune_searches: c.tune_searches.load(Ordering::Relaxed),
            tune_cached: c.tune_cached.load(Ordering::Relaxed),
            service_hist: c.merged_hist(),
        }
    }

    /// Mirror the counters into an `iconv-trace` sink (the `stats` RPC is
    /// the live view; this writes the same numbers as trace counters for
    /// offline tooling).
    fn emit_trace(&self, sink: &mut dyn TraceSink) {
        let s = self.snapshot();
        sink.counter("serve.requests", s.requests);
        sink.counter("serve.cache_hits", s.hits);
        sink.counter("serve.cache_misses", s.misses);
        sink.counter("serve.cache_evictions", s.evictions);
        sink.counter("serve.queue_depth", s.queue_depth);
        sink.counter("serve.busy_rejections", s.busy_rejections);
        sink.counter("serve.deadline_expired", s.deadline_expired);
        sink.counter("serve.parse_errors", s.parse_errors);
        sink.counter("serve.batch.batches", s.batches);
        sink.counter("serve.batch.items", s.batch_items);
        sink.counter("serve.batch.hits", s.batch_hits);
        sink.counter("serve.batch.misses", s.batch_misses);
        sink.counter("serve.batch.errors", s.batch_errors);
        sink.counter("serve.worker_crashes", s.worker_crashes);
        sink.counter("serve.tune.tunes", s.tunes);
        sink.counter("serve.tune.searches", s.tune_searches);
        sink.counter("serve.tune.cached", s.tune_cached);
        sink.counter("serve.fault.injected", s.faults_injected);
        sink.counter("serve.fault.observed", s.faults_observed);
        for shard in self.cache.shard_stats() {
            let i = shard.shard as usize;
            sink.counter_indexed("serve.shard", i, "hits", shard.hits);
            sink.counter_indexed("serve.shard", i, "misses", shard.misses);
            sink.counter_indexed("serve.shard", i, "evictions", shard.evictions);
            sink.counter_indexed("serve.shard", i, "entries", shard.entries);
        }
        if let Some(f) = &self.faults {
            let fc = f.counters();
            for site in FaultSite::ALL {
                sink.counter(
                    &format!("serve.fault.injected.{}", site.name()),
                    fc.injected[site.index()],
                );
                sink.counter(
                    &format!("serve.fault.observed.{}", site.name()),
                    fc.observed[site.index()],
                );
            }
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] aborts the process-local threads abruptly;
/// call `shutdown` for the graceful drain.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Acceptor,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.addr
    }

    /// Current counter snapshot (same numbers as the `stats` RPC).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// The per-stripe service-time histograms (one per cache shard), as
    /// recorded so far. Their bucket-wise sum is exactly the `stats` op's
    /// `service_hist` — the ledger identity the capacity tests pin.
    pub fn service_hist_stripes(&self) -> Vec<LatencyHist> {
        self.shared
            .counters
            .service_hists
            .iter()
            .map(|m| m.lock().expect("latency stripe poisoned").clone())
            .collect()
    }

    /// Emit the counters into an `iconv-trace` sink.
    pub fn emit_trace(&self, sink: &mut dyn TraceSink) {
        self.shared.emit_trace(sink);
    }

    /// Block until some client sends the `shutdown` op (or
    /// [`ServerHandle::request_shutdown`] is called locally).
    pub fn wait_shutdown_requested(&self) {
        self.shared.gate.wait(Duration::MAX);
    }

    /// Begin refusing new work, as if a `shutdown` op had arrived.
    pub fn request_shutdown(&self) {
        self.shared.gate.request_shutdown();
    }

    /// Graceful teardown: stop accepting connections, drain queued and
    /// in-flight simulations, deliver their responses (cutting off, after a
    /// second, a client that does not read them), and join every thread.
    pub fn shutdown(self) -> StatsSnapshot {
        self.shared.gate.request_shutdown();
        self.acceptor.stop();
        // Drain the pool: queued jobs run to completion and settle their
        // items' bodies for the writers before this returns. The pool's
        // `shutdown` takes `&self`, so batch runners resubmitting their
        // continuations race against it without any outer lock to deadlock
        // on — a refused continuation just keeps draining inline.
        self.shared.pool.shutdown();
        // Stop every reader; writers get a bounded time to send what they owe.
        self.shared.gate.close_all();
        // Persist every search this process completed (best-effort: a
        // full disk must not turn a clean drain into a crash).
        if let Some(path) = &self.shared.tune_cache_path {
            if let Err(e) = self.shared.tune_store().save(path) {
                eprintln!("iconv-serve: {e}");
            }
        }
        self.shared.snapshot()
    }
}

/// Spawn a server on `cfg.addr`.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let workers = cfg.workers.max(1);
    let cache_shards = if cfg.cache_shards == 0 {
        StripedCache::DEFAULT_SHARDS
    } else {
        cfg.cache_shards
    };
    // A corrupt tune cache refuses the boot rather than silently serving
    // a cold store — the operator asked for persistence and did not get it.
    let tune_store = match &cfg.tune_cache_path {
        Some(path) => iconv_tune::TuneCache::load(path)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?,
        None => iconv_tune::TuneCache::new(),
    };
    let shared = Arc::new(Shared {
        counters: Counters::with_stripes(cache_shards),
        cache: StripedCache::new(cfg.cache_capacity.max(1), cache_shards),
        pool: WorkerPool::new(workers, cfg.queue_capacity.max(1)),
        workers,
        tune_store: Mutex::new(tune_store),
        tune_cache_path: cfg.tune_cache_path,
        faults: cfg.faults,
        gate: Gate::default(),
    });
    // Warm the response cache from the loaded store: a tune for a
    // persisted key is a plain cache hit on the very first request.
    {
        let store = shared.tune_store();
        for (tune_key, est) in store.iter() {
            shared
                .cache
                .insert(tune_key.to_owned(), Body::from(protocol::tune_body(est)));
        }
    }
    let acceptor = Acceptor::spawn(listener, &shared)?;
    Ok(ServerHandle { shared, acceptor })
}

/// One admitted unit of a request: the item line it answers and its
/// work. A `resolve` item is a `"hw":"tuned"` conv's tune step: its work
/// is the layer's `tune`, and its answer is not sent but turned into the
/// concrete work the winner denotes, which re-enters admission as the
/// same item.
#[derive(Clone, Copy)]
struct Item {
    index: usize,
    work: Work,
    resolve: bool,
}

impl Item {
    fn answer(index: usize, work: Work) -> Self {
        Self {
            index,
            work,
            resolve: false,
        }
    }

    /// The concrete estimate a resolve item becomes once its layer's
    /// winning configuration is known.
    fn resolved(self, est: &TuneEstimate) -> Self {
        let Work::Tune { shape, .. } = self.work else {
            unreachable!("only a layer's tune step resolves");
        };
        Self::answer(self.index, est.best.to_work(shape))
    }
}

/// One deduplicated simulation owed to a request: its cache key and
/// shard, and every item that asked for it (first = the miss, rest hits).
struct PendingSim {
    key: String,
    shard: usize,
    items: Vec<Item>,
}

/// A request's un-simulated work list, the runner jobs draining it, and
/// its item bodies: settled in any order (inline, by a runner, or by
/// another request's flight), taken by the writer in item order.
#[derive(Default)]
struct WorkList {
    sims: VecDeque<PendingSim>,
    /// Runner jobs queued or running for this request.
    runners: usize,
    bodies: Vec<Option<Body>>,
    /// The item the writer waits for, if it waits.
    waiting: Option<usize>,
}

/// One admitted request — a single `conv`/`gemm`/`tune`, a `"hw":"tuned"`
/// conv, or a `batch` — and the state its items share until every item is
/// answered. A single is a batch of one; only the writer frames it apart.
struct Run {
    shared: Arc<Shared>,
    deadline: Option<Duration>,
    t0: Instant,
    /// Only a batch moves the `serve.batch.*` counters.
    batch: bool,
    list: Mutex<WorkList>,
    /// Signalled when the item the writer waits for is answered.
    answered: Condvar,
}

impl Run {
    /// Admission, the one path every item takes: the tune-store resolve
    /// step, an inline cache hit (no worker slot, deadline ignored — a
    /// hit costs microseconds), intra-request dedup, or a single-flight
    /// join or lead. Led simulations go on the work list, and runners are
    /// dispatched for them.
    fn admit(self: &Arc<Self>, items: Vec<Item>) {
        let cache = &self.shared.cache;
        // Led simulations stay local until the pass ends — no runner is
        // draining them, so dedup slot indices stay valid.
        let mut led: Vec<PendingSim> = Vec::new();
        let mut dedup: BTreeMap<String, usize> = BTreeMap::new();
        for mut item in items {
            let mut key = canonical_key(&item.work);
            if item.resolve {
                // A layer tuned before (this boot, or a warm-loaded store)
                // resolves without a flight.
                let stored = self.shared.tune_store().get(&key).copied();
                if let Some(est) = stored {
                    self.shared.counters.count_tune(false);
                    item = item.resolved(&est);
                    key = canonical_key(&item.work);
                }
            }
            let shard = cache.shard_of(&key);
            if let Some(body) = cache.get(&key) {
                self.settle(item, shard, false, &FlightOutcome::Ready(body));
                continue;
            }
            if let Some(&slot) = dedup.get(&key) {
                led[slot].items.push(item);
                continue;
            }
            let waiter = Arc::clone(self);
            match cache.admit(&key, move |o| waiter.settle(item, shard, false, o)) {
                // Raced in since the lock-free get: an ordinary hit.
                Admission::Cached(body) => {
                    self.settle(item, shard, false, &FlightOutcome::Ready(body));
                }
                Admission::Joined => {}
                Admission::Lead => {
                    dedup.insert(key.clone(), led.len());
                    led.push(PendingSim {
                        key,
                        shard,
                        items: vec![item],
                    });
                }
            }
        }
        if !led.is_empty() {
            self.list().sims.extend(led);
            self.dispatch();
        }
    }

    fn list(&self) -> MutexGuard<'_, WorkList> {
        self.list.lock().expect("work list poisoned")
    }

    /// Top this request's runners up to `min(workers, queued sims)`: one
    /// request holds at most one pool job per worker, and the rest of its
    /// items wait on its own work list, so a giant sweep never monopolizes
    /// the queue against other clients.
    /// A chunk the pool cannot take whole degrades to one runner (slower,
    /// but admitted). If the pool takes none and no runner is live, every
    /// queued simulation is refused `busy` or `shutting-down`.
    fn dispatch(self: &Arc<Self>) {
        let want = {
            let mut list = self.list();
            let cap = self.shared.workers.min(list.sims.len());
            let want = cap.saturating_sub(list.runners);
            list.runners += want;
            want
        };
        if want == 0 {
            return;
        }
        let runner = || {
            let run = Arc::clone(self);
            Box::new(move || run_step(&run)) as Job
        };
        let pool = &self.shared.pool;
        // One runner wakes one worker; a chunk is admitted all-or-nothing.
        let submitted = if want == 1 {
            pool.try_submit(runner())
        } else {
            pool.try_submit_batch((0..want).map(|_| runner()).collect())
        };
        let Err(e) = submitted else {
            return;
        };
        let started = usize::from(want > 1 && pool.try_submit(runner()).is_ok());
        let refused: Vec<PendingSim> = {
            let mut list = self.list();
            list.runners -= want - started;
            if list.runners == 0 {
                list.sims.drain(..).collect()
            } else {
                Vec::new()
            }
        };
        let kind = match e {
            PoolBusy::QueueFull => ErrorKind::Busy,
            PoolBusy::ShuttingDown => ErrorKind::ShuttingDown,
        };
        for sim in refused {
            self.finish(sim, &FlightOutcome::Failed(kind, e.to_string()));
        }
    }

    /// Pop the next simulation, or retire the calling runner when the
    /// list is empty.
    fn next_sim(&self) -> Option<PendingSim> {
        let mut list = self.list();
        let sim = list.sims.pop_front();
        if sim.is_none() {
            list.runners -= 1;
        }
        sim
    }

    /// The runner's seams, in order: the queue deadline, the
    /// deadline-storm fault, then the evaluator under `catch_unwind` with
    /// the worker-panic fault raised *inside* it. Every path yields an
    /// outcome, so every item is answered — a swallowed one would leave the
    /// writer waiting for it and hang the connection. A search's winner
    /// goes into the tune store here, before the flight completes, so
    /// every resolve that led or joined the flight finds it there.
    fn simulate(&self, sim: &PendingSim) -> FlightOutcome {
        let fire = |site| {
            self.shared.faults.as_ref().is_some_and(|f| {
                let hit = f.decide(site).is_some();
                if hit {
                    f.observe(site);
                }
                hit
            })
        };
        if self.deadline.is_some_and(|d| self.t0.elapsed() > d) || fire(FaultSite::DeadlineStorm) {
            return FlightOutcome::Failed(ErrorKind::Deadline, "deadline expired in queue".into());
        }
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if fire(FaultSite::WorkerPanic) {
                panic!("iconv-faults: injected worker panic");
            }
            iconv_tune::estimate(&sim.items[0].work)
        }));
        match ran {
            Ok(est) => {
                if let Estimate::Tune(best) = est {
                    self.shared.tune_store().insert(sim.key.clone(), best);
                }
                FlightOutcome::Ready(Body::from(est.body()))
            }
            Err(_) => {
                let c = &self.shared.counters;
                c.worker_crashes.fetch_add(1, Ordering::Relaxed);
                FlightOutcome::Failed(
                    ErrorKind::WorkerCrashed,
                    "simulation worker panicked".into(),
                )
            }
        }
    }

    /// Complete a led flight — caching a `Ready` body and answering every
    /// joined follower — then settle the group's own items. The first item
    /// is the one that paid for the simulation.
    fn finish(self: &Arc<Self>, sim: PendingSim, outcome: &FlightOutcome) {
        self.shared.cache.complete(&sim.key, outcome);
        for (j, &item) in sim.items.iter().enumerate() {
            self.settle(item, sim.shard, j == 0, outcome);
        }
    }

    /// Deliver one item's outcome and make every ledger increment for it.
    /// `led` marks the item whose simulation or search actually ran; any
    /// other `Ready` delivery (inline hit, dedup or single-flight
    /// follower) is a hit. A resolve item counts only in the tune ledger
    /// and re-enters admission with the concrete work of the winner the
    /// search's runner stored.
    fn settle(self: &Arc<Self>, item: Item, shard: usize, led: bool, outcome: &FlightOutcome) {
        let c = &self.shared.counters;
        let body = match outcome {
            FlightOutcome::Ready(body) => body,
            FlightOutcome::Failed(kind, detail) => {
                // Rejections stay out of `requests`. Worker crashes were
                // counted once, at the panic; drain refusals have no counter.
                match kind {
                    ErrorKind::Busy => c.busy.fetch_add(1, Ordering::Relaxed),
                    ErrorKind::Deadline => c.deadline.fetch_add(1, Ordering::Relaxed),
                    _ => 0,
                };
                self.count_batch(&c.batch_errors);
                self.answer(item.index, Body::from(error_body(*kind, detail)));
                return;
            }
        };
        if matches!(item.work, Work::Tune { .. }) {
            if item.resolve {
                let key = canonical_key(&item.work);
                let stored = self.shared.tune_store().get(&key).copied();
                let Some(best) = stored else {
                    // Unreachable: a tune body is cached only after its
                    // winner is stored. Answered anyway.
                    let missing = FlightOutcome::Failed(
                        ErrorKind::WorkerCrashed,
                        "tune result missing from the store".into(),
                    );
                    return self.settle(item, shard, led, &missing);
                };
                c.count_tune(led);
                self.admit(vec![item.resolved(&best)]);
                return;
            }
            c.count_tune(led);
        }
        if led {
            self.shared.cache.note_miss(shard);
            self.count_batch(&c.batch_misses);
        } else {
            self.shared.cache.note_hit(shard);
            self.count_batch(&c.batch_hits);
        }
        c.served.fetch_add(1, Ordering::Relaxed);
        c.record_latency(self.t0, shard);
        self.answer(item.index, Arc::clone(body));
    }

    fn count_batch(&self, counter: &AtomicU64) {
        if self.batch {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Settle item `i`'s body, waking the writer if it waits for it.
    fn answer(&self, i: usize, body: Body) {
        let mut list = self.list();
        list.bodies[i] = Some(body);
        if list.waiting == Some(i) {
            self.answered.notify_one();
        }
    }

    /// Take item `i`'s body; one not settled yet is `None`, unless `wait`,
    /// which blocks until it is.
    fn body(&self, i: usize, wait: bool) -> Option<Body> {
        let mut list = self.list();
        loop {
            if let Some(body) = list.bodies[i].take() {
                return Some(body);
            }
            if !wait {
                return None;
            }
            list.waiting = Some(i);
            list = self.answered.wait(list).expect("work list poisoned");
        }
    }
}

/// A runner: answer one simulation off the request's work list, then —
/// only while the list is non-empty — yield by re-enqueueing a
/// continuation at the *back* of the pool FIFO, so a giant sweep cannot
/// starve interleaved requests. If the pool refuses the continuation
/// (full queue or draining), keep going inline: progress is never
/// sacrificed to fairness.
fn run_step(run: &Arc<Run>) {
    while let Some(sim) = run.next_sim() {
        let outcome = run.simulate(&sim);
        run.finish(sim, &outcome);
        if run.list().sims.is_empty() {
            continue;
        }
        let cont = Arc::clone(run);
        if run.shared.pool.try_submit(move || run_step(&cont)).is_ok() {
            return;
        }
    }
}

impl Tier for Shared {
    const NAME: &'static str = "iconv-serve";
    type Body = Body;
    type Pending = Arc<Run>;
    type Reader = ();
    type Writer = ();

    fn gate(&self) -> &Gate {
        &self.gate
    }

    fn faults(&self) -> Option<&Arc<dyn FaultPoint>> {
        self.faults.as_ref()
    }

    fn parse_error(&self) {
        self.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Answer the local ops at once. Refuse an estimate or a batch while
    /// draining; otherwise count a batch and admit its items.
    fn admit(self: &Arc<Self>, req: Request, _: &str, t0: Instant, (): &mut ()) -> Slot<Self> {
        let (id, deadline_ms, batch, items) = match req {
            Request::Ping { id } => return Slot::one(id, pong_body()),
            Request::Stats { id } => return Slot::one(id, stats_body(&self.snapshot())),
            Request::Shards { id } => {
                return Slot::one(id, shards_body(&self.cache.shard_stats()));
            }
            Request::Shutdown { id } => {
                self.gate.request_shutdown();
                return Slot::one(id, shutdown_body());
            }
            Request::Estimate(req) => (
                req.id,
                req.deadline_ms,
                None,
                vec![Item::answer(0, req.work)],
            ),
            // The resolve step runs first, under the layer's tune key; its
            // outcome hands admission the concrete work.
            Request::TunedEstimate {
                id,
                shape,
                target,
                deadline_ms,
            } => {
                let item = Item {
                    index: 0,
                    work: Work::Tune { shape, target },
                    resolve: true,
                };
                (id, deadline_ms, None, vec![item])
            }
            Request::Batch {
                id,
                items,
                deadline_ms,
            } => {
                let n = items.len();
                let items = items.into_iter().enumerate();
                (
                    id,
                    deadline_ms,
                    Some(n),
                    items.map(|(i, w)| Item::answer(i, w)).collect(),
                )
            }
        };
        if self.gate.draining() {
            let refusal = Body::from(error_body(ErrorKind::ShuttingDown, "server is draining"));
            return Slot::ready(id, batch, vec![refusal; items.len()]);
        }
        if let Some(n) = batch {
            let c = &self.counters;
            c.batches.fetch_add(1, Ordering::Relaxed);
            c.batch_items.fetch_add(n as u64, Ordering::Relaxed);
        }
        let run = Arc::new(Run {
            shared: Arc::clone(self),
            deadline: deadline_ms.map(Duration::from_millis),
            t0,
            batch: batch.is_some(),
            list: Mutex::new(WorkList {
                bodies: vec![None; items.len()],
                ..WorkList::default()
            }),
            answered: Condvar::new(),
        });
        run.admit(items);
        Slot {
            id,
            batch,
            bodies: Bodies::Pending(run),
        }
    }

    fn body(&self, run: &mut Arc<Run>, i: usize, wait: bool, (): &mut ()) -> Option<Body> {
        run.body(i, wait)
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    use super::*;

    /// Strict request/response lockstep: each line is answered before the
    /// next is sent, so a repeated request is guaranteed to see the cache
    /// entry its predecessor created.
    fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        lines
            .iter()
            .map(|l| {
                writeln!(stream, "{l}").unwrap();
                let mut resp = String::new();
                reader.read_line(&mut resp).unwrap();
                resp.trim_end().to_owned()
            })
            .collect()
    }

    #[test]
    fn ping_stats_and_graceful_shutdown() {
        let h = spawn(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = h.local_addr();
        let out = roundtrip(
            addr,
            &[
                r#"{"id":"p","op":"ping"}"#,
                r#"{"op":"conv","layer":{"n":1,"ci":64,"hi":14,"wi":14,"co":64,"hf":3,"wf":3,"pad":1}}"#,
                r#"{"op":"conv","layer":{"n":1,"ci":64,"hi":14,"wi":14,"co":64,"hf":3,"wf":3,"pad":1}}"#,
                r#"{"op":"stats"}"#,
            ],
        );
        assert!(out[0].contains("\"id\":\"p\""), "{}", out[0]);
        assert!(out[0].contains("\"pong\":true"));
        assert_eq!(out[1], out[2], "cache replay must be byte-identical");
        let stats = match protocol::parse_response(&out[3]).unwrap() {
            protocol::Response::Stats { stats, .. } => stats,
            other => panic!("{other:?}"),
        };
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.hits + stats.misses, stats.requests);
        assert_eq!(stats.hits, 1);
        // Singles are batches of one internally, but never batch-counted.
        assert_eq!((stats.batches, stats.batch_items), (0, 0));
        let final_stats = h.shutdown();
        assert_eq!(final_stats.requests, 2);
    }

    #[test]
    fn malformed_lines_get_typed_errors_not_disconnects() {
        let h = spawn(ServerConfig::default()).unwrap();
        let out = roundtrip(
            h.local_addr(),
            &[
                "{not json",
                r#"{"op":"warp"}"#,
                r#"{"id":"still-alive","op":"ping"}"#,
            ],
        );
        assert!(out[0].contains("\"error\":\"parse\""), "{}", out[0]);
        assert!(out[1].contains("\"error\":\"bad-request\""), "{}", out[1]);
        assert!(out[2].contains("\"pong\":true"), "{}", out[2]);
        let stats = h.shutdown();
        assert_eq!(stats.parse_errors, 2);
        assert_eq!(stats.requests, 0);
    }

    #[test]
    fn batch_streams_items_in_order_and_dedups() {
        let h = spawn(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut stream = TcpStream::connect(h.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // Items 0 and 2 are the same canonical work: one simulation, the
        // follower answered as a hit.
        writeln!(
            stream,
            "{}",
            concat!(
                r#"{"id":"b","op":"batch","items":["#,
                r#"{"op":"gemm","m":64,"n":64,"k":64},"#,
                r#"{"op":"gemm","m":96,"n":96,"k":96},"#,
                r#"{"op":"gemm","m":64,"n":64,"k":64}]}"#
            )
        )
        .unwrap();
        let mut lines = Vec::new();
        for _ in 0..4 {
            let mut l = String::new();
            reader.read_line(&mut l).unwrap();
            lines.push(l.trim_end().to_owned());
        }
        for (i, line) in lines.iter().take(3).enumerate() {
            assert!(line.contains(&format!("\"item\":{i},")), "{line}");
            assert!(line.contains("\"id\":\"b\""), "{line}");
        }
        assert_eq!(
            lines[0].replace("\"item\":0,", ""),
            lines[2].replace("\"item\":2,", ""),
            "deduped items must be byte-identical modulo the item tag"
        );
        assert!(
            lines[3].contains("\"batch\":{\"items\":3,\"errors\":0}"),
            "{}",
            lines[3]
        );
        let stats = h.shutdown();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batch_items, 3);
        assert_eq!(stats.batch_misses, 2);
        assert_eq!(stats.batch_hits, 1);
        assert_eq!(stats.batch_errors, 0);
        assert_eq!(stats.hits + stats.misses, stats.requests);
        assert_eq!(stats.requests, 3);
    }

    #[test]
    fn shutdown_op_drains_and_refuses() {
        let h = spawn(ServerConfig::default()).unwrap();
        let addr = h.local_addr();
        let out = roundtrip(
            addr,
            &[
                r#"{"op":"gemm","m":256,"n":256,"k":256}"#,
                r#"{"op":"shutdown"}"#,
                r#"{"op":"gemm","m":512,"n":512,"k":512}"#,
            ],
        );
        assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
        assert!(out[1].contains("\"shutdown\":true"), "{}", out[1]);
        assert!(out[2].contains("shutting-down"), "{}", out[2]);
        h.wait_shutdown_requested();
        h.shutdown();
    }
}
