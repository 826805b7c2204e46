//! The NDJSON wire protocol: request/response types, their codecs, and the
//! typed error vocabulary — shared verbatim by the server, the clients,
//! and the `routed` front-end, so there is exactly one place the wire
//! format is defined.
//!
//! One JSON object per line in each direction. Requests carry an `op` —
//! one entry of the [`Op`] registry (`conv`, `gemm`, `tune`, `batch`,
//! `stats`, `shards`, `ping`, `shutdown`) — an optional client `id` echoed
//! verbatim in the response, and an optional `deadline_ms` after which a
//! queued request is answered with a `deadline` error instead of being
//! simulated. Responses always carry `"ok":true|false`; failures name one
//! of the [`ErrorKind`] codes.
//!
//! A `tune` request (`{"op":"tune","target":"tpu"|"gpu",...}`) asks for
//! the best design-space configuration for a layer; the response carries
//! the winning [`TunedConfig`] plus tuned-vs-default cycle counts. A
//! `conv` request may spell `"hw":"tuned"` to have the server look the
//! layer's tuned config up (or search for it) and estimate under it.
//!
//! A `batch` request carries either `"items": [...]` (an array of estimate
//! objects, each shaped like a standalone `conv`/`gemm` request without
//! `id`/`deadline_ms`) or `"sweep": {...}` (a compact
//! [`crate::SweepSpec`]: base layer + axis value lists). The server
//! answers with one response line *per item*, tagged `"item": <index>`, in
//! item order, followed by a summary line `{"ok":true,"batch":{...}}` — so
//! a well-formed batch of `n` items always produces exactly `n + 1` lines.
//!
//! GPU cycle counts are `f64` and must survive the wire *bit*-exactly for
//! the `--via-serve` determinism guarantee, so estimates carry them twice:
//! a human-readable decimal (`cycles`) and an authoritative hex rendering
//! of the IEEE-754 bits (`cycles_bits`) that the client decodes.

use std::fmt;

use iconv_core::PipelineSchedule;
use iconv_gpusim::GpuAlgo;
use iconv_tensor::{ConvShape, Layout};
use iconv_tpusim::SimMode;

use crate::json::{self, write_str, Json};

// The request vocabulary lives beside this module; re-exported here so the
// codec surface is self-contained for downstream `use proto::*` callers.
pub use crate::{
    GpuHwSpec, LatencyHist, SweepError, SweepSpec, SweepTarget, TpuChip, TpuHwSpec, TuneTarget,
    TunedConfig, Work, MAX_LINE_BYTES, MAX_SWEEP_ITEMS,
};

/// The operation registry: every verb the wire accepts, in one place.
/// Adding an op means adding a variant here plus its parse/encode arms —
/// the server, clients, and router all match on this enum, never on raw
/// strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Convolution estimate (TPU or GPU, by `target`).
    Conv,
    /// Plain GEMM estimate on the TPU model.
    Gemm,
    /// Design-space search: best config for a layer on a target.
    Tune,
    /// Many estimates admitted as one unit (item array or sweep spec).
    Batch,
    /// Counter snapshot.
    Stats,
    /// Per-shard cache counters.
    Shards,
    /// Liveness probe.
    Ping,
    /// Graceful drain.
    Shutdown,
}

impl Op {
    /// Every op, in documentation order.
    pub const ALL: [Op; 8] = [
        Op::Conv,
        Op::Gemm,
        Op::Tune,
        Op::Batch,
        Op::Stats,
        Op::Shards,
        Op::Ping,
        Op::Shutdown,
    ];

    /// Wire spelling of the op.
    pub fn wire(self) -> &'static str {
        match self {
            Op::Conv => "conv",
            Op::Gemm => "gemm",
            Op::Tune => "tune",
            Op::Batch => "batch",
            Op::Stats => "stats",
            Op::Shards => "shards",
            Op::Ping => "ping",
            Op::Shutdown => "shutdown",
        }
    }

    /// Inverse of [`Op::wire`].
    pub fn from_wire(s: &str) -> Option<Op> {
        Op::ALL.iter().copied().find(|op| op.wire() == s)
    }

    /// Ops that denote one unit of simulation work — exactly the ops valid
    /// as `batch` items.
    pub fn is_estimate(self) -> bool {
        matches!(self, Op::Conv | Op::Gemm | Op::Tune)
    }

    /// `"a, b, ... or z"` rendering of a set of ops, for error details.
    fn expected(ops: &[Op]) -> String {
        let mut out = String::new();
        for (i, op) in ops.iter().enumerate() {
            if i > 0 {
                out.push_str(if i + 1 == ops.len() { " or " } else { ", " });
            }
            out.push_str(op.wire());
        }
        out
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire())
    }
}

/// An estimate request: the work plus delivery metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateRequest {
    /// Client-chosen id, echoed in the response.
    pub id: Option<String>,
    /// What to simulate.
    pub work: Work,
    /// Queue deadline in milliseconds; expired requests are answered with a
    /// `deadline` error instead of being simulated (cache hits are served
    /// regardless, since they cost nothing).
    pub deadline_ms: Option<u64>,
}

/// Any request the server accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `conv` / `gemm` / `tune`.
    Estimate(EstimateRequest),
    /// A `conv` spelled `"hw":"tuned"`: estimate the layer under its tuned
    /// configuration. The server resolves the tune (from its store, or by
    /// searching) and then runs the concrete estimate the winner denotes.
    TunedEstimate {
        /// Echoed id.
        id: Option<String>,
        /// Layer shape.
        shape: ConvShape,
        /// Which target's tuned config to apply.
        target: TuneTarget,
        /// Queue deadline applied to the whole resolve-then-estimate.
        deadline_ms: Option<u64>,
    },
    /// `batch`: many estimates admitted as one unit. The item list is fully
    /// expanded at parse time (sweeps included), so by the time the server
    /// sees this variant every item is a concrete, validated [`Work`].
    Batch {
        /// Echoed id (also echoed on every item line).
        id: Option<String>,
        /// The items, in request order.
        items: Vec<Work>,
        /// Queue deadline applied to the batch as a whole.
        deadline_ms: Option<u64>,
    },
    /// Counter snapshot.
    Stats {
        /// Echoed id.
        id: Option<String>,
    },
    /// Per-shard cache counter snapshot (the striped cache's internals;
    /// shard sums must equal the global `stats` counters).
    Shards {
        /// Echoed id.
        id: Option<String>,
    },
    /// Liveness probe.
    Ping {
        /// Echoed id.
        id: Option<String>,
    },
    /// Graceful shutdown: drain in-flight work, refuse new requests.
    Shutdown {
        /// Echoed id.
        id: Option<String>,
    },
}

/// The protocol's error vocabulary (the `error` field of a failure
/// response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The worker queue is full — explicit backpressure, never a hang.
    Busy,
    /// The request's `deadline_ms` elapsed while it sat in the queue.
    Deadline,
    /// The line was not valid JSON.
    Parse,
    /// Valid JSON, but not a valid request (unknown op, bad field, shape
    /// that fails validation).
    BadRequest,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// The worker running the simulation panicked. The request itself is
    /// answered (never hung); since estimates are idempotent under
    /// canonical cache keys, a client may safely retry.
    WorkerCrashed,
}

impl ErrorKind {
    /// Wire spelling of the code.
    pub fn wire(self) -> &'static str {
        match self {
            ErrorKind::Busy => "busy",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Parse => "parse",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::WorkerCrashed => "worker-crashed",
        }
    }

    /// Inverse of [`ErrorKind::wire`].
    pub fn from_wire(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "busy" => ErrorKind::Busy,
            "deadline" => ErrorKind::Deadline,
            "parse" => ErrorKind::Parse,
            "bad-request" => ErrorKind::BadRequest,
            "shutting-down" => ErrorKind::ShuttingDown,
            "worker-crashed" => ErrorKind::WorkerCrashed,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire())
    }
}

/// A request that could not be turned into [`Request`]: the typed kind
/// (`parse` for JSON syntax, `bad-request` for shape/semantics), a detail
/// string, and the client id when one could be salvaged from the line.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// `Parse` or `BadRequest`.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub detail: String,
    /// The request's `id`, if the line parsed far enough to find one.
    pub id: Option<String>,
}

impl RequestError {
    fn bad(detail: impl Into<String>) -> Self {
        Self {
            kind: ErrorKind::BadRequest,
            detail: detail.into(),
            id: None,
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

impl std::error::Error for RequestError {}

/// A successful TPU estimate, as decoded by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TpuEstimate {
    /// Total cycles.
    pub cycles: u64,
    /// GEMM-streaming (compute) cycles.
    pub compute_cycles: u64,
    /// DRAM cycles not hidden under compute.
    pub exposed_memory_cycles: u64,
    /// DRAM bytes moved.
    pub dram_bytes: u64,
    /// Peak on-chip IFMap workspace, bytes.
    pub workspace_bytes: u64,
    /// FLOPs performed.
    pub flops: u64,
    /// Dispatch phase span.
    pub dispatch: u64,
    /// First-fill phase span.
    pub first_fill: u64,
    /// Steady phase span.
    pub steady: u64,
}

/// A successful GPU estimate, as decoded by the client. All `f64` fields
/// are reconstructed from their hex bit renderings, so they equal the
/// server-side values bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpuEstimate {
    /// Total cycles (includes launch overhead).
    pub cycles: f64,
    /// Tensor-core compute cycles.
    pub compute_cycles: f64,
    /// DRAM transfer cycles.
    pub memory_cycles: f64,
    /// Explicit-transform cycles (zero for implicit algorithms).
    pub transform_cycles: f64,
    /// Thread blocks launched.
    pub blocks: u64,
    /// Useful convolution FLOPs.
    pub flops: u64,
}

/// A successful `tune` response, as decoded by the client. Cycle fields
/// are reconstructed from hex bit renderings, so they match the server
/// bit-for-bit (TPU cycle counts are integers but cross the wire through
/// the same `f64` transport the search measured them in).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneEstimate {
    /// The winning design-space configuration.
    pub best: TunedConfig,
    /// Cycles under the winning configuration.
    pub tuned_cycles: f64,
    /// Cycles under the Table-II default configuration.
    pub default_cycles: f64,
    /// Candidates actually measured.
    pub candidates: u64,
    /// Candidates pruned before measurement: hardware that fails
    /// validation, or an alias whose [`crate::Canonical`] form equals an
    /// already-kept candidate's.
    pub pruned: u64,
}

/// One successful estimate, in the currency of whichever engine produced
/// it: what the in-process evaluator returns, what the server renders, and
/// what a client decodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Estimate {
    /// A TPU (cycle-exact, integer) estimate.
    Tpu(TpuEstimate),
    /// A GPU (analytic, f64) estimate.
    Gpu(GpuEstimate),
    /// A design-space search result.
    Tune(TuneEstimate),
}

impl Estimate {
    /// The response body (id-free interior) that carries this estimate.
    pub fn body(&self) -> String {
        match self {
            Estimate::Tpu(est) => tpu_body(est),
            Estimate::Gpu(est) => gpu_body(est),
            Estimate::Tune(est) => tune_body(est),
        }
    }

    /// The TPU total.
    ///
    /// # Panics
    ///
    /// Panics when the estimate came from another engine — the figure
    /// reductions know statically which engine each work targets, so a
    /// mismatch is a bug, not a recoverable condition.
    pub fn tpu(&self) -> u64 {
        match self {
            Estimate::Tpu(est) => est.cycles,
            other => panic!("expected a TPU estimate, got {other:?}"),
        }
    }

    /// The GPU total (bit-exact `KernelTiming::cycles`).
    ///
    /// # Panics
    ///
    /// Panics when the estimate came from another engine.
    pub fn gpu(&self) -> f64 {
        match self {
            Estimate::Gpu(est) => est.cycles,
            other => panic!("expected a GPU estimate, got {other:?}"),
        }
    }
}

/// The counter snapshot returned by the `stats` op.
///
/// Not `Copy`: the service-time histogram carries its bucket vector, so
/// snapshots are cloned explicitly where two owners need one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Estimate requests answered successfully (`hits + misses`). Rejected
    /// requests (busy, deadline, parse, bad-request) are *not* counted.
    pub requests: u64,
    /// Responses served from the report cache.
    pub hits: u64,
    /// Responses that ran a simulation.
    pub misses: u64,
    /// Cache entries displaced by capacity pressure.
    pub evictions: u64,
    /// Current cache population.
    pub cache_entries: u64,
    /// Cache capacity.
    pub cache_capacity: u64,
    /// Jobs queued but not yet started.
    pub queue_depth: u64,
    /// Jobs currently executing on workers.
    pub in_flight: u64,
    /// Requests refused with `busy`.
    pub busy_rejections: u64,
    /// Requests refused with `deadline`.
    pub deadline_expired: u64,
    /// Lines refused with `parse` / `bad-request`.
    pub parse_errors: u64,
    /// Worker-pool size.
    pub workers: u64,
    /// `batch` requests accepted (each contributes its items to
    /// `requests`/`hits`/`misses` too).
    pub batches: u64,
    /// Items across all accepted batches.
    pub batch_items: u64,
    /// Batch items answered from cache (including intra-batch duplicates
    /// coalesced onto one simulation).
    pub batch_hits: u64,
    /// Batch items that ran a simulation.
    pub batch_misses: u64,
    /// Batch items answered with a typed error (deadline, busy, draining).
    pub batch_errors: u64,
    /// Simulations that panicked on a worker; each was answered with a
    /// typed `worker-crashed` error, never hung.
    pub worker_crashes: u64,
    /// Faults the armed fault plan decided to inject (0 when unarmed).
    pub faults_injected: u64,
    /// Faults the serve seams actually applied; conservation demands this
    /// equal `faults_injected` at any quiescent point.
    pub faults_observed: u64,
    /// `tune` requests answered successfully (a subset of `requests`).
    /// Conservation: `tunes == tune_searches + tune_cached` at any
    /// quiescent point.
    pub tunes: u64,
    /// Tune answers that ran the design-space search.
    pub tune_searches: u64,
    /// Tune answers served from the cache / tune store (single-flight
    /// followers included — their bytes came from a leader's search).
    pub tune_cached: u64,
    /// Service-time histogram over successful requests, microseconds,
    /// measured from request receipt to response enqueue. Its `count()`
    /// equals `requests` at any quiescent point; its `sum()` and `max()`
    /// are the total and worst service time. Fleet merges add it
    /// bucket-wise — exact, not approximated.
    pub service_hist: LatencyHist,
}

impl StatsSnapshot {
    /// Merge another snapshot into this one, the way the `routed` front-end
    /// aggregates its backends: counters sum; the service-time histograms
    /// add bucket-wise; capacities and populations sum (the fleet's cache
    /// is the union of its backends' shards).
    pub fn merge(&mut self, other: &StatsSnapshot) {
        let Self {
            requests,
            hits,
            misses,
            evictions,
            cache_entries,
            cache_capacity,
            queue_depth,
            in_flight,
            busy_rejections,
            deadline_expired,
            parse_errors,
            workers,
            batches,
            batch_items,
            batch_hits,
            batch_misses,
            batch_errors,
            worker_crashes,
            faults_injected,
            faults_observed,
            tunes,
            tune_searches,
            tune_cached,
            service_hist,
        } = self;
        *requests += other.requests;
        *hits += other.hits;
        *misses += other.misses;
        *evictions += other.evictions;
        *cache_entries += other.cache_entries;
        *cache_capacity += other.cache_capacity;
        *queue_depth += other.queue_depth;
        *in_flight += other.in_flight;
        *busy_rejections += other.busy_rejections;
        *deadline_expired += other.deadline_expired;
        *parse_errors += other.parse_errors;
        *workers += other.workers;
        *batches += other.batches;
        *batch_items += other.batch_items;
        *batch_hits += other.batch_hits;
        *batch_misses += other.batch_misses;
        *batch_errors += other.batch_errors;
        *worker_crashes += other.worker_crashes;
        *faults_injected += other.faults_injected;
        *faults_observed += other.faults_observed;
        *tunes += other.tunes;
        *tune_searches += other.tune_searches;
        *tune_cached += other.tune_cached;
        service_hist.merge(&other.service_hist);
    }
}

/// One cache shard's counters, as returned by the `shards` op. The sums
/// across shards equal the global `stats` counters (`hits`, `misses`,
/// `evictions`, `cache_entries`) — pinned by test and gated in CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStat {
    /// Shard index (position in the striped array).
    pub shard: u64,
    /// Requests answered from this shard (including single-flight
    /// followers, whose responses were produced by a leader's simulation).
    pub hits: u64,
    /// Simulations this shard's keys caused.
    pub misses: u64,
    /// Entries displaced from this shard by capacity pressure.
    pub evictions: u64,
    /// Current population of this shard.
    pub entries: u64,
    /// This shard's slice of the configured capacity.
    pub capacity: u64,
    /// Keys currently being simulated under this shard's single-flight
    /// registry (followers waiting on a leader).
    pub in_flight: u64,
}

/// Any response the server emits, as decoded by the client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// TPU estimate.
    Tpu {
        /// Echoed id.
        id: Option<String>,
        /// The estimate.
        est: TpuEstimate,
    },
    /// GPU estimate.
    Gpu {
        /// Echoed id.
        id: Option<String>,
        /// The estimate.
        est: GpuEstimate,
    },
    /// Tune result.
    Tune {
        /// Echoed id.
        id: Option<String>,
        /// The search outcome.
        est: TuneEstimate,
    },
    /// Counter snapshot.
    Stats {
        /// Echoed id.
        id: Option<String>,
        /// The snapshot.
        stats: StatsSnapshot,
    },
    /// Per-shard cache counters.
    Shards {
        /// Echoed id.
        id: Option<String>,
        /// One entry per shard, in shard order.
        shards: Vec<ShardStat>,
    },
    /// `ping` acknowledgement.
    Pong {
        /// Echoed id.
        id: Option<String>,
    },
    /// `shutdown` acknowledgement.
    ShutdownAck {
        /// Echoed id.
        id: Option<String>,
    },
    /// The summary line closing a `batch` response stream.
    Batch {
        /// Echoed id.
        id: Option<String>,
        /// Items the batch carried.
        items: u64,
        /// Items answered with a typed error instead of an estimate.
        errors: u64,
    },
    /// A typed failure.
    Error {
        /// Echoed id.
        id: Option<String>,
        /// Error code.
        kind: ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
}

impl Response {
    /// The echoed client id, whatever the variant.
    pub fn id(&self) -> Option<&str> {
        match self {
            Response::Tpu { id, .. }
            | Response::Gpu { id, .. }
            | Response::Tune { id, .. }
            | Response::Stats { id, .. }
            | Response::Shards { id, .. }
            | Response::Pong { id }
            | Response::ShutdownAck { id }
            | Response::Batch { id, .. }
            | Response::Error { id, .. } => id.as_deref(),
        }
    }

    /// The estimate a TPU, GPU or tune answer carries.
    pub fn estimate(&self) -> Option<Estimate> {
        match self {
            Response::Tpu { est, .. } => Some(Estimate::Tpu(*est)),
            Response::Gpu { est, .. } => Some(Estimate::Gpu(*est)),
            Response::Tune { est, .. } => Some(Estimate::Tune(*est)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// f64 bit transport
// ---------------------------------------------------------------------------

/// Render an `f64` as 16 lowercase hex digits of its IEEE-754 bits.
pub fn f64_bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Inverse of [`f64_bits`].
pub fn f64_from_bits(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

// ---------------------------------------------------------------------------
// Request parsing (server side)
// ---------------------------------------------------------------------------

fn get_usize(
    obj: &std::collections::BTreeMap<String, Json>,
    key: &str,
) -> Result<usize, RequestError> {
    match obj.get(key) {
        Some(v) => opt_usize(v, key),
        None => Err(RequestError::bad(format!("missing field \"{key}\""))),
    }
}

fn opt_usize(v: &Json, key: &str) -> Result<usize, RequestError> {
    v.as_u64()
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| RequestError::bad(format!("field \"{key}\" must be a non-negative integer")))
}

/// Parse one request line.
///
/// # Errors
///
/// Returns a [`RequestError`] with kind `Parse` for malformed JSON and
/// `BadRequest` for well-formed JSON that is not a valid request. The
/// error carries the client `id` whenever the line parsed far enough to
/// recover one, so the server can still address its failure response.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let root = json::parse(line).map_err(|e| RequestError {
        kind: ErrorKind::Parse,
        detail: e.to_string(),
        id: None,
    })?;
    let obj = root
        .as_obj()
        .ok_or_else(|| RequestError::bad("request must be a JSON object"))?;
    // Salvage the id first so even a bad request gets an addressed error.
    let id = obj.get("id").and_then(|v| v.as_str()).map(str::to_owned);
    let with_id = |mut e: RequestError| {
        e.id.clone_from(&id);
        e
    };
    let op_str = obj
        .get("op")
        .and_then(|v| v.as_str())
        .ok_or_else(|| with_id(RequestError::bad("missing string field \"op\"")))?;
    let op = Op::from_wire(op_str).ok_or_else(|| {
        with_id(RequestError::bad(format!(
            "unknown op {op_str:?} (expected {})",
            Op::expected(&Op::ALL)
        )))
    })?;
    match op {
        Op::Stats => return Ok(Request::Stats { id }),
        Op::Shards => return Ok(Request::Shards { id }),
        Op::Ping => return Ok(Request::Ping { id }),
        Op::Shutdown => return Ok(Request::Shutdown { id }),
        Op::Conv | Op::Gemm | Op::Tune | Op::Batch => {}
    }
    let deadline_ms = parse_deadline(obj).map_err(with_id)?;
    if op == Op::Batch {
        let items = parse_batch_items(obj).map_err(with_id)?;
        return Ok(Request::Batch {
            id,
            items,
            deadline_ms,
        });
    }
    // `"hw":"tuned"` on a conv defers mode/hw selection to the tune store;
    // only the top-level form supports it (a batch item's `hw` must be a
    // concrete object, so items stay pure `Work`).
    if op == Op::Conv && obj.get("hw").and_then(|v| v.as_str()) == Some("tuned") {
        let target = parse_tune_target(obj).map_err(with_id)?;
        let shape = parse_layer(obj.get("layer")).map_err(with_id)?;
        return Ok(Request::TunedEstimate {
            id,
            shape,
            target,
            deadline_ms,
        });
    }
    let work = parse_work(obj, op).map_err(with_id)?;
    Ok(Request::Estimate(EstimateRequest {
        id,
        work,
        deadline_ms,
    }))
}

/// Parse the `target`(+`chip`) fields of a `tune` request or a
/// `"hw":"tuned"` conv into the tune target they denote.
fn parse_tune_target(
    obj: &std::collections::BTreeMap<String, Json>,
) -> Result<TuneTarget, RequestError> {
    match obj.get("target").and_then(|v| v.as_str()).unwrap_or("tpu") {
        "tpu" => Ok(TuneTarget::Tpu {
            chip: parse_chip(obj.get("chip"))?,
        }),
        "gpu" => Ok(TuneTarget::Gpu),
        other => Err(RequestError::bad(format!(
            "unknown target {other:?} (expected tpu or gpu)"
        ))),
    }
}

fn parse_deadline(
    obj: &std::collections::BTreeMap<String, Json>,
) -> Result<Option<u64>, RequestError> {
    match obj.get("deadline_ms") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| RequestError::bad("\"deadline_ms\" must be a non-negative integer")),
    }
}

/// Parse the work fields of a `conv`/`gemm`/`tune` object — one function
/// for a top-level request and for a batch item, so the two framings can
/// never drift apart.
fn parse_work(
    obj: &std::collections::BTreeMap<String, Json>,
    op: Op,
) -> Result<Work, RequestError> {
    match op {
        Op::Gemm => {
            return Ok(Work::TpuGemm {
                m: get_usize(obj, "m")?,
                n: get_usize(obj, "n")?,
                k: get_usize(obj, "k")?,
                hw: parse_tpu_hw(obj.get("hw"))?,
            })
        }
        Op::Tune => {
            return Ok(Work::Tune {
                shape: parse_layer(obj.get("layer"))?,
                target: parse_tune_target(obj)?,
            })
        }
        Op::Conv => {}
        other => {
            return Err(RequestError::bad(format!(
                "op {other} does not denote estimate work"
            )))
        }
    }
    let target = obj.get("target").and_then(|v| v.as_str()).unwrap_or("tpu");
    let shape = parse_layer(obj.get("layer"))?;
    let pass = parse_pass(obj.get("pass"))?;
    match target {
        "tpu" => {
            let mode = parse_tpu_mode(obj.get("mode"))?;
            let hw = parse_tpu_hw(obj.get("hw"))?;
            // An absent or forward `pass` keeps the historical variant (and
            // therefore the historical cache key and wire bytes).
            Ok(match pass {
                iconv_core::ConvPass::Forward => Work::TpuConv { shape, mode, hw },
                pass => Work::TpuPass {
                    shape,
                    pass,
                    mode,
                    hw,
                },
            })
        }
        "gpu" => {
            let algo = parse_gpu_algo(obj.get("mode"))?;
            let hw = parse_gpu_hw(obj.get("hw"))?;
            Ok(match pass {
                iconv_core::ConvPass::Forward => Work::GpuConv { shape, algo, hw },
                pass => Work::GpuPass {
                    shape,
                    pass,
                    algo,
                    hw,
                },
            })
        }
        other => Err(RequestError::bad(format!(
            "unknown target {other:?} (expected tpu or gpu)"
        ))),
    }
}

/// Parse an optional `"pass"` field; absence denotes the forward pass.
fn parse_pass(v: Option<&Json>) -> Result<iconv_core::ConvPass, RequestError> {
    let s = match v {
        None | Some(Json::Null) => return Ok(iconv_core::ConvPass::Forward),
        Some(v) => v
            .as_str()
            .ok_or_else(|| RequestError::bad("\"pass\" must be a string"))?,
    };
    iconv_core::ConvPass::from_wire(s).ok_or_else(|| {
        RequestError::bad(format!(
            "unknown pass {s:?} (expected forward, wgrad, dgrad or transpose)"
        ))
    })
}

/// Parse one batch item: an estimate-op object without `id`/`deadline_ms`.
fn parse_work_item(v: &Json) -> Result<Work, RequestError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| RequestError::bad("must be an object"))?;
    match obj.get("op").and_then(|v| v.as_str()) {
        Some(s) => match Op::from_wire(s).filter(|op| op.is_estimate()) {
            Some(op) => parse_work(obj, op),
            None => Err(RequestError::bad(format!(
                "unknown item op {s:?} (expected {})",
                Op::expected(&[Op::Conv, Op::Gemm, Op::Tune])
            ))),
        },
        None => Err(RequestError::bad("missing string field \"op\"")),
    }
}

/// Parse a batch's `items` array or `sweep` object into the expanded item
/// list. Exactly one of the two must be present, the expansion must be
/// non-empty, and it may not exceed [`MAX_SWEEP_ITEMS`].
fn parse_batch_items(
    obj: &std::collections::BTreeMap<String, Json>,
) -> Result<Vec<Work>, RequestError> {
    match (obj.get("items"), obj.get("sweep")) {
        (Some(_), Some(_)) => Err(RequestError::bad(
            "\"items\" and \"sweep\" are mutually exclusive",
        )),
        (None, None) => Err(RequestError::bad(
            "batch needs an \"items\" array or a \"sweep\" object",
        )),
        (Some(v), None) => {
            let arr = v
                .as_arr()
                .ok_or_else(|| RequestError::bad("\"items\" must be an array"))?;
            if arr.is_empty() {
                return Err(RequestError::bad("batch \"items\" must be non-empty"));
            }
            if arr.len() > MAX_SWEEP_ITEMS {
                return Err(RequestError::bad(format!(
                    "batch has {} items (limit {MAX_SWEEP_ITEMS})",
                    arr.len()
                )));
            }
            arr.iter()
                .enumerate()
                .map(|(i, item)| {
                    parse_work_item(item).map_err(|mut e| {
                        e.detail = format!("item {i}: {}", e.detail);
                        e
                    })
                })
                .collect()
        }
        (None, Some(v)) => {
            let spec = parse_sweep(v)?;
            spec.expand()
                .map_err(|e| RequestError::bad(format!("invalid sweep: {e}")))
        }
    }
}

fn parse_sweep(v: &Json) -> Result<SweepSpec, RequestError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| RequestError::bad("\"sweep\" must be an object"))?;
    let base = parse_layer(obj.get("layer"))?;
    let target = match obj.get("target").and_then(|v| v.as_str()).unwrap_or("tpu") {
        "tpu" => SweepTarget::Tpu {
            mode: parse_tpu_mode(obj.get("mode"))?,
            hw: parse_tpu_hw(obj.get("hw"))?,
        },
        "gpu" => SweepTarget::Gpu {
            algo: parse_gpu_algo(obj.get("mode"))?,
        },
        other => {
            return Err(RequestError::bad(format!(
                "unknown target {other:?} (expected tpu or gpu)"
            )))
        }
    };
    let usize_axis = |key: &str| -> Result<Vec<usize>, RequestError> {
        match obj.get(key) {
            None | Some(Json::Null) => Ok(Vec::new()),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| RequestError::bad(format!("\"{key}\" must be an array")))?
                .iter()
                .map(|x| opt_usize(x, key))
                .collect(),
        }
    };
    let layouts = match obj.get("layouts") {
        None | Some(Json::Null) => Vec::new(),
        Some(v) => v
            .as_arr()
            .ok_or_else(|| RequestError::bad("\"layouts\" must be an array"))?
            .iter()
            .map(parse_layout)
            .collect::<Result<Vec<_>, _>>()?,
    };
    Ok(SweepSpec {
        base,
        target,
        cis: usize_axis("cis")?,
        strides: usize_axis("strides")?,
        dilations: usize_axis("dilations")?,
        layouts,
    })
}

fn parse_layer(v: Option<&Json>) -> Result<ConvShape, RequestError> {
    let obj = v
        .and_then(Json::as_obj)
        .ok_or_else(|| RequestError::bad("missing object field \"layer\""))?;
    let axis = |scalar: &str, specific: &str, default: usize| -> Result<usize, RequestError> {
        if let Some(v) = obj.get(specific) {
            return opt_usize(v, specific);
        }
        if let Some(v) = obj.get(scalar) {
            return opt_usize(v, scalar);
        }
        Ok(default)
    };
    ConvShape::new(
        get_usize(obj, "n")?,
        get_usize(obj, "ci")?,
        get_usize(obj, "hi")?,
        get_usize(obj, "wi")?,
        get_usize(obj, "co")?,
        get_usize(obj, "hf")?,
        get_usize(obj, "wf")?,
    )
    .stride_hw(
        axis("stride", "stride_h", 1)?,
        axis("stride", "stride_w", 1)?,
    )
    .pad_hw(axis("pad", "pad_h", 0)?, axis("pad", "pad_w", 0)?)
    // Trailing pads default to the leading ones (symmetric); only
    // asymmetric SAME-padded layers spell them on the wire.
    .pad_end_hw(
        axis("pad", "pad_h_end", axis("pad", "pad_h", 0)?)?,
        axis("pad", "pad_w_end", axis("pad", "pad_w", 0)?)?,
    )
    .dilation_hw(axis("dilation", "dil_h", 1)?, axis("dilation", "dil_w", 1)?)
    .build()
    .map_err(|e| RequestError::bad(format!("invalid layer: {e}")))
}

fn parse_tpu_mode(v: Option<&Json>) -> Result<SimMode, RequestError> {
    let s = match v {
        None | Some(Json::Null) => return Ok(SimMode::ChannelFirst),
        Some(v) => v
            .as_str()
            .ok_or_else(|| RequestError::bad("\"mode\" must be a string"))?,
    };
    if let Some(g) = s.strip_prefix("grouped:") {
        let g: usize = g
            .parse()
            .ok()
            .filter(|g| *g >= 1)
            .ok_or_else(|| RequestError::bad("grouped mode needs a positive group size"))?;
        return Ok(SimMode::ChannelFirstGrouped(g));
    }
    match s {
        "channel-first" => Ok(SimMode::ChannelFirst),
        "explicit" => Ok(SimMode::Explicit),
        "indirect" => Ok(SimMode::Indirect),
        other => Err(RequestError::bad(format!(
            "unknown tpu mode {other:?} (expected channel-first, grouped:<g>, explicit or indirect)"
        ))),
    }
}

fn parse_gpu_algo(v: Option<&Json>) -> Result<GpuAlgo, RequestError> {
    let s = match v {
        None | Some(Json::Null) => return Ok(GpuAlgo::ChannelFirst { reuse: true }),
        Some(v) => v
            .as_str()
            .ok_or_else(|| RequestError::bad("\"mode\" must be a string"))?,
    };
    match s {
        "cudnn-implicit" => Ok(GpuAlgo::CudnnImplicit),
        "channel-first+reuse" => Ok(GpuAlgo::ChannelFirst { reuse: true }),
        "channel-first" => Ok(GpuAlgo::ChannelFirst { reuse: false }),
        "explicit-im2col" => Ok(GpuAlgo::ExplicitIm2col),
        "gemm-equivalent" => Ok(GpuAlgo::GemmEquivalent),
        "indirect" => Ok(GpuAlgo::Indirect),
        other => Err(RequestError::bad(format!("unknown gpu mode {other:?}"))),
    }
}

fn parse_tpu_hw(v: Option<&Json>) -> Result<TpuHwSpec, RequestError> {
    let obj = match v {
        None | Some(Json::Null) => return Ok(TpuHwSpec::default()),
        Some(v) => v
            .as_obj()
            .ok_or_else(|| RequestError::bad("\"hw\" must be an object"))?,
    };
    let chip = parse_chip(obj.get("chip"))?;
    let opt = |key: &str| -> Result<Option<usize>, RequestError> {
        match obj.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => opt_usize(v, key).map(Some).and_then(|v| {
                if v == Some(0) {
                    Err(RequestError::bad(format!("\"{key}\" must be positive")))
                } else {
                    Ok(v)
                }
            }),
        }
    };
    let layout = match obj.get("layout") {
        None | Some(Json::Null) => None,
        Some(v) => Some(parse_layout(v)?),
    };
    let schedule = match obj.get("schedule") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let s = v
                .as_str()
                .ok_or_else(|| RequestError::bad("\"schedule\" must be a string"))?;
            Some(PipelineSchedule::from_wire(s).ok_or_else(|| {
                RequestError::bad(format!(
                    "unknown schedule {s:?} (expected single or double)"
                ))
            })?)
        }
    };
    let spec = TpuHwSpec {
        chip,
        array: opt("array")?,
        word_elems: opt("word_elems")?,
        mxus: opt("mxus")?,
        layout,
        schedule,
    };
    // Validate through the typed config builder so an out-of-domain
    // override (e.g. an array size that underflows the SRAM budget) is a
    // bad-request here rather than a panic in the engine.
    spec.resolve()
        .map_err(|e| RequestError::bad(format!("invalid hw spec: {e}")))?;
    Ok(spec)
}

fn parse_chip(v: Option<&Json>) -> Result<TpuChip, RequestError> {
    match v {
        None | Some(Json::Null) => Ok(TpuChip::V2),
        Some(v) => match v.as_str() {
            Some("v2") => Ok(TpuChip::V2),
            Some("v3") => Ok(TpuChip::V3),
            Some(other) => Err(RequestError::bad(format!(
                "unknown chip {other:?} (expected v2 or v3)"
            ))),
            None => Err(RequestError::bad("\"chip\" must be a string")),
        },
    }
}

fn parse_gpu_hw(v: Option<&Json>) -> Result<GpuHwSpec, RequestError> {
    let obj = match v {
        None | Some(Json::Null) => return Ok(GpuHwSpec::default()),
        Some(v) => v
            .as_obj()
            .ok_or_else(|| RequestError::bad("\"hw\" must be an object"))?,
    };
    let opt = |key: &str| -> Result<Option<usize>, RequestError> {
        match obj.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => match opt_usize(v, key)? {
                0 => Err(RequestError::bad(format!("\"{key}\" must be positive"))),
                v => Ok(Some(v)),
            },
        }
    };
    let clock_mhz = match obj.get("clock_mhz") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| RequestError::bad("\"clock_mhz\" must be a number"))?,
        ),
    };
    let block = match (opt("bm")?, opt("bn")?, opt("bk")?) {
        (None, None, None) => None,
        (Some(bm), Some(bn), Some(bk)) => Some((bm, bn, bk)),
        _ => {
            return Err(RequestError::bad(
                "\"bm\"/\"bn\"/\"bk\" must be given together",
            ))
        }
    };
    let schedule = match obj.get("schedule") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let s = v
                .as_str()
                .ok_or_else(|| RequestError::bad("\"schedule\" must be a string"))?;
            Some(PipelineSchedule::from_wire(s).ok_or_else(|| {
                RequestError::bad(format!(
                    "unknown schedule {s:?} (expected single or double)"
                ))
            })?)
        }
    };
    let spec = GpuHwSpec {
        sms: opt("sms")?,
        tc_macs: opt("tc_macs")?.map(|v| v as u64),
        clock_mhz,
        block,
        blocks_per_sm: opt("blocks_per_sm")?,
        schedule,
    };
    // Validate through the typed config builder so an out-of-domain
    // override (e.g. tiles that overflow shared memory) is a bad-request
    // here rather than a panic in the engine.
    spec.resolve()
        .map_err(|e| RequestError::bad(format!("invalid hw spec: {e}")))?;
    Ok(spec)
}

fn parse_layout(v: &Json) -> Result<Layout, RequestError> {
    let s = v
        .as_str()
        .ok_or_else(|| RequestError::bad("\"layout\" must be a string"))?;
    match s.to_ascii_uppercase().as_str() {
        "NCHW" => Ok(Layout::Nchw),
        "NHWC" => Ok(Layout::Nhwc),
        "CHWN" => Ok(Layout::Chwn),
        "HWCN" => Ok(Layout::Hwcn),
        other => Err(RequestError::bad(format!("unknown layout {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Request encoding (client side)
// ---------------------------------------------------------------------------

/// Wire spelling of a TPU lowering mode.
pub fn tpu_mode_wire(mode: SimMode) -> String {
    match mode {
        SimMode::ChannelFirst => "channel-first".to_owned(),
        SimMode::ChannelFirstGrouped(g) => format!("grouped:{g}"),
        SimMode::Explicit => "explicit".to_owned(),
        SimMode::Indirect => "indirect".to_owned(),
    }
}

fn push_id(out: &mut String, id: Option<&str>) {
    if let Some(id) = id {
        out.push_str("\"id\":");
        write_str(out, id);
        out.push(',');
    }
}

fn push_layer(out: &mut String, s: &ConvShape) {
    out.push_str(&format!(
        "\"layer\":{{\"n\":{},\"ci\":{},\"hi\":{},\"wi\":{},\"co\":{},\"hf\":{},\"wf\":{},\
         \"stride_h\":{},\"stride_w\":{},\"pad_h\":{},\"pad_w\":{}",
        s.n, s.ci, s.hi, s.wi, s.co, s.hf, s.wf, s.stride_h, s.stride_w, s.pad_h, s.pad_w,
    ));
    // Asymmetric trailing pads are spelled only when they differ from the
    // leading pads, so every historically-valid layer encodes to exactly
    // the bytes it always has.
    if s.has_asymmetric_pad() {
        out.push_str(&format!(
            ",\"pad_h_end\":{},\"pad_w_end\":{}",
            s.pad_h_end, s.pad_w_end
        ));
    }
    out.push_str(&format!(",\"dil_h\":{},\"dil_w\":{}}}", s.dil_h, s.dil_w));
}

fn push_tpu_hw(out: &mut String, hw: &TpuHwSpec) {
    if *hw == TpuHwSpec::default() {
        return;
    }
    out.push_str(",\"hw\":{");
    let mut first = true;
    let mut field = |out: &mut String, text: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&text);
    };
    if hw.chip == TpuChip::V3 {
        field(out, "\"chip\":\"v3\"".to_owned());
    }
    if let Some(a) = hw.array {
        field(out, format!("\"array\":{a}"));
    }
    if let Some(w) = hw.word_elems {
        field(out, format!("\"word_elems\":{w}"));
    }
    if let Some(m) = hw.mxus {
        field(out, format!("\"mxus\":{m}"));
    }
    if let Some(l) = hw.layout {
        field(out, format!("\"layout\":\"{l}\""));
    }
    if let Some(s) = hw.schedule {
        field(out, format!("\"schedule\":\"{s}\""));
    }
    out.push('}');
}

fn push_gpu_hw(out: &mut String, hw: &GpuHwSpec) {
    if *hw == GpuHwSpec::default() {
        return;
    }
    out.push_str(",\"hw\":{");
    let mut first = true;
    let mut field = |out: &mut String, text: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&text);
    };
    if let Some(s) = hw.sms {
        field(out, format!("\"sms\":{s}"));
    }
    if let Some(t) = hw.tc_macs {
        field(out, format!("\"tc_macs\":{t}"));
    }
    if let Some(c) = hw.clock_mhz {
        // Shortest-roundtrip `Display`: the decimal reparses bit-exactly.
        field(out, format!("\"clock_mhz\":{c}"));
    }
    if let Some((bm, bn, bk)) = hw.block {
        field(out, format!("\"bm\":{bm},\"bn\":{bn},\"bk\":{bk}"));
    }
    if let Some(r) = hw.blocks_per_sm {
        field(out, format!("\"blocks_per_sm\":{r}"));
    }
    if let Some(s) = hw.schedule {
        field(out, format!("\"schedule\":\"{s}\""));
    }
    out.push('}');
}

/// Append the `target`(+`chip`) fields naming a tune target.
fn push_tune_target(out: &mut String, target: &TuneTarget) {
    match target {
        TuneTarget::Tpu { chip } => {
            out.push_str("\"target\":\"tpu\"");
            if *chip == TpuChip::V3 {
                out.push_str(",\"chip\":\"v3\"");
            }
        }
        TuneTarget::Gpu => out.push_str("\"target\":\"gpu\""),
    }
}

fn push_deadline(out: &mut String, deadline_ms: Option<u64>) {
    if let Some(d) = deadline_ms {
        out.push_str(&format!(",\"deadline_ms\":{d}"));
    }
}

/// Append the `op`/`target`/`mode`/`layer`/`hw` fields of one work unit.
fn push_work(out: &mut String, work: &Work) {
    match work {
        Work::TpuConv { shape, mode, hw } => {
            out.push_str("\"op\":\"conv\",\"target\":\"tpu\",\"mode\":");
            write_str(out, &tpu_mode_wire(*mode));
            out.push(',');
            push_layer(out, shape);
            push_tpu_hw(out, hw);
        }
        Work::TpuPass {
            shape,
            pass,
            mode,
            hw,
        } => {
            // Non-forward passes add one field; forward spellings re-encode
            // as the plain conv they denote, keeping historical bytes.
            out.push_str("\"op\":\"conv\",\"target\":\"tpu\",");
            if *pass != iconv_core::ConvPass::Forward {
                out.push_str(&format!("\"pass\":\"{}\",", pass.wire()));
            }
            out.push_str("\"mode\":");
            write_str(out, &tpu_mode_wire(*mode));
            out.push(',');
            push_layer(out, shape);
            push_tpu_hw(out, hw);
        }
        Work::TpuGemm { m, n, k, hw } => {
            out.push_str(&format!("\"op\":\"gemm\",\"m\":{m},\"n\":{n},\"k\":{k}"));
            push_tpu_hw(out, hw);
        }
        Work::GpuConv { shape, algo, hw } => {
            out.push_str("\"op\":\"conv\",\"target\":\"gpu\",\"mode\":");
            write_str(out, &algo.to_string());
            out.push(',');
            push_layer(out, shape);
            push_gpu_hw(out, hw);
        }
        Work::GpuPass {
            shape,
            pass,
            algo,
            hw,
        } => {
            out.push_str("\"op\":\"conv\",\"target\":\"gpu\",");
            if *pass != iconv_core::ConvPass::Forward {
                out.push_str(&format!("\"pass\":\"{}\",", pass.wire()));
            }
            out.push_str("\"mode\":");
            write_str(out, &algo.to_string());
            out.push(',');
            push_layer(out, shape);
            push_gpu_hw(out, hw);
        }
        Work::Tune { shape, target } => {
            out.push_str("\"op\":\"tune\",");
            push_tune_target(out, target);
            out.push(',');
            push_layer(out, shape);
        }
    }
}

/// Encode a `conv` request that defers to the tuned config
/// (`"hw":"tuned"`) as one wire line.
pub fn encode_tuned_estimate(
    id: Option<&str>,
    shape: &ConvShape,
    target: &TuneTarget,
    deadline_ms: Option<u64>,
) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    push_id(&mut out, id);
    out.push_str("\"op\":\"conv\",");
    push_tune_target(&mut out, target);
    out.push(',');
    push_layer(&mut out, shape);
    out.push_str(",\"hw\":\"tuned\"");
    push_deadline(&mut out, deadline_ms);
    out.push('}');
    out
}

/// Encode an estimate request as one wire line (no trailing newline).
pub fn encode_estimate(req: &EstimateRequest) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    push_id(&mut out, req.id.as_deref());
    push_work(&mut out, &req.work);
    push_deadline(&mut out, req.deadline_ms);
    out.push('}');
    out
}

/// Encode a `batch` request with an explicit item array as one wire line.
pub fn encode_batch(id: Option<&str>, items: &[Work], deadline_ms: Option<u64>) -> String {
    let mut out = String::with_capacity(64 + 192 * items.len());
    out.push('{');
    push_id(&mut out, id);
    out.push_str("\"op\":\"batch\",\"items\":[");
    for (i, work) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_work(&mut out, work);
        out.push('}');
    }
    out.push(']');
    push_deadline(&mut out, deadline_ms);
    out.push('}');
    out
}

/// Encode a `batch` request in compact sweep form as one wire line.
pub fn encode_sweep(id: Option<&str>, spec: &SweepSpec, deadline_ms: Option<u64>) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    push_id(&mut out, id);
    out.push_str("\"op\":\"batch\",\"sweep\":{");
    match &spec.target {
        SweepTarget::Tpu { mode, hw } => {
            out.push_str("\"target\":\"tpu\",\"mode\":");
            write_str(&mut out, &tpu_mode_wire(*mode));
            out.push(',');
            push_layer(&mut out, &spec.base);
            push_tpu_hw(&mut out, hw);
        }
        SweepTarget::Gpu { algo } => {
            out.push_str("\"target\":\"gpu\",\"mode\":");
            write_str(&mut out, &algo.to_string());
            out.push(',');
            push_layer(&mut out, &spec.base);
        }
    }
    let mut usize_axis = |key: &str, values: &[usize]| {
        if values.is_empty() {
            return;
        }
        out.push_str(&format!(",\"{key}\":["));
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push(']');
    };
    usize_axis("cis", &spec.cis);
    usize_axis("strides", &spec.strides);
    usize_axis("dilations", &spec.dilations);
    if !spec.layouts.is_empty() {
        out.push_str(",\"layouts\":[");
        for (i, l) in spec.layouts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{l}\""));
        }
        out.push(']');
    }
    out.push('}');
    push_deadline(&mut out, deadline_ms);
    out.push('}');
    out
}

/// Encode a `stats` / `ping` / `shutdown` request line.
pub fn encode_simple(op: &str, id: Option<&str>) -> String {
    let mut out = String::with_capacity(48);
    out.push('{');
    push_id(&mut out, id);
    out.push_str("\"op\":");
    write_str(&mut out, op);
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Response encoding (server side)
// ---------------------------------------------------------------------------
//
// The server caches response *bodies*: the comma-joined interior of the
// object without the braces and without the id field. The same body is
// therefore byte-identical whether it was just simulated or replayed from
// cache, and `finish_response` grafts the per-request id on at send time.

/// Body of a successful TPU estimate response.
pub fn tpu_body(est: &TpuEstimate) -> String {
    format!(
        "\"ok\":true,\"target\":\"tpu\",\"cycles\":{},\"compute_cycles\":{},\
         \"exposed_memory_cycles\":{},\"dram_bytes\":{},\"workspace_bytes\":{},\"flops\":{},\
         \"dispatch\":{},\"first_fill\":{},\"steady\":{}",
        est.cycles,
        est.compute_cycles,
        est.exposed_memory_cycles,
        est.dram_bytes,
        est.workspace_bytes,
        est.flops,
        est.dispatch,
        est.first_fill,
        est.steady
    )
}

/// Body of a successful GPU estimate response.
pub fn gpu_body(est: &GpuEstimate) -> String {
    format!(
        "\"ok\":true,\"target\":\"gpu\",\"cycles\":{},\"cycles_bits\":\"{}\",\
         \"compute_bits\":\"{}\",\"memory_bits\":\"{}\",\"transform_bits\":\"{}\",\
         \"blocks\":{},\"flops\":{}",
        est.cycles,
        f64_bits(est.cycles),
        f64_bits(est.compute_cycles),
        f64_bits(est.memory_cycles),
        f64_bits(est.transform_cycles),
        est.blocks,
        est.flops
    )
}

/// Render a tuned config as a JSON object (the `best` field of a tune
/// response; also the on-disk tune-cache entry format).
pub fn tuned_config_json(cfg: &TunedConfig) -> String {
    let mut out = String::with_capacity(128);
    out.push('{');
    match cfg {
        TunedConfig::Tpu { mode, hw } => {
            out.push_str("\"target\":\"tpu\",\"mode\":");
            write_str(&mut out, &tpu_mode_wire(*mode));
            // `push_tpu_hw` spells the chip inside the hw object (and
            // omits the object entirely for the all-default spec).
            push_tpu_hw(&mut out, hw);
        }
        TunedConfig::Gpu { algo, hw } => {
            out.push_str("\"target\":\"gpu\",\"mode\":");
            write_str(&mut out, &algo.to_string());
            push_gpu_hw(&mut out, hw);
        }
    }
    out.push('}');
    out
}

/// Inverse of [`tuned_config_json`], from a parsed JSON object.
///
/// # Errors
///
/// Returns a `BadRequest` [`RequestError`] when the object is not a valid
/// tuned config (the same validators as request parsing apply).
pub fn parse_tuned_config(v: &Json) -> Result<TunedConfig, RequestError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| RequestError::bad("tuned config must be an object"))?;
    match obj.get("target").and_then(|v| v.as_str()) {
        Some("tpu") => Ok(TunedConfig::Tpu {
            mode: parse_tpu_mode(obj.get("mode"))?,
            hw: parse_tpu_hw(obj.get("hw"))?,
        }),
        Some("gpu") => Ok(TunedConfig::Gpu {
            algo: parse_gpu_algo(obj.get("mode"))?,
            hw: parse_gpu_hw(obj.get("hw"))?,
        }),
        _ => Err(RequestError::bad(
            "tuned config missing target (expected tpu or gpu)",
        )),
    }
}

/// Body of a successful `tune` response.
pub fn tune_body(est: &TuneEstimate) -> String {
    format!(
        "\"ok\":true,\"target\":\"tune\",\"best\":{},\"tuned_cycles\":{},\
         \"tuned_bits\":\"{}\",\"default_cycles\":{},\"default_bits\":\"{}\",\
         \"candidates\":{},\"pruned\":{}",
        tuned_config_json(&est.best),
        est.tuned_cycles,
        f64_bits(est.tuned_cycles),
        est.default_cycles,
        f64_bits(est.default_cycles),
        est.candidates,
        est.pruned
    )
}

/// Body of a `stats` response.
pub fn stats_body(s: &StatsSnapshot) -> String {
    format!(
        "\"ok\":true,\"stats\":{{\"requests\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\
         \"cache_entries\":{},\"cache_capacity\":{},\"queue_depth\":{},\"in_flight\":{},\
         \"busy_rejections\":{},\"deadline_expired\":{},\"parse_errors\":{},\
         \"workers\":{},\"batches\":{},\"batch_items\":{},\"batch_hits\":{},\"batch_misses\":{},\
         \"batch_errors\":{},\"worker_crashes\":{},\"faults_injected\":{},\
         \"faults_observed\":{},\"tunes\":{},\"tune_searches\":{},\
         \"tune_cached\":{},\"service_hist\":{}}}",
        s.requests,
        s.hits,
        s.misses,
        s.evictions,
        s.cache_entries,
        s.cache_capacity,
        s.queue_depth,
        s.in_flight,
        s.busy_rejections,
        s.deadline_expired,
        s.parse_errors,
        s.workers,
        s.batches,
        s.batch_items,
        s.batch_hits,
        s.batch_misses,
        s.batch_errors,
        s.worker_crashes,
        s.faults_injected,
        s.faults_observed,
        s.tunes,
        s.tune_searches,
        s.tune_cached,
        s.service_hist.to_json()
    )
}

/// Body of a `shards` response: the striped cache's per-shard counters.
pub fn shards_body(shards: &[ShardStat]) -> String {
    let mut out = String::with_capacity(32 + 96 * shards.len());
    out.push_str("\"ok\":true,\"shards\":[");
    for (i, s) in shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"shard\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\
             \"entries\":{},\"capacity\":{},\"in_flight\":{}}}",
            s.shard, s.hits, s.misses, s.evictions, s.entries, s.capacity, s.in_flight
        ));
    }
    out.push(']');
    out
}

/// Body of the summary line that closes a batch's response stream.
pub fn batch_summary_body(items: u64, errors: u64) -> String {
    format!("\"ok\":true,\"batch\":{{\"items\":{items},\"errors\":{errors}}}")
}

/// Wrap a response body into one batch-item wire line: like
/// [`finish_response`] plus the `"item":<index>` tag that names which batch
/// item the line answers.
pub fn finish_item_response(id: Option<&str>, item: usize, body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 48);
    out.push('{');
    push_id(&mut out, id);
    out.push_str(&format!("\"item\":{item},"));
    out.push_str(body);
    out.push('}');
    out
}

/// Body of a `ping` acknowledgement.
pub fn pong_body() -> String {
    "\"ok\":true,\"pong\":true".to_owned()
}

/// Body of a `shutdown` acknowledgement.
pub fn shutdown_body() -> String {
    "\"ok\":true,\"shutdown\":true".to_owned()
}

/// Body of a typed failure response.
pub fn error_body(kind: ErrorKind, detail: &str) -> String {
    let mut out = String::with_capacity(48 + detail.len());
    out.push_str("\"ok\":false,\"error\":\"");
    out.push_str(kind.wire());
    out.push_str("\",\"detail\":");
    write_str(&mut out, detail);
    out
}

/// Wrap a response body into a complete wire line (no trailing newline),
/// grafting on the echoed client id.
pub fn finish_response(id: Option<&str>, body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 32);
    out.push('{');
    push_id(&mut out, id);
    out.push_str(body);
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Response parsing (client side)
// ---------------------------------------------------------------------------

fn need_u64(
    obj: &std::collections::BTreeMap<String, Json>,
    key: &str,
) -> Result<u64, RequestError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| RequestError::bad(format!("response missing integer \"{key}\"")))
}

fn need_bits(
    obj: &std::collections::BTreeMap<String, Json>,
    key: &str,
) -> Result<f64, RequestError> {
    obj.get(key)
        .and_then(Json::as_str)
        .and_then(f64_from_bits)
        .ok_or_else(|| RequestError::bad(format!("response missing f64-bits \"{key}\"")))
}

/// Decode the latency histogram object under `key`
/// ([`LatencyHist::from_json_value`]).
fn need_hist(
    obj: &std::collections::BTreeMap<String, Json>,
    key: &str,
) -> Result<LatencyHist, RequestError> {
    let h = obj
        .get(key)
        .ok_or_else(|| RequestError::bad(format!("response missing histogram \"{key}\"")))?;
    LatencyHist::from_json_value(h)
        .map_err(|e| RequestError::bad(format!("histogram \"{key}\": {e}")))
}

/// Parse one response line.
///
/// # Errors
///
/// Returns a [`RequestError`] when the line is not a well-formed response.
pub fn parse_response(line: &str) -> Result<Response, RequestError> {
    let root = json::parse(line).map_err(|e| RequestError {
        kind: ErrorKind::Parse,
        detail: e.to_string(),
        id: None,
    })?;
    let obj = root
        .as_obj()
        .ok_or_else(|| RequestError::bad("response must be a JSON object"))?;
    let id = obj.get("id").and_then(|v| v.as_str()).map(str::to_owned);
    let ok = match obj.get("ok") {
        Some(Json::Bool(b)) => *b,
        _ => return Err(RequestError::bad("response missing boolean \"ok\"")),
    };
    if !ok {
        let kind = obj
            .get("error")
            .and_then(|v| v.as_str())
            .and_then(ErrorKind::from_wire)
            .ok_or_else(|| RequestError::bad("error response missing known \"error\" code"))?;
        let detail = obj
            .get("detail")
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_owned();
        return Ok(Response::Error { id, kind, detail });
    }
    if obj.get("pong").is_some() {
        return Ok(Response::Pong { id });
    }
    if obj.get("shutdown").is_some() {
        return Ok(Response::ShutdownAck { id });
    }
    if let Some(b) = obj.get("batch").and_then(Json::as_obj) {
        return Ok(Response::Batch {
            id,
            items: need_u64(b, "items")?,
            errors: need_u64(b, "errors")?,
        });
    }
    if let Some(arr) = obj.get("shards").and_then(Json::as_arr) {
        let shards = arr
            .iter()
            .map(|v| {
                let s = v
                    .as_obj()
                    .ok_or_else(|| RequestError::bad("shard entry must be an object"))?;
                Ok(ShardStat {
                    shard: need_u64(s, "shard")?,
                    hits: need_u64(s, "hits")?,
                    misses: need_u64(s, "misses")?,
                    evictions: need_u64(s, "evictions")?,
                    entries: need_u64(s, "entries")?,
                    capacity: need_u64(s, "capacity")?,
                    in_flight: need_u64(s, "in_flight")?,
                })
            })
            .collect::<Result<Vec<_>, RequestError>>()?;
        return Ok(Response::Shards { id, shards });
    }
    if let Some(s) = obj.get("stats").and_then(Json::as_obj) {
        let stats = StatsSnapshot {
            requests: need_u64(s, "requests")?,
            hits: need_u64(s, "hits")?,
            misses: need_u64(s, "misses")?,
            evictions: need_u64(s, "evictions")?,
            cache_entries: need_u64(s, "cache_entries")?,
            cache_capacity: need_u64(s, "cache_capacity")?,
            queue_depth: need_u64(s, "queue_depth")?,
            in_flight: need_u64(s, "in_flight")?,
            busy_rejections: need_u64(s, "busy_rejections")?,
            deadline_expired: need_u64(s, "deadline_expired")?,
            parse_errors: need_u64(s, "parse_errors")?,
            workers: need_u64(s, "workers")?,
            batches: need_u64(s, "batches")?,
            batch_items: need_u64(s, "batch_items")?,
            batch_hits: need_u64(s, "batch_hits")?,
            batch_misses: need_u64(s, "batch_misses")?,
            batch_errors: need_u64(s, "batch_errors")?,
            worker_crashes: need_u64(s, "worker_crashes")?,
            faults_injected: need_u64(s, "faults_injected")?,
            faults_observed: need_u64(s, "faults_observed")?,
            tunes: need_u64(s, "tunes")?,
            tune_searches: need_u64(s, "tune_searches")?,
            tune_cached: need_u64(s, "tune_cached")?,
            service_hist: need_hist(s, "service_hist")?,
        };
        return Ok(Response::Stats { id, stats });
    }
    match obj.get("target").and_then(|v| v.as_str()) {
        Some("tpu") => Ok(Response::Tpu {
            id,
            est: TpuEstimate {
                cycles: need_u64(obj, "cycles")?,
                compute_cycles: need_u64(obj, "compute_cycles")?,
                exposed_memory_cycles: need_u64(obj, "exposed_memory_cycles")?,
                dram_bytes: need_u64(obj, "dram_bytes")?,
                workspace_bytes: need_u64(obj, "workspace_bytes")?,
                flops: need_u64(obj, "flops")?,
                dispatch: need_u64(obj, "dispatch")?,
                first_fill: need_u64(obj, "first_fill")?,
                steady: need_u64(obj, "steady")?,
            },
        }),
        Some("gpu") => Ok(Response::Gpu {
            id,
            est: GpuEstimate {
                cycles: need_bits(obj, "cycles_bits")?,
                compute_cycles: need_bits(obj, "compute_bits")?,
                memory_cycles: need_bits(obj, "memory_bits")?,
                transform_cycles: need_bits(obj, "transform_bits")?,
                blocks: need_u64(obj, "blocks")?,
                flops: need_u64(obj, "flops")?,
            },
        }),
        Some("tune") => Ok(Response::Tune {
            id,
            est: TuneEstimate {
                best: obj
                    .get("best")
                    .ok_or_else(|| RequestError::bad("tune response missing \"best\""))
                    .and_then(parse_tuned_config)?,
                tuned_cycles: need_bits(obj, "tuned_bits")?,
                default_cycles: need_bits(obj, "default_bits")?,
                candidates: need_u64(obj, "candidates")?,
                pruned: need_u64(obj, "pruned")?,
            },
        }),
        _ => Err(RequestError::bad("unrecognized response shape")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::square(8, 64, 56, 64, 3, 1, 1).unwrap()
    }

    #[test]
    fn estimate_request_roundtrip() {
        let req = EstimateRequest {
            id: Some("r-1".into()),
            work: Work::TpuConv {
                shape: shape(),
                mode: SimMode::ChannelFirstGrouped(2),
                hw: TpuHwSpec {
                    chip: TpuChip::V3,
                    array: Some(256),
                    layout: Some(Layout::Nchw),
                    ..TpuHwSpec::default()
                },
            },
            deadline_ms: Some(250),
        };
        let line = encode_estimate(&req);
        assert_eq!(parse_request(&line), Ok(Request::Estimate(req)));
    }

    #[test]
    fn gpu_request_roundtrip() {
        for algo in [
            GpuAlgo::CudnnImplicit,
            GpuAlgo::ChannelFirst { reuse: true },
            GpuAlgo::ChannelFirst { reuse: false },
            GpuAlgo::ExplicitIm2col,
            GpuAlgo::GemmEquivalent,
        ] {
            let req = EstimateRequest {
                id: None,
                work: Work::GpuConv {
                    shape: shape(),
                    algo,
                    hw: GpuHwSpec::default(),
                },
                deadline_ms: None,
            };
            let line = encode_estimate(&req);
            assert_eq!(parse_request(&line), Ok(Request::Estimate(req)));
        }
    }

    #[test]
    fn pass_requests_roundtrip_and_forward_normalizes() {
        use iconv_core::ConvPass;
        // Every non-forward pass roundtrips on both targets.
        for pass in [ConvPass::Wgrad, ConvPass::Dgrad, ConvPass::Transpose] {
            for work in [
                Work::TpuPass {
                    shape: shape(),
                    pass,
                    mode: SimMode::Indirect,
                    hw: TpuHwSpec::default(),
                },
                Work::GpuPass {
                    shape: shape(),
                    pass,
                    algo: GpuAlgo::Indirect,
                    hw: GpuHwSpec::default(),
                },
            ] {
                let req = EstimateRequest {
                    id: None,
                    work,
                    deadline_ms: None,
                };
                let line = encode_estimate(&req);
                assert!(line.contains(&format!("\"pass\":\"{pass}\"")), "{line}");
                assert_eq!(parse_request(&line), Ok(Request::Estimate(req)));
            }
        }
        // A spelled-out forward pass encodes and parses as the plain conv
        // it denotes — the wire never grows a redundant field.
        let fwd = encode_estimate(&EstimateRequest {
            id: None,
            work: Work::TpuPass {
                shape: shape(),
                pass: ConvPass::Forward,
                mode: SimMode::ChannelFirst,
                hw: TpuHwSpec::default(),
            },
            deadline_ms: None,
        });
        assert!(!fwd.contains("\"pass\""), "{fwd}");
        let plain = encode_estimate(&EstimateRequest {
            id: None,
            work: Work::TpuConv {
                shape: shape(),
                mode: SimMode::ChannelFirst,
                hw: TpuHwSpec::default(),
            },
            deadline_ms: None,
        });
        assert_eq!(fwd, plain);
        // `"pass":"forward"` on the wire parses to the plain variant too.
        let spelled = plain.replacen(
            "\"op\":\"conv\",",
            "\"op\":\"conv\",\"pass\":\"forward\",",
            1,
        );
        assert_eq!(parse_request(&spelled), parse_request(&plain));
        // Unknown passes are typed bad-requests.
        let bad = plain.replacen(
            "\"op\":\"conv\",",
            "\"op\":\"conv\",\"pass\":\"sideways\",",
            1,
        );
        let e = parse_request(&bad).unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        assert!(e.detail.contains("unknown pass"), "{e}");
    }

    #[test]
    fn indirect_mode_parses_on_both_targets() {
        let tpu = r#"{"op":"conv","mode":"indirect","layer":{"n":8,"ci":64,"hi":56,"wi":56,"co":64,"hf":3,"wf":3,"pad":1}}"#;
        let Ok(Request::Estimate(req)) = parse_request(tpu) else {
            panic!("tpu indirect parse failed");
        };
        assert!(matches!(
            req.work,
            Work::TpuConv {
                mode: SimMode::Indirect,
                ..
            }
        ));
        let gpu = r#"{"op":"conv","target":"gpu","mode":"indirect","layer":{"n":8,"ci":64,"hi":56,"wi":56,"co":64,"hf":3,"wf":3,"pad":1}}"#;
        let Ok(Request::Estimate(req)) = parse_request(gpu) else {
            panic!("gpu indirect parse failed");
        };
        assert!(matches!(
            req.work,
            Work::GpuConv {
                algo: GpuAlgo::Indirect,
                ..
            }
        ));
    }

    #[test]
    fn layer_defaults_and_scalar_axes() {
        let line = r#"{"op":"conv","layer":{"n":8,"ci":64,"hi":56,"wi":56,"co":64,"hf":3,"wf":3,"stride":1,"pad":1,"dilation":1}}"#;
        let Ok(Request::Estimate(req)) = parse_request(line) else {
            panic!("parse failed");
        };
        let Work::TpuConv { shape: s, mode, .. } = req.work else {
            panic!("wrong work");
        };
        assert_eq!(s, shape());
        assert_eq!(mode, SimMode::ChannelFirst);
    }

    #[test]
    fn bad_requests_are_typed_and_keep_the_id() {
        for (line, want_parse) in [
            ("{\"op\":\"conv\"", true),                // truncated JSON
            ("{\"id\":\"x\",\"op\":\"warp\"}", false), // unknown op
            ("{\"id\":\"x\",\"op\":\"conv\"}", false), // missing layer
            (
                "{\"id\":\"x\",\"op\":\"conv\",\"target\":\"fpga\",\"layer\":{}}",
                false,
            ),
            ("{\"id\":\"x\",\"op\":\"gemm\",\"m\":1,\"n\":1}", false), // missing k
            ("[1,2,3]", false),                                        // not an object
        ] {
            let e = parse_request(line).unwrap_err();
            if want_parse {
                assert_eq!(e.kind, ErrorKind::Parse, "{line}");
            } else {
                assert_eq!(e.kind, ErrorKind::BadRequest, "{line}");
            }
            if line.contains("\"id\"") {
                assert_eq!(e.id.as_deref(), Some("x"), "{line}");
            }
        }
        // Shape validation failures surface as bad-request, not panics.
        let e = parse_request(
            r#"{"op":"conv","layer":{"n":1,"ci":1,"hi":1,"wi":1,"co":1,"hf":3,"wf":3}}"#,
        )
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        assert!(e.detail.contains("invalid layer"), "{e}");
    }

    #[test]
    fn response_bodies_roundtrip() {
        let tpu = TpuEstimate {
            cycles: 123,
            compute_cycles: 100,
            exposed_memory_cycles: 13,
            dram_bytes: 4096,
            workspace_bytes: 512,
            flops: 1_000_000,
            dispatch: 10,
            first_fill: 13,
            steady: 100,
        };
        let line = finish_response(Some("a"), &tpu_body(&tpu));
        assert_eq!(
            parse_response(&line),
            Ok(Response::Tpu {
                id: Some("a".into()),
                est: tpu
            })
        );

        let gpu = GpuEstimate {
            cycles: 2126.456789,
            compute_cycles: 0.1 + 0.2, // not representable exactly in decimal
            memory_cycles: 1e-300,
            transform_cycles: 0.0,
            blocks: 77,
            flops: 42,
        };
        let line = finish_response(None, &gpu_body(&gpu));
        let Ok(Response::Gpu { id: None, est }) = parse_response(&line) else {
            panic!("bad gpu response");
        };
        assert_eq!(est.cycles.to_bits(), gpu.cycles.to_bits());
        assert_eq!(est.compute_cycles.to_bits(), gpu.compute_cycles.to_bits());
        assert_eq!(est.memory_cycles.to_bits(), gpu.memory_cycles.to_bits());

        let stats = StatsSnapshot {
            requests: 10,
            hits: 7,
            misses: 3,
            workers: 4,
            ..StatsSnapshot::default()
        };
        let line = finish_response(None, &stats_body(&stats));
        assert_eq!(
            parse_response(&line),
            Ok(Response::Stats { id: None, stats })
        );

        let line = finish_response(Some("e"), &error_body(ErrorKind::Busy, "queue full"));
        assert_eq!(
            parse_response(&line),
            Ok(Response::Error {
                id: Some("e".into()),
                kind: ErrorKind::Busy,
                detail: "queue full".into()
            })
        );
        assert_eq!(
            parse_response(&finish_response(None, &pong_body())),
            Ok(Response::Pong { id: None })
        );
    }

    #[test]
    fn batch_request_roundtrips() {
        let items = vec![
            Work::TpuConv {
                shape: shape(),
                mode: SimMode::ChannelFirst,
                hw: TpuHwSpec::default(),
            },
            Work::TpuGemm {
                m: 512,
                n: 256,
                k: 384,
                hw: TpuHwSpec {
                    chip: TpuChip::V3,
                    ..TpuHwSpec::default()
                },
            },
            Work::GpuConv {
                shape: shape(),
                algo: GpuAlgo::CudnnImplicit,
                hw: GpuHwSpec::default(),
            },
        ];
        let line = encode_batch(Some("b1"), &items, Some(750));
        assert_eq!(
            parse_request(&line),
            Ok(Request::Batch {
                id: Some("b1".into()),
                items,
                deadline_ms: Some(750),
            })
        );
    }

    #[test]
    fn sweep_request_parses_to_its_expansion() {
        let mut spec = SweepSpec::new(
            shape(),
            SweepTarget::Tpu {
                mode: SimMode::ChannelFirst,
                hw: TpuHwSpec::default(),
            },
        );
        spec.cis = vec![3, 64];
        spec.strides = vec![1, 2];
        spec.layouts = vec![Layout::Hwcn, Layout::Nchw];
        let line = encode_sweep(Some("s"), &spec, None);
        let Ok(Request::Batch { id, items, .. }) = parse_request(&line) else {
            panic!("sweep line did not parse as a batch: {line}");
        };
        assert_eq!(id.as_deref(), Some("s"));
        assert_eq!(items, spec.expand().unwrap());
    }

    #[test]
    fn bad_batches_are_typed_errors() {
        for line in [
            r#"{"id":"x","op":"batch"}"#,                         // neither form
            r#"{"id":"x","op":"batch","items":[]}"#,              // empty
            r#"{"id":"x","op":"batch","items":{}}"#,              // not an array
            r#"{"id":"x","op":"batch","items":[{"op":"ping"}]}"#, // bad item op
            r#"{"id":"x","op":"batch","items":[1]}"#,             // item not an object
            r#"{"id":"x","op":"batch","items":[],"sweep":{}}"#,   // both forms
            r#"{"id":"x","op":"batch","sweep":{"layer":{"n":1,"ci":3,"hi":8,"wi":8,"co":8,"hf":3,"wf":3},"target":"gpu","layouts":["NCHW"]}}"#,
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{line}");
            assert_eq!(e.id.as_deref(), Some("x"), "{line}");
        }
        // Per-item failures name the offending index.
        let e = parse_request(
            r#"{"op":"batch","items":[{"op":"gemm","m":1,"n":1,"k":1},{"op":"gemm","m":1}]}"#,
        )
        .unwrap_err();
        assert!(e.detail.contains("item 1"), "{e}");
    }

    #[test]
    fn oversized_hw_specs_are_rejected_at_parse_time() {
        // An array override that underflows the per-row SRAM budget must be
        // a bad-request, not a downstream panic.
        let line = format!(
            r#"{{"op":"conv","layer":{{"n":1,"ci":3,"hi":8,"wi":8,"co":8,"hf":3,"wf":3}},"hw":{{"array":{}}}}}"#,
            1_u64 << 30
        );
        let e = parse_request(&line).unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        assert!(e.detail.contains("invalid hw spec"), "{e}");
    }

    #[test]
    fn schedule_override_parses_and_rejects_unknown_tokens() {
        let layer = r#"{"n":1,"ci":32,"hi":8,"wi":8,"co":8,"hf":3,"wf":3}"#;
        let line = format!(r#"{{"op":"conv","layer":{layer},"hw":{{"schedule":"double"}}}}"#);
        let Ok(Request::Estimate(req)) = parse_request(&line) else {
            panic!("schedule override should parse");
        };
        let Work::TpuConv { hw, .. } = req.work else {
            panic!("expected tpu conv");
        };
        assert_eq!(hw.schedule, Some(PipelineSchedule::DoubleBuffered));
        // Round-trip through the client encoder.
        let re = encode_estimate(&EstimateRequest {
            id: None,
            work: req.work,
            deadline_ms: None,
        });
        assert!(re.contains("\"schedule\":\"double\""), "{re}");

        let bad = format!(r#"{{"op":"conv","layer":{layer},"hw":{{"schedule":"triple"}}}}"#);
        let e = parse_request(&bad).unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        assert!(e.detail.contains("unknown schedule"), "{e}");
    }

    #[test]
    fn batch_summary_and_item_lines_roundtrip() {
        let line = finish_response(Some("b"), &batch_summary_body(5, 1));
        assert_eq!(
            parse_response(&line),
            Ok(Response::Batch {
                id: Some("b".into()),
                items: 5,
                errors: 1,
            })
        );
        // Item lines carry the estimate body plus an "item" tag the
        // estimate decoder tolerates.
        let tpu = TpuEstimate {
            cycles: 9,
            ..TpuEstimate::default()
        };
        let line = finish_item_response(Some("b"), 3, &tpu_body(&tpu));
        assert!(line.contains("\"item\":3,"), "{line}");
        assert_eq!(
            parse_response(&line),
            Ok(Response::Tpu {
                id: Some("b".into()),
                est: tpu,
            })
        );
        // Error item lines parse as typed errors.
        let line = finish_item_response(None, 0, &error_body(ErrorKind::Deadline, "expired"));
        assert_eq!(
            parse_response(&line),
            Ok(Response::Error {
                id: None,
                kind: ErrorKind::Deadline,
                detail: "expired".into(),
            })
        );
    }

    #[test]
    fn asymmetric_pad_roundtrips_and_symmetric_bytes_are_stable() {
        // Symmetric layers never spell the trailing-pad fields: the encoded
        // bytes are exactly the historical ones.
        let sym = EstimateRequest {
            id: None,
            work: Work::TpuConv {
                shape: shape(),
                mode: SimMode::ChannelFirst,
                hw: TpuHwSpec::default(),
            },
            deadline_ms: None,
        };
        let line = encode_estimate(&sym);
        assert!(!line.contains("pad_h_end"), "{line}");
        assert_eq!(parse_request(&line), Ok(Request::Estimate(sym)));

        // An even-filter SAME layer carries its trailing pads and survives
        // the round trip exactly.
        let asym = EstimateRequest {
            id: Some("a".into()),
            work: Work::GpuConv {
                shape: ConvShape::new(1, 4, 14, 14, 4, 4, 4)
                    .same_pad()
                    .build()
                    .unwrap(),
                algo: GpuAlgo::CudnnImplicit,
                hw: GpuHwSpec::default(),
            },
            deadline_ms: None,
        };
        let line = encode_estimate(&asym);
        assert!(line.contains("\"pad_h_end\":2,\"pad_w_end\":2"), "{line}");
        assert_eq!(parse_request(&line), Ok(Request::Estimate(asym)));
    }

    #[test]
    fn shards_request_and_response_roundtrip() {
        let line = encode_simple("shards", Some("sh"));
        assert_eq!(
            parse_request(&line),
            Ok(Request::Shards {
                id: Some("sh".into())
            })
        );
        let shards = vec![
            ShardStat {
                shard: 0,
                hits: 10,
                misses: 3,
                evictions: 1,
                entries: 2,
                capacity: 1024,
                in_flight: 0,
            },
            ShardStat {
                shard: 1,
                hits: 0,
                misses: 7,
                evictions: 0,
                entries: 7,
                capacity: 1024,
                in_flight: 2,
            },
        ];
        let line = finish_response(Some("sh"), &shards_body(&shards));
        assert_eq!(
            parse_response(&line),
            Ok(Response::Shards {
                id: Some("sh".into()),
                shards,
            })
        );
        // Empty striping still parses (a zero-shard server is impossible,
        // but the codec should not care).
        let line = finish_response(None, &shards_body(&[]));
        assert_eq!(
            parse_response(&line),
            Ok(Response::Shards {
                id: None,
                shards: Vec::new(),
            })
        );
    }

    #[test]
    fn stats_merge_sums_counters_and_maxes_latency() {
        let mut a = StatsSnapshot {
            requests: 10,
            hits: 7,
            misses: 3,
            workers: 4,
            cache_capacity: 1000,
            ..StatsSnapshot::default()
        };
        let b = StatsSnapshot {
            requests: 5,
            hits: 1,
            misses: 4,
            workers: 2,
            cache_capacity: 1000,
            ..StatsSnapshot::default()
        };
        a.service_hist.record(40);
        let mut b = b;
        b.service_hist.record(90);
        a.merge(&b);
        assert_eq!(a.requests, 15);
        assert_eq!(a.hits + a.misses, a.requests);
        assert_eq!(a.service_hist.max(), 90);
        assert_eq!(a.service_hist.sum(), 130);
        assert_eq!(a.workers, 6);
        assert_eq!(a.cache_capacity, 2000);
    }

    #[test]
    fn tune_request_and_response_roundtrip() {
        let req = EstimateRequest {
            id: Some("t".into()),
            work: Work::Tune {
                shape: shape(),
                target: TuneTarget::Tpu { chip: TpuChip::V3 },
            },
            deadline_ms: Some(500),
        };
        let line = encode_estimate(&req);
        assert!(line.contains("\"op\":\"tune\""), "{line}");
        assert!(line.contains("\"chip\":\"v3\""), "{line}");
        assert_eq!(parse_request(&line), Ok(Request::Estimate(req)));

        let est = TuneEstimate {
            best: TunedConfig::Tpu {
                mode: SimMode::ChannelFirstGrouped(2),
                hw: TpuHwSpec {
                    array: Some(64),
                    ..TpuHwSpec::default()
                },
            },
            tuned_cycles: 1234.0,
            default_cycles: 5678.5,
            candidates: 61,
            pruned: 9,
        };
        let line = finish_response(Some("t"), &tune_body(&est));
        assert_eq!(
            parse_response(&line),
            Ok(Response::Tune {
                id: Some("t".into()),
                est,
            })
        );
    }

    #[test]
    fn tuned_conv_framing_parses_to_tuned_estimate() {
        let line = encode_tuned_estimate(Some("x"), &shape(), &TuneTarget::Gpu, Some(100));
        assert!(line.contains("\"hw\":\"tuned\""), "{line}");
        assert_eq!(
            parse_request(&line),
            Ok(Request::TunedEstimate {
                id: Some("x".into()),
                shape: shape(),
                target: TuneTarget::Gpu,
                deadline_ms: Some(100),
            })
        );
    }

    #[test]
    fn gpu_hw_spec_roundtrips_and_rejects_overflow() {
        let req = EstimateRequest {
            id: None,
            work: Work::GpuConv {
                shape: shape(),
                algo: GpuAlgo::CudnnImplicit,
                hw: GpuHwSpec {
                    sms: Some(40),
                    clock_mhz: Some(1312.5),
                    block: Some((64, 64, 32)),
                    schedule: Some(PipelineSchedule::SingleBuffered),
                    ..GpuHwSpec::default()
                },
            },
            deadline_ms: None,
        };
        let line = encode_estimate(&req);
        assert_eq!(parse_request(&line), Ok(Request::Estimate(req)));

        // Tiles that overflow shared memory at default residency must be
        // a bad-request at parse time, not an engine panic.
        let layer = r#"{"n":1,"ci":32,"hi":8,"wi":8,"co":8,"hf":3,"wf":3}"#;
        let bad = format!(
            r#"{{"op":"conv","target":"gpu","layer":{layer},"hw":{{"bm":4096,"bn":4096,"bk":4096}}}}"#
        );
        let e = parse_request(&bad).unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        assert!(e.detail.contains("invalid hw spec"), "{e}");
    }

    #[test]
    fn f64_bits_roundtrip_edge_values() {
        for v in [0.0, -0.0, 1.0, f64::MIN_POSITIVE, f64::MAX, 0.1 + 0.2] {
            assert_eq!(f64_from_bits(&f64_bits(v)).unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(f64_from_bits("xyz"), None);
        assert_eq!(f64_from_bits("00000000000000000"), None);
    }
}
