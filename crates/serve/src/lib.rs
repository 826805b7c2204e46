//! `iconv-serve`: a cached, concurrent layer-estimate service.
//!
//! The experiment runners call the simulators in-process, which is perfect
//! for one-shot sweeps and wasteful for interactive exploration: a design
//! tool poking at the TPU/GPU models re-simulates the same layers over and
//! over. This crate turns the simulators into a long-running TCP service:
//!
//! * **Protocol** — newline-delimited JSON ([`protocol`]), hand-rolled on a
//!   panic-free parser ([`json`]) because the offline dependency set has no
//!   serde. Ops: `conv`, `gemm`, `batch`, `stats`, `shards`, `ping`,
//!   `shutdown`.
//!   Every failure is a typed error response (`busy`, `deadline`, `parse`,
//!   `bad-request`, `shutting-down`) — malformed input never panics or
//!   disconnects. The request vocabulary itself ([`Work`], [`TpuHwSpec`],
//!   [`SweepSpec`], cache keys) lives in the shared `iconv-api` crate so
//!   every consumer agrees on what a request *means*.
//! * **Dispatch** — requests run on an [`iconv_par::WorkerPool`] with a
//!   bounded queue; overload is surfaced as an explicit `busy` error
//!   instead of a hang, and per-request `deadline_ms` bounds queue time.
//!   A `batch` op (item array or compact sweep spec) is admitted as a
//!   single unit, deduplicated against the cache *and* within itself, run
//!   under a bounded in-flight chunk so giant sweeps cannot starve other
//!   clients, and streamed back in item order.
//! * **Cache** — a content-addressed, lock-striped LRU
//!   ([`cache::StripedCache`]) keyed on the canonical rendering of
//!   (hardware config × lowering mode × layout × shape)
//!   ([`canonical_key`]).
//!   Equivalent request spellings share entries; distinct simulations never
//!   collide. Keys hash onto independent shards so concurrent hits never
//!   serialize on one lock, bodies are shared [`cache::Body`]s (a warm hit
//!   allocates nothing under the lock), and per-shard single-flight makes
//!   concurrent misses of one key run the simulation once. Cached replays
//!   are byte-identical to fresh ones, so responses are deterministic under
//!   any concurrency and any cache state.
//! * **Observability** — hits, misses, evictions, queue depth, latency are
//!   visible live via the `stats` op and exportable as `iconv-trace`
//!   counters.
//!
//! Binaries: `served` (the server), `routed` (a cache-affinity front-end
//! that consistent-hashes canonical keys across a fleet of `served`
//! backends — [`router`]), and `loadgen` (a closed-loop generator replaying
//! the paper's workload table, writing `BENCH_serve.json`). Open-loop
//! latency at fixed offered rates is measured from outside the process by
//! the `iconv-benchmark` package (`benchmark/`). The `stats` op carries a
//! mergeable service-time histogram ([`iconv_api::LatencyHist`]), striped
//! per cache shard on the server and fleet-merged through the router.
//! Request lines longer than [`MAX_LINE_BYTES`] are refused with a typed
//! `parse` error and the connection is closed. `expall --via-serve` routes
//! its summary's layer estimates through a server (or a router) with
//! byte-identical output — GPU `f64` cycles cross the wire as IEEE-754 bit
//! strings to keep that guarantee exact.

pub mod cache;
pub mod cli;
pub mod client;
mod conn;
pub mod engine;
// The wire vocabulary and codecs moved to `iconv-api` (`json` / `proto`),
// so the server, clients, and router all share one definition; these
// aliases keep every historical `iconv_serve::json` / `::protocol` path
// resolving to it.
pub use iconv_api::json;
pub use iconv_api::proto as protocol;
pub mod router;
pub mod server;

pub use cache::{Body, LruCache, StripedCache};
pub use client::{
    BatchItemResult, Client, ClientError, RetryClient, RetryPolicy, DEFAULT_CONNECT_TIMEOUT,
};
pub use conn::MAX_OWED_LINES;
pub use iconv_api::canonical_key;
pub use protocol::{
    ErrorKind, Estimate, EstimateRequest, GpuEstimate, GpuHwSpec, Op, Request, Response, ShardStat,
    StatsSnapshot, SweepError, SweepSpec, SweepTarget, TpuChip, TpuEstimate, TpuHwSpec,
    TuneEstimate, TuneTarget, TunedConfig, Work, MAX_LINE_BYTES, MAX_SWEEP_ITEMS,
};
pub use router::{spawn_router, Breaker, BreakerState, RouterConfig, RouterHandle, RouterStats};
pub use server::{spawn, ServerConfig, ServerHandle};
