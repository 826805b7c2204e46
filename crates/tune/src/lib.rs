//! `iconv-tune` — design-space autotuning as a first-class operation.
//!
//! The paper's Table II fixes one configuration per target; this crate
//! asks, per layer, whether any nearby design-space point beats it. A
//! [`search::tune`] enumerates a fixed candidate grid (TPU: lowering mode
//! x array size x ifmap layout x pipeline schedule; GPU: kernel algorithm
//! x block tile x residency x schedule), prunes infeasible and aliasing
//! points (equal [`iconv_api::Canonical`] forms), simulates the rest, and
//! returns the strict-minimum winner with the Table-II default as the
//! reported baseline — candidate 0 *is* the default, so tuned cycles never
//! exceed default cycles. Each target's grid is validated and resolved
//! once per process, one engine per distinct configuration, and a search
//! calls those engines directly: its cycles are bit-identical to
//! [`estimate`] pricing each candidate on its own.
//!
//! Everything is deterministic: same `(shape, target)` in, byte-identical
//! [`iconv_api::proto::TuneEstimate`] out. A search measures on the calling
//! thread; callers with many searches spread whole searches over workers
//! (`iconv-bench`'s `tune_table::sweep`, pinned identical for 1 and 4
//! workers, and the serve worker pool). That is what lets a tune ride
//! the serve stack as ordinary cached work — `Work::Tune` has a canonical
//! key like any estimate, so the striped cache, single-flight, the batch
//! op, and the `routed` hash ring all apply unchanged.
//!
//! [`TuneCache`] is the durable layer: a canonical-key -> best-config map
//! with a lossless JSON round trip (cycles as IEEE-754 bit strings), used
//! by `served --tune-cache` for warm boots and by `tunebench` for
//! `BENCH_tune.json`.
//!
//! [`estimate`] is the one evaluator of a [`iconv_api::Work`]: the serve
//! engine renders its answer, [`InProcessSource`] (the bench runners'
//! [`CycleSource`]) returns it, and it answers `Work::Tune` by calling
//! [`search::tune`].

#![warn(missing_docs)]

pub mod search;
pub mod source;
pub mod store;

pub use iconv_api::proto::{Estimate, TuneEstimate};
pub use iconv_api::{TuneTarget, TunedConfig};
pub use search::{candidates, default_config, tune, tune_key, tune_work, ALL_TARGETS};
pub use source::{estimate, CycleSource, InProcessSource};
pub use store::TuneCache;
