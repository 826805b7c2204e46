//! `iconv-benchmark`: the end-to-end and per-layer benchmark of the
//! `served`, `routed` and `expall` binaries. See `benchmark/README.md`.

pub mod check;
pub mod child;
pub mod compare;
pub mod gen;
pub mod metrics;
pub mod offline;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod stats;
pub mod trace;
