//! Ablation studies beyond the paper's figures. `layout` (Fig. 7),
//! `batching` (Sec. IV-A/IV-C), `scalability` (Sec. II-C) and `tpuv3`
//! (Sec. VII-A) each back one claim of the paper and assert it while they
//! render; `tests/paper_invariants.rs` runs them. `training` waits on the
//! single backprop model of ROADMAP item 7 (DESIGN.md §4b).

pub mod batching;
pub mod layout;
pub mod scalability;
pub mod tpuv3;
pub mod training;
