//! # pastix-solver
//!
//! Numeric factorization and solve for the PaStiX reproduction:
//!
//! * [`plan`] — **the only entry path** into the parallel engines:
//!   [`Plan::analyze`] bundles the whole pre-processing pipeline
//!   (ordering, symbolic analysis, mapping, optional static schedule);
//!   [`Plan::factorize`] runs the numeric phase on any backend and hands
//!   back a [`FactorRun`] whose [`SolveRequest`]-driven solve method
//!   covers single- and multi-RHS;
//! * [`storage`] — the dense-panel factor storage (the real PaStiX layout:
//!   one contiguous column-major panel per column block);
//! * [`seq`] — the sequential supernodal `L·D·Lᵀ` reference (one `COMP1D`
//!   per column block with direct local aggregation) and its one
//!   forward / diagonal / backward solve sweep, [`solve_block_in_place`]
//!   over `k` right-hand sides ([`solve_in_place`] is the `k = 1` call);
//! * [`parallel`] — the parallel supernodal **fan-in** engine of the
//!   paper's Fig. 1, fully driven by the static schedule from
//!   `pastix-sched` and running on the in-process message-passing runtime;
//! * [`dynamic`] — the `Backend::Dynamic` engine: the same task graph
//!   executed by the work-stealing DAG executor, with the static mapping
//!   reduced to placement/priority hints.
//!
//! The parallel factor is validated against the sequential one entry by
//! entry; both support `f64` (SPD) and `Complex64` (complex symmetric)
//! systems through the shared [`pastix_kernels::Scalar`] abstraction.
//!
//! Off-diagonal factor blocks can be stored in block low-rank (BLR) form:
//! [`compress`] holds the [`CompressionConfig`] knobs and the shared
//! compressed-comp1d pipeline, [`storage`] the per-panel overlay, and
//! [`refine`] the iterative-refinement wrapper that recovers full
//! accuracy from a truncated factor.

#![warn(missing_docs)]

pub mod compress;
pub mod config;
pub mod dynamic;
pub mod metrics;
pub mod parallel;
pub mod plan;
pub mod psolve;
pub mod refine;
pub mod seq;
pub mod storage;

pub use compress::{CompressionConfig, CompressionStrategy};
pub use config::{FactorRun, SolverConfig};
pub use metrics::MessagePathMetrics;
pub use parallel::ChaosOptions;
pub use pastix_runtime::{Backend, DynamicOptions};
pub use pastix_trace::{MetricsRegistry, TraceLog, TraceOptions};
pub use plan::{run_from_storage, AnalyzeOptions, AnalyzeStats, Plan, SolveOutput, SolveRequest};
pub use refine::{RefineOptions, RefineOutput};
pub use seq::{
    factor_and_solve, factorize_sequential, reconstruction_error, solve_block_in_place,
    solve_in_place,
};
pub use storage::{BlockStore, BlokView, FactorStorage, PanelCompression, PanelLayout};
