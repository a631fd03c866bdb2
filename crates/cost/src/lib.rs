//! Analytical I/O cost model for WARLOCK.
//!
//! The prediction layer "estimates … I/O access cost or overhead
//! (throughput) and I/O response time … by means of an analytical model"
//! (paper §3.2, reconstructing Stöhr's BTW 2001 model). For every
//! (query class, fragmentation candidate) pair the model derives:
//!
//! * the *access path* per fragment — full fragment scan vs bitmap-guided
//!   row fetch, whichever is cheaper (and scan when a residual predicate
//!   has no covering index),
//! * page, I/O and device-busy-time totals (the throughput metric), and
//! * a declustered response-time estimate (the parallelism metric),
//!   capped by the architecture's processor count.
//!
//! Modules:
//!
//! * [`yao`] — Yao/Cardenas page-hit estimation,
//! * [`contention`] — multi-user load inflation (why low total I/O wins
//!   under concurrency),
//! * [`prefetch`] — effective prefetch granule per object size,
//! * [`access`] — the per-query access-plan estimator,
//! * [`response`] — declustered response-time estimation,
//! * [`model`] — the [`CostModel`] facade evaluating whole candidates
//!   against a weighted query mix,
//! * [`tables`] — per-dimension cost tables precomputed once per model
//!   ([`CostTables`]),
//! * [`batch`] — SoA batched evaluation of whole candidate chunks
//!   ([`evaluate_chunk`]), bit-identical to the scalar path,
//! * [`kernel`] — lane-structured costing kernels: the scalar
//!   reference and, where the CPU has it, AVX2, bit-identical by
//!   construction.

//!
//! # Example
//!
//! ```
//! use warlock_bitmap::{BitmapScheme, SchemeConfig};
//! use warlock_cost::CostModel;
//! use warlock_fragment::Fragmentation;
//! use warlock_schema::{apb1_like_schema, Apb1Config};
//! use warlock_storage::SystemConfig;
//! use warlock_workload::apb1_like_mix;
//!
//! let schema = apb1_like_schema(Apb1Config::default()).unwrap();
//! let mix = apb1_like_mix().unwrap();
//! let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
//! let system = SystemConfig::default_2001(16);
//!
//! let model = CostModel::new(&schema, &system, &scheme, &mix);
//! let monthly = model.evaluate(&Fragmentation::from_pairs(&[(2, 2)]).unwrap());
//! let baseline = model.evaluate(&Fragmentation::none());
//! assert!(monthly.response_ms < baseline.response_ms);
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod batch;
pub mod contention;
pub mod kernel;
pub mod model;
pub mod prefetch;
pub mod response;
pub mod tables;
pub mod yao;

pub use access::{AccessPath, QueryCost};
pub use batch::{
    evaluate_chunk, evaluate_chunk_kernel, evaluate_chunk_rows, evaluate_chunk_with, ChunkBatch,
    PerQueryDetail,
};
pub use contention::{contention_estimate, load_curve, ContentionEstimate, LoadPoint};
pub use kernel::{
    yao_pass, AlignedF64Col, CostPassInput, CostPassOutput, KernelBackend, KernelChoice, LANES,
};
pub use model::{
    combine_class_costs, combined_io_cost_ms, fingerprint128, CandidateCost, ClassCost, CostModel,
};
pub use prefetch::effective_prefetch;
pub use response::estimated_response_ms;
pub use tables::{BitmapContrib, ClassTable, CostTables, FragDimEntry, PredTable};
pub use yao::{cardenas_page_hits, yao_page_hits};
