//! # WARLOCK — a data allocation advisor for parallel data warehouses
//!
//! A Rust reproduction of *"WARLOCK: A Data Allocation Tool for Parallel
//! Warehouses"* (Stöhr & Rahm, VLDB 2001). Given a star schema, a disk
//! subsystem and a weighted star-query mix, the advisor recommends how to
//! fragment the fact table over the dimension hierarchies (MDHF), which
//! bitmap join indexes to keep, and how to place all fragments on disk —
//! minimizing both total I/O work and query response times.
//!
//! ## Pipeline (paper Fig. 1)
//!
//! ```text
//! input      star schema ── DBS & disk parameters ── weighted query mix
//! prediction generation of fragmentations & bitmaps
//!            exclusion of fragmentations by thresholds
//!            calculation of performance metrics   ←── I/O cost model
//!            ranking of "top" fragmentations
//! analysis   fragmentation candidates ── query analysis ── allocation
//! ```
//!
//! ## Quickstart
//!
//! The public API is the owned, session-oriented [`Warlock`] facade:
//! build it once from owned inputs, then ask it for rankings, analyses,
//! allocation plans and what-if variations. Every fallible call returns
//! the unified [`WarlockError`], and every report is renderable as
//! text/CSV ([`report`]) and serializable to JSON ([`serial`]).
//!
//! ```
//! use warlock::prelude::*;
//!
//! let session = Warlock::builder()
//!     .schema(apb1_like_schema(Apb1Config::default())?)
//!     .system(SystemConfig::default_2001(16))
//!     .mix(apb1_like_mix()?)
//!     .config(AdvisorConfig::default())
//!     .build()?;
//!
//! // Prediction layer: enumerate, exclude, cost, twofold-rank (cached).
//! let best = session.rank()?.top().expect("candidates survive").clone();
//! println!("best fragmentation: {}", best.label);
//!
//! // Analysis layer: detailed statistic and placement of any rank.
//! let analysis = session.analyze(1)?;
//! let plan = session.plan_allocation(1)?;
//! assert_eq!(analysis.label, plan.label);
//!
//! // What-if tuning (§3.3) against the cached baseline — `&self`, so
//! // clones explore variations concurrently and share the warm cache.
//! let explorer = session.clone();
//! let (_report, delta) = explorer.what_if_disks(64)?;
//! assert!(delta.variation_response_ms < delta.baseline_response_ms);
//!
//! // Machine-readable service output: JSON that round-trips.
//! let json_text = session.session_report()?.to_json().pretty();
//! let parsed = SessionReport::from_json_str(&json_text)?;
//! assert_eq!(parsed.ranking.len(), session.rank()?.ranked.len());
//! # Ok::<(), warlock::WarlockError>(())
//! ```
//!
//! [`Warlock`] is `Clone`: clones share an immutable, `Arc`-backed
//! [`session::Snapshot`] plus the evaluation cache, while mutators
//! (`set_system`/`set_mix`/`set_config`) are copy-on-write snapshot
//! swaps — see [`session`]. The [`registry`]
//! module holds any number of **named** sessions (load/unload/
//! hot-reload), and the [`service`] module (with the `warlockd` binary)
//! dispatches a versioned JSON protocol over it — newline-delimited
//! lines on stdio/TCP, or `POST /v2/<op>` via the std-only [`http`]
//! transport.
//!
//! The heavy lifting lives in the substrate crates re-exported below;
//! this crate contributes the session facade ([`Warlock`]), the advisor
//! pipeline, the twofold ranking ([`ranking`]), the Fig.-2-style
//! analyses ([`analysis`]), the physical allocation plan
//! ([`allocation_plan`]), what-if deltas ([`tuning`]), the service
//! layer ([`service`]) and report rendering/serialization ([`report`],
//! [`serial`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod allocation_plan;
pub mod analysis;
pub mod cache;
pub mod config;
pub mod config_file;
mod engine;
pub mod error;
pub mod http;
pub mod optimizer;
pub mod policy_judge;
pub mod prelude;
pub mod ranking;
pub mod registry;
pub mod report;
pub mod serial;
pub mod service;
pub mod session;
pub mod tuning;

pub use advisor::{
    AdvisorReport, ExcludedCandidate, ExcludedSummary, ExclusionGroup, RankedCandidate,
};
pub use allocation_plan::{AllocationPlan, ClassDiskProfile};
pub use analysis::{ClassAnalysis, FragmentationAnalysis};
pub use cache::EvalCacheStats;
pub use config::AdvisorConfig;
pub use error::WarlockError;
pub use http::ShutdownSignal;
pub use optimizer::{AdviceEvent, DriftStatus};
pub use policy_judge::{PolicyRecommendation, PolicyVerdict};
pub use ranking::{twofold_rank, KeyedRank, RankKeys, StreamingRank};
pub use registry::{Registry, Warehouse, WarehouseStats};
pub use serial::SessionReport;
pub use service::{Service, ServiceReply, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION};
pub use session::{Snapshot, Warlock, WarlockBuilder};
pub use tuning::TuningDelta;
pub use warlock_cost::{KernelBackend, KernelChoice};
pub use warlock_workload::{ClassObservation, DriftState};

// Substrate re-exports so downstream users need only one dependency.
pub use warlock_alloc as alloc;
pub use warlock_bitmap as bitmap;
pub use warlock_cost as cost;
pub use warlock_fragment as fragment;
pub use warlock_json as json;
pub use warlock_schema as schema;
pub use warlock_skew as skew;
pub use warlock_storage as storage;
pub use warlock_workload as workload;
