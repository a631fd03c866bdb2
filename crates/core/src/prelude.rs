//! The types most WARLOCK applications need in one import.
//!
//! ```
//! use warlock::prelude::*;
//! ```

pub use crate::config::AdvisorConfig;
pub use crate::error::WarlockError;
pub use crate::registry::{Registry, Warehouse, WarehouseStats};
pub use crate::serial::SessionReport;
pub use crate::service::Service;
pub use crate::session::{Snapshot, Warlock, WarlockBuilder};
pub use crate::tuning::TuningDelta;
pub use crate::{AdvisorReport, AllocationPlan, FragmentationAnalysis, RankedCandidate};

pub use warlock_fragment::Fragmentation;
pub use warlock_json::{FromJson, Json, ToJson};
pub use warlock_schema::{apb1_like_schema, Apb1Config, Dimension, FactTable, StarSchema};
pub use warlock_skew::DimensionSkew;
pub use warlock_storage::{Architecture, PrefetchPolicy, SystemConfig};
pub use warlock_workload::{apb1_like_mix, DimensionPredicate, QueryClass, QueryMix};
