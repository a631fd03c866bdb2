//! Serializable (JSON) views of the advisor's reports.
//!
//! Every report the facade produces is renderable as text/CSV (see
//! [`crate::report`]) **and** serializable to JSON, so the advisor can
//! back a machine-readable service. The wire types in this module are
//! plain data: [`SessionReport`] round-trips losslessly through
//! [`warlock_json`] (`to_json` → render → parse → `from_json` compares
//! equal), which the `warlock <cfg> json` CLI command and the
//! integration tests rely on.

use warlock_cost::AccessPath;
use warlock_fragment::Fragmentation;
use warlock_json::{FromJson, Json, JsonError, ToJson};

use crate::advisor::{AdvisorReport, RankedCandidate};
use crate::allocation_plan::AllocationPlan;
use crate::analysis::FragmentationAnalysis;
use crate::error::WarlockError;
use crate::tuning::TuningDelta;

fn path_str(p: AccessPath) -> &'static str {
    match p {
        AccessPath::FullScan => "scan",
        AccessPath::BitmapFetch => "bitmap",
    }
}

fn f64_field(value: &Json, key: &str) -> Result<f64, JsonError> {
    value
        .req(key)?
        .as_f64()
        .ok_or_else(|| JsonError::shape(format!("`{key}` is not a number")))
}

fn u64_field(value: &Json, key: &str) -> Result<u64, JsonError> {
    value
        .req(key)?
        .as_u64()
        .ok_or_else(|| JsonError::shape(format!("`{key}` is not an unsigned integer")))
}

fn u16_field(value: &Json, key: &str) -> Result<u16, JsonError> {
    u16::try_from(u64_field(value, key)?)
        .map_err(|_| JsonError::shape(format!("`{key}` out of range for u16")))
}

fn u32_field(value: &Json, key: &str) -> Result<u32, JsonError> {
    u32::try_from(u64_field(value, key)?)
        .map_err(|_| JsonError::shape(format!("`{key}` out of range for u32")))
}

fn usize_field(value: &Json, key: &str) -> Result<usize, JsonError> {
    value
        .req(key)?
        .as_usize()
        .ok_or_else(|| JsonError::shape(format!("`{key}` is not an unsigned integer")))
}

/// A field older replies omit: absent reads as `T::default()`.
fn field_or_default<T: Default>(
    value: &Json,
    key: &str,
    read: fn(&Json, &str) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    match value.get(key) {
        Some(_) => read(value, key),
        None => Ok(T::default()),
    }
}

fn str_field(value: &Json, key: &str) -> Result<String, JsonError> {
    Ok(value
        .req(key)?
        .as_str()
        .ok_or_else(|| JsonError::shape(format!("`{key}` is not a string")))?
        .to_owned())
}

fn array_field<'a>(value: &'a Json, key: &str) -> Result<&'a [Json], JsonError> {
    value
        .req(key)?
        .as_array()
        .ok_or_else(|| JsonError::shape(format!("`{key}` is not an array")))
}

/// One fragmentation attribute on the wire: dimension, level, range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentationAttr {
    /// The fragmented dimension's index.
    pub dimension: u16,
    /// The fragmentation attribute (hierarchy level) within it.
    pub level: u16,
    /// The attribute range size (1 = point fragmentation).
    pub range: u64,
}

impl FragmentationAttr {
    /// The wire form of `fragmentation`.
    pub fn from_fragmentation(fragmentation: &Fragmentation) -> Vec<Self> {
        fragmentation
            .attributes()
            .iter()
            .zip(fragmentation.ranges())
            .map(|(attr, &range)| Self {
                dimension: attr.dimension.0,
                level: attr.level.0,
                range,
            })
            .collect()
    }

    /// Rebuilds the [`Fragmentation`] these attributes describe.
    pub fn to_fragmentation(attrs: &[Self]) -> Result<Fragmentation, WarlockError> {
        let pairs: Vec<(u16, u16, u64)> = attrs
            .iter()
            .map(|a| (a.dimension, a.level, a.range))
            .collect();
        Ok(Fragmentation::from_ranged_pairs(&pairs)?)
    }
}

impl ToJson for FragmentationAttr {
    fn to_json(&self) -> Json {
        Json::object([
            ("dimension", self.dimension.to_json()),
            ("level", self.level.to_json()),
            ("range", self.range.to_json()),
        ])
    }
}

impl FromJson for FragmentationAttr {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            dimension: u16_field(value, "dimension")?,
            level: u16_field(value, "level")?,
            range: u64_field(value, "range")?,
        })
    }
}

/// One ranked candidate on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RankingRow {
    /// Position in the final ranking (1-based).
    pub rank: usize,
    /// Human-readable label, e.g. `product.class × time.month`.
    pub label: String,
    /// The candidate's fragmentation attributes.
    pub fragmentation: Vec<FragmentationAttr>,
    /// Number of fragments.
    pub num_fragments: u64,
    /// Workload-weighted I/O cost per query (ms).
    pub io_cost_ms: f64,
    /// Workload-weighted response time per query (ms).
    pub response_ms: f64,
    /// Workload-weighted physical I/Os per query.
    pub total_ios: f64,
    /// Workload-weighted pages read per query.
    pub total_pages: f64,
}

impl From<&RankedCandidate> for RankingRow {
    fn from(r: &RankedCandidate) -> Self {
        Self {
            rank: r.rank,
            label: r.label.clone(),
            fragmentation: FragmentationAttr::from_fragmentation(&r.cost.fragmentation),
            num_fragments: r.cost.num_fragments,
            io_cost_ms: r.cost.io_cost_ms,
            response_ms: r.cost.response_ms,
            total_ios: r.cost.total_ios,
            total_pages: r.cost.total_pages,
        }
    }
}

impl ToJson for RankingRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("rank", self.rank.to_json()),
            ("label", self.label.to_json()),
            ("fragmentation", self.fragmentation.to_json()),
            ("num_fragments", self.num_fragments.to_json()),
            ("io_cost_ms", self.io_cost_ms.to_json()),
            ("response_ms", self.response_ms.to_json()),
            ("total_ios", self.total_ios.to_json()),
            ("total_pages", self.total_pages.to_json()),
        ])
    }
}

impl FromJson for RankingRow {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            rank: usize_field(value, "rank")?,
            label: str_field(value, "label")?,
            fragmentation: array_field(value, "fragmentation")?
                .iter()
                .map(FragmentationAttr::from_json)
                .collect::<Result<_, _>>()?,
            num_fragments: u64_field(value, "num_fragments")?,
            io_cost_ms: f64_field(value, "io_cost_ms")?,
            response_ms: f64_field(value, "response_ms")?,
            total_ios: f64_field(value, "total_ios")?,
            total_pages: f64_field(value, "total_pages")?,
        })
    }
}

/// One excluded sample candidate on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExclusionRow {
    /// Human-readable candidate label.
    pub label: String,
    /// Why it was excluded (rendered reason).
    pub reason: String,
}

impl ToJson for ExclusionRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("label", self.label.to_json()),
            ("reason", self.reason.to_json()),
        ])
    }
}

impl FromJson for ExclusionRow {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            label: str_field(value, "label")?,
            reason: str_field(value, "reason")?,
        })
    }
}

/// One exclusion-reason group on the wire: the machine-readable reason
/// tag, the exact count, and the capped sample candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExclusionGroupRow {
    /// Machine-readable reason tag (`Exclusion::kind`).
    pub kind: String,
    /// Exact number of candidates excluded for this reason.
    pub count: usize,
    /// The first few excluded candidates, in enumeration order.
    pub samples: Vec<ExclusionRow>,
}

impl ToJson for ExclusionGroupRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("kind", self.kind.to_json()),
            ("count", self.count.to_json()),
            ("samples", self.samples.to_json()),
        ])
    }
}

impl FromJson for ExclusionGroupRow {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            kind: str_field(value, "kind")?,
            count: usize_field(value, "count")?,
            samples: array_field(value, "samples")?
                .iter()
                .map(ExclusionRow::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The bounded exclusion summary on the wire: exact total, per-reason
/// groups with capped samples.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExcludedSummaryRow {
    /// Exact number of excluded candidates.
    pub total: usize,
    /// Per-reason groups in first-seen enumeration order.
    pub groups: Vec<ExclusionGroupRow>,
}

impl From<&crate::advisor::ExcludedSummary> for ExcludedSummaryRow {
    fn from(summary: &crate::advisor::ExcludedSummary) -> Self {
        Self {
            total: summary.total(),
            groups: summary
                .groups()
                .iter()
                .map(|g| ExclusionGroupRow {
                    kind: g.kind.to_owned(),
                    count: g.count,
                    samples: g
                        .samples
                        .iter()
                        .map(|e| ExclusionRow {
                            label: e.label.clone(),
                            reason: e.reason.to_string(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

impl ToJson for ExcludedSummaryRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("total", self.total.to_json()),
            ("groups", self.groups.to_json()),
        ])
    }
}

impl FromJson for ExcludedSummaryRow {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            total: usize_field(value, "total")?,
            groups: array_field(value, "groups")?
                .iter()
                .map(ExclusionGroupRow::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl ToJson for AdvisorReport {
    /// The ranking view: counters plus ranked and excluded candidates.
    fn to_json(&self) -> Json {
        Json::object([
            ("enumerated", self.enumerated.to_json()),
            ("evaluated", self.evaluated.to_json()),
            (
                "ranking",
                self.ranked
                    .iter()
                    .map(|r| RankingRow::from(r).to_json())
                    .collect::<Vec<_>>()
                    .to_json(),
            ),
            (
                "excluded",
                ExcludedSummaryRow::from(&self.excluded).to_json(),
            ),
        ])
    }
}

/// One per-class analysis line on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRow {
    /// Query class name.
    pub name: String,
    /// Share of the mix (0..1).
    pub share: f64,
    /// Expected fragments accessed.
    pub accessed_fragments: f64,
    /// Expected fact pages read.
    pub fact_pages: f64,
    /// Expected bitmap pages read.
    pub bitmap_pages: f64,
    /// Expected physical I/Os.
    pub ios: f64,
    /// Device busy time (ms).
    pub busy_ms: f64,
    /// Response time (ms).
    pub response_ms: f64,
    /// Chosen access path (`"scan"` or `"bitmap"`).
    pub path: String,
}

impl ToJson for ClassRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("name", self.name.to_json()),
            ("share", self.share.to_json()),
            ("accessed_fragments", self.accessed_fragments.to_json()),
            ("fact_pages", self.fact_pages.to_json()),
            ("bitmap_pages", self.bitmap_pages.to_json()),
            ("ios", self.ios.to_json()),
            ("busy_ms", self.busy_ms.to_json()),
            ("response_ms", self.response_ms.to_json()),
            ("path", self.path.to_json()),
        ])
    }
}

impl FromJson for ClassRow {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            name: str_field(value, "name")?,
            share: f64_field(value, "share")?,
            accessed_fragments: f64_field(value, "accessed_fragments")?,
            fact_pages: f64_field(value, "fact_pages")?,
            bitmap_pages: f64_field(value, "bitmap_pages")?,
            ios: f64_field(value, "ios")?,
            busy_ms: f64_field(value, "busy_ms")?,
            response_ms: f64_field(value, "response_ms")?,
            path: str_field(value, "path")?,
        })
    }
}

/// The Fig.-2-style per-fragmentation statistic on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Candidate label.
    pub label: String,
    /// Number of fragments.
    pub num_fragments: u64,
    /// Rows per fragment.
    pub fragment_rows: u64,
    /// Pages per fragment.
    pub fragment_pages: u64,
    /// Total fact pages.
    pub total_fact_pages: u64,
    /// Stored bitmap pages.
    pub bitmap_stored_pages: u64,
    /// Suggested fact prefetch granule (pages).
    pub fact_prefetch: u32,
    /// Suggested bitmap prefetch granule (pages).
    pub bitmap_prefetch: u32,
    /// Workload-weighted busy time (ms).
    pub weighted_busy_ms: f64,
    /// Workload-weighted response time (ms).
    pub weighted_response_ms: f64,
    /// Per-class details, in mix order.
    pub per_class: Vec<ClassRow>,
}

impl From<&FragmentationAnalysis> for AnalysisReport {
    fn from(a: &FragmentationAnalysis) -> Self {
        Self {
            label: a.label.clone(),
            num_fragments: a.num_fragments,
            fragment_rows: a.fragment_rows,
            fragment_pages: a.fragment_pages,
            total_fact_pages: a.total_fact_pages,
            bitmap_stored_pages: a.bitmap_stored_pages,
            fact_prefetch: a.fact_prefetch,
            bitmap_prefetch: a.bitmap_prefetch,
            weighted_busy_ms: a.weighted_busy_ms,
            weighted_response_ms: a.weighted_response_ms,
            per_class: a
                .per_class
                .iter()
                .map(|c| ClassRow {
                    name: c.name.clone(),
                    share: c.share,
                    accessed_fragments: c.accessed_fragments,
                    fact_pages: c.fact_pages,
                    bitmap_pages: c.bitmap_pages,
                    ios: c.ios,
                    busy_ms: c.busy_ms,
                    response_ms: c.response_ms,
                    path: path_str(c.path).to_owned(),
                })
                .collect(),
        }
    }
}

impl ToJson for AnalysisReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("label", self.label.to_json()),
            ("num_fragments", self.num_fragments.to_json()),
            ("fragment_rows", self.fragment_rows.to_json()),
            ("fragment_pages", self.fragment_pages.to_json()),
            ("total_fact_pages", self.total_fact_pages.to_json()),
            ("bitmap_stored_pages", self.bitmap_stored_pages.to_json()),
            ("fact_prefetch", self.fact_prefetch.to_json()),
            ("bitmap_prefetch", self.bitmap_prefetch.to_json()),
            ("weighted_busy_ms", self.weighted_busy_ms.to_json()),
            ("weighted_response_ms", self.weighted_response_ms.to_json()),
            ("per_class", self.per_class.to_json()),
        ])
    }
}

impl FromJson for AnalysisReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            label: str_field(value, "label")?,
            num_fragments: u64_field(value, "num_fragments")?,
            fragment_rows: u64_field(value, "fragment_rows")?,
            fragment_pages: u64_field(value, "fragment_pages")?,
            total_fact_pages: u64_field(value, "total_fact_pages")?,
            bitmap_stored_pages: u64_field(value, "bitmap_stored_pages")?,
            fact_prefetch: u32_field(value, "fact_prefetch")?,
            bitmap_prefetch: u32_field(value, "bitmap_prefetch")?,
            weighted_busy_ms: f64_field(value, "weighted_busy_ms")?,
            weighted_response_ms: f64_field(value, "weighted_response_ms")?,
            per_class: array_field(value, "per_class")?
                .iter()
                .map(ClassRow::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl ToJson for FragmentationAnalysis {
    fn to_json(&self) -> Json {
        AnalysisReport::from(self).to_json()
    }
}

/// One disk's occupancy on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskRow {
    /// Bytes resident on the disk.
    pub bytes: u64,
    /// Fragments resident on the disk.
    pub fragments: u32,
}

impl ToJson for DiskRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("bytes", self.bytes.to_json()),
            ("fragments", self.fragments.to_json()),
        ])
    }
}

impl FromJson for DiskRow {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            bytes: u64_field(value, "bytes")?,
            fragments: u32_field(value, "fragments")?,
        })
    }
}

/// One class's disk access profile on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassProfileRow {
    /// Query class name.
    pub name: String,
    /// Number of distinct disks hit.
    pub disks_hit: u32,
    /// Busy time of the hottest disk (ms).
    pub max_ms: f64,
    /// Response time (ms).
    pub response_ms: f64,
}

impl ToJson for ClassProfileRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("name", self.name.to_json()),
            ("disks_hit", self.disks_hit.to_json()),
            ("max_ms", self.max_ms.to_json()),
            ("response_ms", self.response_ms.to_json()),
        ])
    }
}

impl FromJson for ClassProfileRow {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            name: str_field(value, "name")?,
            disks_hit: u32_field(value, "disks_hit")?,
            max_ms: f64_field(value, "max_ms")?,
            response_ms: f64_field(value, "response_ms")?,
        })
    }
}

/// The physical allocation plan on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationReport {
    /// Candidate label.
    pub label: String,
    /// Allocation scheme (`"greedy-by-size"` or `"round-robin"`).
    pub scheme: String,
    /// Total fact bytes placed.
    pub fact_bytes: u64,
    /// Total bitmap bytes placed.
    pub bitmap_bytes: u64,
    /// `max / mean` occupancy — 1.0 is perfectly balanced.
    pub imbalance: f64,
    /// Coefficient of variation of per-disk bytes.
    pub cv: f64,
    /// Per-disk occupancy, disk 0 first.
    pub disks: Vec<DiskRow>,
    /// Representative per-class disk access profiles.
    pub per_class: Vec<ClassProfileRow>,
}

impl From<&AllocationPlan> for AllocationReport {
    fn from(plan: &AllocationPlan) -> Self {
        let occupancy = plan.allocation.occupancy();
        let counts = plan.allocation.fragment_counts();
        Self {
            label: plan.label.clone(),
            scheme: crate::policy_judge::scheme_name(plan.allocation.scheme()).to_owned(),
            fact_bytes: plan.fact_bytes,
            bitmap_bytes: plan.bitmap_bytes,
            imbalance: plan.occupancy.imbalance,
            cv: plan.occupancy.cv,
            disks: occupancy
                .into_iter()
                .zip(counts)
                .map(|(bytes, fragments)| DiskRow { bytes, fragments })
                .collect(),
            per_class: plan
                .per_class
                .iter()
                .map(|c| ClassProfileRow {
                    name: c.name.clone(),
                    disks_hit: c.profile.disks_hit(),
                    max_ms: c.profile.max_ms(),
                    response_ms: c.response_ms,
                })
                .collect(),
        }
    }
}

impl ToJson for AllocationReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("label", self.label.to_json()),
            ("scheme", self.scheme.to_json()),
            ("fact_bytes", self.fact_bytes.to_json()),
            ("bitmap_bytes", self.bitmap_bytes.to_json()),
            ("imbalance", self.imbalance.to_json()),
            ("cv", self.cv.to_json()),
            ("disks", self.disks.to_json()),
            ("per_class", self.per_class.to_json()),
        ])
    }
}

impl FromJson for AllocationReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            label: str_field(value, "label")?,
            scheme: str_field(value, "scheme")?,
            fact_bytes: u64_field(value, "fact_bytes")?,
            bitmap_bytes: u64_field(value, "bitmap_bytes")?,
            imbalance: f64_field(value, "imbalance")?,
            cv: f64_field(value, "cv")?,
            disks: array_field(value, "disks")?
                .iter()
                .map(DiskRow::from_json)
                .collect::<Result<_, _>>()?,
            per_class: array_field(value, "per_class")?
                .iter()
                .map(ClassProfileRow::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl ToJson for AllocationPlan {
    fn to_json(&self) -> Json {
        AllocationReport::from(self).to_json()
    }
}

impl ToJson for TuningDelta {
    fn to_json(&self) -> Json {
        Json::object([
            ("variation", self.variation.to_json()),
            ("baseline_top", self.baseline_top.to_json()),
            ("variation_top", self.variation_top.to_json()),
            ("baseline_response_ms", self.baseline_response_ms.to_json()),
            (
                "variation_response_ms",
                self.variation_response_ms.to_json(),
            ),
            (
                "recommendation_changed",
                self.recommendation_changed.to_json(),
            ),
        ])
    }
}

/// Serializes a `u128` counter: an exact `Int` when it fits `i64`,
/// otherwise an approximate `Num` (astronomical candidate spaces lose
/// precision on the wire but never wrap). Shared by the service layer.
pub(crate) fn u128_json(value: u128) -> Json {
    match i64::try_from(value) {
        Ok(exact) => Json::Int(exact),
        Err(_) => Json::Num(value as f64),
    }
}

impl ToJson for crate::cache::EvalCacheStats {
    fn to_json(&self) -> Json {
        Json::object([
            ("entries", self.entries.to_json()),
            ("hits", self.hits.to_json()),
            ("misses", self.misses.to_json()),
            ("columns", self.columns.to_json()),
            ("evicted", self.evicted.to_json()),
            ("refused", self.refused.to_json()),
        ])
    }
}

impl FromJson for crate::cache::EvalCacheStats {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            entries: usize_field(value, "entries")?,
            hits: u64_field(value, "hits")?,
            misses: u64_field(value, "misses")?,
            columns: field_or_default(value, "columns", usize_field)?,
            evicted: field_or_default(value, "evicted", u64_field)?,
            refused: field_or_default(value, "refused", u64_field)?,
        })
    }
}

impl ToJson for crate::registry::WarehouseStats {
    fn to_json(&self) -> Json {
        Json::object([
            ("name", self.name.to_json()),
            (
                "path",
                match &self.path {
                    Some(p) => p.to_json(),
                    None => Json::Null,
                },
            ),
            ("space_size", u128_json(self.space_size)),
            (
                "enumerated",
                match self.enumerated {
                    Some(n) => n.to_json(),
                    None => Json::Null,
                },
            ),
            ("cache_stats", self.cache.to_json()),
        ])
    }
}

impl FromJson for crate::registry::WarehouseStats {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let space = value.req("space_size")?;
        let space_size = match space.as_u64() {
            Some(exact) => u128::from(exact),
            // Astronomical spaces arrive as an approximate float.
            None => space
                .as_f64()
                .filter(|n| *n >= 0.0)
                .map(|n| n as u128)
                .ok_or_else(|| JsonError::shape("`space_size` is not a non-negative number"))?,
        };
        Ok(Self {
            name: str_field(value, "name")?,
            path: match value.req("path")? {
                Json::Null => None,
                p => Some(
                    p.as_str()
                        .ok_or_else(|| JsonError::shape("`path` is not a string"))?
                        .to_owned(),
                ),
            },
            space_size,
            enumerated: match value.req("enumerated")? {
                Json::Null => None,
                n => {
                    Some(n.as_u64().ok_or_else(|| {
                        JsonError::shape("`enumerated` is not an unsigned integer")
                    })?)
                }
            },
            cache: crate::cache::EvalCacheStats::from_json(value.req("cache_stats")?)?,
        })
    }
}

/// One judged allocation policy (wire row of
/// [`crate::policy_judge::PolicyVerdict`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyVerdictRow {
    /// Policy name (`round_robin` | `greedy` | `graph`).
    pub policy: String,
    /// Scheme the policy actually produced.
    pub scheme: String,
    /// Simulated replay makespan (the ranking key).
    pub makespan_ms: f64,
    /// Max/mean simulated disk busy time.
    pub busy_imbalance: f64,
    /// Max/mean mix-weighted access heat per disk.
    pub heat_imbalance: f64,
    /// Max/mean byte occupancy per disk.
    pub occupancy_imbalance: f64,
    /// Mean simulated query response time.
    pub mean_response_ms: f64,
}

impl From<&crate::policy_judge::PolicyVerdict> for PolicyVerdictRow {
    fn from(v: &crate::policy_judge::PolicyVerdict) -> Self {
        Self {
            policy: v.policy.clone(),
            scheme: v.scheme.clone(),
            makespan_ms: v.makespan_ms,
            busy_imbalance: v.busy_imbalance,
            heat_imbalance: v.heat_imbalance,
            occupancy_imbalance: v.occupancy_imbalance,
            mean_response_ms: v.mean_response_ms,
        }
    }
}

impl ToJson for PolicyVerdictRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("policy", self.policy.to_json()),
            ("scheme", self.scheme.to_json()),
            ("makespan_ms", self.makespan_ms.to_json()),
            ("busy_imbalance", self.busy_imbalance.to_json()),
            ("heat_imbalance", self.heat_imbalance.to_json()),
            ("occupancy_imbalance", self.occupancy_imbalance.to_json()),
            ("mean_response_ms", self.mean_response_ms.to_json()),
        ])
    }
}

impl FromJson for PolicyVerdictRow {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            policy: str_field(value, "policy")?,
            scheme: str_field(value, "scheme")?,
            makespan_ms: f64_field(value, "makespan_ms")?,
            busy_imbalance: f64_field(value, "busy_imbalance")?,
            heat_imbalance: f64_field(value, "heat_imbalance")?,
            occupancy_imbalance: f64_field(value, "occupancy_imbalance")?,
            mean_response_ms: f64_field(value, "mean_response_ms")?,
        })
    }
}

/// The advisor's per-workload allocation-policy recommendation (wire
/// form of [`crate::policy_judge::PolicyRecommendation`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRecommendationRow {
    /// Judged candidate label.
    pub label: String,
    /// The winning policy.
    pub recommended: String,
    /// All verdicts, best first.
    pub verdicts: Vec<PolicyVerdictRow>,
}

impl From<&crate::policy_judge::PolicyRecommendation> for PolicyRecommendationRow {
    fn from(rec: &crate::policy_judge::PolicyRecommendation) -> Self {
        Self {
            label: rec.label.clone(),
            recommended: rec.recommended.clone(),
            verdicts: rec.verdicts.iter().map(PolicyVerdictRow::from).collect(),
        }
    }
}

impl ToJson for PolicyRecommendationRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("label", self.label.to_json()),
            ("recommended", self.recommended.to_json()),
            ("verdicts", self.verdicts.to_json()),
        ])
    }
}

impl FromJson for PolicyRecommendationRow {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            label: str_field(value, "label")?,
            recommended: str_field(value, "recommended")?,
            verdicts: array_field(value, "verdicts")?
                .iter()
                .map(PolicyVerdictRow::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl ToJson for crate::policy_judge::PolicyRecommendation {
    fn to_json(&self) -> Json {
        PolicyRecommendationRow::from(self).to_json()
    }
}

/// Serializes one observed-class record ([`crate::ClassObservation`]
/// is foreign to this crate, so these are free functions rather than
/// trait impls).
pub fn observation_to_json(obs: &crate::workload::ClassObservation) -> Json {
    Json::object([
        ("class", obs.class.to_json()),
        ("count", obs.count.to_json()),
        (
            "mean_latency_ms",
            match obs.mean_latency_ms {
                Some(ms) => ms.to_json(),
                None => Json::Null,
            },
        ),
    ])
}

/// Parses one observed-class record. `mean_latency_ms` is optional on
/// the wire: absent and null both mean "not measured".
pub fn observation_from_json(value: &Json) -> Result<crate::workload::ClassObservation, JsonError> {
    let latency = match value.get("mean_latency_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| JsonError::shape("`mean_latency_ms` is not a number"))?,
        ),
    };
    let obs = crate::workload::ClassObservation::new(
        str_field(value, "class")?,
        u64_field(value, "count")?,
    );
    Ok(match latency {
        Some(ms) => obs.with_latency_ms(ms),
        None => obs,
    })
}

fn drift_state_str(state: crate::DriftState) -> &'static str {
    match state {
        crate::DriftState::Stable => "stable",
        crate::DriftState::Drifting => "drifting",
    }
}

impl ToJson for crate::optimizer::DriftStatus {
    fn to_json(&self) -> Json {
        Json::object([
            ("state", drift_state_str(self.state).to_json()),
            ("score", self.score.to_json()),
            ("drift_enter", self.drift_enter.to_json()),
            ("drift_exit", self.drift_exit.to_json()),
            ("observed_queries", self.observed_queries.to_json()),
            ("tracked_classes", self.tracked_classes.to_json()),
            ("auto_advise", self.auto_advise.to_json()),
            ("events_emitted", self.events_emitted.to_json()),
        ])
    }
}

impl FromJson for crate::optimizer::DriftStatus {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let state = match str_field(value, "state")?.as_str() {
            "stable" => crate::DriftState::Stable,
            "drifting" => crate::DriftState::Drifting,
            other => {
                return Err(JsonError::shape(format!(
                    "`state` must be `stable` or `drifting`, got `{other}`"
                )))
            }
        };
        let auto_advise = value
            .req("auto_advise")?
            .as_bool()
            .ok_or_else(|| JsonError::shape("`auto_advise` is not a boolean"))?;
        Ok(Self {
            state,
            score: f64_field(value, "score")?,
            drift_enter: f64_field(value, "drift_enter")?,
            drift_exit: f64_field(value, "drift_exit")?,
            observed_queries: u64_field(value, "observed_queries")?,
            tracked_classes: usize_field(value, "tracked_classes")?,
            auto_advise,
            events_emitted: u64_field(value, "events_emitted")?,
        })
    }
}

impl ToJson for crate::optimizer::AdviceEvent {
    fn to_json(&self) -> Json {
        match self {
            crate::optimizer::AdviceEvent::RecommendationChanged {
                seq,
                old,
                new,
                drift_score,
                observed_queries,
            } => Json::object([
                ("event", "recommendation_changed".to_json()),
                ("seq", seq.to_json()),
                (
                    "old",
                    match old {
                        Some(label) => label.to_json(),
                        None => Json::Null,
                    },
                ),
                ("new", new.to_json()),
                ("drift_score", drift_score.to_json()),
                ("observed_queries", observed_queries.to_json()),
            ]),
        }
    }
}

impl FromJson for crate::optimizer::AdviceEvent {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match str_field(value, "event")?.as_str() {
            "recommendation_changed" => Ok(Self::RecommendationChanged {
                seq: u64_field(value, "seq")?,
                old: match value.req("old")? {
                    Json::Null => None,
                    label => Some(
                        label
                            .as_str()
                            .ok_or_else(|| JsonError::shape("`old` is not a string"))?
                            .to_owned(),
                    ),
                },
                new: str_field(value, "new")?,
                drift_score: f64_field(value, "drift_score")?,
                observed_queries: u64_field(value, "observed_queries")?,
            }),
            other => Err(JsonError::shape(format!("unknown advice event `{other}`"))),
        }
    }
}

/// The complete machine-readable advisory: ranking plus the detailed
/// analysis and allocation plan of the winner. This is what
/// `warlock <cfg> json` emits.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Candidates enumerated in total.
    pub enumerated: usize,
    /// Candidates that were fully costed.
    pub evaluated: usize,
    /// Ranked candidates, best first.
    pub ranking: Vec<RankingRow>,
    /// Bounded summary of the threshold-excluded candidates: exact
    /// per-reason counts plus capped samples with rendered reasons.
    pub excluded: ExcludedSummaryRow,
    /// Detailed statistic of the top candidate (absent when nothing
    /// survived the thresholds).
    pub analysis: Option<AnalysisReport>,
    /// Allocation plan of the top candidate.
    pub allocation: Option<AllocationReport>,
    /// Head-to-head judged allocation-policy recommendation for the
    /// top candidate. Absent when nothing survived the thresholds;
    /// also absent in documents written before the judge existed
    /// (parsing tolerates the missing key).
    pub recommendation: Option<PolicyRecommendationRow>,
}

impl SessionReport {
    /// Assembles the wire report from the pipeline outputs.
    pub fn new(
        report: &AdvisorReport,
        analysis: Option<&FragmentationAnalysis>,
        allocation: Option<&AllocationPlan>,
        recommendation: Option<&crate::policy_judge::PolicyRecommendation>,
    ) -> Self {
        Self {
            enumerated: report.enumerated,
            evaluated: report.evaluated,
            ranking: report.ranked.iter().map(RankingRow::from).collect(),
            excluded: ExcludedSummaryRow::from(&report.excluded),
            analysis: analysis.map(AnalysisReport::from),
            allocation: allocation.map(AllocationReport::from),
            recommendation: recommendation.map(PolicyRecommendationRow::from),
        }
    }

    /// Parses a report from its JSON text.
    pub fn from_json_str(input: &str) -> Result<Self, WarlockError> {
        Ok(Self::from_json(&warlock_json::parse(input)?)?)
    }
}

impl ToJson for SessionReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("enumerated", self.enumerated.to_json()),
            ("evaluated", self.evaluated.to_json()),
            ("ranking", self.ranking.to_json()),
            ("excluded", self.excluded.to_json()),
            ("analysis", self.analysis.to_json()),
            ("allocation", self.allocation.to_json()),
            ("recommendation", self.recommendation.to_json()),
        ])
    }
}

impl FromJson for SessionReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let optional = |key: &str| -> Result<Option<&Json>, JsonError> {
            match value.req(key)? {
                Json::Null => Ok(None),
                v => Ok(Some(v)),
            }
        };
        // Unlike `optional`, a *missing* key is fine here: documents
        // written before the policy judge existed have no
        // `recommendation` at all and must keep parsing.
        let compat = |key: &str| -> Option<&Json> {
            match value.get(key) {
                None | Some(Json::Null) => None,
                Some(v) => Some(v),
            }
        };
        Ok(Self {
            enumerated: usize_field(value, "enumerated")?,
            evaluated: usize_field(value, "evaluated")?,
            ranking: array_field(value, "ranking")?
                .iter()
                .map(RankingRow::from_json)
                .collect::<Result<_, _>>()?,
            excluded: ExcludedSummaryRow::from_json(value.req("excluded")?)?,
            analysis: optional("analysis")?
                .map(AnalysisReport::from_json)
                .transpose()?,
            allocation: optional("allocation")?
                .map(AllocationReport::from_json)
                .transpose()?,
            recommendation: compat("recommendation")
                .map(PolicyRecommendationRow::from_json)
                .transpose()?,
        })
    }
}

impl crate::Warlock {
    /// The complete machine-readable advisory for the current inputs:
    /// the ranking plus the top candidate's analysis, allocation plan
    /// and judged allocation-policy recommendation (the snapshot's
    /// cached verdict, see [`crate::Warlock::recommend_policy`]), all
    /// derived from the top candidate's ranked cost. Ranks first if
    /// necessary.
    pub fn session_report(&self) -> Result<SessionReport, WarlockError> {
        let top = self.rank()?.top().is_some();
        let analysis = top.then(|| self.analyze(1)).transpose()?;
        let allocation = top.then(|| self.plan_allocation(1)).transpose()?;
        let recommendation = top.then(|| self.top_recommendation()).transpose()?;
        Ok(SessionReport::new(
            self.rank()?,
            analysis.as_ref(),
            allocation.as_ref(),
            recommendation,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Warlock;
    use warlock_schema::{apb1_like_schema, Apb1Config};
    use warlock_storage::SystemConfig;
    use warlock_workload::apb1_like_mix;

    fn session() -> Warlock {
        Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn session_report_round_trips_through_json() {
        let report = session().session_report().unwrap();
        assert!(!report.ranking.is_empty());
        assert!(report.analysis.is_some());
        assert!(report.allocation.is_some());

        let text = report.to_json().pretty();
        let back = SessionReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);

        // Compact form round-trips too.
        let compact = report.to_json().render();
        assert_eq!(SessionReport::from_json_str(&compact).unwrap(), report);
    }

    #[test]
    fn session_report_carries_the_policy_recommendation() {
        let report = session().session_report().unwrap();
        let rec = report.recommendation.as_ref().expect("recommendation");
        assert_eq!(rec.verdicts.len(), 3);
        assert_eq!(rec.recommended, rec.verdicts[0].policy);
        assert!(rec.verdicts.iter().all(|v| v.makespan_ms > 0.0));
        // …and it round-trips inside the report.
        let back = SessionReport::from_json_str(&report.to_json().render()).unwrap();
        assert_eq!(back.recommendation, report.recommendation);
    }

    #[test]
    fn pre_judge_session_documents_still_parse() {
        // A document written before the policy judge existed has no
        // `recommendation` key at all; parsing must tolerate that.
        let report = session().session_report().unwrap();
        let json = report.to_json();
        let Json::Obj(pairs) = &json else {
            panic!("session report is an object")
        };
        let stripped = Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "recommendation")
                .cloned()
                .collect(),
        );
        let back = SessionReport::from_json_str(&stripped.render()).unwrap();
        assert_eq!(back.recommendation, None);
        assert_eq!(back.ranking, report.ranking);
    }

    #[test]
    fn fragmentation_attrs_rebuild_the_candidate() {
        let s = session();
        let top = s.rank().unwrap().top().unwrap().cost.fragmentation.clone();
        let attrs = FragmentationAttr::from_fragmentation(&top);
        let rebuilt = FragmentationAttr::to_fragmentation(&attrs).unwrap();
        assert_eq!(rebuilt, top);
    }

    #[test]
    fn advisor_report_serializes_rankings() {
        let s = session();
        let json = s.rank().unwrap().to_json();
        let ranking = json.get("ranking").unwrap().as_array().unwrap();
        assert_eq!(ranking.len(), s.rank().unwrap().ranked.len());
        assert_eq!(
            json.get("enumerated").unwrap().as_usize().unwrap(),
            s.rank().unwrap().enumerated
        );
        // The exclusion summary carries exact counts and sampled
        // candidates with rendered reasons.
        let excluded = json.get("excluded").unwrap();
        let total = excluded.get("total").unwrap().as_usize().unwrap();
        assert!(total > 0);
        let groups = excluded.get("groups").unwrap().as_array().unwrap();
        assert!(!groups.is_empty());
        let counted: usize = groups
            .iter()
            .map(|g| g.get("count").unwrap().as_usize().unwrap())
            .sum();
        assert_eq!(counted, total);
        let samples = groups[0].get("samples").unwrap().as_array().unwrap();
        assert!(!samples.is_empty());
        assert!(samples[0].get("reason").unwrap().as_str().is_some());
    }

    #[test]
    fn shape_errors_are_reported() {
        assert!(SessionReport::from_json_str("{}").is_err());
        assert!(SessionReport::from_json_str("not json").is_err());
        let wrong_type = r#"{"enumerated":"x","evaluated":0,"ranking":[],"excluded":[],"analysis":null,"allocation":null}"#;
        assert!(SessionReport::from_json_str(wrong_type).is_err());
    }

    #[test]
    fn warehouse_stats_round_trip_through_json() {
        let stats = crate::registry::WarehouseStats {
            name: "eu".into(),
            path: Some("/etc/warlock/eu.cfg".into()),
            space_size: 168,
            enumerated: Some(168),
            cache: crate::cache::EvalCacheStats {
                entries: 65,
                hits: 10,
                misses: 65,
                columns: 2,
                evicted: 3,
                refused: 4,
            },
        };
        let back = crate::registry::WarehouseStats::from_json(
            &warlock_json::parse(&stats.to_json().render()).unwrap(),
        )
        .unwrap();
        assert_eq!(back, stats);

        // Replies from before the column counters parse them as 0.
        let older = r#"{"name":"eu","path":null,"space_size":168,"enumerated":null,
            "cache_stats":{"entries":65,"hits":10,"misses":65}}"#;
        let back = crate::registry::WarehouseStats::from_json(&warlock_json::parse(older).unwrap())
            .unwrap();
        assert_eq!(
            back.cache,
            crate::cache::EvalCacheStats {
                entries: 65,
                hits: 10,
                misses: 65,
                ..Default::default()
            }
        );

        // Cold, pathless warehouses serialize nulls and round-trip too.
        let cold = crate::registry::WarehouseStats {
            name: "adhoc".into(),
            path: None,
            space_size: u128::MAX,
            enumerated: None,
            cache: Default::default(),
        };
        let json = cold.to_json();
        assert!(json.get("path").unwrap().is_null());
        assert!(json.get("enumerated").unwrap().is_null());
        let back = crate::registry::WarehouseStats::from_json(
            &warlock_json::parse(&json.render()).unwrap(),
        )
        .unwrap();
        assert_eq!(back.name, cold.name);
        assert_eq!(back.enumerated, None);
        // Astronomical spaces survive approximately, never wrap.
        assert!(back.space_size > u128::MAX / 2);
    }

    #[test]
    fn drift_wire_types_round_trip_through_json() {
        use crate::optimizer::{AdviceEvent, DriftStatus};
        use crate::workload::ClassObservation;
        use crate::DriftState;

        let obs = ClassObservation::new("q03_quarter_group", 120).with_latency_ms(8.5);
        let back = observation_from_json(
            &warlock_json::parse(&observation_to_json(&obs).render()).unwrap(),
        )
        .unwrap();
        assert_eq!(back, obs);
        // Latency is optional on the wire: both null and absent parse.
        let bare = ClassObservation::new("q01", 7);
        let json = observation_to_json(&bare);
        assert!(json.get("mean_latency_ms").unwrap().is_null());
        let back = observation_from_json(&warlock_json::parse(&json.render()).unwrap()).unwrap();
        assert_eq!(back, bare);
        let absent = warlock_json::parse(r#"{"class":"q01","count":7}"#).unwrap();
        assert_eq!(observation_from_json(&absent).unwrap(), bare);

        let status = DriftStatus {
            state: DriftState::Drifting,
            score: 0.31,
            drift_enter: 0.25,
            drift_exit: 0.10,
            observed_queries: 4200,
            tracked_classes: 10,
            auto_advise: true,
            events_emitted: 2,
        };
        let back =
            DriftStatus::from_json(&warlock_json::parse(&status.to_json().render()).unwrap())
                .unwrap();
        assert_eq!(back, status);

        let event = AdviceEvent::RecommendationChanged {
            seq: 2,
            old: Some("product.class × time.month".into()),
            new: "time.month".into(),
            drift_score: 0.31,
            observed_queries: 4200,
        };
        let back = AdviceEvent::from_json(&warlock_json::parse(&event.to_json().render()).unwrap())
            .unwrap();
        assert_eq!(back, event);
        // A first-ever event has no previous recommendation.
        let first = AdviceEvent::RecommendationChanged {
            seq: 1,
            old: None,
            new: "time.month".into(),
            drift_score: 0.4,
            observed_queries: 100,
        };
        let json = first.to_json();
        assert!(json.get("old").unwrap().is_null());
        assert_eq!(
            AdviceEvent::from_json(&warlock_json::parse(&json.render()).unwrap()).unwrap(),
            first
        );

        let unknown = warlock_json::parse(r#"{"event":"mix_shifted","seq":1}"#).unwrap();
        assert!(AdviceEvent::from_json(&unknown).is_err());
    }

    #[test]
    fn out_of_range_integers_are_shape_errors_not_truncated() {
        // Regression: `{"dimension": 65536}` must not wrap to dimension 0
        // and silently answer about a different fragmentation.
        let overflow =
            warlock_json::parse(r#"{"dimension": 65536, "level": 0, "range": 1}"#).unwrap();
        let e = FragmentationAttr::from_json(&overflow).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");

        let ok = warlock_json::parse(r#"{"dimension": 3, "level": 2, "range": 1}"#).unwrap();
        assert_eq!(
            FragmentationAttr::from_json(&ok).unwrap(),
            FragmentationAttr {
                dimension: 3,
                level: 2,
                range: 1
            }
        );
    }
}
