//! The JSON wire types of the advisor's reports.
//!
//! `warlockd` and `warlock <cfg> json` answer in JSON, and this module
//! holds the shapes they write and read. Each wire type is declared
//! once, with [`warlock_json::json_struct!`]: its field list is its
//! wire shape (keys, their order, codecs and presence rules), and the
//! macro writes both [`ToJson`] and [`FromJson`] from it. Domain types
//! whose fields are their wire shape carry the macro where they are
//! defined: [`PolicyRecommendation`], [`crate::PolicyVerdict`],
//! [`crate::DriftStatus`], [`crate::TuningDelta`],
//! [`crate::EvalCacheStats`] and [`crate::WarehouseStats`]. The `*Row`
//! and `*Report` types here are projections of a domain type: they
//! drop fields, or write a fragmentation as attribute triples and an
//! access path or exclusion reason as a string. The tagged enum
//! [`crate::AdviceEvent`] and the foreign [`crate::ClassObservation`]
//! are written by hand.
//!
//! [`SessionReport`] round-trips losslessly (`to_json` → render →
//! parse → `from_json` compares equal), and
//! `xtests/tests/protocol_transcript.txt` pins the exact reply of
//! every protocol op.

use warlock_cost::AccessPath;
use warlock_fragment::Fragmentation;
use warlock_json::{json_struct, FromJson, Json, JsonError, ToJson};

use crate::advisor::{AdvisorReport, ExcludedSummary, RankedCandidate};
use crate::allocation_plan::AllocationPlan;
use crate::analysis::FragmentationAnalysis;
use crate::error::WarlockError;
use crate::optimizer::AdviceEvent;
use crate::policy_judge::PolicyRecommendation;
use crate::workload::ClassObservation;

json_struct! {
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

json_struct! {
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

json_struct! {
    /// One excluded sample candidate on the wire.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ExclusionRow {
        /// Human-readable candidate label.
        pub label: String,
        /// Why it was excluded (rendered reason).
        pub reason: String,
    }
}

json_struct! {
    /// One exclusion-reason group on the wire: the machine-readable
    /// reason tag, the exact count, and the capped sample candidates.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ExclusionGroupRow {
        /// Machine-readable reason tag (`Exclusion::kind`).
        pub kind: String,
        /// Exact number of candidates excluded for this reason.
        pub count: usize,
        /// The first few excluded candidates, in enumeration order.
        pub samples: Vec<ExclusionRow>,
    }
}

json_struct! {
    /// The bounded exclusion summary on the wire: exact total,
    /// per-reason groups with capped samples.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct ExcludedSummaryRow {
        /// Exact number of excluded candidates.
        pub total: usize,
        /// Per-reason groups in first-seen enumeration order.
        pub groups: Vec<ExclusionGroupRow>,
    }
}

impl From<&ExcludedSummary> for ExcludedSummaryRow {
    fn from(summary: &ExcludedSummary) -> Self {
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

impl ToJson for AdvisorReport {
    /// The ranking view: the leading members of a [`SessionReport`].
    fn to_json(&self) -> Json {
        Json::object([
            ("enumerated", self.enumerated.to_json()),
            ("evaluated", self.evaluated.to_json()),
            (
                "ranking",
                Json::Arr(
                    self.ranked
                        .iter()
                        .map(|r| RankingRow::from(r).to_json())
                        .collect(),
                ),
            ),
            (
                "excluded",
                ExcludedSummaryRow::from(&self.excluded).to_json(),
            ),
        ])
    }
}

json_struct! {
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
}

json_struct! {
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
                    path: match c.path {
                        AccessPath::FullScan => "scan",
                        AccessPath::BitmapFetch => "bitmap",
                    }
                    .to_owned(),
                })
                .collect(),
        }
    }
}

impl ToJson for FragmentationAnalysis {
    fn to_json(&self) -> Json {
        AnalysisReport::from(self).to_json()
    }
}

json_struct! {
    /// One disk's occupancy on the wire.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DiskRow {
        /// Bytes resident on the disk.
        pub bytes: u64,
        /// Fragments resident on the disk.
        pub fragments: u32,
    }
}

json_struct! {
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
}

json_struct! {
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

impl ToJson for AllocationPlan {
    fn to_json(&self) -> Json {
        AllocationReport::from(self).to_json()
    }
}

/// Serializes one observed-class record ([`ClassObservation`] is
/// foreign to this crate, so these are free functions rather than
/// trait impls).
pub fn observation_to_json(obs: &ClassObservation) -> Json {
    Json::object([
        ("class", obs.class.to_json()),
        ("count", obs.count.to_json()),
        ("mean_latency_ms", obs.mean_latency_ms.to_json()),
    ])
}

/// Parses one observed-class record. `mean_latency_ms` is optional on
/// the wire: absent and null both mean "not measured".
pub fn observation_from_json(value: &Json) -> Result<ClassObservation, JsonError> {
    let latency: Option<f64> = match value.get("mean_latency_ms") {
        None => None,
        Some(ms) => FromJson::from_member(ms, "mean_latency_ms")?,
    };
    let obs = ClassObservation::new(value.member::<String>("class")?, value.member("count")?);
    Ok(match latency {
        Some(ms) => obs.with_latency_ms(ms),
        None => obs,
    })
}

impl ToJson for AdviceEvent {
    fn to_json(&self) -> Json {
        match self {
            AdviceEvent::RecommendationChanged {
                seq,
                old,
                new,
                drift_score,
                observed_queries,
            } => Json::object([
                ("event", "recommendation_changed".to_json()),
                ("seq", seq.to_json()),
                ("old", old.to_json()),
                ("new", new.to_json()),
                ("drift_score", drift_score.to_json()),
                ("observed_queries", observed_queries.to_json()),
            ]),
        }
    }
}

impl FromJson for AdviceEvent {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.member::<String>("event")?.as_str() {
            "recommendation_changed" => Ok(Self::RecommendationChanged {
                seq: value.member("seq")?,
                old: value.member("old")?,
                new: value.member("new")?,
                drift_score: value.member("drift_score")?,
                observed_queries: value.member("observed_queries")?,
            }),
            other => Err(JsonError::shape(format!("unknown advice event `{other}`"))),
        }
    }
}

json_struct! {
    /// The complete machine-readable advisory: ranking plus the
    /// detailed analysis and allocation plan of the winner. This is
    /// what `warlock <cfg> json` emits.
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
        /// Detailed statistic of the top candidate (`null` when nothing
        /// survived the thresholds).
        pub analysis: Option<AnalysisReport>,
        /// Allocation plan of the top candidate (`null` likewise).
        pub allocation: Option<AllocationReport>,
        /// Head-to-head judged allocation-policy recommendation for the
        /// top candidate. `null` when nothing survived the thresholds;
        /// absent in documents written before the judge existed.
        pub recommendation: Option<PolicyRecommendation> = Default,
    }
}

impl SessionReport {
    /// Assembles the wire report from the pipeline outputs.
    pub fn new(
        report: &AdvisorReport,
        analysis: Option<&FragmentationAnalysis>,
        allocation: Option<&AllocationPlan>,
        recommendation: Option<&PolicyRecommendation>,
    ) -> Self {
        Self {
            enumerated: report.enumerated,
            evaluated: report.evaluated,
            ranking: report.ranked.iter().map(RankingRow::from).collect(),
            excluded: ExcludedSummaryRow::from(&report.excluded),
            analysis: analysis.map(AnalysisReport::from),
            allocation: allocation.map(AllocationReport::from),
            recommendation: recommendation.cloned(),
        }
    }

    /// Parses a report from its JSON text.
    pub fn from_json_str(input: &str) -> Result<Self, WarlockError> {
        Ok(Self::from_json(&warlock_json::parse(input)?)?)
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

    /// Parses `text` with `T::from_json`, rendering the error.
    fn read<T: FromJson>(text: &str) -> Result<T, String> {
        T::from_json(&warlock_json::parse(text).unwrap()).map_err(|e| e.to_string())
    }

    /// Every presence rule of the wire types accepts and rejects
    /// exactly these documents, with exactly these messages.
    #[test]
    fn presence_rules_accept_and_reject_exactly_these_documents() {
        use crate::cache::EvalCacheStats;
        use crate::registry::WarehouseStats;

        // Required: absent and mistyped members are shape errors.
        let attr = |body: &str| read::<FragmentationAttr>(&format!("{{{body}}}"));
        assert_eq!(
            attr(r#""dimension":1,"level":0"#).unwrap_err(),
            "json: missing object member `range`"
        );
        assert_eq!(
            attr(r#""dimension":1,"level":null,"range":1"#).unwrap_err(),
            "json: `level` is not an unsigned integer"
        );
        assert_eq!(
            attr(r#""dimension":65536,"level":0,"range":1"#).unwrap_err(),
            "json: `dimension` out of range for u16"
        );
        assert_eq!(
            read::<DiskRow>(r#"{"bytes":1,"fragments":4294967296}"#).unwrap_err(),
            "json: `fragments` out of range for u32"
        );
        assert_eq!(
            read::<ExclusionRow>(r#"{"label":"x","reason":7}"#).unwrap_err(),
            "json: `reason` is not a string"
        );
        assert_eq!(
            read::<ExcludedSummaryRow>(r#"{"total":0,"groups":{}}"#).unwrap_err(),
            "json: `groups` is not an array"
        );
        assert_eq!(
            read::<crate::optimizer::DriftStatus>(
                r#"{"state":"calm","score":0,"drift_enter":0.25,"drift_exit":0.1,
                "observed_queries":0,"tracked_classes":0,"auto_advise":false,"events_emitted":0}"#
            )
            .unwrap_err(),
            "json: `state` must be `stable` or `drifting`, got `calm`"
        );
        assert_eq!(
            read::<crate::optimizer::DriftStatus>(
                r#"{"state":"stable","score":0,"drift_enter":0.25,"drift_exit":0.1,
                "observed_queries":0,"tracked_classes":0,"auto_advise":1,"events_emitted":0}"#
            )
            .unwrap_err(),
            "json: `auto_advise` is not a boolean"
        );

        // Required but nullable: null reads as `None`, absence is an
        // error.
        let report = session().session_report().unwrap();
        let Json::Obj(pairs) = report.to_json() else {
            panic!("session report is an object")
        };
        let with = |key: &str, value: Option<Json>| {
            let members = pairs
                .iter()
                .filter_map(|(k, v)| match (k == key, &value) {
                    (false, _) => Some((k.clone(), v.clone())),
                    (true, Some(replacement)) => Some((k.clone(), replacement.clone())),
                    (true, None) => None,
                })
                .collect();
            SessionReport::from_json_str(&Json::Obj(members).render()).map_err(|e| e.to_string())
        };
        for key in ["analysis", "allocation"] {
            assert_eq!(
                with(key, None).unwrap_err(),
                format!("json: missing object member `{key}`")
            );
        }
        let nulled = with("analysis", Some(Json::Null)).unwrap();
        assert_eq!((nulled.analysis, nulled.allocation.is_some()), (None, true));
        assert_eq!(
            with("allocation", Some(Json::Int(3))).unwrap_err(),
            "json: missing object member `label`"
        );
        let stats = |path: &str, enumerated: &str| {
            read::<WarehouseStats>(&format!(
                r#"{{"name":"eu",{path}"space_size":9,{enumerated}
                "cache_stats":{{"entries":0,"hits":0,"misses":0}}}}"#
            ))
        };
        let cold = stats(r#""path":null,"#, r#""enumerated":null,"#).unwrap();
        assert_eq!((cold.path, cold.enumerated), (None, None));
        assert_eq!(
            stats("", r#""enumerated":null,"#).unwrap_err(),
            "json: missing object member `path`"
        );
        assert_eq!(
            stats(r#""path":null,"#, "").unwrap_err(),
            "json: missing object member `enumerated`"
        );
        assert_eq!(
            stats(r#""path":1,"#, r#""enumerated":null,"#).unwrap_err(),
            "json: `path` is not a string"
        );
        assert_eq!(
            stats(r#""path":null,"#, r#""enumerated":-1,"#).unwrap_err(),
            "json: `enumerated` is not an unsigned integer"
        );
        assert_eq!(
            read::<WarehouseStats>(
                r#"{"name":"eu","path":null,"space_size":-1,"enumerated":null,"cache_stats":{}}"#
            )
            .unwrap_err(),
            "json: `space_size` is not a non-negative number"
        );
        let huge = read::<WarehouseStats>(
            r#"{"name":"eu","path":null,"space_size":1e30,"enumerated":null,
            "cache_stats":{"entries":0,"hits":0,"misses":0}}"#,
        )
        .unwrap();
        assert_eq!(huge.space_size, 1e30 as u128);

        // Absent or null: both read as `None`; a present value must
        // parse.
        assert_eq!(with("recommendation", None).unwrap().recommendation, None);
        assert_eq!(
            with("recommendation", Some(Json::Null))
                .unwrap()
                .recommendation,
            None
        );
        assert_eq!(
            with(
                "recommendation",
                Some(Json::object([("label", Json::Int(1))]))
            )
            .unwrap_err(),
            "json: `label` is not a string"
        );
        let observation = |text: &str| {
            observation_from_json(&warlock_json::parse(text).unwrap()).map_err(|e| e.to_string())
        };
        assert_eq!(
            observation(r#"{"class":"q","count":1,"mean_latency_ms":null}"#).unwrap(),
            observation(r#"{"class":"q","count":1}"#).unwrap()
        );
        assert_eq!(
            observation(r#"{"class":"q","count":1,"mean_latency_ms":"x"}"#).unwrap_err(),
            "json: `mean_latency_ms` is not a number"
        );

        // Absent reads as the default; a present value must parse.
        assert_eq!(
            read::<EvalCacheStats>(r#"{"entries":1,"hits":2,"misses":3}"#).unwrap(),
            EvalCacheStats {
                entries: 1,
                hits: 2,
                misses: 3,
                ..Default::default()
            }
        );
        assert_eq!(
            read::<EvalCacheStats>(r#"{"entries":1,"hits":2,"misses":3,"evicted":null}"#)
                .unwrap_err(),
            "json: `evicted` is not an unsigned integer"
        );
        assert_eq!(
            read::<EvalCacheStats>(r#"{"hits":2,"misses":3}"#).unwrap_err(),
            "json: missing object member `entries`"
        );
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
