//! Interactive what-if tuning.
//!
//! "WARLOCK provides several options to facilitate interactive fine
//! tuning. Disk parameters, query load specifics and bitmap configurations
//! can be interactively adapted to examine the performance variations they
//! imply." (§3.3)
//!
//! The variations run as [`crate::Warlock`]'s `what_if_*` methods; each
//! returns its report together with the [`TuningDelta`] against the
//! session's baseline ranking.

use crate::advisor::AdvisorReport;

warlock_json::json_struct! {
    /// Summary of one what-if variation against the baseline.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TuningDelta {
        /// What was varied (human-readable).
        pub variation: String,
        /// Baseline top candidate label.
        pub baseline_top: String,
        /// Variation top candidate label.
        pub variation_top: String,
        /// Baseline weighted response of the top candidate (ms).
        pub baseline_response_ms: f64,
        /// Variation weighted response of the top candidate (ms).
        pub variation_response_ms: f64,
        /// Whether the recommended fragmentation changed.
        pub recommendation_changed: bool,
    }
}

impl TuningDelta {
    /// Summarizes `variation`'s report against `baseline`'s.
    pub fn between(variation: String, baseline: &AdvisorReport, report: &AdvisorReport) -> Self {
        let b = baseline.top();
        let v = report.top();
        Self {
            variation,
            baseline_top: b.map(|r| r.label.clone()).unwrap_or_default(),
            variation_top: v.map(|r| r.label.clone()).unwrap_or_default(),
            baseline_response_ms: b.map(|r| r.cost.response_ms).unwrap_or(0.0),
            variation_response_ms: v.map(|r| r.cost.response_ms).unwrap_or(0.0),
            recommendation_changed: match (b, v) {
                (Some(b), Some(v)) => b.cost.fragmentation != v.cost.fragmentation,
                _ => true,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use warlock_schema::DimensionId;

    fn session() -> Warlock {
        Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn more_disks_cut_response() {
        let (_, delta) = session().what_if_disks(64).unwrap();
        assert!(delta.variation_response_ms < delta.baseline_response_ms);
        assert!(delta.variation.contains("64"));
    }

    #[test]
    fn fewer_disks_hurt() {
        let (_, delta) = session().what_if_disks(2).unwrap();
        assert!(delta.variation_response_ms > delta.baseline_response_ms);
    }

    #[test]
    fn tiny_fixed_prefetch_hurts() {
        let (_, delta) = session().what_if_fixed_prefetch(1).unwrap();
        assert!(
            delta.variation_response_ms > delta.baseline_response_ms,
            "1-page granule {} should be worse than auto {}",
            delta.variation_response_ms,
            delta.baseline_response_ms
        );
    }

    #[test]
    fn dropping_bitmaps_never_helps() {
        let s = session();
        let (_, delta) = s.what_if_without_bitmap_dimension(DimensionId(0)).unwrap();
        assert!(delta.variation_response_ms >= delta.baseline_response_ms * 0.999);
    }

    #[test]
    fn removing_a_class_reweights() {
        let s = session();
        let (report, delta) = s.what_if_without_class("q01_month_store_code").unwrap();
        assert!(!report.ranked.is_empty());
        assert!(delta.variation.contains("q01"));
        assert!(matches!(
            s.what_if_without_class("nonexistent"),
            Err(WarlockError::UnknownClass { .. })
        ));
    }

    #[test]
    fn zero_disks_label_reports_the_effective_value() {
        // `0` disks is clamped to 1: the label must name the modeled
        // value and expose the clamp.
        let s = session();
        let (zero_disk, delta) = s.what_if_disks(0).unwrap();
        assert!(
            delta.variation.contains("disks = 1") && delta.variation.contains("requested 0"),
            "label `{}` hides the clamp",
            delta.variation
        );
        let (one_disk, _) = s.what_if_disks(1).unwrap();
        assert_eq!(zero_disk, one_disk);
    }

    #[test]
    fn zero_prefetch_label_reports_the_effective_value() {
        let s = session();
        let (report_zero, delta) = s.what_if_fixed_prefetch(0).unwrap();
        assert!(
            delta.variation.contains("prefetch = 1 pages")
                && delta.variation.contains("requested 0"),
            "label `{}` hides the clamp",
            delta.variation
        );
        let (report_one, one) = s.what_if_fixed_prefetch(1).unwrap();
        assert!(
            one.variation.contains("prefetch = 1 pages") && !one.variation.contains("requested")
        );
        assert_eq!(report_zero, report_one);
    }

    #[test]
    fn baseline_is_stable() {
        // Same system → same recommendation and response.
        let (_, delta) = session().what_if_disks(16).unwrap();
        assert!(!delta.recommendation_changed);
        assert_eq!(delta.variation_response_ms, delta.baseline_response_ms);
    }

    #[test]
    fn clones_share_the_warm_cache() {
        let s1 = session();
        let (r1, _) = s1.what_if_disks(64).unwrap();
        let misses = s1.cache_stats().misses;
        let s2 = s1.clone();
        let (r2, _) = s2.what_if_disks(64).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(s2.cache_stats().misses, misses);
    }
}
