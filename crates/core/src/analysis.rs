//! Detailed per-fragmentation query analysis (the tool's Fig. 2 statistic).
//!
//! "It comprises a database statistic (#pages, #fragments, fragment
//! sizes), I/O access statistic (#accessed fragments and pages, #I/Os),
//! I/O response times and a prefetch granule suggestion." (§3.3)
//!
//! An analysis costs nothing itself: it reads the per-class detail of
//! a cost the engine priced once — the ranked candidate's own, or the
//! engine's single-candidate `evaluate` for an arbitrary candidate.

use warlock_bitmap::estimate;
use warlock_cost::{AccessPath, CandidateCost};
use warlock_fragment::FragmentLayout;

use crate::engine::Inputs;

/// Per-query-class analysis rows of one fragmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassAnalysis {
    /// Query class name.
    pub name: String,
    /// Workload share of the class.
    pub share: f64,
    /// Expected fragments accessed.
    pub accessed_fragments: f64,
    /// Fact pages read.
    pub fact_pages: f64,
    /// Bitmap pages read.
    pub bitmap_pages: f64,
    /// Physical I/Os issued.
    pub ios: f64,
    /// Device busy time in milliseconds.
    pub busy_ms: f64,
    /// Estimated response time in milliseconds.
    pub response_ms: f64,
    /// Chosen access path.
    pub path: AccessPath,
    /// Rows the class selects.
    pub selected_rows: f64,
}

/// The full database + I/O statistic of one fragmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentationAnalysis {
    /// Human-readable candidate label.
    pub label: String,
    /// Number of fragments.
    pub num_fragments: u64,
    /// Average rows per fragment.
    pub fragment_rows: u64,
    /// Pages per (average) fragment.
    pub fragment_pages: u64,
    /// Total fact pages of the table under this fragmentation.
    pub total_fact_pages: u64,
    /// Total stored bitmap pages of the scheme under this fragmentation.
    pub bitmap_stored_pages: u64,
    /// Suggested prefetch granule for fact fragments (pages).
    pub fact_prefetch: u32,
    /// Suggested prefetch granule for bitmap vectors (pages).
    pub bitmap_prefetch: u32,
    /// Workload-weighted device busy time per query (ms).
    pub weighted_busy_ms: f64,
    /// Workload-weighted response time per query (ms).
    pub weighted_response_ms: f64,
    /// Per-class rows.
    pub per_class: Vec<ClassAnalysis>,
}

impl FragmentationAnalysis {
    /// Derives the analysis of a candidate from its layout and its
    /// `cost` under `inputs`, which must carry the per-class detail —
    /// a ranked candidate's cost or [`crate::engine::evaluate`]'s. Nothing is
    /// costed here; the candidate must have passed the engine's checks
    /// (its layout is rebuilt for the database statistic).
    pub(crate) fn new(inputs: Inputs<'_>, cost: &CandidateCost) -> Self {
        let Inputs {
            schema,
            system,
            mix,
            config,
            scheme,
        } = inputs;
        let layout = FragmentLayout::new(schema, cost.fragmentation.clone(), config.fact_index);
        let row_bytes = schema.fact_row_bytes(config.fact_index);
        let fragment_rows = (layout.uniform_rows_per_fragment().round() as u64).max(1);
        let fragment_pages = system.page.pages_for_rows(fragment_rows, row_bytes).max(1);
        let total_fact_pages = fragment_pages * layout.num_fragments();
        let bitmap_stored_pages = estimate::scheme_stored_pages(
            fragment_rows,
            layout.num_fragments(),
            scheme.total_vectors_stored(),
            system.page,
        );

        // Prefetch suggestion: the granules the cost model actually chose
        // (identical across classes — they depend only on object sizes).
        let (fact_prefetch, bitmap_prefetch) = cost
            .per_query
            .first()
            .map(|q| (q.fact_prefetch, q.bitmap_prefetch))
            .unwrap_or((1, 1));

        let per_class = mix
            .iter()
            .zip(&cost.per_query)
            .map(|((class, share), qc)| ClassAnalysis {
                name: class.name().to_owned(),
                share,
                accessed_fragments: qc.fragments_accessed,
                fact_pages: qc.fact_pages,
                bitmap_pages: qc.bitmap_pages,
                ios: qc.total_ios,
                busy_ms: qc.busy_ms,
                response_ms: qc.response_ms,
                path: qc.path,
                selected_rows: qc.selected_rows,
            })
            .collect();

        Self {
            label: cost.fragmentation.label(schema),
            num_fragments: layout.num_fragments(),
            fragment_rows,
            fragment_pages,
            total_fact_pages,
            bitmap_stored_pages,
            fact_prefetch,
            bitmap_prefetch,
            weighted_busy_ms: cost.io_cost_ms,
            weighted_response_ms: cost.response_ms,
            per_class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Warlock;
    use warlock_fragment::Fragmentation;
    use warlock_schema::{apb1_like_schema, Apb1Config};
    use warlock_storage::SystemConfig;
    use warlock_workload::apb1_like_mix;

    fn analysis(pairs: &[(u16, u16)]) -> FragmentationAnalysis {
        let session = Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .build()
            .unwrap();
        let frag = if pairs.is_empty() {
            Fragmentation::none()
        } else {
            Fragmentation::from_pairs(pairs).unwrap()
        };
        session.analyze_candidate(&frag).unwrap()
    }

    #[test]
    fn database_statistic_is_consistent() {
        let a = analysis(&[(2, 2)]); // by month
        assert_eq!(a.num_fragments, 24);
        assert_eq!(a.label, "time.month");
        // 17 496 000 rows / 24 fragments.
        assert_eq!(a.fragment_rows, 729_000);
        // 146 rows per 8 KiB page (56-byte rows).
        assert_eq!(a.fragment_pages, 729_000u64.div_ceil(146));
        assert_eq!(a.total_fact_pages, a.fragment_pages * 24);
        assert!(a.bitmap_stored_pages > 0);
    }

    #[test]
    fn per_class_rows_cover_the_mix() {
        let a = analysis(&[(2, 2)]);
        assert_eq!(a.per_class.len(), 10);
        let share_sum: f64 = a.per_class.iter().map(|c| c.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        for c in &a.per_class {
            assert!(c.accessed_fragments >= 1.0);
            assert!(c.busy_ms > 0.0);
            assert!(c.response_ms > 0.0);
            assert!(c.response_ms <= c.busy_ms + 1e-9);
        }
    }

    #[test]
    fn weighted_totals_match_per_class() {
        let a = analysis(&[(2, 1), (3, 0)]);
        let busy: f64 = a.per_class.iter().map(|c| c.share * c.busy_ms).sum();
        let rt: f64 = a.per_class.iter().map(|c| c.share * c.response_ms).sum();
        assert!((busy - a.weighted_busy_ms).abs() < 1e-9);
        assert!((rt - a.weighted_response_ms).abs() < 1e-9);
    }

    #[test]
    fn prefetch_suggestion_adapts() {
        let coarse = analysis(&[(2, 0)]); // 2 huge fragments
        let fine = analysis(&[(0, 4), (2, 1)]); // 7200 small fragments
        assert!(coarse.fact_prefetch >= fine.fact_prefetch);
        assert!(coarse.fragment_pages > fine.fragment_pages);
    }

    #[test]
    fn baseline_analysis() {
        let a = analysis(&[]);
        assert_eq!(a.num_fragments, 1);
        assert_eq!(a.label, "(unfragmented)");
        assert_eq!(a.total_fact_pages, a.fragment_pages);
    }
}
