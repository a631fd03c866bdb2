//! Per-query access-plan estimation.
//!
//! For one query class and one fragmentation candidate this module decides
//! how each accessed fragment is read — full scan or bitmap-guided row
//! fetch — and prices pages, physical I/Os and device busy time.

use warlock_bitmap::{estimate, BitmapScheme, IndexKind};
use warlock_fragment::{FragmentLayout, QueryMatch};
use warlock_schema::StarSchema;
use warlock_storage::SystemConfig;
use warlock_workload::QueryClass;

use crate::prefetch::effective_prefetch;
use crate::response::estimated_response_ms;
use crate::yao::yao_page_hits;

/// How accessed fragments are read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Sequential scan of every accessed fragment.
    FullScan,
    /// Bitmap evaluation followed by selective page fetches.
    BitmapFetch,
}

/// The estimated I/O behaviour of one query class under one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCost {
    /// Name of the query class (shared, cheap to clone).
    pub query_name: std::sync::Arc<str>,
    /// Chosen access path.
    pub path: AccessPath,
    /// Expected number of fragments accessed.
    pub fragments_accessed: f64,
    /// Pages of one (average) fact fragment.
    pub fragment_pages: u64,
    /// Total fact pages read by the query.
    pub fact_pages: f64,
    /// Total bitmap pages read by the query.
    pub bitmap_pages: f64,
    /// Total physical I/Os issued.
    pub total_ios: f64,
    /// Total device busy time in milliseconds (the throughput metric).
    pub busy_ms: f64,
    /// Device time per accessed fragment.
    pub per_fragment_ms: f64,
    /// Declustered response-time estimate in milliseconds.
    pub response_ms: f64,
    /// Prefetch granule used for fact access.
    pub fact_prefetch: u32,
    /// Prefetch granule used for bitmap access.
    pub bitmap_prefetch: u32,
    /// Expected rows the query selects.
    pub selected_rows: f64,
}

/// Estimates `query` against the candidate embodied by `layout`.
///
/// The access-path decision mirrors the tool's heuristic: a fragment is
/// scanned when some residual predicate has no covering bitmap index, or
/// when the scan is simply cheaper than bitmap evaluation plus scattered
/// row fetches (high residual selectivity).
pub fn estimate_query(
    schema: &StarSchema,
    layout: &FragmentLayout,
    scheme: &BitmapScheme,
    system: &SystemConfig,
    query: &QueryClass,
    fact_index: usize,
) -> QueryCost {
    let fragmentation = layout.fragmentation();
    let m = QueryMatch::evaluate(schema, fragmentation, query);
    let fragments_accessed = m.expected_fragments();

    let page = system.page;
    let page_bytes = u64::from(page.page_bytes);
    let disk = system.disk;
    let row_bytes = schema.fact_row_bytes(fact_index);

    let frag_rows_avg = layout.uniform_rows_per_fragment();
    let frag_rows = (frag_rows_avg.round() as u64).max(1);
    let fragment_pages = page.pages_for_rows(frag_rows, row_bytes).max(1);

    // --- Full-scan path -------------------------------------------------
    let fact_prefetch = effective_prefetch(system.fact_prefetch, fragment_pages);
    let scan_ms = disk.sequential_ms(fragment_pages, fact_prefetch, page_bytes);
    let scan_ios = disk.sequential_ios(fragment_pages, fact_prefetch) as f64;

    // --- Bitmap path ----------------------------------------------------
    let vector_pages = estimate::vector_pages(frag_rows, page);
    let bitmap_prefetch = effective_prefetch(system.bitmap_prefetch, vector_pages);
    let vector_ms = disk.sequential_ms(vector_pages, bitmap_prefetch, page_bytes);
    let vector_ios = disk.sequential_ios(vector_pages, bitmap_prefetch) as f64;

    let mut bitmap_vectors = 0.0f64; // vectors/slices read per fragment
    let mut indexable = true;
    for (&dim, pred) in query.predicates() {
        if let Some(frag_card) = fragmentation.effective_cardinality_on(schema, dim) {
            let query_card = schema
                .dimension(dim)
                .and_then(|d| d.cardinality(pred.level))
                .expect("validated query");
            if query_card <= frag_card {
                // Fully resolved by fragment confinement: matched fragments
                // are read in whole, no in-fragment filtering needed.
                continue;
            }
        }
        match scheme.access_for(schema, dim, pred.level) {
            None => {
                indexable = false;
                break;
            }
            Some(IndexKind::Standard { .. }) => {
                // Values relevant within one accessed fragment: predicates
                // on a fragmentation dimension split their values across
                // the matched fragments; others apply in full everywhere.
                let k_eff = match m
                    .per_dimension()
                    .iter()
                    .find(|d| d.dimension == dim && d.referenced)
                {
                    Some(d) => (pred.values as f64 / d.matched_values).max(1.0),
                    None => pred.values as f64,
                };
                bitmap_vectors += k_eff;
            }
            Some(IndexKind::Encoded { slices }) => {
                // The slice AND reads each prefix slice once, independent
                // of how many values the predicate selects.
                bitmap_vectors += f64::from(slices);
            }
        }
    }

    let selected_rows_per_fragment = frag_rows_avg * m.residual_selectivity();
    let touched_pages = yao_page_hits(frag_rows, fragment_pages, selected_rows_per_fragment);
    let fetch_ms = touched_pages * disk.random_ms(1, page_bytes);
    let bitmap_ms = bitmap_vectors * vector_ms + fetch_ms;
    let bitmap_ios = bitmap_vectors * vector_ios + touched_pages;
    let bitmap_pages_per_fragment = bitmap_vectors * vector_pages as f64;

    // --- Path choice ----------------------------------------------------
    let use_scan = !indexable || scan_ms <= bitmap_ms;
    let (path, per_fragment_ms, ios_pf, fact_pages_pf, bitmap_pages_pf) = if use_scan {
        (
            AccessPath::FullScan,
            scan_ms,
            scan_ios,
            fragment_pages as f64,
            0.0,
        )
    } else {
        (
            AccessPath::BitmapFetch,
            bitmap_ms,
            bitmap_ios,
            touched_pages,
            bitmap_pages_per_fragment,
        )
    };

    let busy_ms = fragments_accessed * per_fragment_ms;
    let response_ms = estimated_response_ms(
        fragments_accessed,
        per_fragment_ms,
        system.num_disks,
        system.architecture.total_processors(),
        system.architecture.overhead_factor(),
    );

    QueryCost {
        query_name: query.name().into(),
        path,
        fragments_accessed,
        fragment_pages,
        fact_pages: fragments_accessed * fact_pages_pf,
        bitmap_pages: fragments_accessed * bitmap_pages_pf,
        total_ios: fragments_accessed * ios_pf,
        busy_ms,
        per_fragment_ms,
        response_ms,
        fact_prefetch,
        bitmap_prefetch,
        selected_rows: m.expected_rows(layout.fact_rows()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warlock_bitmap::SchemeConfig;
    use warlock_fragment::Fragmentation;
    use warlock_schema::{apb1_like_schema, Apb1Config};
    use warlock_workload::{apb1_like_mix, DimensionPredicate, QueryClass};

    fn setup() -> (StarSchema, BitmapScheme, SystemConfig) {
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let mix = apb1_like_mix().unwrap();
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        let system = SystemConfig::default_2001(16);
        (schema, scheme, system)
    }

    fn layout(schema: &StarSchema, pairs: &[(u16, u16)]) -> FragmentLayout {
        let frag = if pairs.is_empty() {
            Fragmentation::none()
        } else {
            Fragmentation::from_pairs(pairs).unwrap()
        };
        FragmentLayout::new(schema, frag, 0)
    }

    #[test]
    fn confined_query_reads_fraction_of_fragments() {
        let (schema, scheme, system) = setup();
        let l = layout(&schema, &[(2, 2)]); // by month: 24 fragments
        let q = QueryClass::new("one_month").with(2, DimensionPredicate::point(2));
        let c = estimate_query(&schema, &l, &scheme, &system, &q, 0);
        assert!((c.fragments_accessed - 1.0).abs() < 1e-9);
        // Whole-fragment coverage: scan of exactly one fragment.
        assert_eq!(c.path, AccessPath::FullScan);
        assert!((c.fact_pages - c.fragment_pages as f64).abs() < 1e-6);
        assert!(c.busy_ms > 0.0 && c.response_ms > 0.0);
        // Single fragment: response equals busy time.
        assert!((c.response_ms - c.busy_ms).abs() < 1e-9);
    }

    #[test]
    fn unconfined_query_reads_every_fragment() {
        let (schema, scheme, system) = setup();
        let l = layout(&schema, &[(3, 0)]); // by channel: 9 fragments
                                            // A mildly selective predicate (1/24 of rows) touches almost every
                                            // page (Yao), so scanning all 9 fragments is the right plan.
        let q = QueryClass::new("one_month").with(2, DimensionPredicate::point(2));
        let c = estimate_query(&schema, &l, &scheme, &system, &q, 0);
        assert!((c.fragments_accessed - 9.0).abs() < 1e-9);
        assert_eq!(c.path, AccessPath::FullScan);
    }

    #[test]
    fn selective_predicate_switches_to_bitmap_fetch() {
        let (schema, scheme, system) = setup();
        let l = layout(&schema, &[(3, 0)]); // by channel: 9 fragments
                                            // 1/9000 selectivity: ~216 rows per fragment — bitmap evaluation
                                            // plus scattered fetches beat a 13 000-page scan.
        let q = QueryClass::new("one_code").with(0, DimensionPredicate::point(5));
        let c = estimate_query(&schema, &l, &scheme, &system, &q, 0);
        assert!((c.fragments_accessed - 9.0).abs() < 1e-9);
        assert_eq!(c.path, AccessPath::BitmapFetch);
        assert!(c.bitmap_pages > 0.0);
        // Fetches far fewer fact pages than the scan would.
        assert!(c.fact_pages < 9.0 * c.fragment_pages as f64 / 10.0);
    }

    #[test]
    fn response_time_benefits_from_declustering() {
        let (schema, scheme, system) = setup();
        let q = QueryClass::new("one_quarter").with(2, DimensionPredicate::point(1));
        // Coarse: fragment by quarter → 1 fragment accessed, serial.
        let coarse = estimate_query(
            &schema,
            &layout(&schema, &[(2, 1)]),
            &scheme,
            &system,
            &q,
            0,
        );
        // Fine: fragment by month × channel → 27 fragments, parallel.
        let fine = estimate_query(
            &schema,
            &layout(&schema, &[(2, 2), (3, 0)]),
            &scheme,
            &system,
            &q,
            0,
        );
        assert!(fine.fragments_accessed > coarse.fragments_accessed);
        assert!(
            fine.response_ms < coarse.response_ms,
            "declustering should cut response: fine {} vs coarse {}",
            fine.response_ms,
            coarse.response_ms
        );
    }

    #[test]
    fn throughput_prefers_clustering() {
        // The flip side of the trade-off: the declustered plan must not
        // consume *less* total device time than the clustered one.
        let (schema, scheme, system) = setup();
        let q = QueryClass::new("one_quarter").with(2, DimensionPredicate::point(1));
        let coarse = estimate_query(
            &schema,
            &layout(&schema, &[(2, 1)]),
            &scheme,
            &system,
            &q,
            0,
        );
        let fine = estimate_query(
            &schema,
            &layout(&schema, &[(2, 2), (3, 0)]),
            &scheme,
            &system,
            &q,
            0,
        );
        assert!(fine.busy_ms >= coarse.busy_ms * 0.99);
    }

    #[test]
    fn missing_index_forces_scan() {
        let (schema, scheme, system) = setup();
        // Drop all product indexes; a product-referencing query must scan.
        let reduced = scheme
            .without_dimension(warlock_schema::DimensionId(0))
            .unwrap();
        let l = layout(&schema, &[(2, 2)]);
        let q = QueryClass::new("one_code").with(0, DimensionPredicate::point(5));
        let c = estimate_query(&schema, &l, &reduced, &system, &q, 0);
        assert_eq!(c.path, AccessPath::FullScan);
        let with_index = estimate_query(&schema, &l, &scheme, &system, &q, 0);
        assert_eq!(with_index.path, AccessPath::BitmapFetch);
        assert!(with_index.busy_ms < c.busy_ms);
    }

    #[test]
    fn baseline_scan_costs_whole_table() {
        let (schema, scheme, system) = setup();
        let l = layout(&schema, &[]);
        // Query with an unindexable predicate — force the scan path by
        // removing every index.
        let mut s2 = scheme.clone();
        for d in 0..4 {
            s2 = s2
                .without_dimension(warlock_schema::DimensionId(d))
                .unwrap();
        }
        let q = QueryClass::new("q").with(2, DimensionPredicate::point(2));
        let c = estimate_query(&schema, &l, &s2, &system, &q, 0);
        let total_pages = system
            .page
            .pages_for_rows(schema.fact_rows(0), schema.fact_row_bytes(0));
        assert_eq!(c.fragment_pages, total_pages);
        assert!((c.fact_pages - total_pages as f64).abs() < 1e-6);
    }

    #[test]
    fn auto_prefetch_adapts_to_object_sizes() {
        let (schema, scheme, system) = setup();
        let l = layout(&schema, &[(2, 2)]);
        let q = QueryClass::new("q")
            .with(2, DimensionPredicate::point(2))
            .with(3, DimensionPredicate::point(0));
        let c = estimate_query(&schema, &l, &scheme, &system, &q, 0);
        // Fact fragments are thousands of pages → cap; bitmap vectors are
        // a couple of pages → small granule.
        assert_eq!(c.fact_prefetch, 256);
        assert!(c.bitmap_prefetch < 32);
    }

    #[test]
    fn selected_rows_match_selectivity() {
        let (schema, scheme, system) = setup();
        let l = layout(&schema, &[(2, 2)]);
        let q = QueryClass::new("q").with(2, DimensionPredicate::point(2));
        let c = estimate_query(&schema, &l, &scheme, &system, &q, 0);
        let expect = schema.fact_rows(0) as f64 / 24.0;
        assert!((c.selected_rows - expect).abs() / expect < 1e-9);
    }
}
