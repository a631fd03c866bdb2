//! Precomputed per-dimension cost tables.
//!
//! Everything [`estimate_query`](crate::access::estimate_query) derives
//! from the *model* alone — per-class selectivities, bitmap index shapes,
//! prefetch and contention constants — is invariant across an entire
//! chunk of candidates. [`CostTables`] hoists those quantities out of the
//! per-candidate loop: one build per [`CostModel`], then the
//! batch evaluator ([`crate::batch::evaluate_chunk_rows`]) turns each query
//! match into table lookups instead of re-running occupancy statistics
//! per (candidate, class) pair.
//!
//! Every precomputed value is produced by the *same expression sequence*
//! as the scalar path, so batched results are bit-identical to
//! [`CostModel::evaluate_layout`]. Table coverage is an optimization, not
//! a correctness requirement: a fragment cardinality outside the table
//! (possible only for exotic range sizes) falls back to inline
//! computation with identical arithmetic.

use std::sync::Arc;

use warlock_bitmap::IndexKind;
use warlock_fragment::expected_distinct_groups;
use warlock_schema::{DimensionId, LevelId};
use warlock_storage::{DiskParams, PageConfig, PrefetchPolicy};

use crate::model::CostModel;

/// What one predicate contributes to the bitmap-path vector count, for
/// one fragment cardinality on its dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BitmapContrib {
    /// Fully resolved by fragment confinement — no vectors read.
    Resolved,
    /// Reads this many bitmap vectors (or encoded slices) per fragment.
    Vectors(f64),
    /// No covering index: the fragment must be scanned.
    Unindexable,
}

/// Match quantities of one predicate against one fragment cardinality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragDimEntry {
    /// Expected fragmentation-attribute values the predicate matches.
    pub matched: f64,
    /// Multiplicative residual-selectivity contribution (1.0 when whole
    /// fragments are covered).
    pub residual_factor: f64,
    /// Bitmap-path contribution of the predicate at this cardinality.
    pub bitmap: BitmapContrib,
}

/// Precomputed quantities for one predicate of one query class.
#[derive(Debug, Clone)]
pub struct PredTable {
    /// The predicated dimension.
    pub dimension: DimensionId,
    /// The predicate level.
    pub level: LevelId,
    /// Number of values the predicate selects.
    pub values: u64,
    /// Cardinality of the predicate level.
    pub query_card: u64,
    /// Covering bitmap index for the predicate, if any.
    pub index: Option<IndexKind>,
    /// Residual factor when the dimension is *not* a fragmentation
    /// attribute: `values / query_card`.
    pub residual_unfragmented: f64,
    /// Bitmap contribution when the dimension is not fragmented.
    pub unfragmented_bitmap: BitmapContrib,
    /// `(fragment cardinality → entry)`, sorted by cardinality.
    by_card: Vec<(u64, FragDimEntry)>,
}

impl PredTable {
    /// The entry for `frag_card`, from the table when covered and computed
    /// inline (identical expressions) otherwise.
    #[inline]
    pub fn entry_for(&self, frag_card: u64) -> FragDimEntry {
        match self.by_card.binary_search_by_key(&frag_card, |e| e.0) {
            Ok(i) => self.by_card[i].1,
            Err(_) => compute_entry(self.values, self.query_card, self.index, frag_card),
        }
    }
}

/// Precomputed quantities for one query class of the mix.
#[derive(Debug, Clone)]
pub struct ClassTable {
    /// The class name (shared into each emitted [`crate::QueryCost`]
    /// by reference-count bump, never a fresh string).
    pub name: Arc<str>,
    /// Workload share of the class.
    pub share: f64,
    /// Expected selected rows: `total_selectivity × fact_rows`.
    pub selected_rows: f64,
    /// Per-predicate tables, in ascending dimension order (the class's
    /// predicate iteration order).
    pub preds: Vec<PredTable>,
    /// Dense dimension → predicate index map (`preds` position), so the
    /// hot matching loop resolves a dimension in O(1).
    pred_by_dim: Vec<Option<u16>>,
}

impl ClassTable {
    /// The predicate table for `dimension`, if the class references it.
    #[inline]
    pub fn pred_for(&self, dimension: DimensionId) -> Option<&PredTable> {
        match self.pred_by_dim.get(usize::from(dimension.0)) {
            Some(&Some(i)) => Some(&self.preds[usize::from(i)]),
            _ => None,
        }
    }
}

/// All model-invariant constants and per-class tables the batch evaluator
/// needs — built once per [`CostModel`], shared by every chunk.
#[derive(Debug, Clone)]
pub struct CostTables {
    /// Fact rows of the model's fact table.
    pub fact_rows: u64,
    /// Bytes per fact row.
    pub row_bytes: u32,
    /// Page configuration.
    pub page: PageConfig,
    /// Disk parameters.
    pub disk: DiskParams,
    /// Page size in bytes (widened once).
    pub page_bytes: u64,
    /// Prefetch policy for fact fragments.
    pub fact_prefetch: PrefetchPolicy,
    /// Prefetch policy for bitmap vectors.
    pub bitmap_prefetch: PrefetchPolicy,
    /// Number of disks (declustering width).
    pub num_disks: u32,
    /// Total processors of the architecture.
    pub processors: u32,
    /// Architecture overhead factor.
    pub overhead: f64,
    /// Cost of one random page read: `disk.random_ms(1, page_bytes)`.
    pub random_page_ms: f64,
    /// Per-class tables, in mix order.
    pub classes: Vec<ClassTable>,
}

impl CostTables {
    /// Builds the tables for `model`.
    ///
    /// `range_options` mirrors the enumeration config: for every level the
    /// sub-tables cover the plain cardinality plus `cardinality / r` for
    /// each option `r` that divides the level's fan-out — exactly the
    /// effective cardinalities ranged enumeration can produce. Lookups
    /// outside the covered set fall back to inline computation.
    pub fn build(model: &CostModel<'_>, range_options: &[u64]) -> Self {
        let schema = model.schema();
        let system = model.system();
        let scheme = model.scheme();
        let page = system.page;
        let page_bytes = u64::from(page.page_bytes);
        let fact_rows = schema.fact_rows(model.fact_index());
        let classes = model
            .mix()
            .iter()
            .map(|(class, share)| {
                let preds = class
                    .predicates()
                    .iter()
                    .map(|(&dimension, pred)| {
                        let dim = schema.dimension(dimension).expect("validated query");
                        let query_card = dim.cardinality(pred.level).expect("validated query");
                        let n = pred.values;
                        let index = scheme.access_for(schema, dimension, pred.level);
                        let unfragmented_bitmap = match index {
                            None => BitmapContrib::Unindexable,
                            Some(IndexKind::Standard { .. }) => BitmapContrib::Vectors(n as f64),
                            Some(IndexKind::Encoded { slices }) => {
                                BitmapContrib::Vectors(f64::from(slices))
                            }
                        };
                        // Every effective cardinality enumeration can put on
                        // this dimension: each level's cardinality, divided
                        // by each range option that divides its fan-out.
                        let mut cards: Vec<u64> = Vec::new();
                        for (li, level) in dim.levels().iter().enumerate() {
                            let card = level.cardinality();
                            cards.push(card);
                            let level_id = LevelId(li as u16);
                            if let Ok(fanout) = dim.fanout(level_id) {
                                for &r in range_options {
                                    if r > 1 && fanout.is_multiple_of(r) {
                                        cards.push(card / r);
                                    }
                                }
                            }
                        }
                        cards.sort_unstable();
                        cards.dedup();
                        let by_card = cards
                            .into_iter()
                            .map(|card| (card, compute_entry(n, query_card, index, card)))
                            .collect();
                        PredTable {
                            dimension,
                            level: pred.level,
                            values: n,
                            query_card,
                            index,
                            residual_unfragmented: n as f64 / query_card as f64,
                            unfragmented_bitmap,
                            by_card,
                        }
                    })
                    .collect();
                let preds: Vec<PredTable> = preds;
                let mut pred_by_dim = vec![None; schema.num_dimensions()];
                for (i, p) in preds.iter().enumerate() {
                    pred_by_dim[usize::from(p.dimension.0)] = Some(i as u16);
                }
                ClassTable {
                    name: class.name().into(),
                    share,
                    selected_rows: class.selectivity(schema) * fact_rows as f64,
                    preds,
                    pred_by_dim,
                }
            })
            .collect();
        Self {
            fact_rows,
            row_bytes: schema.fact_row_bytes(model.fact_index()),
            page,
            disk: system.disk,
            page_bytes,
            fact_prefetch: system.fact_prefetch,
            bitmap_prefetch: system.bitmap_prefetch,
            num_disks: system.num_disks,
            processors: system.architecture.total_processors(),
            overhead: system.architecture.overhead_factor(),
            random_page_ms: system.disk.random_ms(1, page_bytes),
            classes,
        }
    }
}

/// One predicate matched against one fragment cardinality — the exact
/// expression sequence of [`warlock_fragment::QueryMatch::evaluate`] and
/// the bitmap loop of [`crate::access::estimate_query`], factored out so
/// table build and fallback share it.
fn compute_entry(
    n: u64,
    query_card: u64,
    index: Option<IndexKind>,
    frag_card: u64,
) -> FragDimEntry {
    if query_card <= frag_card {
        // Coarser or equal: whole fragments are covered, no residual
        // filtering and no in-fragment bitmap work.
        FragDimEntry {
            matched: n as f64 * (frag_card as f64 / query_card as f64),
            residual_factor: 1.0,
            bitmap: BitmapContrib::Resolved,
        }
    } else {
        let matched = expected_distinct_groups(query_card, frag_card, n);
        let covered_fraction = matched / frag_card as f64;
        let bitmap = match index {
            None => BitmapContrib::Unindexable,
            Some(IndexKind::Standard { .. }) => {
                BitmapContrib::Vectors((n as f64 / matched).max(1.0))
            }
            Some(IndexKind::Encoded { slices }) => BitmapContrib::Vectors(f64::from(slices)),
        };
        FragDimEntry {
            matched,
            residual_factor: (n as f64 / query_card as f64) / covered_fraction,
            bitmap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warlock_bitmap::{BitmapScheme, SchemeConfig};
    use warlock_schema::{apb1_like_schema, Apb1Config, StarSchema};
    use warlock_storage::SystemConfig;
    use warlock_workload::{apb1_like_mix, QueryMix};

    struct Fixture {
        schema: StarSchema,
        system: SystemConfig,
        scheme: BitmapScheme,
        mix: QueryMix,
    }

    fn fixture() -> Fixture {
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let mix = apb1_like_mix().unwrap();
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        let system = SystemConfig::default_2001(16);
        Fixture {
            schema,
            system,
            scheme,
            mix,
        }
    }

    #[test]
    fn tables_cover_every_level_cardinality() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = CostTables::build(&model, &[]);
        assert_eq!(tables.classes.len(), f.mix.len());
        for (ct, (class, share)) in tables.classes.iter().zip(f.mix.iter()) {
            assert_eq!(&*ct.name, class.name());
            assert_eq!(ct.share, share);
            assert_eq!(ct.preds.len(), class.predicates().len());
            for pt in &ct.preds {
                let dim = f.schema.dimension(pt.dimension).unwrap();
                for level in dim.levels() {
                    let card = level.cardinality();
                    // Covered: entry_for equals a fresh inline computation.
                    let lookup = pt.entry_for(card);
                    let inline = compute_entry(pt.values, pt.query_card, pt.index, card);
                    assert_eq!(lookup, inline);
                }
            }
        }
    }

    #[test]
    fn ranged_coverage_and_fallback_agree() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let with_ranges = CostTables::build(&model, &[2, 3, 5]);
        let without = CostTables::build(&model, &[]);
        for (a, b) in with_ranges.classes.iter().zip(&without.classes) {
            for (pa, pb) in a.preds.iter().zip(&b.preds) {
                // Ranged tables have strictly more coverage, but lookups
                // (table hit vs inline fallback) must agree bit-for-bit.
                assert!(pa.by_card.len() >= pb.by_card.len());
                for &(card, entry) in &pa.by_card {
                    assert_eq!(entry, pb.entry_for(card), "card {card}");
                }
            }
        }
    }

    #[test]
    fn class_constants_match_scalar_sources() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = CostTables::build(&model, &[]);
        let fact_rows = f.schema.fact_rows(0);
        for (ct, (class, _)) in tables.classes.iter().zip(f.mix.iter()) {
            let expect = class.selectivity(&f.schema) * fact_rows as f64;
            assert_eq!(ct.selected_rows.to_bits(), expect.to_bits());
        }
        assert_eq!(
            tables.random_page_ms.to_bits(),
            f.system
                .disk
                .random_ms(1, u64::from(f.system.page.page_bytes))
                .to_bits()
        );
    }
}
