//! Bitmap scheme selection.
//!
//! "WARLOCK determines a bitmap scheme per fragmentation that encompasses
//! standard bitmaps on low-cardinal attributes and hierarchically encoded
//! bitmaps on high-cardinal attributes." (§3.2) — and the analysis layer
//! lets the user "exclude some of the suggested bitmap indices to limit
//! space requirements" (§3.3).
//!
//! The scheme decides, per dimension, which hierarchy levels carry a
//! standard index and whether the dimension carries one hierarchically
//! encoded index serving its high-cardinality levels.

use std::collections::BTreeSet;

use warlock_schema::{DimensionId, LevelId, SchemaError, StarSchema};
use warlock_workload::QueryMix;

use crate::HierarchicalEncoding;

/// How a predicate on one attribute can be evaluated through bitmaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// A standard index on exactly this level; a `k`-value predicate reads
    /// `k` vectors.
    Standard {
        /// Cardinality of the indexed level (number of stored vectors).
        cardinality: u64,
    },
    /// The dimension's hierarchically encoded index; a predicate at this
    /// level reads `slices` prefix slices *per selected value* combination
    /// (the AND evaluates all slices once per fragment).
    Encoded {
        /// Prefix slices required at this level.
        slices: u32,
    },
}

/// The bitmap indexes kept for one dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionScheme {
    /// The dimension.
    pub dimension: DimensionId,
    /// Levels carrying standard indexes, with their cardinalities.
    pub standard_levels: Vec<(LevelId, u64)>,
    /// Total slices of the encoded index, if the dimension has one.
    pub encoded_total_bits: Option<u32>,
}

impl DimensionScheme {
    /// Total stored bit-vectors-per-row: standard cardinalities plus
    /// encoded slices. Multiplying by the row count gives total index bits.
    pub fn vectors_stored(&self) -> u64 {
        let std: u64 = self.standard_levels.iter().map(|&(_, c)| c).sum();
        std + u64::from(self.encoded_total_bits.unwrap_or(0))
    }
}

/// Configuration of scheme selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeConfig {
    /// Levels with cardinality at or below this threshold get standard
    /// indexes; finer levels are served by the encoded index.
    pub standard_max_cardinality: u64,
    /// Only index levels the workload actually references (`true`, the
    /// default) or every level of every dimension (`false`).
    pub index_only_referenced: bool,
}

impl Default for SchemeConfig {
    fn default() -> Self {
        Self {
            standard_max_cardinality: 100,
            index_only_referenced: true,
        }
    }
}

/// The complete bitmap scheme of a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitmapScheme {
    dimensions: Vec<DimensionScheme>,
}

impl BitmapScheme {
    /// Derives the scheme for `schema` under `mix`.
    ///
    /// For every (referenced) level: standard index when the cardinality is
    /// at most [`SchemeConfig::standard_max_cardinality`]; otherwise the
    /// dimension gets one hierarchically encoded index covering all its
    /// levels (built once, reused by every high-cardinality level).
    pub fn derive(schema: &StarSchema, mix: &QueryMix, config: SchemeConfig) -> Self {
        // Collect referenced levels per dimension.
        let mut referenced: Vec<BTreeSet<LevelId>> = vec![BTreeSet::new(); schema.num_dimensions()];
        for (class, _) in mix.iter() {
            for (&dim, pred) in class.predicates() {
                referenced[dim.index()].insert(pred.level);
            }
        }

        let mut dimensions = Vec::with_capacity(schema.num_dimensions());
        for (di, dim) in schema.dimensions().iter().enumerate() {
            let candidate_levels: Vec<LevelId> = if config.index_only_referenced {
                referenced[di].iter().copied().collect()
            } else {
                (0..dim.depth()).map(|l| LevelId(l as u16)).collect()
            };
            let mut standard_levels = Vec::new();
            let mut needs_encoded = false;
            for level in candidate_levels {
                let card = dim.cardinality(level).expect("level from schema");
                if card <= config.standard_max_cardinality {
                    standard_levels.push((level, card));
                } else {
                    needs_encoded = true;
                }
            }
            let encoded_total_bits =
                needs_encoded.then(|| HierarchicalEncoding::for_dimension(dim).total_bits());
            dimensions.push(DimensionScheme {
                dimension: DimensionId(di as u16),
                standard_levels,
                encoded_total_bits,
            });
        }
        Self { dimensions }
    }

    /// Per-dimension schemes, in dimension order.
    #[inline]
    pub fn dimensions(&self) -> &[DimensionScheme] {
        &self.dimensions
    }

    /// How a predicate on `(dimension, level)` can be evaluated, or `None`
    /// when no index covers it (forcing a fragment scan).
    pub fn access_for(
        &self,
        schema: &StarSchema,
        dimension: DimensionId,
        level: LevelId,
    ) -> Option<IndexKind> {
        let ds = &self.dimensions[dimension.index()];
        if let Some(&(_, card)) = ds.standard_levels.iter().find(|&&(l, _)| l == level) {
            return Some(IndexKind::Standard { cardinality: card });
        }
        if ds.encoded_total_bits.is_some() {
            let dim = schema.dimension(dimension).expect("scheme from schema");
            let enc = HierarchicalEncoding::for_dimension(dim);
            return Some(IndexKind::Encoded {
                slices: enc.prefix_bits(level),
            });
        }
        None
    }

    /// Returns a copy with every index of `dimension` dropped — the
    /// interactive "exclude some of the suggested bitmap indices" knob.
    ///
    /// # Errors
    ///
    /// [`SchemaError::UnknownDimension`] when the scheme covers no such
    /// dimension.
    pub fn without_dimension(&self, dimension: DimensionId) -> Result<Self, SchemaError> {
        let mut out = self.clone();
        let index = dimension.index();
        let ds = out
            .dimensions
            .get_mut(index)
            .ok_or(SchemaError::UnknownDimension { index })?;
        ds.standard_levels.clear();
        ds.encoded_total_bits = None;
        Ok(out)
    }

    /// Total stored vectors-per-row over all dimensions (a scalar space
    /// indicator; bits = this × fact rows).
    pub fn total_vectors_stored(&self) -> u64 {
        self.dimensions
            .iter()
            .map(DimensionScheme::vectors_stored)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warlock_schema::{apb1_like_schema, Apb1Config};
    use warlock_workload::apb1_like_mix;

    fn setup() -> (StarSchema, QueryMix) {
        (
            apb1_like_schema(Apb1Config::default()).unwrap(),
            apb1_like_mix().unwrap(),
        )
    }

    #[test]
    fn derive_splits_by_cardinality() {
        let (schema, mix) = setup();
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        // Product: workload references division(5), line(15), family(75),
        // group(300), class(900), code(9000) — the first three are standard
        // (≤100), the rest force an encoded index.
        let p = &scheme.dimensions()[0];
        let std_levels: Vec<u16> = p.standard_levels.iter().map(|&(l, _)| l.0).collect();
        assert_eq!(std_levels, vec![0, 1, 2]);
        assert!(p.encoded_total_bits.is_some());
        // Channel: card 9 → standard only.
        let c = &scheme.dimensions()[3];
        assert_eq!(c.standard_levels.len(), 1);
        assert!(c.encoded_total_bits.is_none());
    }

    #[test]
    fn access_resolution() {
        let (schema, mix) = setup();
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        // time.month (24) → standard.
        match scheme
            .access_for(&schema, DimensionId(2), LevelId(2))
            .unwrap()
        {
            IndexKind::Standard { cardinality } => assert_eq!(cardinality, 24),
            k => panic!("expected standard, got {k:?}"),
        }
        // product.class (900) → encoded with prefix slices.
        match scheme
            .access_for(&schema, DimensionId(0), LevelId(4))
            .unwrap()
        {
            IndexKind::Encoded { slices } => {
                // product fanouts 5,3,5,4,3,10 → bits 3,2,3,2,2,4; prefix
                // through class = 3+2+3+2+2 = 12.
                assert_eq!(slices, 12);
            }
            k => panic!("expected encoded, got {k:?}"),
        }
    }

    #[test]
    fn unreferenced_levels_uncovered_by_default() {
        let (schema, _) = setup();
        // A mix referencing only time.month.
        let mix = warlock_workload::QueryMix::builder()
            .class(
                warlock_workload::QueryClass::new("only_month")
                    .with(2, warlock_workload::DimensionPredicate::point(2)),
                1.0,
            )
            .build()
            .unwrap();
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        assert!(scheme
            .access_for(&schema, DimensionId(0), LevelId(0))
            .is_none());
        assert!(scheme
            .access_for(&schema, DimensionId(2), LevelId(2))
            .is_some());
        // time.quarter is unreferenced → uncovered even though cheap.
        assert!(scheme
            .access_for(&schema, DimensionId(2), LevelId(1))
            .is_none());
    }

    #[test]
    fn index_all_levels_mode() {
        let (schema, mix) = setup();
        let scheme = BitmapScheme::derive(
            &schema,
            &mix,
            SchemeConfig {
                index_only_referenced: false,
                ..Default::default()
            },
        );
        // Every level resolved.
        for r in schema.all_level_refs() {
            assert!(
                scheme.access_for(&schema, r.dimension, r.level).is_some(),
                "{r} uncovered"
            );
        }
    }

    #[test]
    fn without_dimension_drops_indexes() {
        let (schema, mix) = setup();
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        let reduced = scheme.without_dimension(DimensionId(0)).unwrap();
        assert!(reduced
            .access_for(&schema, DimensionId(0), LevelId(4))
            .is_none());
        assert!(reduced
            .access_for(&schema, DimensionId(2), LevelId(2))
            .is_some());
        assert!(reduced.total_vectors_stored() < scheme.total_vectors_stored());
    }

    #[test]
    fn without_an_unknown_dimension_is_a_typed_error() {
        let (schema, mix) = setup();
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        let past = schema.num_dimensions();
        assert_eq!(
            scheme.without_dimension(DimensionId(past as u16)),
            Err(SchemaError::UnknownDimension { index: past })
        );
        assert_eq!(
            scheme.without_dimension(DimensionId(u16::MAX)),
            Err(SchemaError::UnknownDimension {
                index: usize::from(u16::MAX)
            })
        );
    }

    #[test]
    fn vectors_stored_accounting() {
        let (schema, mix) = setup();
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        let p = &scheme.dimensions()[0];
        // standard: 5 + 15 + 75 = 95 vectors; encoded: 16 slices.
        assert_eq!(p.vectors_stored(), 95 + 16);
        assert_eq!(
            scheme.total_vectors_stored(),
            scheme
                .dimensions()
                .iter()
                .map(DimensionScheme::vectors_stored)
                .sum::<u64>()
        );
    }
}
