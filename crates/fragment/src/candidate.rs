//! Fragmentation candidates and their enumeration.

use std::fmt;

use warlock_schema::{DimensionId, LevelId, LevelRef, StarSchema};

/// Errors raised when constructing a fragmentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateError {
    /// Two fragmentation attributes reference the same dimension.
    DuplicateDimension {
        /// The dimension referenced twice.
        dimension: DimensionId,
    },
    /// A fragmentation attribute references a dimension or level the schema
    /// does not have.
    UnknownAttribute {
        /// The offending reference.
        level_ref: LevelRef,
    },
    /// A range size is zero or does not divide the level's fan-out.
    BadRange {
        /// The offending reference.
        level_ref: LevelRef,
        /// The invalid range size.
        range: u64,
        /// The level's fan-out (children per parent).
        fanout: u64,
    },
    /// The candidate's fragment count exceeds `u64::MAX`, so it cannot
    /// be laid out or costed — only pathologically deep cross products
    /// reach this.
    FragmentOverflow {
        /// The overflowing fragment count.
        fragments: u128,
    },
    /// A saved enumeration cursor does not describe a position in the
    /// space it is resumed in (it was taken under other range options
    /// or a wider cap, say).
    ForeignCursor {
        /// The used dimension, counted in dimension order, whose range
        /// counter is past the sizes admissible at its level; `None`
        /// when the cursor's shape itself does not fit.
        counter: Option<usize>,
    },
}

impl fmt::Display for CandidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateDimension { dimension } => {
                write!(
                    f,
                    "dimension {dimension} referenced by two fragmentation attributes"
                )
            }
            Self::UnknownAttribute { level_ref } => {
                write!(f, "unknown fragmentation attribute {level_ref}")
            }
            Self::BadRange {
                level_ref,
                range,
                fanout,
            } => write!(
                f,
                "range size {range} on {level_ref} must be >= 1 and divide the fan-out {fanout}"
            ),
            Self::FragmentOverflow { fragments } => write!(
                f,
                "fragment count {fragments} overflows the evaluable range (u64)"
            ),
            Self::ForeignCursor { counter: Some(i) } => write!(
                f,
                "enumeration cursor does not fit this space: range counter {i} is out of range"
            ),
            Self::ForeignCursor { counter: None } => {
                write!(f, "enumeration cursor does not fit this space")
            }
        }
    }
}

impl std::error::Error for CandidateError {}

/// One MDHF fragmentation candidate: at most one fragmentation attribute
/// (hierarchy level) per dimension, each with an attribute *range size*.
///
/// MDHF is a multi-dimensional hierarchical **range** fragmentation: every
/// fragmentation attribute groups `range` consecutive member values into
/// one fragment coordinate. The tool's evaluation space uses "point"
/// fragmentations (range = 1, the default); larger ranges are supported as
/// the general MDHF case. A range must divide the level's fan-out so
/// fragment boundaries never cross parent boundaries — this keeps the
/// query→fragment matching exact for coarser predicates.
///
/// The empty candidate (no attributes) models the unfragmented fact table —
/// a single fragment — and serves as the natural baseline. Attributes are
/// kept sorted by dimension id; that order also defines the logical
/// (mixed-radix) fragment order used by the round-robin allocator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fragmentation {
    attributes: Vec<LevelRef>,
    /// Range size per attribute, parallel to `attributes`; 1 = point.
    ranges: Vec<u64>,
}

impl Fragmentation {
    /// The unfragmented baseline candidate.
    pub fn none() -> Self {
        Self {
            attributes: Vec::new(),
            ranges: Vec::new(),
        }
    }

    /// Builds a point candidate from fragmentation attributes.
    ///
    /// # Errors
    ///
    /// [`CandidateError::DuplicateDimension`] if two attributes reference
    /// the same dimension.
    pub fn new(attributes: Vec<LevelRef>) -> Result<Self, CandidateError> {
        let ranges = vec![1; attributes.len()];
        Self::new_ranged(attributes, ranges)
    }

    /// Builds a ranged candidate: one `(attribute, range)` pair per
    /// fragmentation dimension.
    ///
    /// # Errors
    ///
    /// [`CandidateError::DuplicateDimension`] on repeated dimensions;
    /// [`CandidateError::BadRange`] on a zero range (fan-out divisibility
    /// is checked against the schema in [`validate`](Self::validate)).
    pub fn new_ranged(attributes: Vec<LevelRef>, ranges: Vec<u64>) -> Result<Self, CandidateError> {
        assert_eq!(attributes.len(), ranges.len(), "one range per attribute");
        let mut paired: Vec<(LevelRef, u64)> = attributes.into_iter().zip(ranges).collect();
        paired.sort_by_key(|&(r, _)| r);
        for pair in paired.windows(2) {
            if pair[0].0.dimension == pair[1].0.dimension {
                return Err(CandidateError::DuplicateDimension {
                    dimension: pair[0].0.dimension,
                });
            }
        }
        for &(level_ref, range) in &paired {
            if range == 0 {
                return Err(CandidateError::BadRange {
                    level_ref,
                    range,
                    fanout: 0,
                });
            }
        }
        let (attributes, ranges) = paired.into_iter().unzip();
        Ok(Self { attributes, ranges })
    }

    /// Trusted constructor for the enumeration engine: `attributes`
    /// must already be sorted by dimension with no duplicates, one
    /// positive range per attribute.
    pub(crate) fn from_parts(attributes: Vec<LevelRef>, ranges: Vec<u64>) -> Self {
        debug_assert_eq!(attributes.len(), ranges.len());
        debug_assert!(attributes
            .windows(2)
            .all(|w| w[0].dimension < w[1].dimension));
        Self { attributes, ranges }
    }

    /// Convenience constructor from `(dimension, level)` index pairs
    /// (point fragmentation).
    pub fn from_pairs(pairs: &[(u16, u16)]) -> Result<Self, CandidateError> {
        Self::new(pairs.iter().map(|&(d, l)| LevelRef::new(d, l)).collect())
    }

    /// Convenience constructor from `(dimension, level, range)` triples.
    pub fn from_ranged_pairs(pairs: &[(u16, u16, u64)]) -> Result<Self, CandidateError> {
        Self::new_ranged(
            pairs.iter().map(|&(d, l, _)| LevelRef::new(d, l)).collect(),
            pairs.iter().map(|&(_, _, r)| r).collect(),
        )
    }

    /// The fragmentation attributes, sorted by dimension.
    #[inline]
    pub fn attributes(&self) -> &[LevelRef] {
        &self.attributes
    }

    /// Range sizes, parallel to [`attributes`](Self::attributes).
    #[inline]
    pub fn ranges(&self) -> &[u64] {
        &self.ranges
    }

    /// Whether every attribute is a point attribute (range 1).
    pub fn is_point(&self) -> bool {
        self.ranges.iter().all(|&r| r == 1)
    }

    /// A borrowed view of the candidate's digits.
    #[inline]
    pub fn digits(&self) -> Digits<'_> {
        Digits {
            attributes: &self.attributes,
            ranges: &self.ranges,
        }
    }

    /// Effective fragment-coordinate cardinality of attribute `i`:
    /// `cardinality(level) / range`.
    pub fn effective_cardinality(&self, schema: &StarSchema, i: usize) -> u64 {
        self.digits().effective_cardinality(schema, i)
    }

    /// Effective cardinality of the attribute on `dimension`, if that
    /// dimension is part of the candidate.
    pub fn effective_cardinality_on(
        &self,
        schema: &StarSchema,
        dimension: DimensionId,
    ) -> Option<u64> {
        self.attributes
            .iter()
            .position(|r| r.dimension == dimension)
            .map(|i| self.effective_cardinality(schema, i))
    }

    /// Number of fragmentation dimensions.
    #[inline]
    pub fn dimensionality(&self) -> usize {
        self.attributes.len()
    }

    /// Whether this is the unfragmented baseline.
    #[inline]
    pub fn is_none(&self) -> bool {
        self.attributes.is_empty()
    }

    /// The fragmentation level on `dimension`, if that dimension is part of
    /// the candidate.
    pub fn level_on(&self, dimension: DimensionId) -> Option<LevelId> {
        self.attributes
            .iter()
            .find(|r| r.dimension == dimension)
            .map(|r| r.level)
    }

    /// Validates the attributes (and range divisibility) against a schema.
    pub fn validate(&self, schema: &StarSchema) -> Result<(), CandidateError> {
        self.digits().validate(schema)
    }

    /// Total number of fragments: the product of *effective*
    /// fragmentation-attribute cardinalities (1 for the unfragmented
    /// baseline). Computed in `u128` because full bottom-level cross
    /// products overflow 64 bits only in pathological schemas, but can
    /// still be very large.
    pub fn num_fragments(&self, schema: &StarSchema) -> u128 {
        self.digits().num_fragments(schema)
    }

    /// Human-readable label like `product.class × time.month`; ranged
    /// attributes carry a `[r=N]` suffix.
    pub fn label(&self, schema: &StarSchema) -> String {
        if self.is_none() {
            return "(unfragmented)".to_owned();
        }
        let parts: Vec<String> = self
            .attributes
            .iter()
            .zip(&self.ranges)
            .map(|(&r, &range)| {
                let d = schema.dimension(r.dimension).expect("validated");
                let l = d.level(r.level).expect("validated");
                if range == 1 {
                    format!("{}.{}", d.name(), l.name())
                } else {
                    format!("{}.{}[r={range}]", d.name(), l.name())
                }
            })
            .collect();
        parts.join(" × ")
    }
}

/// A borrowed view of one candidate's digits: its fragmentation
/// attributes, sorted by dimension, and their range sizes. What a
/// [`Fragmentation`] holds, without owning it, so a pipeline can test,
/// count and lay out a candidate it keeps in a shared buffer (see
/// [`DigitChunk`](crate::DigitChunk)) and build the owned
/// [`Fragmentation`] only for the few it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digits<'a> {
    attributes: &'a [LevelRef],
    ranges: &'a [u64],
}

impl<'a> Digits<'a> {
    /// A view of `attributes` (sorted by dimension, no duplicates) and
    /// their range sizes, one per attribute.
    pub(crate) fn new(attributes: &'a [LevelRef], ranges: &'a [u64]) -> Self {
        debug_assert_eq!(attributes.len(), ranges.len());
        Self { attributes, ranges }
    }

    /// The fragmentation attributes, sorted by dimension.
    #[inline]
    pub(crate) fn attributes(self) -> &'a [LevelRef] {
        self.attributes
    }

    /// The owned candidate.
    pub(crate) fn to_fragmentation(self) -> Fragmentation {
        Fragmentation::from_parts(self.attributes.to_vec(), self.ranges.to_vec())
    }

    /// See [`Fragmentation::effective_cardinality`].
    pub(crate) fn effective_cardinality(self, schema: &StarSchema, i: usize) -> u64 {
        let card = schema
            .cardinality(self.attributes[i])
            .expect("validated candidate");
        card / self.ranges[i]
    }

    /// See [`Fragmentation::validate`].
    pub(crate) fn validate(self, schema: &StarSchema) -> Result<(), CandidateError> {
        for (&r, &range) in self.attributes.iter().zip(self.ranges) {
            let Ok(dim) = schema.dimension(r.dimension) else {
                return Err(CandidateError::UnknownAttribute { level_ref: r });
            };
            if dim.level(r.level).is_err() {
                return Err(CandidateError::UnknownAttribute { level_ref: r });
            }
            let fanout = dim.fanout(r.level).expect("level exists");
            if range == 0 || !fanout.is_multiple_of(range) {
                return Err(CandidateError::BadRange {
                    level_ref: r,
                    range,
                    fanout,
                });
            }
        }
        Ok(())
    }

    /// See [`Fragmentation::num_fragments`].
    pub fn num_fragments(self, schema: &StarSchema) -> u128 {
        self.attributes
            .iter()
            .zip(self.ranges)
            .map(|(&r, &range)| {
                (schema.cardinality(r).expect("validated candidate") / range) as u128
            })
            .product()
    }
}

impl fmt::Display for Fragmentation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "(unfragmented)");
        }
        let parts: Vec<String> = self
            .attributes
            .iter()
            .zip(&self.ranges)
            .map(|(r, &range)| {
                if range == 1 {
                    r.to_string()
                } else {
                    format!("{r}r{range}")
                }
            })
            .collect();
        write!(f, "{}", parts.join("x"))
    }
}

/// Enumerates every "point" fragmentation candidate of `schema` with at
/// most `max_dimensionality` fragmentation dimensions, including the
/// unfragmented baseline.
///
/// For each dimension the choice is "not used" or one of its levels, so the
/// full space has `Π (depth(d) + 1)` candidates; `max_dimensionality`
/// trims deep combinations. The evaluation space deliberately contains only
/// point fragmentations (attribute range size = 1), "which keeps enough
/// potential to achieve a sufficient number of fragments" (§3.2).
///
/// This is a thin materializing wrapper over the lazy
/// [`CandidateSource::point`](crate::CandidateSource::point) generator —
/// use the source directly when the space may be large.
pub fn enumerate_candidates(schema: &StarSchema, max_dimensionality: usize) -> Vec<Fragmentation> {
    crate::CandidateSource::point(schema, max_dimensionality).collect()
}

/// Enumerates fragmentation candidates including *ranged* attributes: for
/// every point candidate of [`enumerate_candidates`], additionally tries
/// each range size from `range_options` on every attribute whose fan-out it
/// divides (ranges equal to the full fan-out are skipped — they duplicate
/// fragmenting on the parent level).
///
/// The point-only space is the paper's default; this is the general-MDHF
/// extension for schemas whose hierarchies are too coarse-grained between
/// adjacent levels.
///
/// This is a thin materializing wrapper over the lazy
/// [`CandidateSource::ranged`](crate::CandidateSource::ranged) generator —
/// use the source directly when the space may be large.
pub fn enumerate_candidates_ranged(
    schema: &StarSchema,
    max_dimensionality: usize,
    range_options: &[u64],
) -> Vec<Fragmentation> {
    crate::CandidateSource::ranged(schema, max_dimensionality, range_options).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use warlock_schema::{apb1_like_schema, Apb1Config};

    fn schema() -> StarSchema {
        apb1_like_schema(Apb1Config::default()).unwrap()
    }

    #[test]
    fn construction_sorts_and_rejects_duplicates() {
        let f = Fragmentation::from_pairs(&[(2, 1), (0, 4)]).unwrap();
        assert_eq!(f.attributes(), &[LevelRef::new(0, 4), LevelRef::new(2, 1)]);
        let err = Fragmentation::from_pairs(&[(0, 1), (0, 2)]).unwrap_err();
        assert!(matches!(err, CandidateError::DuplicateDimension { .. }));
    }

    #[test]
    fn baseline_candidate() {
        let f = Fragmentation::none();
        assert!(f.is_none());
        assert_eq!(f.dimensionality(), 0);
        assert_eq!(f.num_fragments(&schema()), 1);
        assert_eq!(f.label(&schema()), "(unfragmented)");
    }

    #[test]
    fn num_fragments_is_cardinality_product() {
        let s = schema();
        // product.class (900) × time.month (24)
        let f = Fragmentation::from_pairs(&[(0, 4), (2, 2)]).unwrap();
        assert_eq!(f.num_fragments(&s), 900 * 24);
        assert_eq!(f.label(&s), "product.class × time.month");
    }

    #[test]
    fn level_lookup() {
        let f = Fragmentation::from_pairs(&[(0, 4), (2, 2)]).unwrap();
        assert_eq!(f.level_on(DimensionId(0)), Some(LevelId(4)));
        assert_eq!(f.level_on(DimensionId(1)), None);
    }

    #[test]
    fn validate_against_schema() {
        let s = schema();
        assert!(Fragmentation::from_pairs(&[(0, 5)])
            .unwrap()
            .validate(&s)
            .is_ok());
        assert!(Fragmentation::from_pairs(&[(0, 6)])
            .unwrap()
            .validate(&s)
            .is_err());
        assert!(Fragmentation::from_pairs(&[(9, 0)])
            .unwrap()
            .validate(&s)
            .is_err());
    }

    #[test]
    fn enumeration_counts() {
        let s = schema();
        // (6+1)(2+1)(3+1)(1+1) = 168 candidates including the baseline.
        let all = enumerate_candidates(&s, 4);
        assert_eq!(all.len(), 7 * 3 * 4 * 2);
        // Exactly one baseline.
        assert_eq!(all.iter().filter(|f| f.is_none()).count(), 1);
        // All unique.
        let mut set = std::collections::HashSet::new();
        for f in &all {
            assert!(set.insert(f.clone()), "duplicate candidate {f}");
        }
        // All valid.
        for f in &all {
            f.validate(&s).unwrap();
        }
    }

    #[test]
    fn enumeration_respects_max_dimensionality() {
        let s = schema();
        let shallow = enumerate_candidates(&s, 1);
        // baseline + Σ depth(d) = 1 + 6 + 2 + 3 + 1 = 13
        assert_eq!(shallow.len(), 13);
        assert!(shallow.iter().all(|f| f.dimensionality() <= 1));

        let two = enumerate_candidates(&s, 2);
        assert!(two.iter().all(|f| f.dimensionality() <= 2));
        // 1 + 12 + (6*2 + 6*3 + 6*1 + 2*3 + 2*1 + 3*1) = 1 + 12 + 47 = 60
        assert_eq!(two.len(), 60);
    }

    #[test]
    fn display_and_label() {
        let s = schema();
        let f = Fragmentation::from_pairs(&[(1, 0), (3, 0)]).unwrap();
        assert_eq!(f.to_string(), "d1.l0xd3.l0");
        assert_eq!(f.label(&s), "customer.retailer × channel.base");
    }

    #[test]
    fn enumeration_zero_dimensionality_is_baseline_only() {
        let s = schema();
        let none = enumerate_candidates(&s, 0);
        assert_eq!(none.len(), 1);
        assert!(none[0].is_none());
    }

    #[test]
    fn ranged_candidate_basics() {
        let s = schema();
        // time.month with range 3 → 8 effective coordinates ( = quarters).
        let f = Fragmentation::from_ranged_pairs(&[(2, 2, 3)]).unwrap();
        f.validate(&s).unwrap();
        assert!(!f.is_point());
        assert_eq!(f.num_fragments(&s), 8);
        assert_eq!(f.effective_cardinality(&s, 0), 8);
        assert_eq!(f.effective_cardinality_on(&s, DimensionId(2)), Some(8));
        assert_eq!(f.label(&s), "time.month[r=3]");
        assert_eq!(f.to_string(), "d2.l2r3");
    }

    #[test]
    fn point_candidates_report_as_point() {
        let f = Fragmentation::from_pairs(&[(2, 2)]).unwrap();
        assert!(f.is_point());
        assert_eq!(f.ranges(), &[1]);
    }

    #[test]
    fn range_must_divide_fanout() {
        let s = schema();
        // month fan-out within quarter is 3; range 2 does not divide it.
        let f = Fragmentation::from_ranged_pairs(&[(2, 2, 2)]).unwrap();
        assert!(matches!(
            f.validate(&s).unwrap_err(),
            CandidateError::BadRange { .. }
        ));
        // Zero range rejected at construction.
        assert!(matches!(
            Fragmentation::from_ranged_pairs(&[(2, 2, 0)]).unwrap_err(),
            CandidateError::BadRange { .. }
        ));
        // product.code fan-out is 10: ranges 2, 5, 10 divide it.
        for r in [2u64, 5, 10] {
            let f = Fragmentation::from_ranged_pairs(&[(0, 5, r)]).unwrap();
            f.validate(&s).unwrap();
            assert_eq!(f.num_fragments(&s), (9000 / r) as u128);
        }
    }

    #[test]
    fn full_fanout_range_equals_parent_level_cardinality() {
        let s = schema();
        // code[r=10] has the same effective coordinates as class.
        let ranged = Fragmentation::from_ranged_pairs(&[(0, 5, 10)]).unwrap();
        let parent = Fragmentation::from_pairs(&[(0, 4)]).unwrap();
        assert_eq!(ranged.num_fragments(&s), parent.num_fragments(&s));
    }

    #[test]
    fn ranged_enumeration_extends_the_point_space() {
        let s = schema();
        let points = enumerate_candidates(&s, 2);
        let ranged = enumerate_candidates_ranged(&s, 2, &[2, 3, 5]);
        assert!(ranged.len() > points.len());
        // Every point candidate is present.
        for p in &points {
            assert!(ranged.contains(p), "missing point candidate {p}");
        }
        // Every enumerated candidate validates (divisibility respected).
        for c in &ranged {
            c.validate(&s).unwrap();
        }
        // Exactly one baseline.
        assert_eq!(ranged.iter().filter(|c| c.is_none()).count(), 1);
    }
}
