//! Derived fragment structure of one candidate: counts, logical order and
//! sizes.

use crate::{Digits, Fragmentation};
use warlock_schema::StarSchema;
use warlock_skew::SkewModel;

/// Reusable construction buffers for [`FragmentLayout`].
///
/// Chunked evaluation builds and discards one layout per candidate; with
/// a scratch arena the radix and stride vectors are recycled instead of
/// re-allocated — [`FragmentLayout::new_in`] moves the buffers out of the
/// scratch and [`FragmentLayout::recycle`] hands them back (capacity
/// kept), so a worker that owns one `LayoutScratch` for its lifetime
/// builds layouts with zero steady-state heap traffic.
#[derive(Debug, Default)]
pub struct LayoutScratch {
    radices: Vec<u64>,
    strides: Vec<u64>,
}

impl LayoutScratch {
    /// An empty scratch; buffers grow on first use and are kept after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the buffered state, keeping capacity. Called on entry by
    /// [`FragmentLayout::new_in`], so stale values from a previous
    /// candidate can never leak into the next layout.
    pub fn reset(&mut self) {
        self.radices.clear();
        self.strides.clear();
    }
}

/// The materialized structure of one fragmentation applied to one fact
/// table: the mixed-radix fragment coordinate space, the logical fragment
/// order used by the round-robin allocator, and fragment sizes under
/// uniform or skewed member distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentLayout {
    fragmentation: Fragmentation,
    /// Cardinality of each fragmentation attribute (sorted by dimension).
    radices: Vec<u64>,
    /// Mixed-radix strides: `strides[i] = Π radices[i+1..]`.
    strides: Vec<u64>,
    num_fragments: u64,
    fact_rows: u64,
}

impl FragmentLayout {
    /// Computes the layout of `fragmentation` on fact table `fact_index`.
    ///
    /// # Panics
    ///
    /// Panics if the candidate does not validate against the schema or the
    /// fragment count overflows `u64` (the thresholds layer excludes such
    /// candidates long before a layout is materialized).
    pub fn new(schema: &StarSchema, fragmentation: Fragmentation, fact_index: usize) -> Self {
        let mut scratch = LayoutScratch::new();
        Self::new_in(&mut scratch, schema, fragmentation, fact_index)
    }

    /// Like [`new`](Self::new), but builds the radix/stride vectors into
    /// buffers recycled from `scratch` instead of fresh allocations. Pair
    /// with [`recycle`](Self::recycle) to return the buffers once the
    /// layout is consumed.
    ///
    /// # Panics
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn new_in(
        scratch: &mut LayoutScratch,
        schema: &StarSchema,
        fragmentation: Fragmentation,
        fact_index: usize,
    ) -> Self {
        let mut layout = Self::build(scratch, schema, fragmentation.digits(), fact_index);
        layout.fragmentation = fragmentation;
        layout
    }

    /// Like [`new_in`](Self::new_in), but for a candidate held as a
    /// borrowed [`Digits`] view: the layout's owned [`Fragmentation`]
    /// is built from the view, once its structure checked out.
    ///
    /// # Panics
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn new_in_digits(
        scratch: &mut LayoutScratch,
        schema: &StarSchema,
        digits: Digits<'_>,
        fact_index: usize,
    ) -> Self {
        let mut layout = Self::build(scratch, schema, digits, fact_index);
        layout.fragmentation = digits.to_fragmentation();
        layout
    }

    /// The layout of `digits`, holding the baseline (no heap object) in
    /// place of its owned candidate.
    fn build(
        scratch: &mut LayoutScratch,
        schema: &StarSchema,
        digits: Digits<'_>,
        fact_index: usize,
    ) -> Self {
        digits
            .validate(schema)
            .expect("fragmentation must validate against the schema");
        scratch.reset();
        let mut radices = std::mem::take(&mut scratch.radices);
        radices.extend(
            (0..digits.attributes().len()).map(|i| digits.effective_cardinality(schema, i)),
        );
        let total: u128 = radices.iter().map(|&r| r as u128).product();
        assert!(
            total <= u64::MAX as u128,
            "fragment count {total} overflows u64"
        );
        let mut strides = std::mem::take(&mut scratch.strides);
        strides.resize(radices.len(), 1u64);
        for i in (0..radices.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * radices[i + 1];
        }
        Self {
            fragmentation: Fragmentation::none(),
            radices,
            strides,
            num_fragments: total as u64,
            fact_rows: schema.fact_rows(fact_index),
        }
    }

    /// Consumes the layout, returning its buffers to `scratch` (capacity
    /// preserved for the next [`new_in`](Self::new_in)) and handing the
    /// owned [`Fragmentation`] back to the caller — batch evaluation moves
    /// it straight into the output instead of cloning.
    pub fn recycle(self, scratch: &mut LayoutScratch) -> Fragmentation {
        scratch.radices = self.radices;
        scratch.strides = self.strides;
        scratch.reset();
        self.fragmentation
    }

    /// The candidate this layout belongs to.
    #[inline]
    pub fn fragmentation(&self) -> &Fragmentation {
        &self.fragmentation
    }

    /// Total number of fragments (1 for the unfragmented baseline).
    #[inline]
    pub fn num_fragments(&self) -> u64 {
        self.num_fragments
    }

    /// Fact rows covered by the layout.
    #[inline]
    pub fn fact_rows(&self) -> u64 {
        self.fact_rows
    }

    /// Per-attribute cardinalities, in attribute (dimension) order.
    #[inline]
    pub fn radices(&self) -> &[u64] {
        &self.radices
    }

    /// Logical fragment index of a coordinate vector (one value ordinal per
    /// fragmentation attribute, in attribute order).
    pub fn index_of(&self, coords: &[u64]) -> u64 {
        assert_eq!(coords.len(), self.radices.len(), "coordinate arity");
        coords
            .iter()
            .zip(&self.radices)
            .zip(&self.strides)
            .map(|((&c, &r), &s)| {
                assert!(c < r, "coordinate {c} out of radix {r}");
                c * s
            })
            .sum()
    }

    /// Coordinate vector of a logical fragment index.
    pub fn coords_of(&self, mut index: u64) -> Vec<u64> {
        assert!(index < self.num_fragments, "fragment index out of range");
        let mut coords = Vec::with_capacity(self.radices.len());
        for &s in &self.strides {
            coords.push(index / s);
            index %= s;
        }
        coords
    }

    /// Average fragment rows under the uniform distribution.
    #[inline]
    pub fn uniform_rows_per_fragment(&self) -> f64 {
        self.fact_rows as f64 / self.num_fragments as f64
    }

    /// Normalized fragment weights under `skew`: the product of the
    /// per-dimension member weights aggregated to each fragmentation level.
    ///
    /// Materializes one `f64` per fragment; callers must gate on
    /// [`num_fragments`](Self::num_fragments) (the thresholds layer caps it).
    pub fn fragment_weights(&self, schema: &StarSchema, skew: &SkewModel) -> Vec<f64> {
        let n = self.num_fragments as usize;
        if self.radices.is_empty() {
            return vec![1.0];
        }
        // Per-attribute aggregated weights at the *effective* granularity
        // (ranged attributes aggregate `range` consecutive members).
        let per_dim: Vec<Vec<f64>> = self
            .fragmentation
            .attributes()
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let effective = self.fragmentation.effective_cardinality(schema, i);
                skew.level_weights(r.dimension.index(), effective)
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        let mut coords = vec![0u64; self.radices.len()];
        for _ in 0..n {
            let w: f64 = coords
                .iter()
                .zip(&per_dim)
                .map(|(&c, weights)| weights[c as usize])
                .product();
            out.push(w);
            // Odometer increment in logical order.
            for pos in (0..coords.len()).rev() {
                coords[pos] += 1;
                if coords[pos] < self.radices[pos] {
                    break;
                }
                coords[pos] = 0;
            }
        }
        out
    }

    /// Fragment row counts under `skew`, apportioned so they sum exactly to
    /// the fact row count (largest-remainder rounding).
    pub fn fragment_rows(&self, schema: &StarSchema, skew: &SkewModel) -> Vec<u64> {
        apportion(self.fact_rows, &self.fragment_weights(schema, skew))
    }
}

/// Splits `total` into integer parts proportional to `weights`, preserving
/// the exact total via largest-remainder rounding.
///
/// # Panics
///
/// Panics on an empty or non-positive weight vector.
pub fn apportion(total: u64, weights: &[f64]) -> Vec<u64> {
    assert!(!weights.is_empty(), "apportion needs at least one weight");
    let sum: f64 = weights.iter().sum();
    assert!(sum > 0.0, "apportion needs positive total weight");
    let mut parts: Vec<u64> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let exact = total as f64 * (w / sum);
        let floor = exact.floor() as u64;
        parts.push(floor);
        assigned += floor;
        remainders.push((i, exact - floor as f64));
    }
    let mut leftover = total - assigned;
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for (i, _) in remainders {
        if leftover == 0 {
            break;
        }
        parts[i] += 1;
        leftover -= 1;
    }
    parts
}

/// Extension trait connecting a [`StarSchema`] to a [`SkewModel`].
pub trait SkewModelExt {
    /// Builds a skew model whose bottom cardinalities follow the schema.
    fn skew_model(&self, configs: &[warlock_skew::DimensionSkew]) -> SkewModel;
    /// Builds the uniform skew model for the schema.
    fn uniform_skew_model(&self) -> SkewModel;
}

impl SkewModelExt for StarSchema {
    fn skew_model(&self, configs: &[warlock_skew::DimensionSkew]) -> SkewModel {
        let cards: Vec<u64> = self
            .dimensions()
            .iter()
            .map(|d| d.bottom().cardinality())
            .collect();
        SkewModel::new(&cards, configs)
    }

    fn uniform_skew_model(&self) -> SkewModel {
        let cards: Vec<u64> = self
            .dimensions()
            .iter()
            .map(|d| d.bottom().cardinality())
            .collect();
        SkewModel::uniform(&cards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warlock_schema::{apb1_like_schema, Apb1Config};
    use warlock_skew::DimensionSkew;

    fn schema() -> StarSchema {
        apb1_like_schema(Apb1Config::default()).unwrap()
    }

    fn layout(pairs: &[(u16, u16)]) -> FragmentLayout {
        FragmentLayout::new(&schema(), Fragmentation::from_pairs(pairs).unwrap(), 0)
    }

    #[test]
    fn baseline_layout_is_single_fragment() {
        let l = FragmentLayout::new(&schema(), Fragmentation::none(), 0);
        assert_eq!(l.num_fragments(), 1);
        assert_eq!(l.coords_of(0), Vec::<u64>::new());
        assert_eq!(l.index_of(&[]), 0);
        assert_eq!(l.uniform_rows_per_fragment(), l.fact_rows() as f64);
    }

    #[test]
    fn mixed_radix_round_trip() {
        // product.division (5) × time.quarter (8)
        let l = layout(&[(0, 0), (2, 1)]);
        assert_eq!(l.num_fragments(), 40);
        assert_eq!(l.radices(), &[5, 8]);
        for idx in 0..40 {
            let coords = l.coords_of(idx);
            assert_eq!(l.index_of(&coords), idx);
        }
        // Logical order: dim 0 outermost.
        assert_eq!(l.coords_of(0), vec![0, 0]);
        assert_eq!(l.coords_of(7), vec![0, 7]);
        assert_eq!(l.coords_of(8), vec![1, 0]);
        assert_eq!(l.coords_of(39), vec![4, 7]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coords_of_rejects_overflow() {
        let l = layout(&[(0, 0)]);
        let _ = l.coords_of(5);
    }

    #[test]
    #[should_panic(expected = "out of radix")]
    fn index_of_rejects_bad_coordinate() {
        let l = layout(&[(0, 0)]);
        let _ = l.index_of(&[5]);
    }

    #[test]
    fn uniform_weights_are_equal_and_sum_to_one() {
        let s = schema();
        let l = layout(&[(0, 0), (3, 0)]); // 5 × 9 = 45 fragments
        let w = l.fragment_weights(&s, &s.uniform_skew_model());
        assert_eq!(w.len(), 45);
        for &x in &w {
            assert!((x - 1.0 / 45.0).abs() < 1e-12);
        }
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_weights_follow_zipf_products() {
        let s = schema();
        let skew = s.skew_model(&[
            DimensionSkew::zipf(1.0),
            DimensionSkew::UNIFORM,
            DimensionSkew::UNIFORM,
            DimensionSkew::UNIFORM,
        ]);
        let l = layout(&[(0, 0), (2, 0)]); // division (5) × year (2)
        let w = l.fragment_weights(&s, &skew);
        assert_eq!(w.len(), 10);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Division 0 aggregates the heaviest zipf members → its fragments
        // outweigh division 4's.
        assert!(w[0] > w[8]);
        // Uniform time dimension: the two fragments of one division tie.
        assert!((w[0] - w[1]).abs() < 1e-12);
    }

    #[test]
    fn fragment_rows_conserve_total() {
        let s = schema();
        let skew = s.skew_model(&[
            DimensionSkew::zipf(0.8),
            DimensionSkew::zipf(0.5),
            DimensionSkew::UNIFORM,
            DimensionSkew::UNIFORM,
        ]);
        let l = layout(&[(0, 1), (1, 0)]); // line (15) × retailer (90)
        let rows = l.fragment_rows(&s, &skew);
        assert_eq!(rows.len(), 15 * 90);
        assert_eq!(rows.iter().sum::<u64>(), s.fact_rows(0));
    }

    #[test]
    fn ranged_layout_matches_parent_level_under_skew() {
        let s = schema();
        let skew = s.skew_model(&[
            DimensionSkew::zipf(0.9),
            DimensionSkew::UNIFORM,
            DimensionSkew::UNIFORM,
            DimensionSkew::UNIFORM,
        ]);
        let ranged = FragmentLayout::new(
            &s,
            Fragmentation::from_ranged_pairs(&[(0, 5, 10)]).unwrap(),
            0,
        );
        let parent = FragmentLayout::new(&s, Fragmentation::from_pairs(&[(0, 4)]).unwrap(), 0);
        assert_eq!(ranged.num_fragments(), parent.num_fragments());
        // Identical skewed weights: grouping 10 codes equals one class.
        let wr = ranged.fragment_weights(&s, &skew);
        let wp = parent.fragment_weights(&s, &skew);
        for (a, b) in wr.iter().zip(&wp) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn ranged_layout_intermediate_radix() {
        let s = schema();
        // month[r=3] × channel: radices 8 × 9.
        let l = FragmentLayout::new(
            &s,
            Fragmentation::from_ranged_pairs(&[(2, 2, 3), (3, 0, 1)]).unwrap(),
            0,
        );
        assert_eq!(l.radices(), &[8, 9]);
        assert_eq!(l.num_fragments(), 72);
        assert_eq!(l.coords_of(9), vec![1, 0]);
    }

    #[test]
    fn apportion_preserves_total_and_proportions() {
        let parts = apportion(100, &[1.0, 1.0, 2.0]);
        assert_eq!(parts.iter().sum::<u64>(), 100);
        assert_eq!(parts, vec![25, 25, 50]);

        let parts = apportion(10, &[1.0, 1.0, 1.0]);
        assert_eq!(parts.iter().sum::<u64>(), 10);
        // Largest remainder: 3.33.. each; first two get the extra.
        assert_eq!(parts, vec![4, 3, 3]);

        let parts = apportion(0, &[1.0, 2.0]);
        assert_eq!(parts, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn apportion_rejects_empty() {
        let _ = apportion(10, &[]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_construction() {
        let s = schema();
        let mut scratch = LayoutScratch::new();
        // Candidates of decreasing then increasing arity: stale radices or
        // strides from a wider previous candidate must never leak.
        let candidates = [
            Fragmentation::from_pairs(&[(0, 0), (2, 1), (3, 0)]).unwrap(),
            Fragmentation::from_pairs(&[(1, 0)]).unwrap(),
            Fragmentation::none(),
            Fragmentation::from_ranged_pairs(&[(2, 2, 3), (3, 0, 1)]).unwrap(),
            Fragmentation::from_pairs(&[(0, 1), (1, 0)]).unwrap(),
        ];
        for frag in &candidates {
            let fresh = FragmentLayout::new(&s, frag.clone(), 0);
            let reused = FragmentLayout::new_in(&mut scratch, &s, frag.clone(), 0);
            assert_eq!(fresh, reused, "scratch-built layout diverged for {frag:?}");
            let back = reused.recycle(&mut scratch);
            assert_eq!(&back, frag, "recycle must return the same fragmentation");
        }
    }

    #[test]
    fn a_layout_of_digits_is_the_layout_of_the_candidate() {
        let s = schema();
        let mut scratch = LayoutScratch::new();
        for frag in [
            Fragmentation::from_pairs(&[(0, 0), (2, 1), (3, 0)]).unwrap(),
            Fragmentation::none(),
            Fragmentation::from_ranged_pairs(&[(2, 2, 3), (3, 0, 1)]).unwrap(),
        ] {
            let owned = FragmentLayout::new(&s, frag.clone(), 0);
            let viewed = FragmentLayout::new_in_digits(&mut scratch, &s, frag.digits(), 0);
            assert_eq!(owned, viewed);
            assert_eq!(viewed.recycle(&mut scratch), frag);
        }
    }

    #[test]
    fn recycle_keeps_buffer_capacity() {
        let s = schema();
        let mut scratch = LayoutScratch::new();
        let wide = Fragmentation::from_pairs(&[(0, 0), (1, 0), (2, 0), (3, 0)]).unwrap();
        let l = FragmentLayout::new_in(&mut scratch, &s, wide, 0);
        let _ = l.recycle(&mut scratch);
        assert!(scratch.radices.capacity() >= 4);
        assert!(scratch.strides.capacity() >= 4);
        assert!(scratch.radices.is_empty() && scratch.strides.is_empty());
    }

    #[test]
    fn schema_skew_model_helpers() {
        let s = schema();
        let uni = s.uniform_skew_model();
        assert_eq!(uni.num_dimensions(), 4);
        assert!(uni.is_uniform());
        assert_eq!(uni.bottom_weights(0).len(), 9000);
    }
}
