//! Collection strategies: random-length vectors and sets.

use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Ranges usable as collection-size specifications.
pub trait SizeRange {
    /// Draws a size from the range.
    fn pick_size(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn pick_size(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for Range<usize> {
    fn pick_size(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty size range");
        self.start + rng.below(self.end - self.start)
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn pick_size(&self, rng: &mut TestRng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty size range");
        lo + rng.below(hi - lo + 1)
    }
}

/// A strategy for `Vec<S::Value>` with a length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S, impl SizeRange> {
    VecStrategy { element, size }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S, R> {
    element: S,
    size: R,
}

impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
    type Value = Vec<S::Value>;

    fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick_size(rng);
        (0..n).map(|_| self.element.pick(rng)).collect()
    }
}

/// A strategy for `BTreeSet<S::Value>` with a target size drawn from
/// `size`. Collisions may yield a smaller set (as in real proptest when
/// the element domain is small).
pub fn btree_set<S>(element: S, size: impl SizeRange) -> BTreeSetStrategy<S, impl SizeRange>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy { element, size }
}

/// See [`btree_set`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S, R> {
    element: S,
    size: R,
}

impl<S, R> Strategy for BTreeSetStrategy<S, R>
where
    S: Strategy,
    S::Value: Ord,
    R: SizeRange,
{
    type Value = BTreeSet<S::Value>;

    fn pick(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let target = self.size.pick_size(rng);
        let mut out = BTreeSet::new();
        let mut attempts = 0usize;
        while out.len() < target && attempts < target.saturating_mul(16) + 64 {
            out.insert(self.element.pick(rng));
            attempts += 1;
        }
        out
    }
}
