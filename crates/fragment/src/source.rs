//! Lazy, resumable enumeration of fragmentation candidates:
//! [`CandidateSource`], whose docs give the enumeration order, and its
//! bounded walk ([`CandidateSource::bounded`]).

use warlock_schema::{LevelRef, StarSchema};

use crate::candidate::{CandidateError, Fragmentation};

/// A snapshot of a [`CandidateSource`]'s position: everything needed to
/// continue the enumeration where it stopped. Obtained from
/// [`CandidateSource::cursor`] and consumed by
/// [`CandidateSource::resume`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateCursor {
    /// Per-dimension digit: `None` = dimension unused, `Some(level)`.
    choices: Vec<Option<u16>>,
    /// Range-size counter per *used* dimension, in dimension order.
    range_counters: Vec<usize>,
    /// Candidates emitted (or stepped over) so far.
    emitted: u128,
    /// Whether the stream already ran dry.
    exhausted: bool,
    /// Whether the very first candidate (the baseline) was emitted.
    started: bool,
    /// Whether the walk stands on the whole subtree below its last used
    /// digit (see [`CandidateSource::stride`]) rather than on one
    /// candidate.
    pruned: bool,
}

impl CandidateCursor {
    /// Number of candidates emitted before this cursor position
    /// (saturating at `u64::MAX`).
    #[inline]
    pub fn position(&self) -> u64 {
        u64::try_from(self.emitted).unwrap_or(u64::MAX)
    }
}

/// What one [`CandidateSource::stride`] stepped onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stride {
    /// One candidate, read with [`CandidateSource::current`].
    One,
    /// A whole subtree of this many candidates, every one with more
    /// fragments than the bound, none of them visited.
    Subtree(u128),
}

impl Stride {
    /// Candidates covered by the stride.
    #[inline]
    pub fn candidates(self) -> u128 {
        match self {
            Self::One => 1,
            Self::Subtree(size) => size,
        }
    }
}

/// A lazy generator over the fragmentation-candidate space of one
/// schema. Self-contained after construction (it captures the level
/// shape, not the schema), so it can outlive the schema borrow it was
/// built from.
///
/// The prediction pipeline used to materialize the whole candidate
/// space (`Vec<Fragmentation>`) before evaluating anything, which makes
/// memory and start-up latency O(candidate space) — exactly wrong for
/// the deep hierarchies and ranged enumeration where WARLOCK should
/// shine. [`CandidateSource`] generates the same candidates **in the
/// same order** one at a time, so a streaming pipeline can pull
/// fixed-size chunks and keep memory bounded by the chunk size.
///
/// One odometer engine drives both generators:
///
/// * **point** candidates (range size 1 everywhere, the paper's §3.2
///   evaluation space) — for each dimension the digit is "unused" or
///   one of its levels, pruned to at most `max_dimensionality` used
///   dimensions;
/// * **ranged** candidates (the general-MDHF extension) — every point
///   candidate is additionally crossed with each admissible range size
///   per attribute (sizes from `range_options` that divide the level's
///   fan-out, the full fan-out excluded as it duplicates the parent
///   level).
///
/// The enumeration order is identical to the historical recursive
/// `enumerate_candidates` / `enumerate_candidates_ranged`: dimension 0
/// is the most significant digit, "unused" sorts before the levels, and
/// range counters spin fastest on the last attribute. Reports built on
/// either path are therefore bit-identical.
///
/// [`space_size`](CandidateSource::space_size) predicts the exact
/// number of candidates without generating any (a per-dimension
/// dynamic program over the used-dimension count), and
/// [`cursor`](CandidateSource::cursor)/[`resume`](CandidateSource::resume)
/// snapshot and restore the generator state, so enumeration can be
/// paused, persisted and continued elsewhere.
#[derive(Debug, Clone)]
pub struct CandidateSource {
    max_dimensionality: usize,
    /// Admissible range sizes per `(dimension, level)`, smallest list
    /// `[1]` for point enumeration. `sizes[d][l][0]` is always `1`.
    sizes: Vec<Vec<Vec<u64>>>,
    /// Smallest fragment-count factor per `(dimension, level)`: its
    /// cardinality over its largest admissible range size.
    floors: Vec<Vec<u64>>,
    /// `completions[d][u]`: the candidates over dimensions `d..` (range
    /// combinations included) that complete a prefix using `u`
    /// dimensions under the cap. `completions[0][0]` is the space.
    completions: Vec<Vec<u128>>,
    /// Whether some candidate's fragment count exceeds `u64::MAX`.
    overflows: bool,
    /// The fragment bound [`Self::stride`] prunes subtrees over.
    bound: Option<u64>,
    cursor: CandidateCursor,
}

impl CandidateSource {
    /// A source over every *point* candidate (range size 1), the
    /// paper's default evaluation space. Same candidates and order as
    /// [`crate::enumerate_candidates`].
    pub fn point(schema: &StarSchema, max_dimensionality: usize) -> Self {
        Self::ranged(schema, max_dimensionality, &[])
    }

    /// A source over the ranged candidate space: every point candidate
    /// crossed with each admissible range size from `range_options`.
    /// Same candidates and order as
    /// [`crate::enumerate_candidates_ranged`]; an empty option list
    /// degenerates to the point space.
    pub fn ranged(schema: &StarSchema, max_dimensionality: usize, range_options: &[u64]) -> Self {
        let cardinality = |d: usize, level: usize| {
            schema
                .cardinality(LevelRef::new(d as u16, level as u16))
                .expect("level exists")
        };
        let sizes: Vec<Vec<Vec<u64>>> = schema
            .dimensions()
            .iter()
            .map(|dim| {
                (0..dim.depth())
                    .map(|level| {
                        let fanout = dim
                            .fanout(warlock_schema::LevelId(level as u16))
                            .expect("level exists");
                        let mut sizes = vec![1u64];
                        for &opt in range_options {
                            if opt > 1 && opt < fanout && fanout.is_multiple_of(opt) {
                                sizes.push(opt);
                            }
                        }
                        sizes
                    })
                    .collect()
            })
            .collect();
        let floors = sizes
            .iter()
            .enumerate()
            .map(|(d, levels)| {
                levels
                    .iter()
                    .enumerate()
                    .map(|(l, sizes)| cardinality(d, l) / sizes.iter().copied().max().unwrap_or(1))
                    .collect()
            })
            .collect();
        // The largest count any candidate reaches: the `cap` largest
        // per-dimension cardinalities at range size 1.
        let mut widest: Vec<u128> = sizes
            .iter()
            .enumerate()
            .map(|(d, levels)| {
                (0..levels.len())
                    .map(|l| u128::from(cardinality(d, l)))
                    .max()
                    .unwrap_or(1)
            })
            .collect();
        widest.sort_unstable_by(|a, b| b.cmp(a));
        let largest = widest
            .iter()
            .take(max_dimensionality)
            .fold(1u128, |acc, &c| acc.saturating_mul(c));
        let completions = completions(&sizes, max_dimensionality);
        Self {
            max_dimensionality,
            floors,
            completions,
            overflows: largest > u128::from(u64::MAX),
            bound: None,
            cursor: CandidateCursor {
                choices: vec![None; sizes.len()],
                range_counters: Vec::new(),
                emitted: 0,
                exhausted: false,
                started: false,
                pruned: false,
            },
            sizes,
        }
    }

    /// This source with [`Self::stride`] stepping over every subtree
    /// whose candidates all have more than `max_fragments` fragments.
    /// Has no effect on a space where some candidate's count exceeds
    /// `u64::MAX`.
    ///
    /// # The bounded walk
    ///
    /// A candidate's fragment count is a product of one factor per used
    /// attribute, `cardinality / range size`, each at least 1. So once the
    /// point digits set so far force a count above a fragment bound, every
    /// candidate sharing those digits — whatever the later digits and the
    /// range sizes — is over it too. A source given a bound (this
    /// method) lets [`stride`](CandidateSource::stride) step over such a
    /// subtree whole: when a point digit moves, it multiplies, over the
    /// used digits, each level's cardinality divided by its largest
    /// admissible range size,
    /// and if that exceeds the bound it stands on the subtree instead of
    /// its first candidate and reports the subtree's exact size (the same
    /// dynamic program as `space_size`, started at the next digit). Range
    /// counter steps are never checked. Pruning is off when some candidate
    /// of the space has a count beyond `u64`, so every candidate of a
    /// skipped subtree is over the bound for the same reason. The decision
    /// depends only on the schema, the dimensionality cap, the range
    /// options and the bound, and a prefix is pruned at the same digit
    /// under any cap. The position — candidate or subtree — lives in the
    /// [`CandidateCursor`], so a bounded walk resumes like any other. The
    /// `Iterator` impl always walks unpruned.
    #[must_use]
    pub fn bounded(mut self, max_fragments: u64) -> Self {
        self.bound = (!self.overflows).then_some(max_fragments);
        self
    }

    /// Continues an enumeration from a saved [`CandidateCursor`]. The
    /// source must be rebuilt with the **same** schema, dimensionality
    /// cap and range options the cursor was taken under (and given the
    /// same [`bound`](Self::bounded) to continue a bounded walk); a
    /// cursor of the wrong shape is rejected.
    ///
    /// # Errors
    ///
    /// [`CandidateError::UnknownAttribute`] when the cursor references
    /// a dimension or level the schema does not have (including a
    /// digit-count mismatch), and [`CandidateError::ForeignCursor`]
    /// when it uses more dimensions than the cap, its range counters do
    /// not match its used dimensions or the admissible range sizes, or
    /// it stands on a subtree of no used dimension.
    pub fn resume(
        schema: &StarSchema,
        max_dimensionality: usize,
        range_options: &[u64],
        cursor: CandidateCursor,
    ) -> Result<Self, CandidateError> {
        let mut source = Self::ranged(schema, max_dimensionality, range_options);
        if cursor.choices.len() != schema.num_dimensions() {
            return Err(CandidateError::UnknownAttribute {
                level_ref: LevelRef::new(cursor.choices.len() as u16, 0),
            });
        }
        let mut used = Vec::new();
        for (d, choice) in cursor.choices.iter().enumerate() {
            if let Some(level) = *choice {
                let Some(sizes) = source.sizes[d].get(usize::from(level)) else {
                    return Err(CandidateError::UnknownAttribute {
                        level_ref: LevelRef::new(d as u16, level),
                    });
                };
                used.push(sizes.len());
            }
        }
        if used.len() > max_dimensionality
            || cursor.range_counters.len() != used.len()
            || (cursor.pruned && used.is_empty())
        {
            return Err(CandidateError::ForeignCursor { counter: None });
        }
        if let Some(counter) = cursor
            .range_counters
            .iter()
            .zip(&used)
            .position(|(&counter, &admissible)| counter >= admissible)
        {
            return Err(CandidateError::ForeignCursor {
                counter: Some(counter),
            });
        }
        source.cursor = cursor;
        Ok(source)
    }

    /// The exact number of candidates this source yields in total
    /// (independent of the current position), computed without
    /// generating any. Saturates at `u128::MAX` for astronomically
    /// large spaces.
    #[inline]
    pub fn space_size(&self) -> u128 {
        self.completions[0][0]
    }

    /// The dimensionality cap the source enumerates under.
    #[inline]
    pub fn max_dimensionality(&self) -> usize {
        self.max_dimensionality
    }

    /// Candidates emitted (or stepped over) so far, saturating at
    /// `u64::MAX`.
    #[inline]
    pub fn position(&self) -> u64 {
        self.cursor.position()
    }

    /// Exact number of candidates still to come.
    #[inline]
    pub fn remaining(&self) -> u128 {
        self.space_size().saturating_sub(self.cursor.emitted)
    }

    /// Snapshots the current position for [`CandidateSource::resume`].
    #[inline]
    pub fn cursor(&self) -> CandidateCursor {
        self.cursor.clone()
    }

    /// The candidate the last step stopped at, or `None` before the
    /// first step, once exhausted, and while standing on a skipped
    /// subtree.
    pub fn current(&self) -> Option<Fragmentation> {
        (self.cursor.started && !self.cursor.exhausted && !self.cursor.pruned)
            .then(|| self.fragmentation())
    }

    /// The fragmentation described by the current digits.
    fn fragmentation(&self) -> Fragmentation {
        let mut attributes = Vec::new();
        let mut ranges = Vec::new();
        let mut used = 0usize;
        for (d, choice) in self.cursor.choices.iter().enumerate() {
            if let Some(level) = *choice {
                attributes.push(LevelRef::new(d as u16, level));
                let counter = self.cursor.range_counters.get(used).copied().unwrap_or(0);
                ranges.push(self.sizes[d][usize::from(level)][counter]);
                used += 1;
            }
        }
        Fragmentation::from_parts(attributes, ranges)
    }

    /// Advances the range-counter odometer (last attribute fastest).
    /// Returns `false` when every combination for the current point
    /// candidate has been emitted.
    fn advance_ranges(&mut self) -> bool {
        // Walk the used dimensions in reverse (last counter spins
        // fastest), carrying on wrap — no per-candidate allocation in
        // this hot loop.
        let mut pos = self.cursor.range_counters.len();
        for (d, choice) in self.cursor.choices.iter().enumerate().rev() {
            let Some(level) = *choice else { continue };
            pos -= 1;
            self.cursor.range_counters[pos] += 1;
            if self.cursor.range_counters[pos] < self.sizes[d][usize::from(level)].len() {
                return true;
            }
            self.cursor.range_counters[pos] = 0;
        }
        debug_assert_eq!(pos, 0);
        false
    }

    /// Advances the point odometer to the next valid digit assignment
    /// (dimension 0 most significant, "unused" before the levels, at
    /// most `max_dimensionality` used digits), moving only digits below
    /// `end`. Returns the digit that moved — later ones are reset to
    /// "unused" — or `None` once the space is exhausted.
    fn advance_point(&mut self, end: usize) -> Option<usize> {
        let mut d = end;
        while d > 0 {
            d -= 1;
            let used_before = self.cursor.choices[..d]
                .iter()
                .filter(|c| c.is_some())
                .count();
            let depth = self.sizes[d].len();
            let next = match self.cursor.choices[d] {
                None if used_before < self.max_dimensionality && depth > 0 => Some(0),
                // `None` is this digit's maximum under the cap: carry.
                None => None,
                Some(level) if usize::from(level) + 1 < depth => Some(level + 1),
                Some(_) => {
                    self.cursor.choices[d] = None;
                    None
                }
            };
            if let Some(level) = next {
                self.cursor.choices[d] = Some(level);
                for later in &mut self.cursor.choices[d + 1..] {
                    *later = None;
                }
                self.reset_range_counters();
                return Some(d);
            }
        }
        None
    }

    fn reset_range_counters(&mut self) {
        let used = self.cursor.choices.iter().filter(|c| c.is_some()).count();
        self.cursor.range_counters.clear();
        self.cursor.range_counters.resize(used, 0);
    }

    /// The last used digit: the root of the subtree a pruned walk
    /// stands on.
    fn last_used(&self) -> Option<usize> {
        self.cursor.choices.iter().rposition(Option::is_some)
    }

    /// The smallest fragment count any candidate sharing digits `..=d`
    /// can have.
    fn floor_through(&self, d: usize) -> u128 {
        self.cursor.choices[..=d]
            .iter()
            .enumerate()
            .filter_map(|(d, choice)| choice.map(|l| self.floors[d][usize::from(l)]))
            .fold(1u128, |acc, f| acc.saturating_mul(u128::from(f)))
    }

    /// The number of candidates sharing digits `..=d`, range
    /// combinations included.
    fn subtree_size(&self, d: usize) -> u128 {
        let mut size = 1u128;
        let mut used = 0usize;
        for (d, choice) in self.cursor.choices[..=d].iter().enumerate() {
            if let Some(level) = *choice {
                size = size.saturating_mul(self.sizes[d][usize::from(level)].len() as u128);
                used += 1;
            }
        }
        size.saturating_mul(self.completions[d + 1][used])
    }

    /// One step of the walk, pruning subtrees over `bound` when given.
    fn step(&mut self, bound: Option<u64>) -> Option<Stride> {
        if self.cursor.exhausted {
            return None;
        }
        let moved = if !self.cursor.started {
            // The all-`None` baseline is the first candidate.
            self.cursor.started = true;
            self.reset_range_counters();
            None
        } else if self.cursor.pruned {
            // Step past the subtree: move its root digit or an earlier one.
            self.cursor.pruned = false;
            let end = self.last_used().map_or(0, |d| d + 1);
            let Some(d) = self.advance_point(end) else {
                self.cursor.exhausted = true;
                return None;
            };
            Some(d)
        } else if self.advance_ranges() {
            None
        } else {
            let Some(d) = self.advance_point(self.cursor.choices.len()) else {
                self.cursor.exhausted = true;
                return None;
            };
            Some(d)
        };
        let stride = match (moved, bound) {
            (Some(d), Some(limit)) if self.floor_through(d) > u128::from(limit) => {
                self.cursor.pruned = true;
                Stride::Subtree(self.subtree_size(d))
            }
            _ => Stride::One,
        };
        self.cursor.emitted = self.cursor.emitted.saturating_add(stride.candidates());
        Some(stride)
    }

    /// Steps to the next candidate without materializing it. Never
    /// prunes; standing on a skipped subtree, it steps past the whole
    /// subtree. Returns `false` once the space is exhausted.
    fn advance(&mut self) -> bool {
        self.step(None).is_some()
    }

    /// Steps to the next candidate or, on a [bounded](Self::bounded)
    /// source, over the next whole subtree whose every candidate
    /// exceeds the bound. Expanding each skipped subtree with
    /// [`Self::subtree`] reproduces the unpruned walk exactly. Returns
    /// `None` once the space is exhausted.
    pub fn stride(&mut self) -> Option<Stride> {
        self.step(self.bound)
    }

    /// The candidates of the subtree the walk stands on, in enumeration
    /// order (empty unless the last [`Self::stride`] skipped one).
    pub fn subtree(&self) -> impl Iterator<Item = Fragmentation> {
        let size = match (self.cursor.pruned, self.last_used()) {
            (true, Some(d)) => self.subtree_size(d),
            _ => 0,
        };
        // Unpruned, the same digits stand on the subtree's first
        // candidate.
        let mut walk = self.clone();
        walk.cursor.pruned = false;
        let mut first = true;
        std::iter::from_fn(move || {
            if !std::mem::take(&mut first) {
                walk.advance();
            }
            Some(walk.fragmentation())
        })
        .take(usize::try_from(size).unwrap_or(usize::MAX))
    }
}

impl Iterator for CandidateSource {
    type Item = Fragmentation;

    fn next(&mut self) -> Option<Fragmentation> {
        self.advance().then(|| self.fragmentation())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.remaining();
        let lower = usize::try_from(remaining).unwrap_or(usize::MAX);
        (lower, usize::try_from(remaining).ok())
    }
}

/// The completion counts behind [`CandidateSource::space_size`] and the
/// skipped-subtree sizes: a dynamic program over the dimensions from
/// the last one back, tracking how many assignments of the dimensions
/// `d..` use `k` of them. Each dimension contributes "unused"
/// (weight 1) or one of its levels, each level weighted by its
/// admissible range-size count. Returns `completions[d][u]`, the
/// assignments of dimensions `d..` using at most `cap - u` of them.
fn completions(sizes: &[Vec<Vec<u64>>], max_dimensionality: usize) -> Vec<Vec<u128>> {
    let cap = max_dimensionality.min(sizes.len());
    let at_most = |ways: &[u128]| -> Vec<u128> {
        (0..=cap)
            .map(|u| {
                ways[..=cap - u]
                    .iter()
                    .fold(0u128, |acc, &w| acc.saturating_add(w))
            })
            .collect()
    };
    // ways[k] = number of assignments over the dimensions seen so far
    // that use exactly k of them.
    let mut ways = vec![0u128; cap + 1];
    ways[0] = 1;
    let mut table = vec![at_most(&ways)];
    for dim in sizes.iter().rev() {
        let weight: u128 = dim.iter().map(|level| level.len() as u128).sum();
        for k in (1..=cap).rev() {
            let grown = ways[k - 1].saturating_mul(weight);
            ways[k] = ways[k].saturating_add(grown);
        }
        table.push(at_most(&ways));
    }
    table.reverse();
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use warlock_schema::{apb1_like_schema, Apb1Config};

    fn schema() -> StarSchema {
        apb1_like_schema(Apb1Config::default()).unwrap()
    }

    /// The historical recursive generators, kept verbatim as the order
    /// reference the lazy source must reproduce exactly.
    fn reference_point(schema: &StarSchema, max_dim: usize) -> Vec<Fragmentation> {
        fn recurse(
            schema: &StarSchema,
            dim: usize,
            max_dim: usize,
            current: &mut Vec<LevelRef>,
            out: &mut Vec<Fragmentation>,
        ) {
            if dim == schema.num_dimensions() {
                let ranges = vec![1; current.len()];
                out.push(Fragmentation::from_parts(current.clone(), ranges));
                return;
            }
            recurse(schema, dim + 1, max_dim, current, out);
            if current.len() < max_dim {
                let depth = schema.dimensions()[dim].depth();
                for level in 0..depth {
                    current.push(LevelRef::new(dim as u16, level as u16));
                    recurse(schema, dim + 1, max_dim, current, out);
                    current.pop();
                }
            }
        }
        let mut out = Vec::new();
        recurse(schema, 0, max_dim, &mut Vec::new(), &mut out);
        out
    }

    fn reference_ranged(
        schema: &StarSchema,
        max_dim: usize,
        range_options: &[u64],
    ) -> Vec<Fragmentation> {
        let mut out = Vec::new();
        for candidate in reference_point(schema, max_dim) {
            let per_attr: Vec<Vec<u64>> = candidate
                .attributes()
                .iter()
                .map(|&r| {
                    let dim = schema.dimension(r.dimension).expect("enumerated");
                    let fanout = dim.fanout(r.level).expect("enumerated");
                    let mut sizes = vec![1u64];
                    for &opt in range_options {
                        if opt > 1 && opt < fanout && fanout.is_multiple_of(opt) {
                            sizes.push(opt);
                        }
                    }
                    sizes
                })
                .collect();
            let mut counters = vec![0usize; per_attr.len()];
            loop {
                let ranges: Vec<u64> = counters
                    .iter()
                    .zip(&per_attr)
                    .map(|(&c, sizes)| sizes[c])
                    .collect();
                out.push(Fragmentation::from_parts(
                    candidate.attributes().to_vec(),
                    ranges,
                ));
                let mut pos = counters.len();
                let mut done = true;
                while pos > 0 {
                    pos -= 1;
                    counters[pos] += 1;
                    if counters[pos] < per_attr[pos].len() {
                        done = false;
                        break;
                    }
                    counters[pos] = 0;
                }
                if done {
                    break;
                }
            }
        }
        out
    }

    #[test]
    fn point_source_matches_reference_order_exactly() {
        let s = schema();
        for max_dim in [0, 1, 2, 4, 9] {
            let lazy: Vec<_> = CandidateSource::point(&s, max_dim).collect();
            let reference = reference_point(&s, max_dim);
            assert_eq!(lazy, reference, "max_dim={max_dim}");
        }
    }

    #[test]
    fn ranged_source_matches_reference_order_exactly() {
        let s = schema();
        for options in [&[2u64, 3, 5][..], &[12, 2], &[], &[7]] {
            for max_dim in [1, 2, 4] {
                let lazy: Vec<_> = CandidateSource::ranged(&s, max_dim, options).collect();
                let reference = reference_ranged(&s, max_dim, options);
                assert_eq!(lazy, reference, "max_dim={max_dim} options={options:?}");
            }
        }
    }

    #[test]
    fn space_size_is_exact() {
        let s = schema();
        for max_dim in [0, 1, 2, 3, 4, 9] {
            for options in [&[][..], &[2, 3, 5], &[2]] {
                let source = CandidateSource::ranged(&s, max_dim, options);
                let predicted = source.space_size();
                let actual = source.count() as u128;
                assert_eq!(predicted, actual, "max_dim={max_dim} options={options:?}");
            }
        }
    }

    #[test]
    fn position_and_remaining_track_iteration() {
        let s = schema();
        let mut source = CandidateSource::point(&s, 2);
        let space = source.space_size();
        assert_eq!(source.position(), 0);
        assert_eq!(source.remaining(), space);
        let mut n = 0u64;
        while source.next().is_some() {
            n += 1;
            assert_eq!(source.position(), n);
            assert_eq!(source.remaining(), space - u128::from(n));
        }
        assert_eq!(u128::from(n), space);
        // Exhausted sources stay exhausted.
        assert!(source.next().is_none());
        assert_eq!(source.remaining(), 0);
    }

    #[test]
    fn cursor_resume_reproduces_the_tail() {
        let s = schema();
        let options = [2u64, 3];
        let full: Vec<_> = CandidateSource::ranged(&s, 3, &options).collect();
        for split in [0usize, 1, 7, 100, full.len() - 1, full.len()] {
            let mut head = CandidateSource::ranged(&s, 3, &options);
            let mut prefix = Vec::new();
            for _ in 0..split {
                prefix.push(head.next().unwrap());
            }
            let cursor = head.cursor();
            assert_eq!(cursor.position(), split as u64);
            let tail: Vec<_> = CandidateSource::resume(&s, 3, &options, cursor)
                .unwrap()
                .collect();
            let mut rebuilt = prefix;
            rebuilt.extend(tail);
            assert_eq!(rebuilt, full, "split at {split}");
        }
    }

    #[test]
    fn resume_rejects_foreign_cursors() {
        let s = schema();
        let mut source = CandidateSource::point(&s, 2);
        let _ = source.next();
        let mut cursor = source.cursor();
        cursor.choices.push(None);
        assert!(CandidateSource::resume(&s, 2, &[], cursor).is_err());
        let mut cursor = source.cursor();
        cursor.choices[0] = Some(99);
        assert!(CandidateSource::resume(&s, 2, &[], cursor).is_err());
    }

    #[test]
    fn size_hint_is_exact() {
        let s = schema();
        let mut source = CandidateSource::point(&s, 4);
        let space = source.space_size() as usize;
        assert_eq!(source.size_hint(), (space, Some(space)));
        let _ = source.next();
        assert_eq!(source.size_hint(), (space - 1, Some(space - 1)));
    }

    #[test]
    fn every_candidate_validates_and_is_unique() {
        let s = schema();
        let all: Vec<_> = CandidateSource::ranged(&s, 4, &[2, 3, 5]).collect();
        let mut seen = std::collections::HashSet::new();
        for c in &all {
            c.validate(&s).unwrap();
            assert!(seen.insert(c.clone()), "duplicate {c}");
        }
        assert_eq!(all.iter().filter(|c| c.is_none()).count(), 1);
    }

    /// Every candidate of `source`'s bounded walk, each skipped subtree
    /// expanded in place, with the strides' sizes.
    fn expanded(mut source: CandidateSource) -> (Vec<Fragmentation>, Vec<u128>) {
        let mut out = Vec::new();
        let mut skipped = Vec::new();
        while let Some(stride) = source.stride() {
            match stride {
                Stride::One => out.push(source.current().unwrap()),
                Stride::Subtree(size) => {
                    let subtree: Vec<_> = source.subtree().collect();
                    assert_eq!(subtree.len() as u128, size);
                    assert_eq!(source.current(), None);
                    out.extend(subtree);
                    skipped.push(size);
                }
            }
            assert_eq!(u128::from(source.position()), out.len() as u128);
        }
        (out, skipped)
    }

    #[test]
    fn an_expanded_bounded_walk_is_the_plain_walk() {
        let s = schema();
        for options in [&[][..], &[2, 3, 5]] {
            for max_dim in [0, 1, 2, 4] {
                let plain: Vec<_> = CandidateSource::ranged(&s, max_dim, options).collect();
                for limit in [0, 1, 24, 900, 20_000, 1 << 20, u64::MAX] {
                    let source = CandidateSource::ranged(&s, max_dim, options).bounded(limit);
                    let (walked, skipped) = expanded(source);
                    assert_eq!(walked, plain, "max_dim={max_dim} limit={limit}");
                    let pruned: u128 = skipped.iter().sum();
                    let over = plain
                        .iter()
                        .filter(|c| c.num_fragments(&s) > u128::from(limit))
                        .count() as u128;
                    assert!(pruned <= over, "limit={limit}: {pruned} > {over}");
                    if limit == 0 && max_dim > 0 {
                        // Everything but the baseline sits under a moved digit.
                        assert_eq!(pruned, plain.len() as u128 - 1);
                    }
                    if limit == u64::MAX {
                        assert!(skipped.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn every_candidate_of_a_skipped_subtree_is_over_the_bound() {
        let s = schema();
        let mut source = CandidateSource::ranged(&s, 3, &[2, 3]).bounded(900);
        let mut subtrees = 0;
        while let Some(stride) = source.stride() {
            if let Stride::Subtree(_) = stride {
                subtrees += 1;
                assert!(source.subtree().all(|c| c.num_fragments(&s) > 900));
            }
        }
        assert!(subtrees > 0);
    }

    #[test]
    fn a_space_with_u64_overflowing_counts_is_never_pruned() {
        let mut builder = StarSchema::builder();
        for d in 0..5 {
            let dim = warlock_schema::Dimension::builder(format!("d{d}"))
                .level("top", 1_000)
                .level("bottom", 100_000)
                .build()
                .unwrap();
            builder = builder.dimension(dim);
        }
        let fact = warlock_schema::FactTable::builder("f")
            .measure("m", 8)
            .rows(1_000)
            .build();
        let s = builder.fact(fact).build().unwrap();
        let mut source = CandidateSource::point(&s, 5).bounded(10);
        let mut n = 0u128;
        while let Some(stride) = source.stride() {
            assert_eq!(stride, Stride::One);
            n += 1;
        }
        assert_eq!(n, source.space_size());
        // Capped so no candidate overflows, the same schema prunes.
        let mut source = CandidateSource::point(&s, 3).bounded(10);
        assert!(std::iter::from_fn(|| source.stride()).any(|s| s != Stride::One));
    }

    #[test]
    fn a_bounded_walk_resumes_from_any_cursor() {
        let s = schema();
        let options = [2u64, 3];
        let walk = |source: &mut CandidateSource| -> Vec<(Stride, Option<Fragmentation>)> {
            std::iter::from_fn(|| source.stride().map(|stride| (stride, source.current())))
                .collect()
        };
        let full = walk(&mut CandidateSource::ranged(&s, 3, &options).bounded(900));
        assert!(full.iter().any(|(stride, _)| *stride != Stride::One));
        for split in 0..=full.len() {
            let mut head = CandidateSource::ranged(&s, 3, &options).bounded(900);
            for _ in 0..split {
                head.stride();
            }
            let resumed = CandidateSource::resume(&s, 3, &options, head.cursor()).unwrap();
            assert_eq!(
                walk(&mut resumed.bounded(900)),
                full[split..],
                "split {split}"
            );
        }
    }

    #[test]
    fn subtrees_line_up_across_caps() {
        // A narrower walk's skipped subtrees are skipped whole, at the
        // same digits, by a wider walk over the same bound.
        let s = schema();
        let mut narrow = CandidateSource::ranged(&s, 1, &[2, 3]).bounded(24);
        let mut wide = CandidateSource::ranged(&s, 3, &[2, 3]).bounded(24);
        let mut matched = 0;
        while let Some(stride) = narrow.stride() {
            if stride == Stride::One {
                continue;
            }
            while !(wide.cursor.pruned && wide.cursor.choices == narrow.cursor.choices) {
                assert!(
                    wide.stride().is_some(),
                    "subtree not found in the wider walk"
                );
            }
            matched += 1;
        }
        assert!(matched > 0);
    }

    #[test]
    fn resume_rejects_a_cursor_of_other_range_options() {
        let s = schema();
        let mut source = CandidateSource::ranged(&s, 3, &[2, 3]);
        let cursor = std::iter::from_fn(|| source.next().map(|_| source.cursor()))
            .find(|c| c.range_counters.iter().any(|&x| x > 0))
            .expect("some candidate is ranged");
        // Point options admit only range size 1: the counter is foreign.
        assert!(matches!(
            CandidateSource::resume(&s, 3, &[], cursor.clone()),
            Err(CandidateError::ForeignCursor { counter: Some(_) })
        ));
        let mut short = cursor.clone();
        short.range_counters.pop();
        assert_eq!(
            CandidateSource::resume(&s, 3, &[2, 3], short).unwrap_err(),
            CandidateError::ForeignCursor { counter: None }
        );
        // More used dimensions than the cap.
        let mut wide = CandidateSource::point(&s, 3);
        let cursor = std::iter::from_fn(|| wide.next().map(|c| (c, wide.cursor())))
            .find(|(c, _)| c.dimensionality() == 3)
            .unwrap()
            .1;
        assert_eq!(
            CandidateSource::resume(&s, 2, &[], cursor).unwrap_err(),
            CandidateError::ForeignCursor { counter: None }
        );
    }
}
