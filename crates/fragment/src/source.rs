//! Lazy, resumable enumeration of fragmentation candidates.
//!
//! The prediction pipeline used to materialize the whole candidate
//! space (`Vec<Fragmentation>`) before evaluating anything, which makes
//! memory and start-up latency O(candidate space) — exactly wrong for
//! the deep hierarchies and ranged enumeration where WARLOCK should
//! shine. [`CandidateSource`] generates the same candidates **in the
//! same order** one at a time, so a streaming pipeline can pull
//! fixed-size chunks and keep memory bounded by the chunk size.
//!
//! One odometer engine drives both generators:
//!
//! * **point** candidates (range size 1 everywhere, the paper's §3.2
//!   evaluation space) — for each dimension the digit is "unused" or
//!   one of its levels, pruned to at most `max_dimensionality` used
//!   dimensions;
//! * **ranged** candidates (the general-MDHF extension) — every point
//!   candidate is additionally crossed with each admissible range size
//!   per attribute (sizes from `range_options` that divide the level's
//!   fan-out, the full fan-out excluded as it duplicates the parent
//!   level).
//!
//! The enumeration order is identical to the historical recursive
//! `enumerate_candidates` / `enumerate_candidates_ranged`: dimension 0
//! is the most significant digit, "unused" sorts before the levels, and
//! range counters spin fastest on the last attribute. Reports built on
//! either path are therefore bit-identical.
//!
//! [`space_size`](CandidateSource::space_size) predicts the exact
//! number of candidates without generating any (a per-dimension
//! dynamic program over the used-dimension count), and
//! [`cursor`](CandidateSource::cursor)/[`resume`](CandidateSource::resume)
//! snapshot and restore the generator state, so enumeration can be
//! paused, persisted and continued elsewhere.

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
    /// Candidates emitted so far.
    emitted: u64,
    /// Whether the stream already ran dry.
    exhausted: bool,
    /// Whether the very first candidate (the baseline) was emitted.
    started: bool,
}

impl CandidateCursor {
    /// Number of candidates emitted before this cursor position.
    #[inline]
    pub fn position(&self) -> u64 {
        self.emitted
    }
}

/// A lazy generator over the fragmentation-candidate space of one
/// schema. Self-contained after construction (it captures the level
/// shape, not the schema), so it can outlive the schema borrow it was
/// built from. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct CandidateSource {
    max_dimensionality: usize,
    /// Admissible range sizes per `(dimension, level)`, smallest list
    /// `[1]` for point enumeration. `sizes[d][l][0]` is always `1`.
    sizes: Vec<Vec<Vec<u64>>>,
    cursor: CandidateCursor,
    space: u128,
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
        let space = predict_space(&sizes, max_dimensionality);
        Self {
            max_dimensionality,
            sizes,
            cursor: CandidateCursor {
                choices: vec![None; schema.num_dimensions()],
                range_counters: Vec::new(),
                emitted: 0,
                exhausted: false,
                started: false,
            },
            space,
        }
    }

    /// Continues an enumeration from a saved [`CandidateCursor`]. The
    /// source must be rebuilt with the **same** schema, dimensionality
    /// cap and range options the cursor was taken under; a cursor of
    /// the wrong shape is rejected.
    ///
    /// # Errors
    ///
    /// [`CandidateError::UnknownAttribute`] when the cursor references
    /// a dimension or level the schema does not have (including a
    /// digit-count mismatch).
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
        for (d, choice) in cursor.choices.iter().enumerate() {
            if let Some(level) = *choice {
                if usize::from(level) >= source.sizes[d].len() {
                    return Err(CandidateError::UnknownAttribute {
                        level_ref: LevelRef::new(d as u16, level),
                    });
                }
            }
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
        self.space
    }

    /// Candidates emitted so far.
    #[inline]
    pub fn position(&self) -> u64 {
        self.cursor.emitted
    }

    /// Exact number of candidates still to come.
    #[inline]
    pub fn remaining(&self) -> u128 {
        self.space.saturating_sub(u128::from(self.cursor.emitted))
    }

    /// Snapshots the current position for [`CandidateSource::resume`].
    #[inline]
    pub fn cursor(&self) -> CandidateCursor {
        self.cursor.clone()
    }

    /// The fragmentation described by the current digits.
    fn current(&self) -> Fragmentation {
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
    /// most `max_dimensionality` used digits). Returns `false` once the
    /// space is exhausted.
    fn advance_point(&mut self) -> bool {
        let dims = self.cursor.choices.len();
        let mut d = dims;
        while d > 0 {
            d -= 1;
            let used_before = self.cursor.choices[..d]
                .iter()
                .filter(|c| c.is_some())
                .count();
            let depth = self.sizes[d].len();
            match self.cursor.choices[d] {
                None => {
                    if used_before < self.max_dimensionality && depth > 0 {
                        self.cursor.choices[d] = Some(0);
                        for later in &mut self.cursor.choices[d + 1..] {
                            *later = None;
                        }
                        self.reset_range_counters();
                        return true;
                    }
                    // `None` is this digit's maximum under the cap: carry.
                }
                Some(level) => {
                    if usize::from(level) + 1 < depth {
                        self.cursor.choices[d] = Some(level + 1);
                        for later in &mut self.cursor.choices[d + 1..] {
                            *later = None;
                        }
                        self.reset_range_counters();
                        return true;
                    }
                    self.cursor.choices[d] = None;
                }
            }
        }
        false
    }

    fn reset_range_counters(&mut self) {
        let used = self.cursor.choices.iter().filter(|c| c.is_some()).count();
        self.cursor.range_counters.clear();
        self.cursor.range_counters.resize(used, 0);
    }

    /// Steps to the next candidate without materializing it, so a
    /// caller that only compares positions (see
    /// [`Self::current_is`]) allocates nothing. Returns `false` once
    /// the space is exhausted.
    pub fn advance(&mut self) -> bool {
        if self.cursor.exhausted {
            return false;
        }
        if !self.cursor.started {
            // The all-`None` baseline is the first candidate.
            self.cursor.started = true;
            self.reset_range_counters();
        } else if !self.advance_ranges() && !self.advance_point() {
            self.cursor.exhausted = true;
            return false;
        }
        self.cursor.emitted += 1;
        true
    }

    /// Whether the candidate the last [`Self::advance`] (or `next`)
    /// stopped at equals `fragmentation`, compared digit by digit
    /// without building it. `false` before the first step and once
    /// exhausted.
    pub fn current_is(&self, fragmentation: &Fragmentation) -> bool {
        if !self.cursor.started || self.cursor.exhausted {
            return false;
        }
        let (attributes, ranges) = (fragmentation.attributes(), fragmentation.ranges());
        let mut used = 0usize;
        for (d, choice) in self.cursor.choices.iter().enumerate() {
            let Some(level) = *choice else { continue };
            let counter = self.cursor.range_counters.get(used).copied().unwrap_or(0);
            if attributes.get(used) != Some(&LevelRef::new(d as u16, level))
                || ranges.get(used) != Some(&self.sizes[d][usize::from(level)][counter])
            {
                return false;
            }
            used += 1;
        }
        used == attributes.len()
    }
}

impl Iterator for CandidateSource {
    type Item = Fragmentation;

    fn next(&mut self) -> Option<Fragmentation> {
        self.advance().then(|| self.current())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.remaining();
        let lower = usize::try_from(remaining).unwrap_or(usize::MAX);
        (lower, usize::try_from(remaining).ok())
    }
}

/// The exact candidate count: a dynamic program over dimensions
/// tracking how many digit assignments use `k` dimensions. Each
/// dimension contributes "unused" (weight 1) or one of its levels,
/// each level weighted by its admissible range-size count.
fn predict_space(sizes: &[Vec<Vec<u64>>], max_dimensionality: usize) -> u128 {
    let cap = max_dimensionality.min(sizes.len());
    // ways[k] = number of assignments over the dimensions seen so far
    // that use exactly k of them.
    let mut ways = vec![0u128; cap + 1];
    ways[0] = 1;
    for dim in sizes {
        let weight: u128 = dim.iter().map(|level| level.len() as u128).sum();
        for k in (1..=cap).rev() {
            let grown = ways[k - 1].saturating_mul(weight);
            ways[k] = ways[k].saturating_add(grown);
        }
    }
    ways.iter().fold(0u128, |acc, &w| acc.saturating_add(w))
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
    fn current_is_matches_exactly_the_emitted_candidate() {
        let s = schema();
        let all: Vec<_> = CandidateSource::ranged(&s, 3, &[2, 3]).collect();
        let mut walker = CandidateSource::ranged(&s, 3, &[2, 3]);
        assert!(!walker.current_is(&all[0]), "nothing emitted yet");
        for (i, want) in all.iter().enumerate() {
            assert!(walker.advance());
            assert!(walker.current_is(want), "candidate {i}");
            for other in [i.wrapping_sub(1), i + 1] {
                if let Some(other) = all.get(other) {
                    assert!(!walker.current_is(other));
                }
            }
        }
        assert!(!walker.advance());
        assert!(!walker.current_is(&all[all.len() - 1]), "exhausted");
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
}

#[cfg(test)]
mod review_probe {
    use super::*;
    use warlock_schema::{apb1_like_schema, Apb1Config};
    #[test]
    fn resume_with_different_range_options_panics() {
        let s = apb1_like_schema(Apb1Config::default()).unwrap();
        let mut src = CandidateSource::ranged(&s, 3, &[2, 3]);
        // Advance until some range counter is nonzero.
        let mut cursor = None;
        for _ in 0..500 {
            src.next();
            let c = src.cursor();
            if c.range_counters.iter().any(|&x| x > 0) {
                cursor = Some(c);
                break;
            }
        }
        let cursor = cursor.expect("found nonzero counter");
        // Resume under point-only options: validation passes, then iteration panics.
        let mut resumed = CandidateSource::resume(&s, 3, &[], cursor).unwrap();
        let _ = resumed.next();
    }
}
