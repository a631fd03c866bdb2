//! Multi-dimensional hierarchical fragmentation (MDHF) for WARLOCK.
//!
//! "A fragmentation is defined by selecting a set of fragmentation
//! attributes from the dimensional attributes, at most one per dimension.
//! All fact table rows corresponding to a single value combination of the
//! fragmentation attributes are assigned to one fragment." (paper, §2)
//!
//! This crate implements:
//!
//! * [`Fragmentation`] — one MDHF candidate (a set of fragmentation
//!   attributes) plus enumeration of all "point" candidates
//!   ([`enumerate_candidates`]); [`Digits`] is the same candidate
//!   borrowed, as [`CandidateSource`] pulls it into a [`DigitChunk`],
//!   and [`CandidateSource::candidate_at`] builds it back from its
//!   enumeration position,
//! * [`FragmentLayout`] — derived per-candidate structure: fragment counts,
//!   the logical fragment order (mixed-radix coordinates), uniform and
//!   skewed fragment sizes,
//! * [`QueryMatch`] — the query→fragment matching model: how many fragments
//!   a query class touches and the residual selectivity inside them,
//! * [`Thresholds`] — the exclusion rules the prediction layer applies
//!   before costing candidates.

//!
//! # Example
//!
//! ```
//! use warlock_fragment::{Fragmentation, FragmentLayout, QueryMatch};
//! use warlock_schema::{apb1_like_schema, Apb1Config};
//! use warlock_workload::{DimensionPredicate, QueryClass};
//!
//! let schema = apb1_like_schema(Apb1Config::default()).unwrap();
//! // Fragment the fact table by time.month (dimension 2, level 2).
//! let frag = Fragmentation::from_pairs(&[(2, 2)]).unwrap();
//! let layout = FragmentLayout::new(&schema, frag, 0);
//! assert_eq!(layout.num_fragments(), 24);
//!
//! // A one-quarter query touches exactly 3 monthly fragments, in full.
//! let q = QueryClass::new("q").with(2, DimensionPredicate::point(1));
//! let m = QueryMatch::evaluate(&schema, layout.fragmentation(), &q);
//! assert_eq!(m.expected_fragments(), 3.0);
//! assert_eq!(m.residual_selectivity(), 1.0);
//! ```

#![warn(missing_docs)]

mod candidate;
mod layout;
mod matching;
mod source;
mod thresholds;

pub use candidate::{
    enumerate_candidates, enumerate_candidates_ranged, CandidateError, Digits, Fragmentation,
};
pub use layout::{apportion, FragmentLayout, LayoutScratch, SkewModelExt};
pub use matching::{expected_distinct_groups, DimensionMatch, QueryMatch};
pub use source::{CandidateCursor, CandidateSource, DigitChunk, Stride};
pub use thresholds::{Exclusion, ThresholdContext, Thresholds};
