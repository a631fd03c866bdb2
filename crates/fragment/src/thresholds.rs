//! Candidate exclusion thresholds.
//!
//! "Additional thresholds are applied to exclude fragmentations that, for
//! instance, cause fragment sizes to drop below the prefetching granule
//! etc." (paper, §3.2). The thresholds keep the costed candidate set small
//! and sane: over-declustered candidates with sub-granule fragments cannot
//! amortize positioning, and candidates with fewer fragments than disks
//! cannot use the full disk complement.

use std::fmt;

use crate::FragmentLayout;

/// Environment numbers a threshold check needs; passed as plain values so
/// this crate stays decoupled from the storage crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdContext {
    /// Fact rows that fit one page.
    pub rows_per_page: u64,
    /// Prefetch granule in pages (the *largest* granule the policy allows,
    /// for the sub-granule exclusion).
    pub prefetch_pages: u32,
    /// Number of disks in the system.
    pub num_disks: u32,
}

/// Why a candidate was excluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exclusion {
    /// The fragment count does not even fit `u64` — the candidate can
    /// never be laid out, whatever the configured limits. Raised by the
    /// pipeline's structural pre-exclusion so the exact `u128` count is
    /// reported instead of a silently wrapped value.
    FragmentCountOverflow {
        /// The candidate's exact fragment count.
        fragments: u128,
    },
    /// More fragments than `max_fragments`.
    TooManyFragments {
        /// The candidate's fragment count.
        fragments: u64,
        /// The configured limit.
        limit: u64,
    },
    /// Average fragment smaller than the prefetch granule.
    FragmentBelowPrefetch {
        /// Average fragment size in pages.
        fragment_pages: u64,
        /// Prefetch granule in pages.
        prefetch_pages: u32,
    },
    /// Average fragment holds fewer rows than `min_fragment_rows`.
    TooFewRowsPerFragment {
        /// Average rows per fragment.
        rows: u64,
        /// The configured minimum.
        min_rows: u64,
    },
    /// Fewer fragments than disks — full declustering impossible.
    FewerFragmentsThanDisks {
        /// The candidate's fragment count.
        fragments: u64,
        /// Number of disks.
        disks: u32,
    },
}

impl Exclusion {
    /// A short machine-readable tag for the exclusion reason, stable
    /// across releases — the grouping key of the report's per-reason
    /// exclusion summary and the `warlockd` wire protocol.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::FragmentCountOverflow { .. } => "fragment_count_overflow",
            Self::TooManyFragments { .. } => "too_many_fragments",
            Self::FragmentBelowPrefetch { .. } => "fragment_below_prefetch",
            Self::TooFewRowsPerFragment { .. } => "too_few_rows_per_fragment",
            Self::FewerFragmentsThanDisks { .. } => "fewer_fragments_than_disks",
        }
    }
}

impl fmt::Display for Exclusion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::FragmentCountOverflow { fragments } => {
                write!(f, "{fragments} fragments overflow the evaluable range")
            }
            Self::TooManyFragments { fragments, limit } => {
                write!(f, "{fragments} fragments exceed limit {limit}")
            }
            Self::FragmentBelowPrefetch {
                fragment_pages,
                prefetch_pages,
            } => write!(
                f,
                "fragment size {fragment_pages} pages below prefetch granule {prefetch_pages}"
            ),
            Self::TooFewRowsPerFragment { rows, min_rows } => {
                write!(f, "{rows} rows per fragment below minimum {min_rows}")
            }
            Self::FewerFragmentsThanDisks { fragments, disks } => {
                write!(f, "{fragments} fragments cannot cover {disks} disks")
            }
        }
    }
}

/// Threshold configuration of the prediction layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    /// Hard cap on the fragment count (metadata and allocation overhead).
    pub max_fragments: u64,
    /// Minimum average rows per fragment.
    pub min_fragment_rows: u64,
    /// Exclude candidates whose average fragment is smaller than the
    /// prefetch granule.
    pub exclude_below_prefetch: bool,
    /// Exclude candidates with fewer fragments than disks (except the
    /// unfragmented baseline, which is always kept for comparison).
    pub require_full_declustering: bool,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            max_fragments: 1 << 20,
            min_fragment_rows: 1,
            exclude_below_prefetch: true,
            require_full_declustering: true,
        }
    }
}

impl Thresholds {
    /// Checks one candidate layout; `Ok(())` means the candidate survives.
    /// Runs [`Self::check_layout`], then [`Self::check_declustering`]
    /// against `ctx.num_disks`: the disk check is the last one, so it
    /// reports only candidates every other check lets through.
    pub fn check(&self, layout: &FragmentLayout, ctx: ThresholdContext) -> Result<(), Exclusion> {
        self.check_layout(layout, ctx)?;
        self.check_declustering(
            !layout.fragmentation().is_none(),
            layout.num_fragments(),
            ctx.num_disks,
        )
    }

    /// Every check of [`Self::check`] except the disk-count one
    /// ([`Exclusion::FewerFragmentsThanDisks`]); `ctx.num_disks` is not
    /// read. Its outcome is the same on any number of disks, so a
    /// pipeline can memoize it once for every disk count and apply
    /// [`Self::check_declustering`] per run.
    pub fn check_layout(
        &self,
        layout: &FragmentLayout,
        ctx: ThresholdContext,
    ) -> Result<(), Exclusion> {
        let fragments = layout.num_fragments();
        if fragments > self.max_fragments {
            return Err(Exclusion::TooManyFragments {
                fragments,
                limit: self.max_fragments,
            });
        }
        let rows = (layout.fact_rows() / fragments.max(1)).max(
            // Guard against sub-row averages rounding to zero.
            u64::from(layout.fact_rows() >= fragments),
        );
        if rows < self.min_fragment_rows {
            return Err(Exclusion::TooFewRowsPerFragment {
                rows,
                min_rows: self.min_fragment_rows,
            });
        }
        let fragment_pages = rows.div_ceil(ctx.rows_per_page.max(1));
        if self.exclude_below_prefetch
            && !layout.fragmentation().is_none()
            && fragment_pages < u64::from(ctx.prefetch_pages)
        {
            return Err(Exclusion::FragmentBelowPrefetch {
                fragment_pages,
                prefetch_pages: ctx.prefetch_pages,
            });
        }
        Ok(())
    }

    /// The disk-count check alone: with `require_full_declustering`, a
    /// `fragmented` candidate (any but the unfragmented baseline) of
    /// `fragments` fragments must cover all `num_disks` disks. Needs no
    /// layout, not even the candidate, so it also applies to one whose
    /// costs come from a memo.
    pub fn check_declustering(
        &self,
        fragmented: bool,
        fragments: u64,
        num_disks: u32,
    ) -> Result<(), Exclusion> {
        if self.require_full_declustering && fragmented && fragments < u64::from(num_disks) {
            return Err(Exclusion::FewerFragmentsThanDisks {
                fragments,
                disks: num_disks,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warlock_schema::{apb1_like_schema, Apb1Config};

    use crate::Fragmentation;

    fn layout(pairs: &[(u16, u16)]) -> FragmentLayout {
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let frag = if pairs.is_empty() {
            Fragmentation::none()
        } else {
            Fragmentation::from_pairs(pairs).unwrap()
        };
        FragmentLayout::new(&schema, frag, 0)
    }

    fn ctx() -> ThresholdContext {
        ThresholdContext {
            rows_per_page: 146, // 8192 / 56-byte rows
            prefetch_pages: 8,
            num_disks: 16,
        }
    }

    #[test]
    fn moderate_candidate_passes() {
        let t = Thresholds::default();
        // time.month: 24 fragments of ~728k rows → plenty of pages each.
        assert!(t.check(&layout(&[(2, 2)]), ctx()).is_ok());
    }

    #[test]
    fn too_many_fragments_excluded() {
        let t = Thresholds {
            max_fragments: 1000,
            ..Default::default()
        };
        // product.code × store = 9000 × 900 = 8.1 M fragments.
        let err = t.check(&layout(&[(0, 5), (1, 1)]), ctx()).unwrap_err();
        assert!(matches!(err, Exclusion::TooManyFragments { .. }));
    }

    #[test]
    fn sub_prefetch_fragments_excluded() {
        let t = Thresholds::default();
        // product.class × time.month = 21 600 fragments of ~810 rows each
        // → 6 pages, below the 8-page granule.
        let err = t.check(&layout(&[(0, 4), (2, 2)]), ctx()).unwrap_err();
        assert!(matches!(err, Exclusion::FragmentBelowPrefetch { .. }));
    }

    #[test]
    fn sub_prefetch_check_can_be_disabled() {
        let t = Thresholds {
            exclude_below_prefetch: false,
            ..Default::default()
        };
        assert!(t.check(&layout(&[(0, 4), (2, 2)]), ctx()).is_ok());
    }

    #[test]
    fn fewer_fragments_than_disks_excluded() {
        let t = Thresholds::default();
        // product.division: 5 fragments < 16 disks.
        let err = t.check(&layout(&[(0, 0)]), ctx()).unwrap_err();
        assert!(matches!(err, Exclusion::FewerFragmentsThanDisks { .. }));

        let relaxed = Thresholds {
            require_full_declustering: false,
            ..Default::default()
        };
        assert!(relaxed.check(&layout(&[(0, 0)]), ctx()).is_ok());
    }

    #[test]
    fn check_is_the_layout_checks_then_the_disk_check() {
        let t = Thresholds::default();
        // product.division: 5 fragments pass every check but the disk one.
        let division = layout(&[(0, 0)]);
        assert!(t.check_layout(&division, ctx()).is_ok());
        assert_eq!(
            t.check_declustering(true, 5, 16),
            Err(Exclusion::FewerFragmentsThanDisks {
                fragments: 5,
                disks: 16
            })
        );
        assert!(t.check_declustering(true, 5, 5).is_ok());
        assert!(t.check_declustering(false, 1, 16).is_ok());
        // An earlier reason wins over the disk check: class × month is
        // below the granule whatever the disk count.
        let tiny = layout(&[(0, 4), (2, 2)]);
        let many_disks = ThresholdContext {
            num_disks: u32::MAX,
            ..ctx()
        };
        assert_eq!(t.check(&tiny, many_disks), t.check_layout(&tiny, ctx()));
        // The layout checks ignore the disk count.
        for candidate in [division, tiny, layout(&[(2, 2)]), layout(&[])] {
            let no_disks = ThresholdContext {
                num_disks: 1,
                ..ctx()
            };
            assert_eq!(
                t.check_layout(&candidate, no_disks),
                t.check_layout(&candidate, many_disks)
            );
        }
    }

    #[test]
    fn baseline_is_always_kept() {
        let t = Thresholds::default();
        assert!(t.check(&layout(&[]), ctx()).is_ok());
    }

    #[test]
    fn min_rows_threshold() {
        let t = Thresholds {
            min_fragment_rows: 1_000_000,
            exclude_below_prefetch: false,
            require_full_declustering: false,
            ..Default::default()
        };
        // month: ~728k rows per fragment < 1M.
        let err = t.check(&layout(&[(2, 2)]), ctx()).unwrap_err();
        assert!(matches!(err, Exclusion::TooFewRowsPerFragment { .. }));
        // quarter: ~2.18M rows per fragment ≥ 1M.
        assert!(t.check(&layout(&[(2, 1)]), ctx()).is_ok());
    }

    #[test]
    fn exclusion_display() {
        let e = Exclusion::FragmentBelowPrefetch {
            fragment_pages: 3,
            prefetch_pages: 8,
        };
        assert!(e.to_string().contains("below prefetch"));
    }
}
