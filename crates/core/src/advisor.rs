//! The prediction pipeline's report types.
//!
//! An [`AdvisorReport`] is what one full pipeline run produces: the
//! twofold-ranked candidate list, a bounded per-reason summary of the
//! threshold-excluded candidates, and bookkeeping counters. The
//! deprecated borrowing `Advisor<'a>` handle that used to live here is
//! gone — the owned [`crate::Warlock`] session facade is the one way to
//! run the pipeline.
//!
//! Pre-streaming, the report kept **every** excluded candidate, so its
//! size was O(candidate space) — the summary keeps exact per-reason
//! counts plus a capped number of sample candidates per reason
//! ([`ExcludedSummary::SAMPLES_PER_REASON`]), in enumeration order, so
//! the report stays small and deterministic at any worker count and
//! chunk size.

use std::convert::Infallible;

use warlock_bitmap::BitmapScheme;
use warlock_cost::CandidateCost;
use warlock_fragment::{Exclusion, Fragmentation};

/// A candidate excluded by the thresholds, with its reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExcludedCandidate {
    /// The excluded fragmentation.
    pub fragmentation: Fragmentation,
    /// Human-readable candidate label.
    pub label: String,
    /// Why it was excluded.
    pub reason: Exclusion,
}

/// All exclusions sharing one reason kind: the exact count plus the
/// first few sample candidates (in enumeration order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExclusionGroup {
    /// The machine-readable reason tag ([`Exclusion::kind`]).
    pub kind: &'static str,
    /// How many candidates were excluded for this reason in total.
    pub count: usize,
    /// The first [`ExcludedSummary::SAMPLES_PER_REASON`] excluded
    /// candidates, in enumeration order.
    pub samples: Vec<ExcludedCandidate>,
}

/// The bounded exclusion record of one pipeline run: exact per-reason
/// counts plus capped samples, grouped in first-seen enumeration order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExcludedSummary {
    total: usize,
    groups: Vec<ExclusionGroup>,
}

impl ExcludedSummary {
    /// Samples retained per exclusion reason.
    pub const SAMPLES_PER_REASON: usize = 8;

    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one exclusion. `sample` is only invoked while the
    /// reason's sample list has room, so callers can defer building
    /// the (label-carrying) sample record.
    pub fn record(&mut self, reason: Exclusion, sample: impl FnOnce() -> ExcludedCandidate) {
        let Ok(()) = self.try_record::<Infallible>(reason, || Ok(sample()));
    }

    /// [`record`](Self::record) for a sample that may fail to build:
    /// its error fails the call.
    pub(crate) fn try_record<E>(
        &mut self,
        reason: Exclusion,
        sample: impl FnOnce() -> Result<ExcludedCandidate, E>,
    ) -> Result<(), E> {
        self.record_many(reason.kind(), 1, std::iter::once_with(sample))
    }

    /// Records `count` exclusions of one reason `kind` at once (a
    /// subtree the bounded walk stepped over, say). Samples are drawn
    /// from `samples` (the excluded candidates, in enumeration order)
    /// lazily and only while the reason's sample list has room, so a
    /// caller can build each sample from a handle, and the first sample
    /// that fails to build fails the call.
    pub(crate) fn record_many<E>(
        &mut self,
        kind: &'static str,
        count: usize,
        samples: impl IntoIterator<Item = Result<ExcludedCandidate, E>>,
    ) -> Result<(), E> {
        if count == 0 {
            return Ok(());
        }
        self.total += count;
        let group = self.group(kind);
        group.count += count;
        let room = Self::SAMPLES_PER_REASON - group.samples.len();
        for sample in samples.into_iter().take(room) {
            group.samples.push(sample?);
        }
        Ok(())
    }

    /// The group of `kind`, opened on first sight.
    fn group(&mut self, kind: &'static str) -> &mut ExclusionGroup {
        let i = match self.groups.iter().position(|g| g.kind == kind) {
            Some(i) => i,
            None => {
                self.groups.push(ExclusionGroup {
                    kind,
                    count: 0,
                    samples: Vec::new(),
                });
                self.groups.len() - 1
            }
        };
        &mut self.groups[i]
    }

    /// Total number of excluded candidates (exact, not capped).
    #[inline]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Whether no candidate was excluded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The per-reason groups, in first-seen enumeration order.
    #[inline]
    pub fn groups(&self) -> &[ExclusionGroup] {
        &self.groups
    }

    /// Every retained sample across all reasons, in group order.
    pub fn samples(&self) -> impl Iterator<Item = &ExcludedCandidate> {
        self.groups.iter().flat_map(|g| g.samples.iter())
    }

    /// The count recorded for `kind` (0 when the reason never fired).
    pub fn count_of(&self, kind: &str) -> usize {
        self.groups
            .iter()
            .find(|g| g.kind == kind)
            .map_or(0, |g| g.count)
    }
}

/// One recommended fragmentation with its evaluated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedCandidate {
    /// Position in the final ranking (1-based).
    pub rank: usize,
    /// Human-readable label, e.g. `product.class × time.month`.
    pub label: String,
    /// Full evaluated cost.
    pub cost: CandidateCost,
}

/// The advisor's output: the ranked candidate list plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvisorReport {
    /// Top fragmentations after the twofold ranking, best first.
    pub ranked: Vec<RankedCandidate>,
    /// Bounded per-reason summary of the threshold-excluded candidates.
    pub excluded: ExcludedSummary,
    /// Candidates that were fully costed (survived thresholds).
    pub evaluated: usize,
    /// Candidates enumerated in total.
    pub enumerated: usize,
    /// The bitmap scheme the evaluation used.
    pub scheme: BitmapScheme,
}

impl AdvisorReport {
    /// The best-ranked candidate, if any survived.
    pub fn top(&self) -> Option<&RankedCandidate> {
        self.ranked.first()
    }

    /// Finds a ranked candidate by its fragmentation.
    pub fn find(&self, fragmentation: &Fragmentation) -> Option<&RankedCandidate> {
        self.ranked
            .iter()
            .find(|r| &r.cost.fragmentation == fragmentation)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::AdvisorConfig;
    use crate::Warlock;
    use warlock_fragment::{Exclusion, Fragmentation};
    use warlock_schema::{apb1_like_schema, Apb1Config};
    use warlock_storage::SystemConfig;
    use warlock_workload::apb1_like_mix;

    fn session_with(config: AdvisorConfig) -> Warlock {
        Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .config(config)
            .build()
            .unwrap()
    }

    #[test]
    fn full_run_produces_ranked_candidates() {
        let report = session_with(AdvisorConfig::default()).run().unwrap();
        assert_eq!(report.enumerated, 168);
        assert!(report.evaluated > 0);
        assert!(!report.ranked.is_empty());
        assert!(report.ranked.len() <= 10);
        assert_eq!(report.evaluated + report.excluded.total(), 168);
        // Ranks are 1-based and ordered by response time.
        for (i, r) in report.ranked.iter().enumerate() {
            assert_eq!(r.rank, i + 1);
        }
        for w in report.ranked.windows(2) {
            assert!(w[0].cost.response_ms <= w[1].cost.response_ms);
        }
    }

    #[test]
    fn top_candidate_beats_baseline() {
        let session = session_with(AdvisorConfig::default());
        let report = session.run().unwrap();
        let top = report.top().unwrap();
        let baseline = session.evaluate(&Fragmentation::none()).unwrap();
        assert!(top.cost.response_ms < baseline.response_ms);
        assert!(top.cost.io_cost_ms <= baseline.io_cost_ms * 1.01);
    }

    #[test]
    fn exclusions_carry_reasons() {
        let report = session_with(AdvisorConfig::default()).run().unwrap();
        assert!(!report.excluded.is_empty());
        // The full bottom-level cross product must be excluded as too many
        // fragments.
        assert!(report.excluded.count_of("too_many_fragments") > 0);
        assert!(report
            .excluded
            .samples()
            .any(|e| matches!(e.reason, Exclusion::TooManyFragments { .. })));
        for e in report.excluded.samples() {
            assert!(!e.label.is_empty());
        }
        // Counts are exact while samples are capped per reason.
        for group in report.excluded.groups() {
            assert!(group.samples.len() <= crate::ExcludedSummary::SAMPLES_PER_REASON);
            assert!(group.count >= group.samples.len());
        }
        let summed: usize = report.excluded.groups().iter().map(|g| g.count).sum();
        assert_eq!(summed, report.excluded.total());
    }

    #[test]
    fn report_lookup_by_fragmentation() {
        let report = session_with(AdvisorConfig::default()).run().unwrap();
        let top = report.top().unwrap();
        let found = report.find(&top.cost.fragmentation).unwrap();
        assert_eq!(found.rank, 1);
        assert!(report
            .find(&Fragmentation::from_pairs(&[(0, 5), (1, 1)]).unwrap())
            .is_none());
    }

    #[test]
    fn deterministic_runs() {
        let session = session_with(AdvisorConfig::default());
        let a = session.run().unwrap();
        let b = session.run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn max_dimensionality_limits_enumeration() {
        let report = session_with(AdvisorConfig {
            max_dimensionality: 1,
            ..Default::default()
        })
        .run()
        .unwrap();
        assert_eq!(report.enumerated, 13);
        for r in &report.ranked {
            assert!(r.cost.fragmentation.dimensionality() <= 1);
        }
    }
}
