//! The twofold candidate ranking.
//!
//! "WARLOCK uses a simple heuristic preferring fragmentations reducing
//! overall I/O requirements … it first determines the overall I/O access
//! cost for the considered query mix. Subsequently, the leading X%
//! fragmentations are ranked with respect to the overall I/O response time
//! they achieve." (§3.2)
//!
//! Two implementations share the same semantics:
//!
//! * [`twofold_rank`] — the materialized reference: takes every cost at
//!   once, sorts twice. O(n) memory.
//! * [`StreamingRank`] — the bounded-memory accumulator the streaming
//!   pipeline uses: costs are pushed one at a time and only the
//!   phase-1 survivors are retained, so memory never holds the full
//!   cost vector. Its output is **bit-identical** to [`twofold_rank`]
//!   over the same push sequence.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use warlock_cost::CandidateCost;

/// Applies the twofold ranking to evaluated candidates.
///
/// Phase 1 sorts by `io_cost_ms` (total device work — the throughput
/// proxy) and keeps the leading `top_x_percent`, but never fewer than
/// `min_keep`. Phase 2 re-sorts the survivors by `response_ms`. Ties fall
/// back to the other metric, then to fewer fragments (less metadata),
/// keeping the order fully deterministic.
pub fn twofold_rank(
    mut costs: Vec<CandidateCost>,
    top_x_percent: f64,
    min_keep: usize,
) -> Vec<CandidateCost> {
    // Phase 1: throughput filter.
    costs.sort_by(|a, b| {
        a.io_cost_ms
            .total_cmp(&b.io_cost_ms)
            .then(a.response_ms.total_cmp(&b.response_ms))
            .then(a.num_fragments.cmp(&b.num_fragments))
    });
    let keep = ((costs.len() as f64 * top_x_percent / 100.0).ceil() as usize)
        .max(min_keep)
        .min(costs.len());
    costs.truncate(keep);

    // Phase 2: response-time ranking of the survivors.
    costs.sort_by(|a, b| {
        a.response_ms
            .total_cmp(&b.response_ms)
            .then(a.io_cost_ms.total_cmp(&b.io_cost_ms))
            .then(a.num_fragments.cmp(&b.num_fragments))
    });
    costs
}

/// One retained phase-1 survivor. The heap is a max-heap on the
/// phase-1 key (worst survivor on top, ready for eviction); `idx` is
/// the push order, reproducing the stable-sort tie-break of the
/// materialized reference. Costs are held shared so the streaming
/// pipeline can park the same allocation in the evaluation memo and
/// the heap without a deep copy.
#[derive(Debug, Clone)]
struct Survivor {
    cost: Arc<CandidateCost>,
    idx: usize,
}

impl Survivor {
    /// The phase-1 ordering: I/O cost, then response, then fragment
    /// count, then push order — a total order, so the "leading X%" set
    /// is uniquely determined.
    fn phase1_cmp(&self, other: &Self) -> Ordering {
        self.cost
            .io_cost_ms
            .total_cmp(&other.cost.io_cost_ms)
            .then(self.cost.response_ms.total_cmp(&other.cost.response_ms))
            .then(self.cost.num_fragments.cmp(&other.cost.num_fragments))
            .then(self.idx.cmp(&other.idx))
    }
}

impl PartialEq for Survivor {
    fn eq(&self, other: &Self) -> bool {
        self.phase1_cmp(other) == Ordering::Equal
    }
}
impl Eq for Survivor {}
impl PartialOrd for Survivor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Survivor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.phase1_cmp(other)
    }
}

/// A bounded-memory accumulator reproducing [`twofold_rank`] exactly
/// over a stream of candidate costs.
///
/// Costs are [`push`](Self::push)ed in enumeration order together with
/// an upper bound on how many more *may* still arrive (the streaming
/// pipeline knows this exactly from
/// [`CandidateSource::remaining`](warlock_fragment::CandidateSource::remaining)).
/// The accumulator retains only candidates that could still make the
/// phase-1 cut: with `n` pushed and at most `r` to come, the final keep
/// count can never exceed `max(min_keep, ⌈(n + r)·X%⌉)`, so anything
/// ranked below that bound is discarded immediately. The retention
/// capacity therefore *shrinks* toward the exact `⌈seen·X%⌉` phase-1
/// survivor count as the stream drains, and peak memory is
/// `O(max(min_keep, ⌈bound·X%⌉))` — never the full cost vector.
///
/// Overestimating `remaining` is always safe (it only delays
/// evictions); underestimating it can evict a candidate the exact
/// ranking would have kept.
#[derive(Debug, Clone)]
pub struct StreamingRank {
    top_x_percent: f64,
    min_keep: usize,
    pushed: usize,
    heap: BinaryHeap<Survivor>,
}

impl StreamingRank {
    /// An empty accumulator with the twofold-ranking knobs of
    /// [`twofold_rank`].
    pub fn new(top_x_percent: f64, min_keep: usize) -> Self {
        Self {
            top_x_percent,
            min_keep,
            pushed: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// The phase-1 keep count for a population of `n`.
    fn keep_for(&self, n: usize) -> usize {
        ((n as f64 * self.top_x_percent / 100.0).ceil() as usize).max(self.min_keep)
    }

    /// Feeds the next evaluated candidate. `remaining` is an upper
    /// bound on how many more costs may still be pushed; `0` means this
    /// is definitely the last one.
    pub fn push(&mut self, cost: CandidateCost, remaining: u128) {
        self.push_shared(Arc::new(cost), remaining);
    }

    /// [`push`](Self::push) for a cost that is already shared (e.g.
    /// parked in an evaluation memo) — avoids the deep copy.
    pub fn push_shared(&mut self, cost: Arc<CandidateCost>, remaining: u128) {
        let idx = self.pushed;
        self.pushed += 1;
        self.heap.push(Survivor { cost, idx });
        let capacity = self.capacity_after(self.pushed, remaining);
        while self.heap.len() > capacity {
            self.heap.pop();
        }
    }

    /// [`push`](Self::push) for a cost that is expensive to build:
    /// `io_cost_ms` is its phase-1 key, and `make` builds the cost only
    /// if it may be retained. When the heap already holds the capacity
    /// this push would see and `io_cost_ms` ranks strictly above the
    /// worst survivor's, [`push`](Self::push) would pop the newcomer
    /// right back out, so the push is counted and the heap trimmed
    /// without running `make`. Ties fall through to a full push (the
    /// later keys decide them), so the result is exactly
    /// [`push`](Self::push)'s.
    pub fn push_with(
        &mut self,
        io_cost_ms: f64,
        remaining: u128,
        make: impl FnOnce() -> CandidateCost,
    ) {
        let capacity = self.capacity_after(self.pushed + 1, remaining);
        let doomed = self.heap.len() >= capacity
            && self.heap.peek().is_some_and(|worst| {
                io_cost_ms.total_cmp(&worst.cost.io_cost_ms) == Ordering::Greater
            });
        if !doomed {
            return self.push(make(), remaining);
        }
        self.pushed += 1;
        while self.heap.len() > capacity {
            self.heap.pop();
        }
    }

    /// The retention capacity once `pushed` costs are in with at most
    /// `remaining` to come: the keep count of the largest population
    /// the stream can still reach. Saturates for astronomically large
    /// bounds, which simply disables eviction until the horizon shrinks
    /// into range.
    fn capacity_after(&self, pushed: usize, remaining: u128) -> usize {
        let bound = usize::try_from(u128::from(pushed as u64).saturating_add(remaining))
            .unwrap_or(usize::MAX);
        self.keep_for(bound)
    }

    /// Costs pushed so far.
    #[inline]
    pub fn seen(&self) -> usize {
        self.pushed
    }

    /// Candidates currently retained (the phase-1 survivor bound).
    #[inline]
    pub fn retained(&self) -> usize {
        self.heap.len()
    }

    /// Finishes the stream: trims to the exact phase-1 keep count and
    /// returns the survivors in phase-2 order — bit-identical to
    /// [`twofold_rank`] over the same pushes.
    pub fn finish(mut self) -> Vec<CandidateCost> {
        let keep = self.keep_for(self.pushed).min(self.pushed);
        while self.heap.len() > keep {
            self.heap.pop();
        }
        let mut survivors: Vec<Survivor> = self.heap.into_vec();
        // Phase 2: response-time ranking; ties fall back to the other
        // metric, then fewer fragments, then enumeration order (the
        // stable-sort order of the materialized reference).
        survivors.sort_by(|a, b| {
            a.cost
                .response_ms
                .total_cmp(&b.cost.response_ms)
                .then(a.cost.io_cost_ms.total_cmp(&b.cost.io_cost_ms))
                .then(a.cost.num_fragments.cmp(&b.cost.num_fragments))
                .then(a.idx.cmp(&b.idx))
        });
        survivors
            .into_iter()
            .map(|s| Arc::try_unwrap(s.cost).unwrap_or_else(|shared| (*shared).clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warlock_fragment::Fragmentation;

    fn cost(io: f64, rt: f64, frags: u64) -> CandidateCost {
        CandidateCost {
            fragmentation: Fragmentation::none(),
            num_fragments: frags,
            io_cost_ms: io,
            response_ms: rt,
            total_ios: 0.0,
            total_pages: 0.0,
            per_query: Vec::new(),
        }
    }

    #[test]
    fn filters_by_io_then_ranks_by_response() {
        // 10 candidates; keep 20 % = 2 with the lowest I/O cost; of those
        // the better *response* wins even though its I/O cost is higher.
        let mut candidates = vec![
            cost(10.0, 50.0, 1), // low io, slow response
            cost(11.0, 20.0, 2), // slightly worse io, fast response
        ];
        for i in 0..8 {
            candidates.push(cost(100.0 + i as f64, 5.0, 3 + i));
        }
        let ranked = twofold_rank(candidates, 20.0, 1);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].response_ms, 20.0);
        assert_eq!(ranked[1].response_ms, 50.0);
        // The fast-response / high-io candidates were filtered in phase 1.
    }

    #[test]
    fn min_keep_overrides_small_percentages() {
        let candidates: Vec<_> = (0..10).map(|i| cost(i as f64, 0.0, i)).collect();
        let ranked = twofold_rank(candidates, 1.0, 5);
        assert_eq!(ranked.len(), 5);
    }

    #[test]
    fn hundred_percent_keeps_everything() {
        let candidates: Vec<_> = (0..7).map(|i| cost(i as f64, 10.0 - i as f64, i)).collect();
        let ranked = twofold_rank(candidates, 100.0, 1);
        assert_eq!(ranked.len(), 7);
        // Pure response ordering.
        for w in ranked.windows(2) {
            assert!(w[0].response_ms <= w[1].response_ms);
        }
    }

    #[test]
    fn deterministic_tie_breaking() {
        let candidates = vec![cost(1.0, 1.0, 5), cost(1.0, 1.0, 2), cost(1.0, 1.0, 9)];
        let ranked = twofold_rank(candidates, 100.0, 1);
        let frags: Vec<u64> = ranked.iter().map(|c| c.num_fragments).collect();
        assert_eq!(frags, vec![2, 5, 9]);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(twofold_rank(Vec::new(), 10.0, 5).is_empty());
    }

    #[test]
    fn keep_never_exceeds_population() {
        let candidates = vec![cost(1.0, 1.0, 1), cost(2.0, 2.0, 2)];
        let ranked = twofold_rank(candidates, 10.0, 100);
        assert_eq!(ranked.len(), 2);
    }

    /// A deterministic pseudo-random cost population with deliberate
    /// duplicates, exercising every tie-break level.
    fn synthetic_costs(n: usize, seed: u64) -> Vec<CandidateCost> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                // Small value ranges force frequent exact ties.
                let io = (next() % 7) as f64;
                let rt = (next() % 5) as f64;
                let frags = next() % 4;
                cost(io, rt, frags)
            })
            .collect()
    }

    fn streamed(
        costs: &[CandidateCost],
        x: f64,
        min_keep: usize,
        slack: u128,
    ) -> Vec<CandidateCost> {
        let mut rank = StreamingRank::new(x, min_keep);
        for (i, c) in costs.iter().enumerate() {
            let remaining = (costs.len() - i - 1) as u128 + slack;
            rank.push(c.clone(), remaining);
        }
        rank.finish()
    }

    #[test]
    fn streaming_rank_matches_twofold_exactly() {
        for seed in 0..20u64 {
            for (x, min_keep) in [(10.0, 1), (10.0, 10), (1.0, 3), (100.0, 1), (37.5, 2)] {
                for n in [0usize, 1, 5, 50, 333] {
                    let costs = synthetic_costs(n, seed);
                    let reference = twofold_rank(costs.clone(), x, min_keep);
                    let stream = streamed(&costs, x, min_keep, 0);
                    assert_eq!(
                        stream, reference,
                        "seed={seed} x={x} min_keep={min_keep} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn overestimated_remaining_is_still_exact() {
        // The pipeline's remaining-hint counts candidates that will be
        // excluded before costing — an overestimate must never change
        // the result, only retention.
        for slack in [1u128, 10, 1_000_000, u128::MAX / 2] {
            let costs = synthetic_costs(200, 7);
            let reference = twofold_rank(costs.clone(), 10.0, 5);
            assert_eq!(streamed(&costs, 10.0, 5, slack), reference, "slack={slack}");
        }
    }

    #[test]
    fn retention_is_bounded_by_the_horizon() {
        // 1000 costs, X = 10 %, exact remaining: retention may never
        // exceed ⌈horizon·X%⌉ and ends at exactly the phase-1 keep.
        let costs = synthetic_costs(1000, 3);
        let mut rank = StreamingRank::new(10.0, 5);
        for (i, c) in costs.iter().enumerate() {
            rank.push(c.clone(), (costs.len() - i - 1) as u128);
            assert!(
                rank.retained() <= 100 + 1,
                "retained {} at {i}",
                rank.retained()
            );
        }
        assert_eq!(rank.seen(), 1000);
        assert_eq!(rank.retained(), 100);
        assert_eq!(rank.finish().len(), 100);
    }

    #[test]
    fn streaming_rank_empty_stream() {
        assert!(StreamingRank::new(10.0, 5).finish().is_empty());
    }
}
