//! Per-session memoization of ranking runs.
//!
//! What-if tuning (§3.3) re-runs the whole prediction pipeline against a
//! perturbed input set, and interactive sessions issue the same
//! variations repeatedly. Re-costing a candidate is only necessary when
//! an input that feeds the cost model actually changed, so `EvalCache`
//! memoizes every ranking run as one immutable **memo column**: the
//! run's outcomes in enumeration order, one cell per step of the run's
//! bounded walk — a `Slot` per candidate (its exclusion by a threshold
//! other than the disk-count one, or its fragment count and the
//! position of its unweighted, disk-free per-class cost rows in one flat
//! row buffer), and one run-length cell per subtree the walk stepped
//! over because every candidate in it has too many fragments (see
//! [`CandidateSource::stride`](warlock_fragment::CandidateSource::stride)).
//! Nothing in a column depends on the disk count: the pipeline applies
//! the disk threshold and derives response times at merge. A column is
//! keyed by the run fingerprint alone, which covers the system except
//! its disk count, mix structure, scheme, thresholds, range options and
//! `max_dimensionality`. A cold run writes its column in the merge loop
//! without hashing or storing candidates and commits it under one lock;
//! a warm run of the same key reads the cells back by position, a run
//! cell answering a skipped subtree as one hit per candidate. A run of
//! any other key (another `max_dimensionality` included) finds nothing
//! and runs cold once. Single-candidate
//! [`Warlock::evaluate`](crate::Warlock::evaluate) calls are not
//! memoized.
//!
//! The fingerprint covers *every* input the outcomes depend on, so
//! columns from different what-if variations — and from different
//! snapshots of the same session family — coexist: `what_if_disks(n)`
//! recombines the baseline's column for any `n`, any what-if asked
//! twice re-costs nothing the second time, returning to the baseline
//! after a sweep is free, and a what-if priced on one `Warlock` clone is
//! warm on every other clone. `invalidate()` clears it explicitly.
//!
//! The memo holds at most `MAX_ENTRIES` entries. Entries count the
//! candidates the columns cover, not cells: a run cell counts each of
//! its own, so skipping a subtree changes neither admission nor
//! eviction. Admission is by reuse, so a what-if cycle whose columns
//! outgrow the budget keeps most of them warm instead of evicting each
//! one just before it is asked for again (the textbook failure of plain
//! LRU on a cyclic pattern). A new column that fits the free room is
//! admitted. One that does not may evict whole columns, least recently
//! used first, but only columns that have gone unused since its key was
//! last refused; if that still leaves too little room it is refused,
//! and its key is remembered as a *ghost* stamped with the refusal. A
//! first-time newcomer therefore never evicts anything, and a key asked
//! for twice displaces only the columns that went cold in between, so a
//! new working set takes over after one repeat. Ghosts older than the
//! least-recently-used resident could evict nothing and are dropped; at
//! most `MAX_GHOSTS` are kept. A single run longer than the whole
//! budget keeps a prefix column.

use std::sync::{Arc, Mutex, MutexGuard};

use warlock_cost::ClassCost;
use warlock_fragment::Exclusion;

warlock_json::json_struct! {
    /// Observable counters of an [`EvalCache`](crate::Warlock::cache_stats).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct EvalCacheStats {
        /// Memoized candidate outcomes currently held: the candidates the
        /// columns cover (a skipped subtree counts each of its candidates).
        pub entries: usize,
        /// Ranked candidates answered from a memo column since the session
        /// was built (or the cache last cleared).
        pub hits: u64,
        /// Ranked candidates that required a fresh pipeline pass.
        pub misses: u64,
        /// Memo columns currently held.
        pub columns: usize = Default,
        /// Columns evicted to admit another.
        pub evicted: u64 = Default,
        /// Column commits the admission rule declined.
        pub refused: u64 = Default,
    }
}

/// Memo budget: candidates covered by columns. A full APB-1-like run
/// memoizes ~170 outcomes, so this holds hundreds of distinct what-if
/// variations before whole columns are evicted.
const MAX_ENTRIES: usize = 1 << 16;

/// Refused column keys remembered at most (see the module docs). A
/// what-if cycle needs one per variation that does not fit, so a
/// handful suffices.
const MAX_GHOSTS: usize = 32;

/// One candidate's memoized pipeline outcome, at its enumeration
/// ordinal in a [`Column`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Slot {
    /// A threshold other than the disk-count one excluded the candidate.
    Excluded(Exclusion),
    /// The candidate survived every disk-free threshold; its unweighted,
    /// disk-free class rows are [`Column::rows`]`(row)`.
    Costed {
        /// The candidate's fragment count (not reconstructible from
        /// the rows alone).
        num_fragments: u64,
        /// Index of the candidate among the column's costed ones.
        row: u32,
    },
}

/// One stored cell of a [`Column`]: a candidate's slot, or a run of
/// candidates the bounded walk stepped over as one subtree.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cell {
    /// One candidate's outcome.
    One(Slot),
    /// This many candidates of a skipped subtree, every one excluded
    /// for too many fragments.
    Run(u64),
}

/// The memo of one ranking run: a cell per step of the run's bounded
/// walk in enumeration order — a candidate's slot, or one run-length
/// cell per skipped subtree — and the `k` unweighted class rows
/// (classes in configured-mix order) of each costed candidate,
/// candidate by candidate. Weight- and disk-free, so a pure re-weight
/// or a disk-count change recombines the rows instead of re-costing.
/// Shared as an `Arc` and never mutated after commit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Column {
    classes: usize,
    slots: Vec<Cell>,
    rows: Vec<ClassCost>,
    /// Candidates the cells cover (a run counts each of its own).
    entries: usize,
    /// Candidates the column covers at most: pushes past it are
    /// dropped, leaving a prefix column.
    cap: usize,
}

/// Cells a new column reserves at most up front: a run's skipped
/// subtrees can leave far fewer cells than candidates, so the rest grow
/// on demand.
const RESERVED_CELLS: usize = 4096;

impl Column {
    /// An empty column for a run over `space` candidates with `classes`
    /// mix classes, covering at most `cap` of them.
    fn new(classes: usize, space: u128, cap: usize) -> Self {
        let reserved = usize::try_from(space).map_or(RESERVED_CELLS, |s| s.min(RESERVED_CELLS));
        Self {
            classes,
            slots: Vec::with_capacity(reserved),
            rows: Vec::new(),
            entries: 0,
            cap,
        }
    }

    /// Candidates covered: the column's share of the memo's entries.
    pub(crate) fn len(&self) -> usize {
        self.entries
    }

    /// The class rows of the `row`-th costed candidate.
    pub(crate) fn rows(&self, row: u32) -> &[ClassCost] {
        let start = row as usize * self.classes;
        &self.rows[start..start + self.classes]
    }

    /// Appends the next candidate as excluded.
    pub(crate) fn push_excluded(&mut self, reason: Exclusion) {
        if self.entries < self.cap {
            self.slots.push(Cell::One(Slot::Excluded(reason)));
            self.entries += 1;
        }
    }

    /// Appends the next candidate as costed, with its `k` class rows.
    pub(crate) fn push_costed(&mut self, num_fragments: u64, rows: &[ClassCost]) {
        debug_assert_eq!(rows.len(), self.classes);
        if self.entries < self.cap {
            let row = (self.rows.len() / self.classes.max(1)) as u32;
            self.slots
                .push(Cell::One(Slot::Costed { num_fragments, row }));
            self.rows.extend_from_slice(rows);
            self.entries += 1;
        }
    }

    /// Appends the next `candidates` as one skipped subtree (as much of
    /// it as the cap leaves room for).
    pub(crate) fn push_run(&mut self, candidates: u128) {
        let room = (self.cap - self.entries) as u128;
        let kept = candidates.min(room);
        if kept > 0 {
            self.slots.push(Cell::Run(kept as u64));
            self.entries += kept as usize;
        }
    }
}

/// Serves a run's candidates, in enumeration order, from the run's own
/// committed [`Column`]. Obtained from [`EvalCache::open`].
#[derive(Debug)]
pub(crate) struct ColumnReader {
    column: Arc<Column>,
    /// Index of the next cell to serve.
    next: usize,
}

impl ColumnReader {
    /// The next cell, `None` past the column's end.
    fn cell(&mut self) -> Option<Cell> {
        let cell = self.column.slots.get(self.next).copied();
        self.next += 1;
        cell
    }

    /// The memoized slot of the run's next candidate, or `None` on a
    /// miss. Must be called once per candidate the run's walk stands
    /// on, in enumeration order, interleaved with [`Self::skip`].
    pub(crate) fn next(&mut self) -> Option<Slot> {
        match self.cell()? {
            Cell::One(slot) => Some(slot),
            Cell::Run(_) => None,
        }
    }

    /// Serves the run's next step, a skipped subtree of `candidates`
    /// candidates; returns how many of them the column covers (its
    /// hits). Called in enumeration order, interleaved with
    /// [`Self::next`].
    pub(crate) fn skip(&mut self, candidates: u128) -> u128 {
        match self.cell() {
            Some(Cell::Run(n)) => u128::from(n).min(candidates),
            _ => 0,
        }
    }

    /// The class rows a [`Slot::Costed`] from this reader points at.
    pub(crate) fn rows(&self, row: u32) -> &[ClassCost] {
        self.column.rows(row)
    }
}

/// A committed column, its run fingerprint and its recency stamp.
#[derive(Debug, Clone)]
struct Held {
    fingerprint: u128,
    column: Arc<Column>,
    last_used: u64,
}

#[derive(Debug, Clone, Default)]
struct Inner {
    columns: Vec<Held>,
    /// Refused run fingerprints with their refusal stamps, oldest first.
    ghosts: Vec<(u128, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
    evicted: u64,
    refused: u64,
}

impl Inner {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Candidates covered by columns.
    fn entries(&self) -> usize {
        self.columns.iter().map(|held| held.column.len()).sum()
    }

    /// Makes room for a column of `len` slots under `key`, or refuses
    /// it: evicts least-recently-used columns, but only those unused
    /// since `key` was last refused, and only if that frees enough room.
    /// A refusal evicts nothing and remembers `key` as a ghost.
    fn admit(&mut self, key: u128, len: usize, budget: usize) -> bool {
        // Admitted or refused anew, the key's old ghost is spent.
        let refused_at = self
            .ghosts
            .iter()
            .position(|&(k, _)| k == key)
            .map_or(0, |g| self.ghosts.remove(g).1);
        let free = budget.saturating_sub(self.entries());
        if len <= free {
            return true;
        }
        self.columns.sort_unstable_by_key(|held| held.last_used);
        let mut room = free;
        let victims = self
            .columns
            .iter()
            .take_while(|held| held.last_used < refused_at)
            .take_while(|held| {
                let short = room < len;
                room += held.column.len();
                short
            })
            .count();
        if room >= len {
            self.columns.drain(..victims);
            self.evicted += victims as u64;
            return true;
        }
        self.refused += 1;
        let stamp = self.tick();
        self.ghosts.push((key, stamp));
        // Ghosts older than the least-recently-used resident could evict
        // nothing; past `MAX_GHOSTS`, the oldest go.
        let coldest = self.columns.first().map_or(0, |held| held.last_used);
        self.ghosts.retain(|&(_, stamp)| stamp > coldest);
        let excess = self.ghosts.len().saturating_sub(MAX_GHOSTS);
        self.ghosts.drain(..excess);
        false
    }
}

/// The ranking-run memo shared by every clone of a session.
/// Interior-mutable and lock-protected, so concurrent clones can rank
/// from several threads; a ranking run takes the lock once to open a
/// column and once to commit, never across an evaluation.
#[derive(Debug)]
pub(crate) struct EvalCache {
    inner: Mutex<Inner>,
    /// Entry budget: [`MAX_ENTRIES`] outside tests.
    budget: usize,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self {
            inner: Mutex::default(),
            budget: MAX_ENTRIES,
        }
    }
}

impl EvalCache {
    /// An empty memo holding at most `budget` entries.
    #[cfg(test)]
    pub(crate) fn with_budget(budget: usize) -> Self {
        Self {
            budget,
            ..Self::default()
        }
    }

    /// The memo's state. A panic while the lock was held poisons it;
    /// the memo can always be rebuilt, so a poisoned one is reset to
    /// empty (counters included) instead of failing every later request.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut inner = poisoned.into_inner();
            *inner = Inner::default();
            self.inner.clear_poison();
            inner
        })
    }

    /// An empty column for a run over `space` candidates with `classes`
    /// mix classes, kept to a prefix no longer than the whole budget.
    pub(crate) fn column(&self, classes: usize, space: u128) -> Column {
        Column::new(classes, space, self.budget)
    }

    /// Opens the column of the run keyed `fingerprint`, if held.
    pub(crate) fn open(&self, fingerprint: u128) -> Option<ColumnReader> {
        let mut inner = self.lock();
        let at = inner
            .columns
            .iter()
            .position(|held| held.fingerprint == fingerprint)?;
        let stamp = inner.tick();
        let held = &mut inner.columns[at];
        held.last_used = stamp;
        Some(ColumnReader {
            column: Arc::clone(&held.column),
            next: 0,
        })
    }

    /// Ends a ranking run: counts its `hits` and `misses` and, when the
    /// run wrote one, commits its column — unless a column under the
    /// same key is already held (a racing clone committed first), or
    /// the admission rule (see the module docs) refuses it.
    pub(crate) fn commit(&self, fingerprint: u128, column: Option<Column>, hits: u64, misses: u64) {
        let mut inner = self.lock();
        inner.hits += hits;
        inner.misses += misses;
        let Some(column) = column else { return };
        if inner
            .columns
            .iter()
            .any(|held| held.fingerprint == fingerprint)
        {
            return;
        }
        if column.len() == 0 || !inner.admit(fingerprint, column.len(), self.budget) {
            return;
        }
        let last_used = inner.tick();
        inner.columns.push(Held {
            fingerprint,
            column: Arc::new(column),
            last_used,
        });
    }

    /// Drops every entry and resets the counters.
    pub(crate) fn clear(&self) {
        *self.lock() = Inner::default();
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> EvalCacheStats {
        let inner = self.lock();
        EvalCacheStats {
            entries: inner.entries(),
            hits: inner.hits,
            misses: inner.misses,
            columns: inner.columns.len(),
            evicted: inner.evicted,
            refused: inner.refused,
        }
    }

    /// Panics while holding the lock, poisoning it.
    #[cfg(test)]
    pub(crate) fn panic_while_locked(&self) {
        let _held = self.inner.lock();
        panic!("panic while holding the eval cache lock");
    }
}

impl Clone for EvalCache {
    fn clone(&self) -> Self {
        Self {
            inner: Mutex::new(self.lock().clone()),
            budget: self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warlock_fragment::{CandidateSource, Stride};
    use warlock_schema::{apb1_like_schema, Apb1Config};

    const EXCLUDED: Exclusion = Exclusion::FragmentBelowPrefetch {
        fragment_pages: 1,
        prefetch_pages: 2,
    };

    /// A column of `len` slots, every third costed with `classes` rows
    /// whose fields carry the slot ordinal, written as a run at the
    /// default budget writes it.
    fn column(len: usize, classes: usize) -> Column {
        let mut column = EvalCache::default().column(classes, len as u128);
        for i in 0..len {
            if i % 3 == 0 {
                let row = ClassCost {
                    fragments: i as f64,
                    ..ClassCost::default()
                };
                column.push_costed(i as u64, &vec![row; classes]);
            } else {
                column.push_excluded(EXCLUDED);
            }
        }
        column
    }

    /// Reads a run of `len` candidates from whatever `fingerprint`
    /// holds; returns the hit count.
    fn read(cache: &EvalCache, fingerprint: u128, len: usize) -> u64 {
        let Some(mut reader) = cache.open(fingerprint) else {
            cache.commit(fingerprint, None, 0, len as u64);
            return 0;
        };
        let hits = (0..len).filter(|_| reader.next().is_some()).count() as u64;
        cache.commit(fingerprint, None, hits, len as u64 - hits);
        hits
    }

    #[test]
    fn clear_resets_everything() {
        let cache = EvalCache::default();
        cache.commit(1, Some(column(4, 2)), 0, 4);
        assert_eq!(read(&cache, 1, 4), 4);
        cache.clear();
        assert_eq!(cache.stats(), EvalCacheStats::default());
        assert!(cache.open(1).is_none());
    }

    #[test]
    fn concurrent_probes_and_inserts_are_safe() {
        let cache = EvalCache::default();
        std::thread::scope(|scope| {
            for t in 0..4u16 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..50u16 {
                        read(cache, u128::from(i % 7), 5);
                        cache.commit(u128::from(t), Some(column(5, 2)), 0, 0);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 50 * 5);
        assert_eq!(stats.entries, 4 * 5);
        // One column per distinct key, however many runs raced it.
        assert_eq!(cache.lock().columns.len(), 4);
    }

    #[test]
    fn entries_count_distinct_outcomes_across_fingerprints() {
        // The same run under two fingerprints is two columns' worth of
        // outcomes; committing one again adds nothing.
        let cache = EvalCache::default();
        cache.commit(1, Some(column(4, 1)), 0, 4);
        cache.commit(2, Some(column(4, 1)), 0, 4);
        cache.commit(2, Some(column(4, 1)), 0, 4);
        assert_eq!(cache.stats().entries, 8);
    }

    #[test]
    fn clone_is_a_deep_copy() {
        let cache = EvalCache::default();
        cache.commit(1, Some(column(3, 1)), 0, 3);
        let copy = cache.clone();
        cache.clear();
        assert_eq!(copy.stats().entries, 3);
        assert_eq!(cache.stats().entries, 0);
        assert!(copy.open(1).is_some());
    }

    #[test]
    fn a_column_reads_back_by_ordinal() {
        let cache = EvalCache::default();
        assert!(cache.open(1).is_none());
        cache.commit(1, Some(column(10, 3)), 0, 10);
        let mut reader = cache.open(1).unwrap();
        for i in 0..10 {
            match reader.next().unwrap() {
                Slot::Excluded(reason) => {
                    assert_ne!(i % 3, 0);
                    assert_eq!(reason, EXCLUDED);
                }
                Slot::Costed { num_fragments, row } => {
                    assert_eq!(num_fragments, i as u64);
                    let rows = reader.rows(row);
                    assert_eq!(rows.len(), 3);
                    assert!(rows.iter().all(|r| r.fragments == i as f64));
                }
            }
        }
        assert_eq!(reader.next(), None, "past the column's end");
        // Another fingerprint holds nothing.
        assert!(cache.open(2).is_none());
    }

    #[test]
    fn a_column_for_a_held_key_is_not_committed_twice() {
        let cache = EvalCache::default();
        cache.commit(1, Some(column(10, 1)), 0, 10);
        cache.commit(1, Some(column(10, 1)), 0, 10);
        cache.commit(1, Some(column(12, 1)), 0, 12);
        assert_eq!(cache.stats().entries, 10);
        assert_eq!(cache.stats().misses, 32);
    }

    #[test]
    fn columns_that_fit_the_budget_all_stay_warm() {
        // Seven fingerprints that together fit the budget, as a
        // what-if cycle over a baseline and six variations.
        let cache = EvalCache::default();
        let len = MAX_ENTRIES / 7;
        for fp in 0..7 {
            cache.commit(fp, Some(column(len, 4)), 0, len as u64);
        }
        for _ in 0..3 {
            for fp in 0..7 {
                assert_eq!(read(&cache, fp, len), len as u64, "fingerprint {fp}");
            }
        }
        assert_eq!(cache.stats().entries, 7 * len);
    }

    #[test]
    fn overflow_evicts_whole_least_recently_used_columns() {
        let cache = EvalCache::default();
        let len = MAX_ENTRIES / 4;
        for fp in 0..4 {
            cache.commit(fp, Some(column(len, 2)), 0, 0);
        }
        assert_eq!(cache.stats().entries, MAX_ENTRIES);
        // Touch 0 so 1 becomes the least recently used.
        assert_eq!(read(&cache, 0, len), len as u64);
        // A first-time newcomer is refused and evicts nothing…
        cache.commit(4, Some(column(len / 2, 2)), 0, 0);
        assert_eq!(cache.stats().entries, MAX_ENTRIES);
        // …and asked for again it evicts the coldest column whole.
        cache.commit(4, Some(column(len / 2, 2)), 0, 0);
        for (fp, warm) in [(0, true), (1, false), (2, true), (3, true), (4, true)] {
            let want = match (warm, fp) {
                (false, _) => 0,
                (true, 4) => len / 2,
                (true, _) => len,
            };
            assert_eq!(read(&cache, fp, len), want as u64, "fingerprint {fp}");
        }
        assert_eq!(cache.stats().entries, 3 * len + len / 2);
        // A repeated column needing room for two evicts the two coldest
        // whole.
        cache.commit(5, Some(column(2 * len, 2)), 0, 0);
        cache.commit(5, Some(column(2 * len, 2)), 0, 0);
        let held: Vec<usize> = (0..6)
            .map(|fp| read(&cache, fp, 2 * len) as usize)
            .collect();
        assert_eq!(held, [0, 0, 0, len, len / 2, 2 * len]);
        let stats = cache.stats();
        assert_eq!((stats.columns, stats.evicted, stats.refused), (3, 3, 2));
    }

    /// One ranking run of `len` candidates under `fingerprint`: reads
    /// what the memo holds and, on a miss, commits its own column.
    /// Returns whether it hit.
    fn run(cache: &EvalCache, fingerprint: u128, len: usize) -> bool {
        let hit = read(cache, fingerprint, len) == len as u64;
        if !hit {
            cache.commit(fingerprint, Some(column(len, 2)), 0, 0);
        }
        hit
    }

    /// Runs each fingerprint of `cycle` once; returns the hit count.
    fn cycle(cache: &EvalCache, cycle: std::ops::Range<u128>, len: usize) -> usize {
        cycle.filter(|&fp| run(cache, fp, len)).count()
    }

    #[test]
    fn a_cycle_larger_than_the_memo_keeps_most_columns_warm() {
        // Six what-if columns cycling through room for four: plain LRU
        // evicts each one just before it is asked for again.
        let cache = EvalCache::default();
        let len = MAX_ENTRIES / 4;
        let hits: Vec<usize> = (0..3).map(|_| cycle(&cache, 0..6, len)).collect();
        assert_eq!(hits, [0, 4, 4]);
        let stats = cache.stats();
        assert_eq!((stats.columns, stats.evicted), (4, 0));
        assert_eq!(stats.refused, 3 * 2);
    }

    #[test]
    fn a_one_off_newcomer_on_a_full_memo_evicts_nothing() {
        let cache = EvalCache::default();
        let len = MAX_ENTRIES / 4;
        cycle(&cache, 0..4, len);
        assert!(!run(&cache, 9, len));
        assert_eq!(cycle(&cache, 0..4, len), 4);
        let stats = cache.stats();
        assert_eq!((stats.columns, stats.evicted, stats.refused), (4, 0, 1));
        assert!(cache.open(9).is_none());
    }

    #[test]
    fn a_new_working_set_is_adopted_on_its_second_cycle() {
        let cache = EvalCache::default();
        let len = MAX_ENTRIES / 4;
        for _ in 0..3 {
            cycle(&cache, 0..4, len);
        }
        let hits: Vec<usize> = (0..3).map(|_| cycle(&cache, 10..14, len)).collect();
        assert_eq!(hits, [0, 0, 4]);
        let stats = cache.stats();
        assert_eq!((stats.columns, stats.evicted, stats.refused), (4, 4, 4));
        assert!((0..4).all(|fp| cache.open(fp).is_none()));
    }

    #[test]
    fn the_ghost_list_stays_bounded() {
        let cache = EvalCache::default();
        let len = MAX_ENTRIES / 4;
        cycle(&cache, 0..4, len);
        for fp in 100..1_100 {
            cache.commit(fp, Some(column(1, 1)), 0, 0);
            assert!(cache.lock().ghosts.len() <= MAX_GHOSTS);
        }
        let stats = cache.stats();
        assert_eq!((stats.columns, stats.evicted, stats.refused), (4, 0, 1_000));
        // Once every resident was used since, the old ghosts could evict
        // nothing and are dropped at the next refusal.
        assert_eq!(cycle(&cache, 0..4, len), 4);
        cache.commit(2_000, Some(column(1, 1)), 0, 0);
        assert_eq!(cache.lock().ghosts.len(), 1);
    }

    #[test]
    fn an_oversized_run_keeps_a_prefix_and_a_rerun_hits_exactly_it() {
        let cache = EvalCache::default();
        let run = MAX_ENTRIES + 100;
        // The writer stops at the budget…
        let written = column(run, 2);
        assert_eq!(written.len(), MAX_ENTRIES);
        cache.commit(1, Some(written), 0, run as u64);
        assert_eq!(cache.stats().entries, MAX_ENTRIES);
        // …and a rerun hits exactly the kept prefix.
        let before = cache.stats();
        assert_eq!(read(&cache, 1, run), MAX_ENTRIES as u64);
        let after = cache.stats();
        assert_eq!(after.hits - before.hits, MAX_ENTRIES as u64);
        assert_eq!(after.misses - before.misses, 100);
        // The kept prefix is intact: rows end at the last kept costed slot.
        let held = Arc::clone(&cache.lock().columns[0].column);
        assert_eq!(held.rows.len(), MAX_ENTRIES.div_ceil(3) * 2);
        assert_eq!(held.slots[..], column(MAX_ENTRIES, 2).slots[..]);
    }

    #[test]
    fn entries_count_column_candidates_and_clear_drops_them() {
        let cache = EvalCache::default();
        cache.commit(1, Some(column(40, 3)), 0, 40);
        cache.commit(2, Some(column(25, 3)), 0, 25);
        assert_eq!(cache.stats().entries, 40 + 25);
        cache.clear();
        assert_eq!(cache.stats(), EvalCacheStats::default());
        assert!(cache.open(1).is_none());
        assert!(cache.open(2).is_none());
    }

    #[test]
    fn a_poisoned_memo_is_reset_and_keeps_serving() {
        let cache = EvalCache::default();
        cache.commit(1, Some(column(3, 1)), 0, 3);
        assert_eq!(read(&cache, 1, 3), 3);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.panic_while_locked();
        }));
        assert!(panicked.is_err());
        assert!(cache.inner.is_poisoned());
        assert_eq!(cache.stats(), EvalCacheStats::default());
        assert!(!cache.inner.is_poisoned());
        cache.commit(1, Some(column(3, 1)), 0, 3);
        assert_eq!(cache.stats().entries, 3);
        assert_eq!(read(&cache, 1, 3), 3);
    }

    /// The column a bounded run writes into `cache`, with every single
    /// candidate excluded.
    fn walked_column(cache: &EvalCache, source: &mut CandidateSource) -> Column {
        let mut column = cache.column(1, source.space_size());
        while let Some(stride) = source.stride() {
            match stride {
                Stride::One => column.push_excluded(EXCLUDED),
                Stride::Subtree(n) => column.push_run(n),
            }
        }
        column
    }

    /// The hits of a bounded run over the memo's column under
    /// fingerprint 1.
    fn walked_hits(cache: &EvalCache, mut source: CandidateSource) -> u128 {
        let mut reader = cache.open(1).unwrap();
        let mut hits = 0u128;
        while let Some(stride) = source.stride() {
            hits += match stride {
                Stride::One => u128::from(reader.next().is_some()),
                Stride::Subtree(n) => reader.skip(n),
            };
        }
        hits
    }

    #[test]
    fn a_column_cut_inside_a_skipped_subtree_hits_exactly_its_kept_head() {
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let source = || CandidateSource::ranged(&schema, 3, &[2, 3]).bounded(900);
        let full = walked_column(&EvalCache::default(), &mut source());
        assert!(full.slots.len() < full.len(), "no subtree skipped");
        for budget in (1..full.len()).step_by(7) {
            // A column cut at `budget`, possibly inside a run: a rerun
            // hits exactly the kept head.
            let cache = EvalCache::with_budget(budget);
            let cut = walked_column(&cache, &mut source());
            cache.commit(1, Some(cut), 0, 0);
            assert_eq!(cache.stats().entries, budget);
            assert_eq!(walked_hits(&cache, source()), budget as u128, "{budget}");
        }
    }
}
