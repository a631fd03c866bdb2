//! Per-session memoization of candidate evaluations.
//!
//! What-if tuning (§3.3) re-runs the whole prediction pipeline against a
//! perturbed input set, and interactive sessions issue the same
//! variations repeatedly. Re-costing a candidate is only necessary when
//! an input that feeds the cost model actually changed, so [`EvalCache`]
//! memoizes every ranking run as one immutable **memo column**: the
//! run's outcomes in enumeration order, one cell per step of the run's
//! bounded walk — a `Slot` per candidate (its exclusion, or its fragment
//! count and the position of its unweighted per-class cost rows in one
//! flat row buffer), and one run-length cell per subtree the walk
//! stepped over because every candidate in it has too many fragments
//! (see [`CandidateSource::stride`]). A column is keyed by the run
//! fingerprint (system, mix structure, scheme, thresholds, range
//! options) and the run's `max_dimensionality`; a cold run writes it in
//! its merge loop without hashing or storing candidates and commits it
//! under one lock, and a warm run reads its cells in order, a run cell
//! answering a skipped subtree as one hit per candidate. A column of
//! another `max_dimensionality` under the same fingerprint is read by
//! striding its own bounded walk alongside the run's (the smaller space
//! is an in-order subsequence of the larger one, and both skip a subtree
//! at the same digits; the narrower walk counts its own share of it).
//! Single-candidate [`Warlock::evaluate`](crate::Warlock::evaluate)
//! calls keep a keyed map, since they are on no ranking path.
//!
//! The fingerprint covers *every* input the outcomes depend on, so
//! columns from different what-if variations — and from different
//! snapshots of the same session family — coexist: `what_if_disks(64)`
//! twice re-costs nothing the second time, returning to the baseline
//! after a sweep is free, and a what-if priced on one `Warlock` clone is
//! warm on every other clone. `invalidate()` clears it explicitly.
//!
//! The memo holds at most `MAX_ENTRIES` entries. Entries count
//! candidates, not cells: a column's entries are the candidates it
//! covers, a run cell counting each of its own, plus one per `evaluate`
//! entry. So skipping a subtree changes neither admission nor eviction.
//! Admission is by reuse, so a what-if cycle whose columns outgrow the
//! budget keeps most of them warm instead of evicting each one just
//! before it is asked for again (the textbook failure of plain LRU on
//! a cyclic pattern). A new column that fits the free room is admitted.
//! One that does not may evict whole columns, least recently used
//! first, but only columns that have gone unused since its key
//! `(fingerprint, max_dimensionality)` was last refused; if that still
//! leaves too little room it is refused, and its key is remembered as a
//! *ghost* stamped with the refusal. A first-time newcomer therefore
//! never evicts anything, and a key asked for twice displaces only the
//! columns that went cold in between, so a new working set takes over
//! after one repeat. Ghosts older than the least-recently-used resident
//! could evict nothing and are dropped; at most `MAX_GHOSTS` are kept.
//! A single run longer than the whole budget keeps a prefix column. An
//! `evaluate` entry never evicts a column: with no free room it resets
//! the other `evaluate` entries instead.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use warlock_cost::{CandidateCost, ClassCost};
use warlock_fragment::{CandidateSource, Exclusion, Fragmentation, Stride};

/// FNV-1a. Candidate keys are a handful of bytes; FNV keeps the probe
/// cost of the `evaluate` map proportional to the key size.
#[derive(Debug, Clone)]
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

type FnvBuild = BuildHasherDefault<FnvHasher>;

/// Observable counters of an [`EvalCache`](crate::Warlock::cache_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCacheStats {
    /// Memoized candidate outcomes currently held: the candidates the
    /// columns cover (a skipped subtree counts each of its candidates)
    /// plus the `evaluate` entries.
    pub entries: usize,
    /// Lookups answered from the cache since the session was built (or
    /// the cache last cleared).
    pub hits: u64,
    /// Lookups that required a fresh evaluation.
    pub misses: u64,
    /// Memo columns currently held.
    pub columns: usize,
    /// Columns evicted to admit another.
    pub evicted: u64,
    /// Column commits the admission rule declined.
    pub refused: u64,
}

/// Memo budget: candidates covered by columns plus `evaluate` entries. A full
/// APB-1-like run memoizes ~170 outcomes, so this holds hundreds of
/// distinct what-if variations before whole columns are evicted.
const MAX_ENTRIES: usize = 1 << 16;

/// Refused column keys remembered at most (see the module docs). A
/// what-if cycle needs one per variation that does not fit, so a
/// handful suffices.
const MAX_GHOSTS: usize = 32;

/// One candidate's memoized pipeline outcome, at its enumeration
/// ordinal in a [`Column`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Slot {
    /// The thresholds excluded the candidate.
    Excluded(Exclusion),
    /// The candidate survived; its unweighted class rows are
    /// [`Column::rows`]`(row)`.
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

impl Cell {
    fn slot(self) -> Option<Slot> {
        match self {
            Self::One(slot) => Some(slot),
            Self::Run(_) => None,
        }
    }
}

/// The memo of one ranking run: a cell per step of the run's bounded
/// walk in enumeration order — a candidate's slot, or one run-length
/// cell per skipped subtree — and the `k` unweighted class rows
/// (classes in configured-mix order) of each costed candidate,
/// candidate by candidate. Weight-free, so a pure re-weight recombines
/// the rows under the new shares instead of re-costing. Shared as an
/// `Arc` and never mutated after commit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Column {
    max_dimensionality: usize,
    classes: usize,
    slots: Vec<Cell>,
    rows: Vec<ClassCost>,
    /// Candidates the cells cover (a run counts each of its own).
    entries: usize,
}

/// Cells a new column reserves at most up front: a run's skipped
/// subtrees can leave far fewer cells than candidates, so the rest grow
/// on demand.
const RESERVED_CELLS: usize = 4096;

impl Column {
    /// An empty column for a run over `space` candidates with `classes`
    /// mix classes. Pushes past [`MAX_ENTRIES`] candidates are dropped,
    /// leaving a prefix column.
    pub(crate) fn new(max_dimensionality: usize, classes: usize, space: u128) -> Self {
        let reserved = usize::try_from(space).map_or(RESERVED_CELLS, |s| s.min(RESERVED_CELLS));
        Self {
            max_dimensionality,
            classes,
            slots: Vec::with_capacity(reserved),
            rows: Vec::new(),
            entries: 0,
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
        if self.entries < MAX_ENTRIES {
            self.slots.push(Cell::One(Slot::Excluded(reason)));
            self.entries += 1;
        }
    }

    /// Appends the next candidate as costed, with its `k` class rows.
    pub(crate) fn push_costed(&mut self, num_fragments: u64, rows: &[ClassCost]) {
        debug_assert_eq!(rows.len(), self.classes);
        if self.entries < MAX_ENTRIES {
            let row = (self.rows.len() / self.classes.max(1)) as u32;
            self.slots
                .push(Cell::One(Slot::Costed { num_fragments, row }));
            self.rows.extend_from_slice(rows);
            self.entries += 1;
        }
    }

    /// Appends the next `candidates` as one skipped subtree (as much of
    /// it as the budget leaves room for).
    pub(crate) fn push_run(&mut self, candidates: u128) {
        let room = (MAX_ENTRIES - self.entries) as u128;
        let kept = candidates.min(room);
        if kept > 0 {
            self.slots.push(Cell::Run(kept as u64));
            self.entries += kept as usize;
        }
    }

    /// Keeps only the first `len` candidates (and the rows they
    /// reference); a run straddling the cut keeps its head.
    fn truncate(&mut self, len: usize) {
        let mut covered = 0usize;
        let mut kept = 0usize;
        for cell in &mut self.slots {
            if covered == len {
                break;
            }
            if let Cell::Run(n) = cell {
                *n = (*n).min((len - covered) as u64);
                covered += *n as usize;
            } else {
                covered += 1;
            }
            kept += 1;
        }
        self.slots.truncate(kept);
        self.entries = covered;
        let costed = self
            .slots
            .iter()
            .rev()
            .find_map(|cell| match cell {
                Cell::One(Slot::Costed { row, .. }) => Some(*row as usize + 1),
                _ => None,
            })
            .unwrap_or(0);
        self.rows.truncate(costed * self.classes);
        self.rows.shrink_to_fit();
        self.slots.shrink_to_fit();
    }
}

/// Serves a run's candidates, in enumeration order, from a committed
/// [`Column`]. Obtained from [`EvalCache::open`].
#[derive(Debug)]
pub(crate) struct ColumnReader {
    column: Arc<Column>,
    /// Index of the next cell to serve (the cell the walk's source
    /// currently stands on).
    next: usize,
    walk: Option<Walk>,
}

/// The cross-dimensionality read: the column's own bounded candidate
/// source, strided alongside the run's.
#[derive(Debug)]
struct Walk {
    source: CandidateSource,
    /// Whether the column's space contains the run's (skip forward to
    /// each run candidate) rather than the other way round (serve only
    /// exact matches, never skipping).
    wider: bool,
    /// What the source stands on, `None` once exhausted.
    at: Option<Stride>,
}

impl Walk {
    fn step(&mut self) {
        self.at = self.source.stride();
    }
}

impl ColumnReader {
    /// Whether the column was written under the run's own key, so the
    /// run need not write a new one.
    pub(crate) fn is_exact(&self) -> bool {
        self.walk.is_none()
    }

    /// The cell the walk stands on, given whether it matches the run's
    /// current position. Steps past every cell before a match when the
    /// column is wider; `None` on a miss.
    fn find(&mut self, here: impl Fn(&CandidateSource) -> bool) -> Option<(Cell, &mut Walk)> {
        let walk = self.walk.as_mut()?;
        loop {
            if walk.at.is_none() || self.next >= self.column.slots.len() {
                return None;
            }
            let matched = here(&walk.source);
            if !matched && !walk.wider {
                return None;
            }
            let cell = self.column.slots[self.next];
            self.next += 1;
            if matched {
                return Some((cell, walk));
            }
            walk.step();
        }
    }

    /// The memoized slot of the run's next candidate, `candidate`, or
    /// `None` on a miss. Must be called once per run candidate, in
    /// enumeration order, interleaved with [`Self::skip`].
    pub(crate) fn next(&mut self, candidate: &Fragmentation) -> Option<Slot> {
        if self.walk.is_none() {
            let cell = self.column.slots.get(self.next).copied();
            self.next += 1;
            return cell?.slot();
        }
        let (cell, walk) = self.find(|own| own.current_is(candidate))?;
        walk.step();
        cell.slot()
    }

    /// Serves the skipped subtree of `candidates` candidates that the
    /// run's bounded `source` stands on; returns how many of them the
    /// column covers (its hits). Called in enumeration order,
    /// interleaved with [`Self::next`].
    pub(crate) fn skip(&mut self, source: &CandidateSource, candidates: u128) -> u128 {
        if self.walk.is_none() {
            let cell = self.column.slots.get(self.next).copied();
            self.next += 1;
            return match cell {
                Some(Cell::Run(n)) => u128::from(n).min(candidates),
                _ => 0,
            };
        }
        let Some((cell, walk)) = self.find(|own| own.same_subtree(source)) else {
            return 0;
        };
        let hits = match (cell, walk.at) {
            // A narrower column's subtree lies inside the run's, so its
            // whole run (or the kept head of a cut one) hits.
            (Cell::Run(n), _) if !walk.wider => u128::from(n),
            // A wider column's subtree holds all of the run's.
            (Cell::Run(n), Some(Stride::Subtree(size))) if u128::from(n) == size => candidates,
            // Cut short at the budget: the run's candidates (those
            // within its cap) among the kept head.
            (Cell::Run(n), _) => walk
                .source
                .subtree()
                .take(n as usize)
                .filter(|c| c.dimensionality() <= source.max_dimensionality())
                .count() as u128,
            (Cell::One(_), _) => 0,
        };
        walk.step();
        hits
    }

    /// The class rows a [`Slot::Costed`] from this reader points at.
    pub(crate) fn rows(&self, row: u32) -> &[ClassCost] {
        self.column.rows(row)
    }
}

/// A column's memo key: run fingerprint and `max_dimensionality`.
type Key = (u128, usize);

/// A committed column and its recency stamp.
#[derive(Debug, Clone)]
struct Held {
    fingerprint: u128,
    column: Arc<Column>,
    last_used: u64,
}

impl Held {
    fn key(&self) -> Key {
        (self.fingerprint, self.column.max_dimensionality)
    }
}

#[derive(Debug, Clone, Default)]
struct Inner {
    columns: Vec<Held>,
    /// Refused column keys with their refusal stamps, oldest first.
    ghosts: Vec<(Key, u64)>,
    /// `evaluate` outcomes by input fingerprint, then candidate — the
    /// two-level shape lets a probe borrow the candidate instead of
    /// cloning it into a tuple key.
    evaluated: HashMap<u128, HashMap<Fragmentation, Arc<CandidateCost>, FnvBuild>, FnvBuild>,
    evaluated_entries: usize,
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

    /// Candidates covered by columns plus `evaluate` entries.
    fn entries(&self) -> usize {
        let covered: usize = self.columns.iter().map(|held| held.column.len()).sum();
        covered + self.evaluated_entries
    }

    /// Makes room for a column of `len` slots under `key`, or refuses
    /// it: evicts least-recently-used columns, but only those unused
    /// since `key` was last refused, and only if that frees enough room.
    /// A refusal evicts nothing and remembers `key` as a ghost.
    fn admit(&mut self, key: Key, len: usize, budget: usize) -> bool {
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

/// The candidate-evaluation memo shared by every clone of a session.
/// Interior-mutable and lock-protected, so concurrent clones can serve
/// `&self` evaluations from several threads; a ranking run takes the
/// lock once to open a column and once to commit, never across an
/// evaluation.
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

    /// Opens the column a run keyed `(fingerprint, max_dimensionality)`
    /// reads from: its own if held, else — walked through `source_at`,
    /// which builds the candidate source at a given dimensionality —
    /// the held column of the same fingerprint with the closest wider
    /// dimensionality, or failing that the widest narrower one.
    pub(crate) fn open(
        &self,
        fingerprint: u128,
        max_dimensionality: usize,
        source_at: impl FnOnce(usize) -> CandidateSource,
    ) -> Option<ColumnReader> {
        let mut inner = self.lock();
        let best = inner
            .columns
            .iter()
            .enumerate()
            .filter(|(_, held)| held.fingerprint == fingerprint)
            .min_by_key(|(_, held)| {
                // Exact first, then the closest wider, then the closest
                // narrower.
                let d = held.column.max_dimensionality;
                (d < max_dimensionality, d.abs_diff(max_dimensionality))
            })
            .map(|(i, _)| i)?;
        let stamp = inner.tick();
        let held = &mut inner.columns[best];
        held.last_used = stamp;
        let column = Arc::clone(&held.column);
        drop(inner);
        let walk = (column.max_dimensionality != max_dimensionality).then(|| {
            let mut source = source_at(column.max_dimensionality);
            Walk {
                at: source.stride(),
                wider: column.max_dimensionality > max_dimensionality,
                source,
            }
        });
        Some(ColumnReader {
            column,
            next: 0,
            walk,
        })
    }

    /// Ends a ranking run: counts its `hits` and `misses` and, when the
    /// run wrote one, commits its column — unless a column under the
    /// same key is already held (a racing clone committed first), or
    /// the admission rule (see the module docs) refuses it. A column
    /// longer than the whole budget left by `evaluate` entries keeps
    /// only its prefix.
    pub(crate) fn commit(&self, fingerprint: u128, column: Option<Column>, hits: u64, misses: u64) {
        let mut inner = self.lock();
        inner.hits += hits;
        inner.misses += misses;
        let Some(mut column) = column else { return };
        let key = (fingerprint, column.max_dimensionality);
        if inner.columns.iter().any(|held| held.key() == key) {
            return;
        }
        let most = self.budget.saturating_sub(inner.evaluated_entries);
        if column.len() > most {
            column.truncate(most);
        }
        if column.len() == 0 || !inner.admit(key, column.len(), self.budget) {
            return;
        }
        let last_used = inner.tick();
        inner.columns.push(Held {
            fingerprint,
            column: Arc::new(column),
            last_used,
        });
    }

    /// The memoized `evaluate` outcome for `(fingerprint,
    /// fragmentation)`, updating the hit/miss counters.
    pub(crate) fn lookup(
        &self,
        fingerprint: u128,
        fragmentation: &Fragmentation,
    ) -> Option<Arc<CandidateCost>> {
        let mut inner = self.lock();
        let found = inner
            .evaluated
            .get(&fingerprint)
            .and_then(|per_fp| per_fp.get(fragmentation))
            .cloned();
        match &found {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        found
    }

    /// Memoizes an `evaluate` outcome. One entry never evicts a
    /// column: at the budget, the other `evaluate` entries are dropped
    /// instead, and when columns alone fill it the outcome is not kept.
    pub(crate) fn insert(
        &self,
        fingerprint: u128,
        fragmentation: Fragmentation,
        cost: Arc<CandidateCost>,
    ) {
        let mut inner = self.lock();
        if inner.entries() >= self.budget {
            inner.evaluated_entries = 0;
            inner.evaluated.clear();
            if inner.entries() >= self.budget {
                return;
            }
        }
        if inner
            .evaluated
            .entry(fingerprint)
            .or_default()
            .insert(fragmentation, cost)
            .is_none()
        {
            inner.evaluated_entries += 1;
        }
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
    use warlock_schema::{apb1_like_schema, Apb1Config};

    fn frag(pairs: &[(u16, u16)]) -> Fragmentation {
        Fragmentation::from_pairs(pairs).unwrap()
    }

    fn cost(f: &Fragmentation) -> Arc<CandidateCost> {
        Arc::new(warlock_cost::combine_class_costs(f.clone(), 1, &[], &[]))
    }

    const EXCLUDED: Exclusion = Exclusion::FewerFragmentsThanDisks {
        fragments: 1,
        disks: 2,
    };

    /// A column of `len` slots, every third costed with `classes` rows
    /// whose fields carry the slot ordinal.
    fn column(max_dimensionality: usize, len: usize, classes: usize) -> Column {
        let mut column = Column::new(max_dimensionality, classes, len as u128);
        for i in 0..len {
            if i % 3 == 0 {
                let row = ClassCost {
                    busy_ms: i as f64,
                    ..ClassCost::default()
                };
                column.push_costed(i as u64, &vec![row; classes]);
            } else {
                column.push_excluded(EXCLUDED);
            }
        }
        column
    }

    fn no_source(_: usize) -> CandidateSource {
        unreachable!("an exact column needs no walk")
    }

    /// Reads a run of `len` candidates at `max_dimensionality` from
    /// whatever `fingerprint` holds; returns the hit count.
    fn read(cache: &EvalCache, fingerprint: u128, max_dimensionality: usize, len: usize) -> u64 {
        let Some(mut reader) = cache.open(fingerprint, max_dimensionality, no_source) else {
            return 0;
        };
        let none = Fragmentation::none();
        let hits = (0..len).filter(|_| reader.next(&none).is_some()).count() as u64;
        cache.commit(fingerprint, None, hits, len as u64 - hits);
        hits
    }

    #[test]
    fn lookup_miss_then_hit() {
        let cache = EvalCache::default();
        let f = frag(&[(0, 1)]);
        assert_eq!(cache.lookup(7, &f), None);
        cache.insert(7, f.clone(), cost(&f));
        assert!(cache.lookup(7, &f).is_some());
        // Same candidate under a different fingerprint is a different entry.
        assert_eq!(cache.lookup(8, &f), None);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = EvalCache::default();
        let f = frag(&[]);
        cache.insert(1, f.clone(), cost(&f));
        let _ = cache.lookup(1, &f);
        cache.clear();
        assert_eq!(cache.stats(), EvalCacheStats::default());
    }

    #[test]
    fn concurrent_probes_and_inserts_are_safe() {
        let cache = EvalCache::default();
        std::thread::scope(|scope| {
            for t in 0..4u16 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..50u16 {
                        let f = frag(&[(t, i % 4)]);
                        let _ = cache.lookup(u128::from(i % 7), &f);
                        cache.insert(u128::from(i % 7), f.clone(), cost(&f));
                        cache.commit(u128::from(t), Some(column(1, 5, 2)), 0, 0);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 50);
        assert!(stats.entries > 0);
        // One column per distinct key, however many runs raced it.
        assert_eq!(cache.lock().columns.len(), 4);
    }

    #[test]
    fn entries_count_distinct_outcomes_across_fingerprints() {
        let cache = EvalCache::default();
        let f = frag(&[(0, 0)]);
        cache.insert(1, f.clone(), cost(&f));
        cache.insert(1, f.clone(), cost(&f)); // overwrite, not a new entry
        cache.insert(2, f.clone(), cost(&f));
        let g = frag(&[(0, 1)]);
        cache.insert(2, g.clone(), cost(&g));
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn clone_is_a_deep_copy() {
        let cache = EvalCache::default();
        let f = frag(&[(0, 0)]);
        cache.insert(1, f.clone(), cost(&f));
        let copy = cache.clone();
        cache.clear();
        assert_eq!(copy.stats().entries, 1);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn a_column_reads_back_by_ordinal() {
        let cache = EvalCache::default();
        assert!(cache.open(1, 2, no_source).is_none());
        cache.commit(1, Some(column(2, 10, 3)), 0, 10);
        let mut reader = cache.open(1, 2, no_source).unwrap();
        assert!(reader.is_exact());
        let none = Fragmentation::none();
        for i in 0..10 {
            match reader.next(&none).unwrap() {
                Slot::Excluded(reason) => {
                    assert_ne!(i % 3, 0);
                    assert_eq!(reason, EXCLUDED);
                }
                Slot::Costed { num_fragments, row } => {
                    assert_eq!(num_fragments, i as u64);
                    let rows = reader.rows(row);
                    assert_eq!(rows.len(), 3);
                    assert!(rows.iter().all(|r| r.busy_ms == i as f64));
                }
            }
        }
        assert_eq!(reader.next(&none), None, "past the column's end");
        // Another fingerprint holds nothing.
        assert!(cache.open(2, 2, no_source).is_none());
    }

    #[test]
    fn a_column_for_a_held_key_is_not_committed_twice() {
        let cache = EvalCache::default();
        cache.commit(1, Some(column(2, 10, 1)), 0, 10);
        cache.commit(1, Some(column(2, 10, 1)), 0, 10);
        cache.commit(1, Some(column(3, 12, 1)), 0, 12);
        assert_eq!(cache.stats().entries, 22);
        assert_eq!(cache.stats().misses, 32);
    }

    #[test]
    fn columns_that_fit_the_budget_all_stay_warm() {
        // Seven fingerprints that together fit the budget, as a
        // what-if cycle over a baseline and six variations.
        let cache = EvalCache::default();
        let len = MAX_ENTRIES / 7;
        for fp in 0..7 {
            cache.commit(fp, Some(column(3, len, 4)), 0, len as u64);
        }
        for _ in 0..3 {
            for fp in 0..7 {
                assert_eq!(read(&cache, fp, 3, len), len as u64, "fingerprint {fp}");
            }
        }
        assert_eq!(cache.stats().entries, 7 * len);
    }

    #[test]
    fn overflow_evicts_whole_least_recently_used_columns() {
        let cache = EvalCache::default();
        let len = MAX_ENTRIES / 4;
        for fp in 0..4 {
            cache.commit(fp, Some(column(3, len, 2)), 0, 0);
        }
        assert_eq!(cache.stats().entries, MAX_ENTRIES);
        // Touch 0 so 1 becomes the least recently used.
        assert_eq!(read(&cache, 0, 3, len), len as u64);
        // A first-time newcomer is refused and evicts nothing…
        cache.commit(4, Some(column(3, len / 2, 2)), 0, 0);
        assert_eq!(cache.stats().entries, MAX_ENTRIES);
        // …and asked for again it evicts the coldest column whole.
        cache.commit(4, Some(column(3, len / 2, 2)), 0, 0);
        for (fp, warm) in [(0, true), (1, false), (2, true), (3, true), (4, true)] {
            let want = match (warm, fp) {
                (false, _) => 0,
                (true, 4) => len / 2,
                (true, _) => len,
            };
            assert_eq!(read(&cache, fp, 3, len), want as u64, "fingerprint {fp}");
        }
        assert_eq!(cache.stats().entries, 3 * len + len / 2);
        // A repeated column needing room for two evicts the two coldest
        // whole.
        cache.commit(5, Some(column(3, 2 * len, 2)), 0, 0);
        cache.commit(5, Some(column(3, 2 * len, 2)), 0, 0);
        let held: Vec<usize> = (0..6)
            .map(|fp| read(&cache, fp, 3, 2 * len) as usize)
            .collect();
        assert_eq!(held, [0, 0, 0, len, len / 2, 2 * len]);
        let stats = cache.stats();
        assert_eq!((stats.columns, stats.evicted, stats.refused), (3, 3, 2));
    }

    /// One ranking run of `len` candidates under `fingerprint`: reads
    /// what the memo holds and, on a miss, commits its own column.
    /// Returns whether it hit.
    fn run(cache: &EvalCache, fingerprint: u128, len: usize) -> bool {
        let hit = read(cache, fingerprint, 3, len) == len as u64;
        if !hit {
            cache.commit(fingerprint, Some(column(3, len, 2)), 0, 0);
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
        assert!(cache.open(9, 3, no_source).is_none());
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
        assert!((0..4).all(|fp| cache.open(fp, 3, no_source).is_none()));
    }

    #[test]
    fn the_ghost_list_stays_bounded() {
        let cache = EvalCache::default();
        let len = MAX_ENTRIES / 4;
        cycle(&cache, 0..4, len);
        for fp in 100..1_100 {
            cache.commit(fp, Some(column(3, 1, 1)), 0, 0);
            assert!(cache.lock().ghosts.len() <= MAX_GHOSTS);
        }
        let stats = cache.stats();
        assert_eq!((stats.columns, stats.evicted, stats.refused), (4, 0, 1_000));
        // Once every resident was used since, the old ghosts could evict
        // nothing and are dropped at the next refusal.
        assert_eq!(cycle(&cache, 0..4, len), 4);
        cache.commit(2_000, Some(column(3, 1, 1)), 0, 0);
        assert_eq!(cache.lock().ghosts.len(), 1);
    }

    #[test]
    fn an_evaluate_entry_never_evicts_a_column() {
        let cache = EvalCache::with_budget(12);
        cache.commit(1, Some(column(3, 5, 1)), 0, 0);
        cache.commit(2, Some(column(3, 5, 1)), 0, 0);
        let frags: Vec<_> = (0..3).map(|i| frag(&[(0, i)])).collect();
        for f in &frags {
            cache.insert(7, f.clone(), cost(f));
        }
        // The third entry reset the other two instead of evicting.
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.columns, stats.evicted), (11, 2, 0));
        assert!(cache.lookup(7, &frags[0]).is_none());
        assert!(cache.lookup(7, &frags[2]).is_some());
        // With columns alone filling the budget, the entry is not kept.
        let cache = EvalCache::with_budget(10);
        cache.commit(1, Some(column(3, 5, 1)), 0, 0);
        cache.commit(2, Some(column(3, 5, 1)), 0, 0);
        cache.insert(7, frags[0].clone(), cost(&frags[0]));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.columns, stats.evicted), (10, 2, 0));
        assert!(cache.lookup(7, &frags[0]).is_none());
    }

    #[test]
    fn an_oversized_run_keeps_a_prefix_and_a_rerun_hits_exactly_it() {
        let cache = EvalCache::default();
        let f = frag(&[(0, 0)]);
        cache.insert(9, f.clone(), cost(&f));
        let run = MAX_ENTRIES + 100;
        // The writer stops at the budget…
        let written = column(3, run, 2);
        assert_eq!(written.len(), MAX_ENTRIES);
        cache.commit(1, Some(written), 0, run as u64);
        // …and the commit trims it to what fits next to the evaluate
        // entry.
        assert_eq!(cache.stats().entries, MAX_ENTRIES);
        let before = cache.stats();
        assert_eq!(read(&cache, 1, 3, run), (MAX_ENTRIES - 1) as u64);
        let after = cache.stats();
        assert_eq!(after.hits - before.hits, (MAX_ENTRIES - 1) as u64);
        assert_eq!(after.misses - before.misses, 101);
        // The kept prefix is intact: rows end at the last kept costed slot.
        let held = Arc::clone(&cache.lock().columns[0].column);
        assert_eq!(held.rows.len(), (MAX_ENTRIES - 1).div_ceil(3) * 2);
        assert_eq!(held.slots[..], column(3, MAX_ENTRIES - 1, 2).slots[..]);
    }

    #[test]
    fn entries_count_slots_plus_evaluate_entries_and_invalidate_clears_both() {
        let cache = EvalCache::default();
        cache.commit(1, Some(column(2, 40, 3)), 0, 40);
        cache.commit(2, Some(column(2, 25, 3)), 0, 25);
        for pairs in [&[(0, 0)][..], &[(0, 1)], &[(1, 0)]] {
            let f = frag(pairs);
            cache.insert(1, f.clone(), cost(&f));
        }
        assert_eq!(cache.stats().entries, 40 + 25 + 3);
        cache.clear();
        assert_eq!(cache.stats(), EvalCacheStats::default());
        assert!(cache.open(1, 2, no_source).is_none());
        let f = frag(&[(0, 0)]);
        assert!(cache.lookup(1, &f).is_none());
    }

    #[test]
    fn a_poisoned_memo_is_reset_and_keeps_serving() {
        let cache = EvalCache::default();
        let f = frag(&[(0, 0)]);
        cache.insert(1, f.clone(), cost(&f));
        let _ = cache.lookup(1, &f);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.panic_while_locked();
        }));
        assert!(panicked.is_err());
        assert!(cache.inner.is_poisoned());
        assert_eq!(cache.stats(), EvalCacheStats::default());
        assert!(!cache.inner.is_poisoned());
        cache.insert(1, f.clone(), cost(&f));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn a_column_of_another_dimensionality_is_walked_in_order() {
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let source_at = |d: usize| CandidateSource::point(&schema, d);
        let narrow: Vec<_> = source_at(1).collect();
        let wide: Vec<_> = source_at(2).collect();
        // Slot `i` records its own ordinal as a fragment count.
        let ordinal_column = |d: usize, len: usize| {
            let mut column = Column::new(d, 1, len as u128);
            for i in 0..len {
                column.push_costed(i as u64, &[ClassCost::default()]);
            }
            column
        };
        let cache = EvalCache::default();
        cache.commit(1, Some(ordinal_column(2, wide.len())), 0, 0);
        // Narrow run over a wide column: every candidate hits, at its
        // ordinal in the wide space.
        let mut reader = cache.open(1, 1, source_at).unwrap();
        assert!(!reader.is_exact());
        for candidate in &narrow {
            let want = wide.iter().position(|w| w == candidate).unwrap() as u64;
            assert_eq!(
                reader.next(candidate),
                Some(Slot::Costed {
                    num_fragments: want,
                    row: want as u32
                })
            );
        }
        // Wide run over a narrow column: exactly the narrow candidates
        // hit, in order.
        let cache = EvalCache::default();
        cache.commit(1, Some(ordinal_column(1, narrow.len())), 0, 0);
        let mut reader = cache.open(1, 2, source_at).unwrap();
        let mut served = Vec::new();
        for candidate in &wide {
            if let Some(Slot::Costed { num_fragments, .. }) = reader.next(candidate) {
                assert_eq!(&narrow[num_fragments as usize], candidate);
                served.push(num_fragments);
            }
        }
        assert_eq!(served, (0..narrow.len() as u64).collect::<Vec<_>>());
        // The exact key wins over any other dimensionality.
        cache.commit(1, Some(ordinal_column(2, 3)), 0, 0);
        assert!(cache.open(1, 2, source_at).unwrap().is_exact());
    }

    /// The column a bounded run at `max_dimensionality` writes, with
    /// every single candidate excluded.
    fn walked_column(source: &mut CandidateSource) -> Column {
        let mut column = Column::new(source.max_dimensionality(), 1, source.space_size());
        while let Some(stride) = source.stride() {
            match stride {
                Stride::One => column.push_excluded(EXCLUDED),
                Stride::Subtree(n) => column.push_run(n),
            }
        }
        column
    }

    /// The hits of a bounded run at `max_dimensionality` over whatever
    /// the memo holds under fingerprint 1.
    fn walked_hits(
        cache: &EvalCache,
        source_at: impl Fn(usize) -> CandidateSource,
        max_dimensionality: usize,
    ) -> u128 {
        let mut reader = cache.open(1, max_dimensionality, &source_at).unwrap();
        let mut source = source_at(max_dimensionality);
        let mut hits = 0u128;
        while let Some(stride) = source.stride() {
            hits += match stride {
                Stride::One => u128::from(reader.next(&source.current().unwrap()).is_some()),
                Stride::Subtree(n) => reader.skip(&source, n),
            };
        }
        hits
    }

    #[test]
    fn a_column_cut_inside_a_skipped_subtree_hits_exactly_its_kept_head() {
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let source_at = |d: usize| CandidateSource::ranged(&schema, d, &[2, 3]).bounded(900);
        let plain = |d: usize| -> Vec<Fragmentation> {
            CandidateSource::ranged(&schema, d, &[2, 3]).collect()
        };
        let wide = plain(3);
        let wide_column = walked_column(&mut source_at(3));
        assert!(
            wide_column.slots.len() < wide_column.len(),
            "no subtree skipped"
        );
        for d in [1, 2] {
            let narrow = plain(d);
            let narrow_column = walked_column(&mut source_at(d));
            for budget in (1..wide.len()).step_by(7) {
                // Exact and narrower reads of a wide column cut at
                // `budget`: a candidate hits if it lies within the kept
                // head.
                let cache = EvalCache::with_budget(budget);
                cache.commit(1, Some(wide_column.clone()), 0, 0);
                assert_eq!(cache.stats().entries, budget);
                assert_eq!(walked_hits(&cache, source_at, 3), budget as u128);
                let kept = &wide[..budget];
                let want = narrow.iter().filter(|c| kept.contains(c)).count();
                assert_eq!(
                    walked_hits(&cache, source_at, d),
                    want as u128,
                    "{d} {budget}"
                );
                // A wider read of a narrow column cut at `budget`.
                let cache = EvalCache::with_budget(budget);
                cache.commit(1, Some(narrow_column.clone()), 0, 0);
                let want = budget.min(narrow.len());
                assert_eq!(
                    walked_hits(&cache, source_at, 3),
                    want as u128,
                    "{d} {budget}"
                );
            }
        }
    }
}
