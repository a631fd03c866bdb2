//! Deterministic fan-out of one run's independent candidate groups over
//! a crew of scoped threads, and the process's evaluation arenas.
//!
//! Only a cold run has fresh work to share, so a [`Crew`] lives for one
//! run, inside its [`std::thread::scope`], which joins every helper
//! before the run returns, on errors too. Helpers claim groups through
//! the batch's atomic cursor and answer them by index, so results are in
//! input order and **bit-identical to the serial path** at any worker
//! count. [`ARENAS`] keeps the evaluation arenas warm across runs and
//! sessions.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Scope};

use super::EvalScratch;
use crate::config::MAX_PARALLELISM;

/// Environment variable overriding the automatic worker count (only
/// consulted when [`crate::AdvisorConfig::parallelism`] is `0` = auto).
/// CI uses it to pin a serial lane without editing configurations.
pub(crate) const PARALLELISM_ENV: &str = "WARLOCK_PARALLELISM";

/// Resolves a configured parallelism knob to a concrete worker count,
/// at most [`MAX_PARALLELISM`]: `n >= 1` is taken literally; `0` means
/// auto — the `WARLOCK_PARALLELISM` environment variable if set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
pub(crate) fn effective_parallelism(requested: usize) -> usize {
    let workers = if requested >= 1 {
        requested
    } else {
        std::env::var(PARALLELISM_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .or_else(|| thread::available_parallelism().ok().map(NonZeroUsize::get))
            .unwrap_or(1)
    };
    workers.min(MAX_PARALLELISM)
}

/// A stack of evaluation arenas, each held by one thread at a time.
#[derive(Default)]
pub(crate) struct Arenas(Mutex<Vec<EvalScratch>>);

/// The evaluation arenas every run draws from. A Yao memo entry is a
/// pure function of its key, so an arena warmed by one session serves
/// any other; the stack never holds more arenas than were in use at once.
pub(super) static ARENAS: Arenas = Arenas(Mutex::new(Vec::new()));

impl Arenas {
    /// Runs `f` with an arena popped off the stack (a fresh one when it
    /// is empty) and pushes it back afterwards, with whatever capacity
    /// it grew. A panicking `f` drops its arena, never returning it
    /// half-written.
    pub(super) fn with<R>(&self, f: impl FnOnce(&mut EvalScratch) -> R) -> R {
        let mut arena = self.stack().pop().unwrap_or_default();
        let result = f(&mut arena);
        self.stack().push(arena);
        result
    }

    /// The stack. Only `pop` and `push` run under its lock, so poison leaves it whole.
    fn stack(&self) -> MutexGuard<'_, Vec<EvalScratch>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One batch of a crew: its items, each claimed once through the cursor.
struct Batch<T>(Vec<Mutex<Option<T>>>, AtomicUsize);

impl<T> Batch<T> {
    /// Claims the next unclaimed item and its index, if any remain.
    fn claim(&self) -> Option<(usize, T)> {
        // Relaxed: the cursor publishes no data; each item's mutex does.
        let i = self.1.fetch_add(1, Ordering::Relaxed);
        let slot = self.0.get(i)?;
        let item = slot.lock().unwrap_or_else(PoisonError::into_inner).take()?;
        Some((i, item))
    }
}

/// A claimed item's index and what its task call returned or raised.
type Answer<U> = (usize, thread::Result<U>);

/// A started crew: each helper's batch channel, and the answer channel.
type Helpers<T, U> = (Vec<Sender<Arc<Batch<T>>>>, Receiver<Answer<U>>);

/// The helper threads of one run. See the [module docs](self).
pub(crate) struct Crew<'scope, 'env, T, U, F> {
    scope: &'scope Scope<'scope, 'env>,
    task: &'scope F,
    workers: usize,
    /// `None` until the crew starts.
    helpers: Option<Helpers<T, U>>,
}

impl<'scope, 'env, T: Send + 'scope, U: Send + 'scope, F: Fn(T) -> U + Sync>
    Crew<'scope, 'env, T, U, F>
{
    /// A crew of up to `workers` threads, the caller included, running
    /// `task` on the threads of `scope`. Starts no thread yet.
    pub(crate) fn new(scope: &'scope Scope<'scope, 'env>, workers: usize, task: &'scope F) -> Self {
        Self {
            scope,
            task,
            workers,
            helpers: None,
        }
    }

    /// Spawns up to `count` helpers, stopping at the first that cannot
    /// be spawned.
    fn start(&self, count: usize) -> Helpers<T, U> {
        let (answer, answers) = channel();
        let mut helpers = Vec::with_capacity(count);
        for _ in 0..count {
            let (helper, batches) = channel::<Arc<Batch<T>>>();
            let (answer, task) = (answer.clone(), self.task);
            // Answer each claimed item of every batch until the crew hangs up.
            let help = move || {
                for batch in batches {
                    while let Some((i, item)) = batch.claim() {
                        let _ = answer.send((i, catch_unwind(AssertUnwindSafe(|| task(item)))));
                    }
                }
            };
            let spawned = thread::Builder::new()
                .name("warlock-eval".into())
                .spawn_scoped(self.scope, help);
            if spawned.is_err() {
                break;
            }
            helpers.push(helper);
        }
        #[cfg(test)]
        tests::started(helpers.len());
        (helpers, answers)
    }

    /// Applies the task to every item and returns the results **in
    /// input order**. The crew's first batch of two or more items starts
    /// `min(workers, items) − 1` helpers; a batch without helpers or of
    /// one item runs on the calling thread alone. A panic in an item
    /// reaches the caller once the whole batch is answered.
    pub(crate) fn map(&mut self, items: Vec<T>) -> Vec<U> {
        let count = items.len();
        if self.helpers.is_none() && count >= 2 && self.workers >= 2 {
            self.helpers = Some(self.start(self.workers.min(count) - 1));
        }
        let (helpers, answers) = match &self.helpers {
            Some((helpers, answers)) if count >= 2 && !helpers.is_empty() => (helpers, answers),
            _ => return items.into_iter().map(self.task).collect(),
        };
        let items = items.into_iter().map(Some).map(Mutex::new).collect();
        let batch = Arc::new(Batch(items, AtomicUsize::new(0)));
        for helper in helpers {
            let _ = helper.send(Arc::clone(&batch));
        }
        let mut results: Vec<Option<thread::Result<U>>> = (0..count).map(|_| None).collect();
        let mut answered = 0;
        while let Some((i, item)) = batch.claim() {
            results[i] = Some(catch_unwind(AssertUnwindSafe(|| (self.task)(item))));
            answered += 1;
        }
        for (i, answer) in answers.iter().take(count - answered) {
            results[i] = Some(answer);
        }
        // Every item is answered (or its helpers hung up) before the
        // first panic, in input order, is re-raised.
        let answer = |result: Option<_>| match result.expect("crew helpers hung up mid-batch") {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        };
        results.into_iter().map(answer).collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    thread_local! {
        /// Crews started on this thread, and the helpers they spawned.
        pub(crate) static STARTED: std::cell::Cell<(usize, usize)> =
            const { std::cell::Cell::new((0, 0)) };
    }

    /// Counts a crew start with `helpers` helpers.
    pub(super) fn started(helpers: usize) {
        STARTED.set((STARTED.get().0 + 1, STARTED.get().1 + helpers));
    }

    /// Runs every batch through one crew of `workers` in one scope,
    /// returning the results and the threads the items ran on.
    fn run_crew<U: Send>(
        workers: usize,
        batches: Vec<Vec<u64>>,
        task: impl Fn(u64) -> U + Sync,
    ) -> (Vec<Vec<U>>, HashSet<ThreadId>) {
        let seen = Mutex::new(HashSet::new());
        let task = |x| {
            seen.lock().unwrap().insert(thread::current().id());
            task(x)
        };
        let results = thread::scope(|scope| {
            let mut crew = Crew::new(scope, workers, &task);
            batches.into_iter().map(|b| crew.map(b)).collect()
        });
        (results, seen.into_inner().unwrap())
    }

    /// An item slow enough that a sleeping caller cannot drain a batch
    /// alone.
    fn slow(x: u64) -> u64 {
        thread::sleep(std::time::Duration::from_millis(1));
        x * x
    }

    #[test]
    fn preserves_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..101).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 4, 7, 16, 101, 500] {
            let (results, _) = run_crew(workers, vec![items.clone(); 3], |x| x * x);
            assert!(results.iter().all(|r| *r == expected), "W={workers}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let me = thread::current().id();
        STARTED.set((0, 0));
        // Batches of at most one item never start the crew.
        let (results, seen) = run_crew(8, vec![vec![], vec![6], vec![7]], |x| x + 1);
        assert_eq!(results, vec![vec![], vec![7], vec![8]]);
        assert_eq!(seen, HashSet::from([me]));
        // Neither does a single worker, on any batch.
        let (results, seen) = run_crew(1, vec![(0..64).collect(); 3], slow);
        assert_eq!(results[2].len(), 64);
        assert_eq!(seen, HashSet::from([me]));
        assert_eq!(STARTED.get(), (0, 0));
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        // Items 0 and 1 meet at a barrier, so whichever thread claimed
        // one waits until another thread claims the other.
        let meet = std::sync::Barrier::new(2);
        let (_, seen) = run_crew(4, vec![(0..64).collect()], |x| {
            if x < 2 {
                meet.wait();
            }
        });
        assert!(seen.len() > 1, "work never left the caller");
    }

    #[test]
    fn a_crew_starts_once_with_at_most_workers_minus_one_helpers() {
        STARTED.set((0, 0));
        // Every batch of one crew shares the helpers of its one start.
        let (_, seen) = run_crew(3, vec![(0..64).collect(); 4], slow);
        assert_eq!(STARTED.get(), (1, 2));
        assert!(
            seen.len() <= 3,
            "a 3-worker crew ran on {} threads",
            seen.len()
        );
        // A crew started on a two-item batch keeps its one helper for
        // the later, larger batches.
        STARTED.set((0, 0));
        let (_, seen) = run_crew(8, vec![vec![1, 2], (0..64).collect()], slow);
        assert_eq!(STARTED.get(), (1, 1));
        assert!(
            seen.len() <= 2,
            "a 1-helper crew ran on {} threads",
            seen.len()
        );
    }

    #[test]
    fn panics_reach_the_caller_after_the_batch_and_drop_the_arena() {
        let arenas = Arenas::default();
        let done = AtomicUsize::new(0);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            run_crew(4, vec![(0..16).collect()], |x| {
                arenas.with(|s| {
                    if x == 9 {
                        s.uses = u32::MAX;
                        panic!("worker boom");
                    }
                    s.uses += 1;
                });
                done.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = boom.expect_err("panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker boom"));
        // Every other item was answered, and the torn arena is gone.
        assert_eq!(done.into_inner(), 15);
        assert!(arenas.stack().iter().all(|s| s.uses < 16));
    }

    #[test]
    fn arenas_persist_and_nest_fresh() {
        let arenas = Arenas::default();
        arenas.with(|s| s.uses += 1);
        assert_eq!(arenas.with(|s| s.uses), 1);
        // A nested call gets another arena, not an alias of the outer,
        // and both stay on the stack.
        let (outer, inner) = arenas.with(|s| (s.uses, arenas.with(|nested| nested.uses)));
        assert_eq!((outer, inner), (1, 0));
        assert_eq!(arenas.stack().len(), 2);
    }

    #[test]
    fn arenas_are_held_by_one_thread_at_a_time() {
        let arenas = Arenas::default();
        run_crew(4, vec![(0..64).collect(); 2], |_| {
            arenas.with(|s| {
                let me = thread::current().id();
                assert_eq!(s.owner.replace(me), None, "arena held by two threads");
                thread::sleep(std::time::Duration::from_micros(200));
                s.uses += 1;
                s.owner = None;
            })
        });
        // At most one arena per worker, and none lost its counts.
        let stack = arenas.stack();
        assert!(stack.len() <= 4, "{} arenas for 4 workers", stack.len());
        assert_eq!(stack.iter().map(|s| s.uses).sum::<u32>(), 128);
    }

    #[test]
    fn effective_parallelism_resolution() {
        assert_eq!(effective_parallelism(1), 1);
        assert_eq!(effective_parallelism(6), 6);
        assert!((1..=MAX_PARALLELISM).contains(&effective_parallelism(0)));
        assert_eq!(effective_parallelism(MAX_PARALLELISM + 1), MAX_PARALLELISM);
        assert_eq!(effective_parallelism(usize::MAX), MAX_PARALLELISM);
    }
}
