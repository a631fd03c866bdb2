//! Deterministic fan-out of independent per-candidate work over a
//! persistent worker pool.
//!
//! The prediction pipeline evaluates every enumerated fragmentation
//! against the full query mix — an embarrassingly parallel workload
//! (paper §3.2 ranks hundreds of independent candidates). Earlier
//! revisions spawned fresh [`std::thread::scope`] workers per run, which
//! is measurable overhead on sub-millisecond warm pipelines and hostile
//! to a long-lived service. [`WorkerPool`] keeps the workers alive
//! instead, with **no external dependencies**:
//!
//! - Work items are claimed dynamically (an atomic cursor per job), so
//!   expensive candidate clusters spread over whichever workers are
//!   free; results are written into per-index slots and returned in
//!   input order, so the output is **bit-identical to the serial path**
//!   regardless of worker count or scheduling.
//! - The pool accepts jobs from many threads at once: concurrent
//!   sessions (e.g. `warlockd` connections running simultaneous
//!   what-ifs) enqueue independent jobs and idle workers drain whichever
//!   job has work left. A submitter participates in its own job, so
//!   progress never depends on pool threads being available.
//! - Threads are spawned lazily up to the largest requested worker
//!   count and parked on a condvar between jobs; `workers <= 1` (or
//!   tiny inputs) runs inline without touching the pool at all, which
//!   keeps the pinned `WARLOCK_PARALLELISM=1` lane strictly serial.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use super::EvalScratch;

thread_local! {
    /// This thread's evaluation arena. Pool threads persist across jobs,
    /// so an arena acquired here lives for the worker's lifetime and its
    /// buffers amortize to zero steady-state allocation.
    static SCRATCH: Cell<Option<EvalScratch>> = const { Cell::new(None) };
}

/// Runs `f` with this thread's evaluation arena, creating it on first
/// use and returning it to the thread-local slot afterwards (with
/// whatever capacity it grew). The arena is *taken out* of the slot for
/// the duration of the call, so a re-entrant call sees a fresh default
/// instead of aliasing — and a panicking `f` simply drops the arena
/// rather than leaving it in a torn state.
pub(super) fn with_scratch<R>(f: impl FnOnce(&mut EvalScratch) -> R) -> R {
    let mut scratch = SCRATCH.take().unwrap_or_default();
    let result = f(&mut scratch);
    SCRATCH.set(Some(scratch));
    result
}

/// Environment variable overriding the automatic worker count (only
/// consulted when [`crate::AdvisorConfig::parallelism`] is `0` = auto).
/// CI uses it to pin a serial lane without editing configurations.
pub(crate) const PARALLELISM_ENV: &str = "WARLOCK_PARALLELISM";

/// Resolves a configured parallelism knob to a concrete worker count:
/// `n >= 1` is taken literally; `0` means auto — the `WARLOCK_PARALLELISM`
/// environment variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].
pub(crate) fn effective_parallelism(requested: usize) -> usize {
    if requested >= 1 {
        return requested;
    }
    if let Ok(v) = std::env::var(PARALLELISM_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A lifetime-erased pointer to a job's per-index task. Only
/// dereferenced while the submitting [`WorkerPool::map`] frame is alive
/// (see the safety argument there).
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-callable from any thread), and
// `map` guarantees it outlives every dereference.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

#[derive(Default)]
struct Progress {
    /// Indices whose task call has returned (or unwound).
    finished: usize,
    /// First panic payload raised by any task, re-raised by the submitter.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One `map` call in flight: a task, an index cursor, and completion
/// tracking. Workers claim indices until the cursor passes `count`.
struct Job {
    task: TaskPtr,
    count: usize,
    /// Most threads allowed to execute this job, counting the
    /// submitter — the `workers` cap the caller configured. A pool
    /// grown to 8 threads by one session must still run a
    /// `parallelism = 2` job on at most 2 of them.
    limit: usize,
    /// Threads currently registered as executors of this job.
    executors: AtomicUsize,
    next: AtomicUsize,
    progress: Mutex<Progress>,
    done_cv: Condvar,
}

impl Job {
    /// Claims the next unprocessed index, if any remain.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.count).then_some(i)
    }

    /// Whether every index has been handed out (not necessarily finished).
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.count
    }

    /// Registers the calling thread as an executor, refusing once the
    /// configured worker cap is reached. Registrations are never given
    /// back — an executor only stops when the job has no claims left.
    fn register(&self) -> bool {
        let mut current = self.executors.load(Ordering::Relaxed);
        loop {
            if current >= self.limit {
                return false;
            }
            match self.executors.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => current = seen,
            }
        }
    }

    /// Runs claimed indices until none remain, recording completion (and
    /// any panic) per index so the submitter can wait for the last one.
    fn run_claims(&self) {
        while let Some(i) = self.claim() {
            // SAFETY: the submitter blocks in `map` until `finished`
            // reaches `count`, and `finished` is bumped only after this
            // call returns — the task cannot dangle while running.
            let task = unsafe { &*self.task.0 };
            let result = catch_unwind(AssertUnwindSafe(|| task(i)));
            let mut progress = self.progress.lock().expect("job progress poisoned");
            if let Err(payload) = result {
                progress.panic.get_or_insert(payload);
            }
            progress.finished += 1;
            if progress.finished == self.count {
                self.done_cv.notify_all();
            }
        }
    }
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
    work_cv: Condvar,
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if q.shutdown {
                    return;
                }
                // Drop fully-claimed jobs from the front (completion is
                // tracked on the job itself, the queue is only for
                // discovery), then pick the oldest job with work left
                // that still has an executor slot under its worker cap.
                while q.jobs.front().is_some_and(|j| j.exhausted()) {
                    q.jobs.pop_front();
                }
                if let Some(job) = q.jobs.iter().find(|j| !j.exhausted() && j.register()) {
                    break job.clone();
                }
                q = shared.work_cv.wait(q).expect("pool queue poisoned");
            }
        };
        job.run_claims();
    }
}

/// A per-index result slot, written by exactly one worker and read by
/// the submitter after the job completes.
struct Slot<U>(UnsafeCell<Option<U>>);

// SAFETY: each index is claimed exactly once (atomic cursor), so each
// slot has a single writer; the submitter reads only after every index
// finished.
unsafe impl<U: Send> Sync for Slot<U> {}

/// A persistent, multi-submitter evaluation pool. See the [module
/// docs](self). Owned by the shared state of a [`crate::Warlock`]
/// session (all clones reuse it).
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let threads = self.threads.lock().map(|t| t.len()).unwrap_or(0);
        f.debug_struct("WorkerPool")
            .field("threads", &threads)
            .finish()
    }
}

impl WorkerPool {
    /// An empty pool; threads are spawned on first parallel use.
    pub(crate) fn new() -> Self {
        Self {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(Queue::default()),
                work_cv: Condvar::new(),
            }),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Number of live pool threads (the submitter itself is always an
    /// additional worker).
    #[cfg(test)]
    pub(crate) fn threads(&self) -> usize {
        self.threads.lock().expect("pool threads poisoned").len()
    }

    /// Grows the pool to at least `target` parked threads.
    fn ensure_threads(&self, target: usize) {
        let mut threads = self.threads.lock().expect("pool threads poisoned");
        while threads.len() < target {
            let shared = self.shared.clone();
            let handle = std::thread::Builder::new()
                .name("warlock-eval".into())
                .spawn(move || worker_loop(shared))
                .expect("spawn evaluation worker");
            threads.push(handle);
        }
    }

    /// Applies `f` to every item and returns the results **in input
    /// order**, using up to `workers` threads (the calling thread plus
    /// pool workers). `workers <= 1` (or tiny inputs) runs inline
    /// without touching the pool. A panic in any worker propagates to
    /// the caller after the job fully drains.
    pub(crate) fn map<T, U, F>(&self, workers: usize, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let count = items.len();
        let workers = workers.clamp(1, count.max(1));
        if workers == 1 || count <= 1 {
            return items.iter().map(f).collect();
        }
        self.ensure_threads(workers - 1);

        let slots: Vec<Slot<U>> = (0..count).map(|_| Slot(UnsafeCell::new(None))).collect();
        let task = |i: usize| {
            let value = f(&items[i]);
            // SAFETY: index `i` is claimed exactly once; no other thread
            // touches this slot until the job completes.
            unsafe { *slots[i].0.get() = Some(value) };
        };
        let task: &(dyn Fn(usize) + Sync) = &task;
        // SAFETY: the 'static lifetime is a lie the blocking below makes
        // true — this frame does not return until `finished == count`,
        // and `finished` reaches `count` only after every task call has
        // returned (or unwound), so no worker can observe a dangling
        // `task`, `items`, `f` or `slots`.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let job = Arc::new(Job {
            task: TaskPtr(task as *const _),
            count,
            limit: workers,
            // The submitter below is executor #1.
            executors: AtomicUsize::new(1),
            next: AtomicUsize::new(0),
            progress: Mutex::new(Progress::default()),
            done_cv: Condvar::new(),
        });
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.jobs.push_back(job.clone());
        }
        self.shared.work_cv.notify_all();

        // The submitting thread is a worker too: help until claims run
        // dry, then wait for stragglers still executing their last item.
        job.run_claims();
        let mut progress = job.progress.lock().expect("job progress poisoned");
        while progress.finished < job.count {
            progress = job.done_cv.wait(progress).expect("job progress poisoned");
        }
        if let Some(payload) = progress.panic.take() {
            drop(progress);
            std::panic::resume_unwind(payload);
        }
        drop(progress);

        slots
            .into_iter()
            .map(|s| s.0.into_inner().expect("claimed index left no result"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        let threads = std::mem::take(&mut *self.threads.lock().expect("pool threads poisoned"));
        for handle in threads {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_worker_count() {
        let pool = WorkerPool::new();
        let items: Vec<u64> = (0..101).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 4, 7, 16, 101, 500] {
            assert_eq!(
                pool.map(workers, &items, |&x| x * x),
                expected,
                "W={workers}"
            );
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = WorkerPool::new();
        assert_eq!(pool.map(8, &Vec::<u32>::new(), |&x| x), Vec::<u32>::new());
        assert_eq!(pool.map(8, &[42], |&x| x + 1), vec![43]);
        // Neither touched the pool.
        assert_eq!(pool.threads(), 0);
    }

    #[test]
    fn threads_persist_across_jobs() {
        let pool = WorkerPool::new();
        let items: Vec<u32> = (0..64).collect();
        let expected: Vec<u32> = items.iter().map(|x| x + 1).collect();
        for _ in 0..5 {
            assert_eq!(pool.map(4, &items, |&x| x + 1), expected);
        }
        // 4 workers = 3 pool threads + the submitter; runs reuse them.
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        use std::collections::HashSet;
        let pool = WorkerPool::new();
        let seen = Mutex::new(HashSet::new());
        // Enough items that a sleeping submitter cannot drain them alone.
        let items: Vec<u32> = (0..64).collect();
        pool.map(4, &items, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            seen.lock().unwrap().insert(std::thread::current().id());
            x
        });
        assert!(seen.lock().unwrap().len() > 1, "work never left one thread");
    }

    #[test]
    fn worker_cap_holds_on_an_oversized_pool() {
        use std::collections::HashSet;
        let pool = WorkerPool::new();
        let items: Vec<u32> = (0..64).collect();
        // Grow the pool well past the later request.
        pool.map(8, &items, |&x| x);
        assert_eq!(pool.threads(), 7);
        // A 2-worker job on the 7-thread pool must execute on at most
        // 2 threads (the submitter plus one pool worker).
        let seen = Mutex::new(HashSet::new());
        pool.map(2, &items, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            seen.lock().unwrap().insert(std::thread::current().id());
            x
        });
        let executors = seen.lock().unwrap().len();
        assert!(executors <= 2, "2-worker job ran on {executors} threads");
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = WorkerPool::new();
        let items: Vec<u64> = (0..200).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let pool = &pool;
                    let items = &items;
                    scope.spawn(move || pool.map(3, items, |&x| x * 3))
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), expected);
            }
        });
    }

    #[test]
    fn effective_parallelism_resolution() {
        assert_eq!(effective_parallelism(1), 1);
        assert_eq!(effective_parallelism(6), 6);
        assert!(effective_parallelism(0) >= 1);
    }

    #[test]
    fn scratch_persists_per_thread_and_nests_fresh() {
        // Run on a thread of its own, so the arena starts empty.
        std::thread::spawn(|| {
            // Same thread: state persists between calls.
            with_scratch(|s| s.uses += 1);
            assert_eq!(with_scratch(|s| s.uses), 1);
            // A re-entrant call gets a fresh default, not an alias of
            // the outer arena, and the outer arena is what stays.
            let (outer, inner) = with_scratch(|s| {
                s.uses += 1;
                (s.uses, with_scratch(|nested| nested.uses))
            });
            assert_eq!((outer, inner), (2, 0));
            assert_eq!(with_scratch(|s| s.uses), 2);
            // A panicking call drops its arena instead of returning it.
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                with_scratch(|s| {
                    s.uses += 1;
                    panic!("torn arena");
                })
            }));
            assert!(panicked.is_err());
            assert_eq!(with_scratch(|s| s.uses), 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn scratch_arenas_are_per_worker_thread() {
        let pool = WorkerPool::new();
        let items: Vec<u32> = (0..64).collect();
        // Every claimed item must observe a scratch bound to its own
        // thread — an arena created on one worker never migrates.
        pool.map(4, &items, |&x| {
            with_scratch(|s| {
                let me = std::thread::current().id();
                match s.owner {
                    None => s.owner = Some(me),
                    Some(owner) => assert_eq!(owner, me, "scratch crossed threads"),
                }
            });
            x
        });
    }

    #[test]
    fn worker_panics_propagate_and_pool_survives() {
        let pool = WorkerPool::new();
        let items: Vec<u32> = (0..16).collect();
        let boom = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(4, &items, |&x| {
                if x == 9 {
                    panic!("worker boom");
                }
                x
            })
        }));
        let payload = boom.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "worker boom");
        // The pool is still usable after a panicked job.
        assert_eq!(
            pool.map(4, &items, |&x| x + 1),
            items.iter().map(|x| x + 1).collect::<Vec<_>>()
        );
    }
}
