//! The warm what-if allocation gate.
//!
//! A warm what-if recombines memoized class rows and ranks on keys: no
//! candidate becomes a heap object except the reported ones (the top N
//! and the exclusion samples). This binary installs the counting
//! allocator and asserts that a repeated warm `what_if_disks` makes
//! fewer than [`MAX_ALLOCATIONS_PER_CANDIDATE`] heap allocations per
//! enumerated candidate. Allocation counts are deterministic, so unlike
//! a timing bound this catches a per-candidate allocation coming back.
//!
//! It holds a single test: the allocator's counters are process-wide,
//! and a second test running alongside would count into the first.

use std::hint::black_box;

use warlock_bench::alloc_probe::{allocation_profile, probe_installed, CountingAlloc};
use warlock_bench::{shaped_session, SPILL};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The gate: one allocation per candidate is what a single per-candidate
/// `Vec` costs, so this catches any of them coming back.
const MAX_ALLOCATIONS_PER_CANDIDATE: f64 = 0.1;

/// Warm what-ifs measured, after one unmeasured warm-up.
const REPEATS: u64 = 4;

#[test]
fn a_warm_what_if_allocates_less_than_a_tenth_per_candidate() {
    assert!(probe_installed(), "the counting allocator is not installed");
    let session = shaped_session(&SPILL);
    // The cold rank writes the memo column every disk count reads.
    session.rank().unwrap();
    let misses = session.cache_stats().misses;
    let (report, _) = session.what_if_disks(64).unwrap();
    let candidates = report.enumerated as u64;
    assert!(candidates >= 10_000, "only {candidates} candidates");

    let ((), allocations, _) = allocation_profile(|| {
        for _ in 0..REPEATS {
            black_box(session.what_if_disks(64).unwrap());
        }
    });
    assert_eq!(
        session.cache_stats().misses,
        misses,
        "the what-ifs were not warm"
    );
    let per_candidate = allocations as f64 / (REPEATS * candidates) as f64;
    println!(
        "warm what_if_disks: {allocations} allocations over {REPEATS} runs of \
         {candidates} candidates = {per_candidate:.4} per candidate"
    );
    assert!(
        per_candidate < MAX_ALLOCATIONS_PER_CANDIDATE,
        "{per_candidate:.4} allocations per candidate (limit {MAX_ALLOCATIONS_PER_CANDIDATE})"
    );
}
