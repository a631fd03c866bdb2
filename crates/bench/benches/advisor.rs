//! Criterion: the full advisor pipeline and its pieces.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use warlock::AdvisorConfig;
use warlock_bench::{shaped_session, Fixture, ENUMERATION, FIT};
use warlock_fragment::Fragmentation;

fn bench_full_pipeline(c: &mut Criterion) {
    let f = Fixture::demo();
    c.bench_function("advisor/full_run_168_candidates", |b| {
        let advisor = f.session();
        b.iter(|| black_box(advisor.run().unwrap()))
    });
}

/// A cold rank of the enumeration-bound warehouse: 45,278 candidates,
/// 38,479 of them over `max_fragments`, 6,537 costed.
fn bench_cold_rank_enumeration_shape(c: &mut Criterion) {
    let mut session = shaped_session(&ENUMERATION);
    c.bench_function("advisor/cold_rank_enumeration_shape", |b| {
        b.iter(|| {
            session.invalidate();
            black_box(session.rank().unwrap().enumerated)
        })
    });
}

/// The disk counts a capacity-planning sweep over the `fit` warehouse
/// (32 disks) asks about.
const DISK_SWEEP: [u32; 6] = [4, 8, 16, 64, 128, 256];

/// A cold rank of the `fit` warehouse, then a what-if per disk count
/// of [`DISK_SWEEP`]: the disk counts recombine the rank's memo column
/// instead of re-costing the space.
fn bench_disk_sweep_fit(c: &mut Criterion) {
    let mut session = shaped_session(&FIT);
    c.bench_function("advisor/disk_sweep_fit", |b| {
        b.iter(|| {
            session.invalidate();
            session.rank().unwrap();
            for disks in DISK_SWEEP {
                black_box(session.what_if_disks(disks).unwrap());
            }
        })
    });
}

/// Warm what-ifs on the `fit` warehouse: the disk counts of the
/// benchmark's tuning cycle and a fixed prefetch, every one served
/// from the memo after the first iteration.
fn bench_warm_what_if_fit(c: &mut Criterion) {
    let session = shaped_session(&FIT);
    session.rank().unwrap();
    c.bench_function("advisor/warm_what_if_fit", |b| {
        b.iter(|| {
            for disks in [16, 64, 128] {
                black_box(session.what_if_disks(disks).unwrap());
            }
            black_box(session.what_if_fixed_prefetch(16).unwrap())
        })
    });
}

fn bench_single_candidate(c: &mut Criterion) {
    let f = Fixture::demo();
    let advisor = f.session();
    let frag = Fragmentation::from_pairs(&[(0, 1), (2, 2)]).unwrap();
    c.bench_function("advisor/evaluate_one_candidate", |b| {
        b.iter(|| black_box(advisor.evaluate(black_box(&frag)).unwrap()))
    });
}

fn bench_analysis_and_plan(c: &mut Criterion) {
    let f = Fixture::demo();
    let advisor = f.session();
    let frag = Fragmentation::from_pairs(&[(0, 1), (2, 2)]).unwrap();
    c.bench_function("advisor/analyze_candidate", |b| {
        b.iter(|| black_box(advisor.analyze_candidate(black_box(&frag)).unwrap()))
    });
    c.bench_function("advisor/plan_allocation_360_fragments", |b| {
        b.iter(|| black_box(advisor.plan_candidate(black_box(&frag)).unwrap()))
    });
}

fn bench_shallow_run(c: &mut Criterion) {
    let f = Fixture::demo();
    c.bench_function("advisor/run_1d_only_13_candidates", |b| {
        let config = AdvisorConfig {
            max_dimensionality: 1,
            ..Default::default()
        };
        let advisor = f.session_with(config);
        b.iter(|| black_box(advisor.run().unwrap()))
    });
}

/// Bounded-runtime criterion config: benchmark sweeps stay meaningful but
/// `cargo bench --workspace` completes in minutes, not hours.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_full_pipeline, bench_cold_rank_enumeration_shape, bench_disk_sweep_fit, bench_warm_what_if_fit, bench_single_candidate, bench_analysis_and_plan, bench_shallow_run
}
criterion_main!(benches);
