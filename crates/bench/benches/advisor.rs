//! Criterion: the full advisor pipeline and its pieces.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use warlock::AdvisorConfig;
use warlock_bench::{shaped_session, Fixture, ENUMERATION};
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
    targets = bench_full_pipeline, bench_cold_rank_enumeration_shape, bench_single_candidate, bench_analysis_and_plan, bench_shallow_run
}
criterion_main!(benches);
