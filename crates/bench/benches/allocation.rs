//! Criterion: allocation schemes at scale, the co-access partitioner
//! and the allocation-policy judge on a `fit`-shaped warehouse.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use warlock_alloc::{
    greedy_by_size, partition_coaccess, round_robin, CoAccessGraph, DiskAccessProfile,
};
use warlock_bench::{shaped_session, FIT};

fn sizes(n: usize) -> Vec<u64> {
    // Zipf-flavoured sizes, deterministic.
    (0..n).map(|i| 1_000_000 / (i as u64 + 1) + 512).collect()
}

fn bench_schemes(c: &mut Criterion) {
    let mut g = c.benchmark_group("allocation");
    for n in [1_000usize, 10_000, 100_000] {
        let input = sizes(n);
        g.bench_with_input(BenchmarkId::new("round_robin", n), &input, |b, input| {
            b.iter(|| black_box(round_robin(input.clone(), 64)))
        });
        g.bench_with_input(BenchmarkId::new("greedy_by_size", n), &input, |b, input| {
            b.iter(|| black_box(greedy_by_size(input.clone(), 64)))
        });
    }
    g.finish();
}

fn bench_profiles(c: &mut Criterion) {
    let allocation = round_robin(sizes(100_000), 64);
    let accessed: Vec<usize> = (0..100_000).step_by(3).collect();
    c.bench_function("allocation/profile_33k_accesses", |b| {
        b.iter(|| {
            black_box(DiskAccessProfile::build(
                black_box(&allocation),
                black_box(&accessed),
                5.0,
            ))
        })
    });
}

fn bench_occupancy(c: &mut Criterion) {
    let allocation = greedy_by_size(sizes(100_000), 64);
    c.bench_function("allocation/occupancy_stats_100k", |b| {
        b.iter(|| black_box(allocation.occupancy_stats()))
    });
}

/// The co-access graph of the `fit` warehouse's top candidate: 13,824
/// fragments and six query-class groups. Five groups are wider than the
/// clique limit and add heat only; the 192-fragment one (every 72nd
/// fragment) forms the 18,336-pair clique.
fn fit_graph() -> CoAccessGraph {
    let n = 13_824u32;
    let sizes: Vec<u64> = (0..u64::from(n))
        .map(|i| 9_437_184 + (i * 7919) % 1024 * 4096)
        .collect();
    let mut b = CoAccessGraph::builder(sizes);
    let groups: [(Vec<u32>, f64, f64); 6] = [
        ((0..576).collect(), 0.2581, 0.9),
        ((0..2304).collect(), 0.0645, 0.4),
        ((0..n).step_by(8).collect(), 0.2903, 0.6),
        ((0..n).step_by(4).collect(), 0.1613, 0.3),
        ((0..n).step_by(72).collect(), 0.1935, 2.5),
        ((0..2304).collect(), 0.0323, 0.4),
    ];
    for (frags, share, ms) in &groups {
        b.add_group(frags, share * ms * frags.len() as f64);
        for &f in frags {
            b.add_heat(f, share * ms);
        }
    }
    b.build()
}

fn bench_partition(c: &mut Criterion) {
    let graph = fit_graph();
    c.bench_function("allocation/partition_coaccess_fit", |b| {
        b.iter(|| black_box(partition_coaccess(black_box(&graph), 32, 0)))
    });
}

fn bench_policy_judge(c: &mut Criterion) {
    let warm = shaped_session(&FIT);
    warm.rank().expect("fit warehouse ranks");
    c.bench_function("policy_judge/cold_fit", |b| {
        b.iter(|| {
            // A fresh snapshot over the warm memo: the ranking is a
            // recombination and the policy judge runs in full.
            let mut session = warm.clone();
            session
                .set_system(*warm.system())
                .expect("unchanged system validates");
            black_box(session.recommend_policy().expect("fit warehouse judges"))
        })
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
    targets = bench_schemes, bench_profiles, bench_occupancy, bench_partition, bench_policy_judge
}
criterion_main!(benches);
