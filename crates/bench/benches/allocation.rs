//! Criterion: allocation schemes at scale, the co-access partitioner
//! and the allocation-policy judge on a `fit`-shaped warehouse.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use warlock::schema::{Dimension, FactTable, StarSchema};
use warlock::storage::SystemConfig;
use warlock::workload::{DimensionPredicate, QueryClass, QueryMix};
use warlock::{AdvisorConfig, Warlock};
use warlock_alloc::{
    greedy_by_size, partition_coaccess, round_robin, CoAccessGraph, DiskAccessProfile,
};

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

/// Fan-outs per level of the `fit` warehouse: 6 dimensions, 3 to 4
/// levels deep (the benchmark's `tuning-fit` shape).
const FIT_FANOUTS: [&[u64]; 6] = [
    &[4, 6, 2, 3],
    &[6, 4, 3],
    &[2, 6, 4],
    &[3, 4, 6, 2],
    &[4, 2, 6],
    &[6, 3, 4],
];

/// A session over the `fit` warehouse: 2·10⁹ fact rows on 32 disks,
/// candidates of up to three attributes with ranges of 2 and 3, and six
/// classes that each filter one dimension by a point and another by a
/// quarter of its values.
fn fit_session() -> Warlock {
    let mut schema = StarSchema::builder();
    for (d, fanouts) in FIT_FANOUTS.iter().enumerate() {
        let mut dim = Dimension::builder(format!("d{d}"));
        let mut cardinality = 1u64;
        for (l, fanout) in fanouts.iter().enumerate() {
            cardinality *= fanout;
            dim = dim.level(format!("l{l}"), cardinality);
        }
        schema = schema.dimension(dim.build().expect("integral fan-outs"));
    }
    let fact = FactTable::builder("fact")
        .measure("m0", 8)
        .measure("m1", 8)
        .rows(2_000_000_000)
        .build();
    let schema = schema.fact(fact).build().expect("valid fit schema");

    let n = FIT_FANOUTS.len();
    let cardinality = |d: usize, level: usize| FIT_FANOUTS[d][..=level].iter().product::<u64>();
    let mut mix = QueryMix::builder();
    for c in 0..6usize {
        let (point, ranged) = (c % n, (2 * c + 1) % n);
        let level = |d: usize| c % FIT_FANOUTS[d].len();
        let mut class = QueryClass::new(format!("q{c:02}"))
            .with(point as u16, DimensionPredicate::point(level(point) as u16));
        if ranged != point {
            let values = (cardinality(ranged, level(ranged)) / 4).max(1);
            class = class.with(
                ranged as u16,
                DimensionPredicate::range(level(ranged) as u16, values),
            );
        }
        mix = mix.class(class, (1 + c * 7 % 10) as f64);
    }
    let mut config = AdvisorConfig {
        max_dimensionality: 3,
        range_options: vec![2, 3],
        ..AdvisorConfig::default()
    };
    config.thresholds.max_fragments = 1 << 16;
    Warlock::builder()
        .schema(schema)
        .system(SystemConfig::default_2001(32))
        .mix(mix.build().expect("non-empty fit mix"))
        .config(config)
        .build()
        .expect("valid fit session")
}

fn bench_policy_judge(c: &mut Criterion) {
    let warm = fit_session();
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
