//! Criterion: fragmentation enumeration and layout math.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use warlock_bench::{shaped_session, Fixture, ENUMERATION};
use warlock_fragment::{
    enumerate_candidates, CandidateSource, FragmentLayout, Fragmentation, SkewModelExt, Stride,
    ThresholdContext, Thresholds,
};
use warlock_skew::DimensionSkew;

fn bench_enumeration(c: &mut Criterion) {
    let f = Fixture::demo();
    c.bench_function("fragment/enumerate_168_candidates", |b| {
        b.iter(|| black_box(enumerate_candidates(black_box(&f.schema), 4)))
    });
}

/// The enumeration-bound warehouse's 45,278 candidates, walked the way
/// the pipeline consumes them: every candidate materialized (the full
/// walk), against the bounded walk that steps over each subtree whose
/// every candidate exceeds `max_fragments` (34,600 candidates in 1,189
/// subtrees) and materializes only the rest.
fn bench_bounded_walk(c: &mut Criterion) {
    let session = shaped_session(&ENUMERATION);
    let config = session.config();
    let source = || {
        CandidateSource::ranged(
            session.schema(),
            config.max_dimensionality,
            &config.range_options,
        )
    };
    c.bench_function("fragment/full_walk_enumeration_shape", |b| {
        b.iter(|| black_box(source().count()))
    });
    c.bench_function("fragment/bounded_walk_enumeration_shape", |b| {
        b.iter(|| {
            let mut walk = source().bounded(config.thresholds.max_fragments);
            let mut candidates = 0usize;
            while let Some(stride) = walk.stride() {
                if stride == Stride::One {
                    candidates += usize::from(black_box(walk.current()).is_some());
                }
            }
            black_box(candidates)
        })
    });
}

fn bench_layout(c: &mut Criterion) {
    let f = Fixture::demo();
    let frag = Fragmentation::from_pairs(&[(0, 3), (2, 2)]).unwrap(); // 7200 frags
    c.bench_function("fragment/layout_build_7200", |b| {
        b.iter(|| black_box(FragmentLayout::new(&f.schema, black_box(frag.clone()), 0)))
    });
    let layout = FragmentLayout::new(&f.schema, frag, 0);
    c.bench_function("fragment/coords_roundtrip", |b| {
        b.iter(|| {
            let coords = layout.coords_of(black_box(4321));
            black_box(layout.index_of(&coords))
        })
    });
}

fn bench_skewed_sizes(c: &mut Criterion) {
    let f = Fixture::demo();
    let skew = f.schema.skew_model(&[
        DimensionSkew::zipf(1.0),
        DimensionSkew::zipf(0.5),
        DimensionSkew::UNIFORM,
        DimensionSkew::UNIFORM,
    ]);
    let layout = FragmentLayout::new(
        &f.schema,
        Fragmentation::from_pairs(&[(0, 3), (2, 2)]).unwrap(),
        0,
    );
    c.bench_function("fragment/skewed_weights_7200", |b| {
        b.iter(|| black_box(layout.fragment_weights(&f.schema, black_box(&skew))))
    });
    c.bench_function("fragment/apportion_7200", |b| {
        let weights = layout.fragment_weights(&f.schema, &skew);
        b.iter(|| black_box(warlock_fragment::apportion(17_496_000, black_box(&weights))))
    });
}

fn bench_thresholds(c: &mut Criterion) {
    let f = Fixture::demo();
    let thresholds = Thresholds::default();
    let ctx = ThresholdContext {
        rows_per_page: 146,
        prefetch_pages: 8,
        num_disks: 16,
    };
    let layouts: Vec<FragmentLayout> = enumerate_candidates(&f.schema, 4)
        .into_iter()
        .filter(|frag| frag.num_fragments(&f.schema) <= 1 << 20)
        .map(|frag| FragmentLayout::new(&f.schema, frag, 0))
        .collect();
    c.bench_function("fragment/threshold_check_all", |b| {
        b.iter(|| {
            let mut kept = 0;
            for layout in &layouts {
                if thresholds.check(black_box(layout), ctx).is_ok() {
                    kept += 1;
                }
            }
            black_box(kept)
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
    targets = bench_enumeration, bench_bounded_walk, bench_layout, bench_skewed_sizes, bench_thresholds
}
criterion_main!(benches);
