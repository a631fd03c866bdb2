//! Bounded-walk equivalence: enumerating with whole over-`max_fragments`
//! subtrees skipped must be indistinguishable from walking every
//! candidate.
//!
//! * At the source, expanding each skipped subtree reproduces the plain
//!   iterator exactly, every expanded candidate is over the bound, and
//!   the strides sum to `space_size()`.
//! * At the engine, a report under a small `max_fragments` equals a
//!   materialized oracle that walks the plain iterator with the
//!   pre-exclusion rules — `enumerated`, the exclusion groups (order,
//!   counts and samples) and the ranking — at any worker count and
//!   chunk size, and the memo accounts for every skipped candidate: a
//!   cold run's entries equal `enumerated` and a warm rank hits every
//!   one, while a run at another `max_dimensionality` — narrower or
//!   wider — runs cold under its own key and matches a fresh session.

use proptest::prelude::*;

use warlock::prelude::*;
use warlock::{AdvisorReport, ExcludedCandidate, ExcludedSummary, RankedCandidate};
use warlock_cost::CostModel;
use warlock_fragment::{CandidateSource, Exclusion, FragmentLayout, Fragmentation, Stride};
use warlock_schema::{random_schema, Dimension, FactTable, RandomSchemaConfig, StarSchema};
use warlock_workload::{GeneratorConfig, QueryMix, WorkloadGenerator};

/// Fragment bounds from "everything but the baseline is over" to
/// "nothing is".
const LIMITS: [u64; 9] = [0, 1, 2, 10, 100, 1_000, 100_000, 1 << 40, u64::MAX];

fn random_inputs(seed: u64) -> (StarSchema, QueryMix, SystemConfig) {
    let schema = random_schema(
        seed,
        RandomSchemaConfig {
            dimensions: (1, 4),
            depth: (1, 3),
            ..Default::default()
        },
    )
    .unwrap();
    let mix = WorkloadGenerator::new(
        seed.wrapping_mul(0x9e37_79b9),
        GeneratorConfig {
            num_classes: 4,
            max_dimensionality: 3,
            range_probability: 0.25,
        },
    )
    .mix(&schema);
    let system = SystemConfig::default_2001(1 + (seed % 24) as u32);
    (schema, mix, system)
}

/// Five dimensions whose bottom levels multiply past `u64::MAX` at
/// four or more used dimensions.
fn overflowing_schema() -> StarSchema {
    let mut builder = StarSchema::builder();
    for d in 0..5 {
        let dim = Dimension::builder(format!("d{d}"))
            .level("top", 1_000)
            .level("bottom", 100_000)
            .build()
            .unwrap();
        builder = builder.dimension(dim);
    }
    let fact = FactTable::builder("f").measure("m", 8).rows(1_000).build();
    builder.fact(fact).build().unwrap()
}

/// Walks `source` bounded by `limit`, expanding every skipped subtree;
/// checks each stride on the way and returns the expanded candidates.
fn expand(schema: &StarSchema, mut source: CandidateSource, limit: u64) -> Vec<Fragmentation> {
    let mut out = Vec::new();
    let mut strides = 0u128;
    while let Some(stride) = source.stride() {
        strides += stride.candidates();
        match stride {
            Stride::One => out.push(source.current().expect("stands on a candidate")),
            Stride::Subtree(size) => {
                let subtree: Vec<_> = source.subtree().collect();
                assert_eq!(subtree.len() as u128, size);
                for candidate in &subtree {
                    let fragments = candidate.num_fragments(schema);
                    assert!(fragments > u128::from(limit), "{candidate} within {limit}");
                    assert!(fragments <= u128::from(u64::MAX), "{candidate} overflows");
                }
                out.extend(subtree);
            }
        }
    }
    assert_eq!(strides, source.space_size());
    out
}

fn session(
    seed: u64,
    max_dimensionality: usize,
    limit: u64,
    ranged: bool,
    workers: usize,
    chunk: usize,
) -> Warlock {
    let (schema, mix, system) = random_inputs(seed);
    Warlock::builder()
        .schema(schema)
        .system(system)
        .mix(mix)
        .config(config(max_dimensionality, limit, ranged))
        .parallelism(workers)
        .chunk_size(chunk)
        .build()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
}

fn config(max_dimensionality: usize, limit: u64, ranged: bool) -> AdvisorConfig {
    let mut config = AdvisorConfig {
        max_dimensionality,
        range_options: if ranged { vec![2, 3, 5] } else { Vec::new() },
        ..Default::default()
    };
    config.thresholds.max_fragments = limit;
    config
}

/// The report of walking every candidate of the plain iterator: the
/// pipeline's pre-exclusion rules, then layout, thresholds and scalar
/// costing, ranked at the end.
fn oracle(session: &Warlock) -> AdvisorReport {
    let schema = session.schema();
    let config = session.config();
    let ctx = session.threshold_context();
    let model = CostModel::new(schema, session.system(), session.scheme(), session.mix())
        .with_fact_index(config.fact_index)
        .unwrap();
    let mut enumerated = 0;
    let mut excluded = ExcludedSummary::new();
    let mut costs = Vec::new();
    for fragmentation in
        CandidateSource::ranged(schema, config.max_dimensionality, &config.range_options)
    {
        enumerated += 1;
        let fragments = fragmentation.num_fragments(schema);
        let outcome = if fragments > u128::from(u64::MAX) {
            Err(Exclusion::FragmentCountOverflow { fragments })
        } else if fragments > u128::from(config.thresholds.max_fragments) {
            Err(Exclusion::TooManyFragments {
                fragments: fragments as u64,
                limit: config.thresholds.max_fragments,
            })
        } else {
            let layout = FragmentLayout::new(schema, fragmentation.clone(), config.fact_index);
            config
                .thresholds
                .check(&layout, ctx)
                .map(|()| model.evaluate_layout(&layout))
        };
        match outcome {
            Err(reason) => excluded.record(reason, || ExcludedCandidate {
                label: fragmentation.label(schema),
                fragmentation: fragmentation.clone(),
                reason,
            }),
            Ok(cost) => costs.push(cost),
        }
    }
    let evaluated = costs.len();
    let mut ranked = warlock::twofold_rank(costs, config.top_x_percent, config.min_keep);
    ranked.truncate(config.top_n);
    AdvisorReport {
        ranked: ranked
            .into_iter()
            .enumerate()
            .map(|(i, cost)| RankedCandidate {
                rank: i + 1,
                label: cost.fragmentation.label(schema),
                cost,
            })
            .collect(),
        excluded,
        evaluated,
        enumerated,
        scheme: session.scheme().clone(),
    }
}

fn assert_bit_identical(a: &AdvisorReport, b: &AdvisorReport) {
    assert_eq!(a, b);
    for (ra, rb) in a.ranked.iter().zip(&b.ranked) {
        assert_eq!(ra.cost.response_ms.to_bits(), rb.cost.response_ms.to_bits());
        assert_eq!(ra.cost.io_cost_ms.to_bits(), rb.cost.io_cost_ms.to_bits());
    }
}

/// Whether a bounded walk of this session's space skips anything.
fn skips_any(session: &Warlock) -> bool {
    let config = session.config();
    let mut source = CandidateSource::ranged(
        session.schema(),
        config.max_dimensionality,
        &config.range_options,
    )
    .bounded(config.thresholds.max_fragments);
    std::iter::from_fn(|| source.stride()).any(|stride| stride != Stride::One)
}

/// Ranks `seed`'s session under `limit` cold, re-ranks it warm, then
/// asks a warm `what_if_disks(disks)`, and checks both warm reports —
/// exclusion samples of every reason included — against a cold run of
/// a fresh session. Returns whether the walk skipped a subtree and
/// whether the what-if sampled a `fewer_fragments_than_disks`
/// exclusion, so a sweep can show it met both.
fn assert_warm_samples_match_cold(
    seed: u64,
    max_dimensionality: usize,
    limit: u64,
    ranged: bool,
    disks: u32,
    chunk: usize,
) -> (bool, bool) {
    let s = session(seed, max_dimensionality, limit, ranged, 0, chunk);
    let cold = s.rank().unwrap().clone();
    let misses = s.cache_stats().misses;
    assert_bit_identical(&s.run().unwrap(), &cold);
    let (warm, _) = s.what_if_disks(disks).unwrap();
    assert_eq!(s.cache_stats().misses, misses, "the what-if was not warm");
    let mut fresh = session(seed, max_dimensionality, limit, ranged, 0, chunk);
    fresh
        .set_system(SystemConfig {
            num_disks: disks,
            ..*fresh.system()
        })
        .unwrap();
    let reference = fresh.run().unwrap();
    for (a, b) in warm
        .excluded
        .groups()
        .iter()
        .zip(reference.excluded.groups())
    {
        assert_eq!(a, b, "seed {seed}: the {} group differs", b.kind);
    }
    assert_bit_identical(&warm, &reference);
    let disk_samples = warm
        .excluded
        .samples()
        .any(|sample| sample.reason.kind() == "fewer_fragments_than_disks");
    (skips_any(&s), disk_samples)
}

#[test]
fn warm_what_if_samples_cover_skipped_subtrees_and_the_disk_check() {
    let mut both = 0;
    for seed in 0..48 {
        for chunk in [1usize, 0] {
            let (skipped, disk_samples) =
                assert_warm_samples_match_cold(seed, 3, 100, true, 48, chunk);
            both += usize::from(skipped && disk_samples);
        }
    }
    assert!(
        both > 0,
        "no case both skipped a subtree and sampled the disk check"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn an_expanded_bounded_walk_is_the_plain_walk(
        seed in 0u64..4096,
        max_dimensionality in 0usize..5,
        range_options in proptest::collection::vec(1u64..9, 0..4),
        limit_pick in 0usize..LIMITS.len(),
    ) {
        let (schema, _, _) = random_inputs(seed);
        let limit = LIMITS[limit_pick];
        let plain: Vec<_> =
            CandidateSource::ranged(&schema, max_dimensionality, &range_options).collect();
        let source = CandidateSource::ranged(&schema, max_dimensionality, &range_options)
            .bounded(limit);
        prop_assert_eq!(expand(&schema, source, limit), plain);
    }
}

#[test]
fn an_overflow_capable_space_is_walked_unpruned() {
    let schema = overflowing_schema();
    for max_dimensionality in [3, 4, 5] {
        let mut source = CandidateSource::point(&schema, max_dimensionality).bounded(10);
        let mut strides = 0u128;
        while let Some(stride) = source.stride() {
            // Capped at three dimensions no count overflows, so the
            // bounded walk may prune; above it, never.
            assert!(max_dimensionality == 3 || stride == Stride::One);
            strides += stride.candidates();
        }
        assert_eq!(strides, source.space_size());
        let plain: Vec<_> = CandidateSource::point(&schema, max_dimensionality).collect();
        let bounded = CandidateSource::point(&schema, max_dimensionality).bounded(10);
        assert_eq!(expand(&schema, bounded, 10).len(), plain.len());
    }
}

#[test]
fn an_overflow_capable_run_reports_both_reasons_exactly() {
    let schema = overflowing_schema();
    let mix = WorkloadGenerator::new(7, GeneratorConfig::default()).mix(&schema);
    let session = Warlock::builder()
        .schema(schema)
        .system(SystemConfig::default_2001(16))
        .mix(mix)
        .config(config(5, 1_000, false))
        .build()
        .unwrap();
    let report = session.run().unwrap();
    assert!(report.excluded.count_of("fragment_count_overflow") > 0);
    assert!(report.excluded.count_of("too_many_fragments") > 0);
    assert_bit_identical(&report, &oracle(&session));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reports_under_a_fragment_bound_match_the_plain_walk(
        seed in 0u64..4096,
        max_dimensionality in 1usize..4,
        limit_pick in 0usize..LIMITS.len(),
        ranged in any::<bool>(),
    ) {
        let limit = LIMITS[limit_pick];
        let reference = oracle(&session(seed, max_dimensionality, limit, ranged, 1, 0));
        for workers in [1usize, 0] {
            for chunk in [1usize, 17, 0] {
                let s = session(seed, max_dimensionality, limit, ranged, workers, chunk);
                let cold = s.run().unwrap();
                assert_bit_identical(&cold, &reference);
                let after_cold = s.cache_stats();
                let n = cold.enumerated as u64;
                prop_assert_eq!((after_cold.hits, after_cold.misses), (0, n));
                prop_assert_eq!(after_cold.entries, cold.enumerated);
                let warm = s.rank().unwrap();
                assert_bit_identical(warm, &reference);
                let after_warm = s.cache_stats();
                prop_assert_eq!((after_warm.hits, after_warm.misses), (n, n));
                prop_assert_eq!(after_warm.entries, cold.enumerated);
            }
        }
    }

    #[test]
    fn warm_and_what_if_samples_match_a_cold_run(
        seed in 0u64..4096,
        max_dimensionality in 1usize..4,
        limit_pick in 0usize..LIMITS.len(),
        ranged in any::<bool>(),
        disks in 1u32..64,
        chunk_pick in 0usize..3,
    ) {
        let chunk = [1usize, 17, 0][chunk_pick];
        let limit = LIMITS[limit_pick];
        assert_warm_samples_match_cold(seed, max_dimensionality, limit, ranged, disks, chunk);
    }

    #[test]
    fn narrowing_after_a_bounded_wide_run_runs_cold_and_stays_bit_identical(
        seed in 0u64..4096,
        limit_pick in 0usize..LIMITS.len(),
        ranged in any::<bool>(),
        chunk_pick in 0usize..3,
        narrow in 1usize..3,
    ) {
        let limit = LIMITS[limit_pick];
        let chunk = [1usize, 17, 0][chunk_pick];
        let mut s = session(seed, 3, limit, ranged, 0, chunk);
        let wide_report = s.run().unwrap();
        let before = s.cache_stats();
        s.set_config(AdvisorConfig { chunk_size: chunk, ..config(narrow, limit, ranged) })
            .unwrap();
        let report = s.run().unwrap();
        let after = s.cache_stats();
        prop_assert_eq!(after.hits, before.hits);
        prop_assert_eq!(after.misses, before.misses + report.enumerated as u64);
        prop_assert_eq!(after.columns, 2);
        prop_assert_eq!(after.entries, wide_report.enumerated + report.enumerated);
        let cold = session(seed, narrow, limit, ranged, 0, chunk);
        assert_bit_identical(&report, &cold.run().unwrap());
    }

    #[test]
    fn widening_after_a_bounded_narrow_run_runs_cold_and_stays_bit_identical(
        seed in 0u64..4096,
        limit_pick in 0usize..LIMITS.len(),
        ranged in any::<bool>(),
        chunk_pick in 0usize..3,
        narrow in 1usize..3,
    ) {
        let limit = LIMITS[limit_pick];
        let chunk = [1usize, 17, 0][chunk_pick];
        let mut s = session(seed, narrow, limit, ranged, 0, chunk);
        let narrow_report = s.run().unwrap();
        let before = s.cache_stats();
        s.set_config(AdvisorConfig { chunk_size: chunk, ..config(3, limit, ranged) })
            .unwrap();
        let report = s.run().unwrap();
        let after = s.cache_stats();
        prop_assert_eq!(after.hits, before.hits);
        prop_assert_eq!(after.misses, before.misses + report.enumerated as u64);
        prop_assert_eq!(after.columns, 2);
        prop_assert_eq!(after.entries, narrow_report.enumerated + report.enumerated);
        let cold = session(seed, 3, limit, ranged, 0, chunk);
        assert_bit_identical(&report, &cold.run().unwrap());
    }
}

/// The fixed inputs of the proptests above do prune: a sanity check
/// that the properties are not vacuous.
#[test]
fn the_sampled_limits_skip_subtrees() {
    let pruned = (0u64..64)
        .filter(|&seed| skips_any(&session(seed, 3, 1_000, true, 1, 0)))
        .count();
    assert!(pruned > 32, "only {pruned} of 64 seeds skip a subtree");
}
