//! Batched-vs-scalar costing equivalence: [`evaluate_chunk_kernel`]
//! over any chunking of a candidate stream must reproduce the scalar
//! `CostModel::evaluate_layout` **bit for bit** — aggregates and
//! per-class detail — for arbitrary valid schemas, mixes and systems
//! (disk counts, and Shared Everything or Shared Disk architectures
//! whose processor counts and coordination overhead move the response
//! time), at any chunk size (including single-candidate chunks); and a session
//! re-ranked at another `max_dimensionality` runs cold under its own
//! memo key and matches a fresh session bit for bit.

use proptest::prelude::*;

use warlock::prelude::*;
use warlock_bitmap::{BitmapScheme, SchemeConfig};
use warlock_cost::{
    evaluate_chunk_kernel, CandidateCost, ChunkBatch, CostModel, CostTables, KernelBackend,
    PerQueryDetail,
};
use warlock_fragment::{
    enumerate_candidates_ranged, CandidateSource, FragmentLayout, Fragmentation, LayoutScratch,
};
use warlock_schema::{random_schema, RandomSchemaConfig, StarSchema};
use warlock_workload::{GeneratorConfig, QueryMix, WorkloadGenerator};

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
    // 1–24 disks; half Shared Everything with 1–64 processors (few
    // processors make the processor bound win the response time), half
    // Shared Disk with 1–8 nodes of 1–8 processors and its 1.05
    // coordination overhead.
    let mut system = SystemConfig::default_2001(1 + (seed % 24) as u32);
    let draw = (seed / 24).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
    system.architecture = if draw.is_multiple_of(2) {
        Architecture::SharedEverything {
            processors: 1 + ((draw >> 1) % 64) as u32,
        }
    } else {
        Architecture::shared_disk(1 + ((draw >> 1) % 8) as u32, 1 + ((draw >> 4) % 8) as u32)
    };
    (schema, mix, system)
}

/// Candidates whose fragment count fits the layout's `u64`, capped so a
/// wide random schema cannot blow the test up.
fn candidate_sample(schema: &StarSchema, range_options: &[u64]) -> Vec<Fragmentation> {
    enumerate_candidates_ranged(schema, 2, range_options)
        .into_iter()
        .filter(|f| f.num_fragments(schema) <= u128::from(u64::MAX))
        .take(300)
        .collect()
}

fn assert_cost_bits(batched: &CandidateCost, scalar: &CandidateCost) {
    assert_eq!(batched, scalar);
    assert_eq!(batched.io_cost_ms.to_bits(), scalar.io_cost_ms.to_bits());
    assert_eq!(batched.response_ms.to_bits(), scalar.response_ms.to_bits());
    assert_eq!(batched.total_ios.to_bits(), scalar.total_ios.to_bits());
    assert_eq!(batched.total_pages.to_bits(), scalar.total_pages.to_bits());
    assert_eq!(batched.per_query.len(), scalar.per_query.len());
    for (b, s) in batched.per_query.iter().zip(&scalar.per_query) {
        assert_eq!(b.busy_ms.to_bits(), s.busy_ms.to_bits());
        assert_eq!(b.per_fragment_ms.to_bits(), s.per_fragment_ms.to_bits());
        assert_eq!(b.response_ms.to_bits(), s.response_ms.to_bits());
        assert_eq!(b.total_ios.to_bits(), s.total_ios.to_bits());
        assert_eq!(b.fact_pages.to_bits(), s.fact_pages.to_bits());
        assert_eq!(b.bitmap_pages.to_bits(), s.bitmap_pages.to_bits());
        assert_eq!(
            b.fragments_accessed.to_bits(),
            s.fragments_accessed.to_bits()
        );
    }
}

fn assert_reports_bit_identical(a: &warlock::AdvisorReport, b: &warlock::AdvisorReport) {
    assert_eq!(a, b);
    for (ra, rb) in a.ranked.iter().zip(&b.ranked) {
        assert_eq!(ra.cost.response_ms.to_bits(), rb.cost.response_ms.to_bits());
        assert_eq!(ra.cost.io_cost_ms.to_bits(), rb.cost.io_cost_ms.to_bits());
        for (qa, qb) in ra.cost.per_query.iter().zip(&rb.cost.per_query) {
            assert_eq!(qa.response_ms.to_bits(), qb.response_ms.to_bits());
            assert_eq!(qa.busy_ms.to_bits(), qb.busy_ms.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any chunking of the candidate stream — including chunk size 1 —
    /// prices every candidate bit-identically to the scalar path, with
    /// full per-class detail.
    #[test]
    fn batched_chunks_match_scalar_bit_for_bit(
        seed in 0u64..4096,
        chunk_pick in 0usize..4,
        ranged in any::<bool>(),
    ) {
        let chunk = [1usize, 2, 7, 64][chunk_pick];
        let (schema, mix, system) = random_inputs(seed);
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        let model = CostModel::new(&schema, &system, &scheme, &mix);
        let range_options: &[u64] = if ranged { &[2, 3, 5] } else { &[] };
        let tables = CostTables::build(&model, range_options);
        let candidates = candidate_sample(&schema, range_options);

        let mut scratch = LayoutScratch::new();
        let mut batch = ChunkBatch::new();
        for group in candidates.chunks(chunk) {
            for frag in group {
                let layout = FragmentLayout::new_in(
                    &mut scratch,
                    &schema,
                    frag.clone(),
                    model.fact_index(),
                );
                batch.push(layout, &mut scratch);
            }
            let batched = evaluate_chunk_kernel(
                &tables,
                &mut batch,
                PerQueryDetail::Full,
                KernelBackend::detect(),
            );
            prop_assert!(batch.is_empty());
            prop_assert_eq!(batched.len(), group.len());
            for (b, frag) in batched.iter().zip(group) {
                let layout = FragmentLayout::new(&schema, frag.clone(), model.fact_index());
                assert_cost_bits(b, &model.evaluate_layout(&layout));
            }
        }
    }

    /// Every costing kernel backend — the scalar reference, the
    /// portable lane-array path, and whatever CPU detection picks
    /// (AVX2 on capable hardware) — prices every candidate
    /// bit-identically to the scalar `CostModel` path at every chunk
    /// size, with full per-class detail.
    #[test]
    fn every_backend_matches_scalar_bit_for_bit(
        seed in 0u64..4096,
        chunk_pick in 0usize..4,
        ranged in any::<bool>(),
    ) {
        let chunk = [1usize, 2, 7, 64][chunk_pick];
        let (schema, mix, system) = random_inputs(seed);
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        let model = CostModel::new(&schema, &system, &scheme, &mix);
        let range_options: &[u64] = if ranged { &[2, 3, 5] } else { &[] };
        let tables = CostTables::build(&model, range_options);
        let candidates = candidate_sample(&schema, range_options);

        // On AVX2 hardware `detect` is the intrinsics backend; elsewhere
        // it is the scalar reference again (still a valid run).
        for backend in [KernelBackend::Scalar, KernelBackend::detect()] {
            let mut scratch = LayoutScratch::new();
            let mut batch = ChunkBatch::new();
            for group in candidates.chunks(chunk) {
                for frag in group {
                    let layout = FragmentLayout::new_in(
                        &mut scratch,
                        &schema,
                        frag.clone(),
                        model.fact_index(),
                    );
                    batch.push(layout, &mut scratch);
                }
                let batched =
                    evaluate_chunk_kernel(&tables, &mut batch, PerQueryDetail::Full, backend);
                prop_assert!(batch.is_empty());
                prop_assert_eq!(batched.len(), group.len());
                for (b, frag) in batched.iter().zip(group) {
                    let layout = FragmentLayout::new(&schema, frag.clone(), model.fact_index());
                    assert_cost_bits(b, &model.evaluate_layout(&layout));
                }
            }
        }
    }

    /// The lean detail level the ranking pipeline uses keeps every
    /// aggregate bit-identical while leaving `per_query` empty.
    #[test]
    fn omitted_detail_keeps_aggregates_bit_identical(
        seed in 0u64..4096,
        ranged in any::<bool>(),
    ) {
        let (schema, mix, system) = random_inputs(seed);
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        let model = CostModel::new(&schema, &system, &scheme, &mix);
        let range_options: &[u64] = if ranged { &[2, 3, 5] } else { &[] };
        let tables = CostTables::build(&model, range_options);

        let mut scratch = LayoutScratch::new();
        let mut batch = ChunkBatch::new();
        for frag in candidate_sample(&schema, range_options) {
            let layout = FragmentLayout::new_in(
                &mut scratch,
                &schema,
                frag.clone(),
                model.fact_index(),
            );
            batch.push(layout, &mut scratch);
            let lean = evaluate_chunk_kernel(
                &tables,
                &mut batch,
                PerQueryDetail::Omit,
                KernelBackend::detect(),
            );
            let scalar = model.evaluate(&frag);
            prop_assert!(lean[0].per_query.is_empty());
            prop_assert_eq!(lean[0].io_cost_ms.to_bits(), scalar.io_cost_ms.to_bits());
            prop_assert_eq!(lean[0].response_ms.to_bits(), scalar.response_ms.to_bits());
            prop_assert_eq!(lean[0].total_ios.to_bits(), scalar.total_ios.to_bits());
            prop_assert_eq!(lean[0].total_pages.to_bits(), scalar.total_pages.to_bits());
            prop_assert_eq!(&lean[0].fragmentation, &scalar.fragmentation);
        }
    }

    /// Widening `max_dimensionality` after a cold run changes the run's
    /// memo key, so the wider run is a cold miss that keeps both
    /// columns — and its report matches a fully cold session at the
    /// widened config, bit for bit.
    #[test]
    fn widening_after_a_narrow_run_runs_cold_and_stays_bit_identical(
        seed in 0u64..1024,
        workers in 1usize..4,
        chunk_pick in 0usize..3,
    ) {
        let chunk = [1usize, 17, 100_000][chunk_pick];
        let session_at = |max_dimensionality: usize| {
            let (schema, mix, system) = random_inputs(seed);
            Warlock::builder()
                .schema(schema)
                .system(system)
                .mix(mix)
                .config(AdvisorConfig {
                    max_dimensionality,
                    ..Default::default()
                })
                .parallelism(workers)
                .chunk_size(chunk)
                .build()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
        };

        let mut session = session_at(1);
        let narrow = session.run().unwrap();
        let before = session.cache_stats();

        session
            .set_config(AdvisorConfig {
                max_dimensionality: 2,
                ..Default::default()
            })
            .unwrap();
        let wide = session.run().unwrap();
        let after = session.cache_stats();
        prop_assert_eq!(after.hits, before.hits);
        prop_assert_eq!(after.misses, before.misses + wide.enumerated as u64);
        prop_assert_eq!(after.columns, 2);
        prop_assert_eq!(after.entries, narrow.enumerated + wide.enumerated);

        let cold = session_at(2).run().unwrap();
        assert_reports_bit_identical(&wide, &cold);
    }

    /// The narrowing direction: a run at max dimensionality 1 after one
    /// at 2 is a cold miss under its own key, and its report matches a
    /// cold session's bit for bit.
    #[test]
    fn narrowing_after_a_wide_run_runs_cold_and_stays_bit_identical(
        seed in 0u64..1024,
        workers in 1usize..4,
        chunk_pick in 0usize..3,
        ranged in any::<bool>(),
    ) {
        let chunk = [1usize, 17, 100_000][chunk_pick];
        let config_at = |max_dimensionality: usize| AdvisorConfig {
            max_dimensionality,
            range_options: if ranged { vec![2, 3, 5] } else { Vec::new() },
            ..Default::default()
        };
        let session_at = |max_dimensionality: usize| {
            let (schema, mix, system) = random_inputs(seed);
            Warlock::builder()
                .schema(schema)
                .system(system)
                .mix(mix)
                .config(config_at(max_dimensionality))
                .parallelism(workers)
                .chunk_size(chunk)
                .build()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
        };

        let mut session = session_at(2);
        session.run().unwrap();
        let before = session.cache_stats();
        session.set_config(config_at(1)).unwrap();
        let narrow = session.run().unwrap();
        let after = session.cache_stats();
        prop_assert_eq!(after.hits, before.hits);
        prop_assert_eq!(after.misses, before.misses + narrow.enumerated as u64);
        prop_assert_eq!(after.columns, 2);

        let cold = session_at(1).run().unwrap();
        assert_reports_bit_identical(&narrow, &cold);
    }

    /// A narrower candidate space is an in-order subsequence of a wider
    /// one over the same schema and range options.
    #[test]
    fn narrower_spaces_are_in_order_subsequences_of_wider_ones(
        seed in 0u64..4096,
        range_options in proptest::collection::vec(1u64..9, 0..4),
        a in 0usize..4,
        b in 0usize..5,
    ) {
        prop_assume!(a < b);
        let (schema, _, _) = random_inputs(seed);
        let wide: Vec<Fragmentation> =
            CandidateSource::ranged(&schema, b, &range_options).collect();
        let mut wide = wide.iter();
        for candidate in CandidateSource::ranged(&schema, a, &range_options) {
            prop_assert!(
                wide.any(|w| *w == candidate),
                "{} missing or out of order at {} vs {}",
                candidate,
                a,
                b
            );
        }
    }
}
