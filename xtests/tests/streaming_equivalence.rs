//! Streaming-vs-materialized equivalence: the chunked, lazy,
//! bounded-memory pipeline must produce an `AdvisorReport` that is
//! **bit-identical** to the historical materialized pass — enumerate
//! everything, exclude, cost, `twofold_rank` — for arbitrary valid
//! inputs, at any worker count, any chunk size, and with warm or cold
//! evaluation caches.
//!
//! The reference below re-implements the materialized seed path from
//! public pieces (`enumerate_candidates_ranged`, `FragmentLayout`,
//! `Thresholds::check`, `CostModel`, `twofold_rank`), so the streaming
//! engine is checked against an independent implementation, not against
//! itself.

use proptest::prelude::*;

use warlock::prelude::*;
use warlock::{AdvisorReport, ExcludedCandidate, ExcludedSummary, RankedCandidate};
use warlock::{KeyedRank, RankKeys, StreamingRank};
use warlock_cost::{CandidateCost, CostModel};
use warlock_fragment::{enumerate_candidates_ranged, Exclusion, FragmentLayout, Fragmentation};
use warlock_schema::{random_schema, RandomSchemaConfig};
use warlock_workload::{GeneratorConfig, WorkloadGenerator};

fn session_for(seed: u64, workers: usize, chunk: usize, ranged: bool) -> Warlock {
    let config = AdvisorConfig {
        range_options: if ranged { vec![2, 3, 5] } else { Vec::new() },
        ..Default::default()
    };
    session_on(seed, workers, chunk, 1 + (seed % 24) as u32, config)
}

/// The random warehouse of `seed` on `disks` disks under `config`.
fn session_on(
    seed: u64,
    workers: usize,
    chunk: usize,
    disks: u32,
    config: AdvisorConfig,
) -> Warlock {
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
    Warlock::builder()
        .schema(schema)
        .system(SystemConfig::default_2001(disks))
        .mix(mix)
        .config(config)
        .parallelism(workers)
        .chunk_size(chunk)
        .build()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
}

/// A cost population with deliberate exact ties at every level of the
/// twofold ranking's tie-break.
fn tied_costs(picks: &[(u8, u8, u8)]) -> Vec<CandidateCost> {
    picks
        .iter()
        .map(|&(io, rt, frags)| CandidateCost {
            fragmentation: Fragmentation::none(),
            num_fragments: u64::from(frags % 4),
            io_cost_ms: f64::from(io % 7),
            response_ms: f64::from(rt % 5),
            total_ios: 0.0,
            total_pages: 0.0,
            per_query: Vec::new(),
        })
        .collect()
}

/// The materialized seed path, rebuilt from public substrate APIs:
/// enumerate the whole space, exclude, cost every survivor, twofold
/// rank at the end.
fn materialized_reference(session: &Warlock) -> AdvisorReport {
    let schema = session.schema();
    let config = session.config();
    let ctx = session.threshold_context();
    let model = CostModel::new(schema, session.system(), session.scheme(), session.mix())
        .with_fact_index(config.fact_index)
        .unwrap();

    let candidates =
        enumerate_candidates_ranged(schema, config.max_dimensionality, &config.range_options);
    let enumerated = candidates.len();
    let mut excluded = ExcludedSummary::new();
    let mut costs = Vec::new();
    for fragmentation in candidates {
        let raw_count = fragmentation.num_fragments(schema);
        let outcome = if raw_count > u128::from(u64::MAX) {
            Err(Exclusion::FragmentCountOverflow {
                fragments: raw_count,
            })
        } else if raw_count > u128::from(config.thresholds.max_fragments) {
            Err(Exclusion::TooManyFragments {
                fragments: raw_count as u64,
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
    let mut ranked_costs = warlock::twofold_rank(costs, config.top_x_percent, config.min_keep);
    ranked_costs.truncate(config.top_n);
    let ranked = ranked_costs
        .into_iter()
        .enumerate()
        .map(|(i, cost)| RankedCandidate {
            rank: i + 1,
            label: cost.fragmentation.label(schema),
            cost,
        })
        .collect();

    AdvisorReport {
        ranked,
        excluded,
        evaluated,
        enumerated,
        scheme: session.scheme().clone(),
    }
}

fn assert_bit_identical(streamed: &AdvisorReport, reference: &AdvisorReport) {
    assert_eq!(streamed, reference);
    for (a, b) in streamed.ranked.iter().zip(&reference.ranked) {
        assert_eq!(a.cost.response_ms.to_bits(), b.cost.response_ms.to_bits());
        assert_eq!(a.cost.io_cost_ms.to_bits(), b.cost.io_cost_ms.to_bits());
        for (qa, qb) in a.cost.per_query.iter().zip(&b.cost.per_query) {
            assert_eq!(qa.response_ms.to_bits(), qb.response_ms.to_bits());
            assert_eq!(qa.busy_ms.to_bits(), qb.busy_ms.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn streaming_pipeline_is_bit_identical_to_materialized(
        seed in 0u64..4096,
        workers in 1usize..6,
        chunk_pick in 0usize..6,
        ranged in any::<bool>(),
    ) {
        let chunk = [1usize, 2, 3, 17, 256, 100_000][chunk_pick];
        let session = session_for(seed, workers, chunk, ranged);
        let reference = materialized_reference(&session);

        // Cold run.
        let cold = session.run().unwrap();
        assert_bit_identical(&cold, &reference);
        prop_assert_eq!(cold.enumerated as u128, session.candidate_space_size());

        // Warm run: every outcome comes from the shared cache, and the
        // report must not change by a bit.
        let misses_after_cold = session.cache_stats().misses;
        let warm = session.run().unwrap();
        assert_bit_identical(&warm, &reference);
        // A warm streaming re-run must be served entirely from the cache.
        prop_assert_eq!(session.cache_stats().misses, misses_after_cold);
    }

    #[test]
    fn chunk_size_never_changes_a_report(
        seed in 0u64..1024,
        workers in 1usize..4,
    ) {
        let reference = session_for(seed, workers, 1, false).run().unwrap();
        for chunk in [2usize, 5, 64, 100_000] {
            let report = session_for(seed, workers, chunk, false).run().unwrap();
            prop_assert_eq!(&report, &reference);
        }
    }

    #[test]
    fn a_disk_what_if_from_a_warm_column_matches_a_fresh_session(
        seed in 0u64..4096,
        full_declustering in any::<bool>(),
        middle in 2u32..48,
    ) {
        let mut config = AdvisorConfig::default();
        config.thresholds.require_full_declustering = full_declustering;
        // One disk, a middling count, and more disks than any candidate
        // within `max_fragments` has fragments: the most disks a system
        // may have, over a fragment limit just below it.
        let above = warlock::storage::MAX_DISKS;
        config.thresholds.max_fragments = u64::from(above) - 1;
        for workers in [1usize, 0] {
            for chunk in [1usize, 17, 0] {
                let session = session_on(seed, workers, chunk, 16, config.clone());
                session.rank().unwrap();
                let cold = session.cache_stats();
                for disks in [1, middle, above] {
                    let (warm, _) = session.what_if_disks(disks).unwrap();
                    let fresh = session_on(seed, workers, chunk, disks, config.clone())
                        .run()
                        .unwrap();
                    let at = format!("workers={workers} chunk={chunk} disks={disks}");
                    assert_eq!(format!("{warm:?}"), format!("{fresh:?}"), "{at}");
                    assert_eq!(session.cache_stats().misses, cold.misses, "{at}");
                }
            }
        }
    }

    #[test]
    fn push_with_is_push(
        picks in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..300),
        lazy in proptest::collection::vec(any::<bool>(), 300),
        x_pick in 0usize..4,
        min_keep in 0usize..12,
        slack in 0u64..3,
    ) {
        let x = [1.0, 10.0, 37.5, 100.0][x_pick];
        let costs = tied_costs(&picks);
        let mut eager = StreamingRank::new(x, min_keep);
        let mut mixed = StreamingRank::new(x, min_keep);
        for (i, (cost, lazy)) in costs.iter().zip(&lazy).enumerate() {
            let remaining = (costs.len() - i - 1) as u128 + u128::from(slack);
            eager.push(cost.clone(), remaining);
            if *lazy {
                mixed.push_with(cost.io_cost_ms, remaining, || cost.clone());
            } else {
                mixed.push(cost.clone(), remaining);
            }
            prop_assert_eq!(mixed.seen(), eager.seen());
            prop_assert_eq!(mixed.retained(), eager.retained());
        }
        prop_assert_eq!(mixed.finish(), eager.finish());
    }
}

proptest! {
    // A cheap property over a large tie-heavy input space: many cases.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn keyed_rank_is_twofold_rank(
        picks in proptest::collection::vec((0usize..6, 0usize..6, 0u64..3), 0..300),
        lazy in proptest::collection::vec(any::<bool>(), 300),
        x_pick in 0usize..4,
        min_keep in 0usize..12,
        slack_pick in 0usize..4,
    ) {
        // Few distinct keys, so ties on `io_cost_ms` are the rule and
        // `response_ms`, the fragment count and the push index decide;
        // the signed zeros and `+inf` sit among them.
        const KEYS: [f64; 6] = [-0.0, 0.0, 1.0, 2.5, f64::INFINITY, 1.0];
        let x = [1.0, 10.0, 37.5, 100.0][x_pick];
        // Up to a horizon too large for `usize`, which holds eviction off.
        let slack = [0, 1, 7, u128::MAX / 2][slack_pick];
        let keys: Vec<RankKeys> = picks
            .iter()
            .map(|&(io, rt, frags)| RankKeys {
                io_cost_ms: KEYS[io],
                response_ms: KEYS[rt],
                num_fragments: frags,
            })
            .collect();
        // The reference ranks costs that carry their push index.
        let costs = keys
            .iter()
            .enumerate()
            .map(|(i, k)| CandidateCost {
                fragmentation: Fragmentation::none(),
                num_fragments: k.num_fragments,
                io_cost_ms: k.io_cost_ms,
                response_ms: k.response_ms,
                total_ios: i as f64,
                total_pages: 0.0,
                per_query: Vec::new(),
            })
            .collect();
        let reference: Vec<usize> = warlock::twofold_rank(costs, x, min_keep)
            .iter()
            .map(|cost| cost.total_ios as usize)
            .collect();
        let mut rank = KeyedRank::new(x, min_keep);
        for (i, (&k, lazy)) in keys.iter().zip(&lazy).enumerate() {
            let remaining = (keys.len() - i - 1) as u128 + slack;
            if *lazy {
                rank.push_with(k.io_cost_ms, remaining, || (k, i));
            } else {
                rank.push(k, i, remaining);
            }
            prop_assert_eq!(rank.seen(), i + 1);
        }
        prop_assert_eq!(rank.finish(), reference);
    }
}
