//! Large-schema stress lane: deep hierarchies and ranged enumeration
//! whose candidate spaces would have exhausted memory under the old
//! materialized pipeline. The streaming engine must either advise
//! within the configured candidate budget or fail **up front** with the
//! typed `WarlockError::CandidateBudget` — and fragment counts that
//! overflow `u64` must surface as typed exclusions/errors, never as
//! wrapped values or panics.
//!
//! CI runs this file in release mode (the streaming lane); it stays
//! fast because over-budget runs fail from the exact space predictor
//! before generating a single candidate, and overflowing candidates are
//! pre-excluded before any layout or cost work.

use warlock::prelude::*;
use warlock::WarlockError;
use warlock_fragment::{CandidateError, CandidateSource, Fragmentation};
use warlock_schema::{Dimension, FactTable, StarSchema};
use warlock_workload::{DimensionPredicate, QueryClass, QueryMix};

/// A deep-hierarchy warehouse: 6 dimensions × 6 levels each. The point
/// space at dimensionality 6 is (6+1)^6 = 117 649 candidates; with
/// ranged enumeration it grows far beyond anything worth materializing.
fn deep_schema() -> StarSchema {
    let mut builder = StarSchema::builder();
    for d in 0..6 {
        let mut dim = Dimension::builder(format!("dim{d}"));
        let mut cardinality = 1u64;
        for l in 0..6 {
            cardinality *= 4; // fan-out 4 per level => bottom 4096
            dim = dim.level(format!("l{l}"), cardinality);
        }
        builder = builder.dimension(dim.build().unwrap());
    }
    builder
        .fact(
            FactTable::builder("facts")
                .measure("m", 8)
                .rows(100_000_000)
                .build(),
        )
        .build()
        .unwrap()
}

/// A synthetic schema whose full cross product overflows `u64`:
/// 5 dimensions with a 100 000-member bottom level each → 10^25
/// fragments, far past `u64::MAX` ≈ 1.8·10^19.
fn overflowing_schema() -> StarSchema {
    let mut builder = StarSchema::builder();
    for d in 0..5 {
        builder = builder.dimension(
            Dimension::builder(format!("dim{d}"))
                .level("top", 100)
                .level("bottom", 100_000)
                .build()
                .unwrap(),
        );
    }
    builder
        .fact(
            FactTable::builder("facts")
                .measure("m", 8)
                .rows(10_000_000)
                .build(),
        )
        .build()
        .unwrap()
}

fn mix_for(schema: &StarSchema) -> QueryMix {
    let mix = QueryMix::builder()
        .class(
            QueryClass::new("q0").with(0, DimensionPredicate::point(0)),
            2.0,
        )
        .class(
            QueryClass::new("q1")
                .with(1, DimensionPredicate::point(0))
                .with(2, DimensionPredicate::point(0)),
            1.0,
        )
        .build()
        .unwrap();
    mix.validate(schema).unwrap();
    mix
}

fn session(schema: StarSchema, config: AdvisorConfig) -> Warlock {
    let mix = mix_for(&schema);
    Warlock::builder()
        .schema(schema)
        .system(SystemConfig::default_2001(16))
        .mix(mix)
        .config(config)
        .build()
        .unwrap()
}

#[test]
fn deep_hierarchy_over_budget_fails_up_front_instead_of_grinding() {
    let schema = deep_schema();
    let expected_space = CandidateSource::ranged(&schema, 6, &[2]).space_size();
    assert!(expected_space > 1_000_000, "space is {expected_space}");
    let s = session(
        schema,
        AdvisorConfig {
            max_dimensionality: 6,
            range_options: vec![2],
            max_candidates: 1_000_000,
            ..Default::default()
        },
    );
    let started = std::time::Instant::now();
    let err = s.rank().unwrap_err();
    assert_eq!(
        err,
        WarlockError::CandidateBudget {
            space: expected_space,
            budget: 1_000_000
        }
    );
    assert_eq!(err.kind(), "candidate_budget");
    // The exact predictor fires before enumeration: over-budget runs
    // must not cost a noticeable amount of work.
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "budget check took {:?}",
        started.elapsed()
    );
}

#[test]
fn deep_hierarchy_within_budget_streams_to_a_ranking() {
    // The same deep warehouse constrained to 2 fragmentation dimensions
    // is 1 + 36 + 540 = 577 candidates: the budget admits it and the
    // streaming pipeline advises normally, with a small chunk size.
    let s = session(
        deep_schema(),
        AdvisorConfig {
            max_dimensionality: 2,
            max_candidates: 1_000,
            chunk_size: 16,
            ..Default::default()
        },
    );
    assert_eq!(s.candidate_space_size(), 577);
    let report = s.rank().unwrap();
    assert_eq!(report.enumerated, 577);
    assert_eq!(report.evaluated + report.excluded.total(), 577);
    assert!(report.top().is_some());
}

#[test]
fn u64_overflowing_fragment_counts_are_typed_exclusions_not_wraps() {
    let schema = overflowing_schema();
    // The full 5-dimensional bottom-level cross product: 10^25 fragments.
    let monster = Fragmentation::from_pairs(&[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]).unwrap();
    assert!(monster.num_fragments(&schema) > u128::from(u64::MAX));

    let s = session(
        schema,
        AdvisorConfig {
            max_dimensionality: 5,
            ..Default::default()
        },
    );
    // The pipeline pre-excludes the overflowing candidates with the
    // typed reason carrying the exact u128 count…
    let report = s.rank().unwrap();
    assert!(report.excluded.count_of("fragment_count_overflow") > 0);
    let overflow_sample = report
        .excluded
        .samples()
        .find(|e| e.reason.kind() == "fragment_count_overflow")
        .expect("overflow samples are retained");
    match overflow_sample.reason {
        warlock_fragment::Exclusion::FragmentCountOverflow { fragments } => {
            assert!(fragments > u128::from(u64::MAX), "exact count: {fragments}");
        }
        other => panic!("wrong reason {other:?}"),
    }

    // …and every single-candidate entry point reports the typed error
    // instead of panicking or truncating.
    let expected = WarlockError::Candidate(CandidateError::FragmentOverflow {
        fragments: monster.num_fragments(s.schema()),
    });
    assert_eq!(s.evaluate(&monster).unwrap_err(), expected);
    assert_eq!(s.analyze_candidate(&monster).unwrap_err(), expected);
    assert_eq!(s.plan_candidate(&monster).unwrap_err(), expected);
    assert_eq!(s.recommend_policy_for(&monster).unwrap_err(), expected);

    // A candidate on a dimension the schema lacks is a typed candidate
    // error from every single-candidate entry point too, not a panic.
    let stray = Fragmentation::from_pairs(&[(99, 0)]).unwrap();
    let unknown = WarlockError::Candidate(CandidateError::UnknownAttribute {
        level_ref: stray.attributes()[0],
    });
    assert_eq!(s.evaluate(&stray).unwrap_err(), unknown);
    assert_eq!(s.analyze_candidate(&stray).unwrap_err(), unknown);
    assert_eq!(s.plan_candidate(&stray).unwrap_err(), unknown);
    assert_eq!(s.recommend_policy_for(&stray).unwrap_err(), unknown);
}

#[test]
fn ranged_enumeration_under_budget_is_exact() {
    // Ranged enumeration multiplies the space; the budget check uses
    // the exact ranged predictor, so a budget equal to the space admits
    // the run and a budget one below rejects it.
    let schema = deep_schema();
    let space = CandidateSource::ranged(&schema, 1, &[2]).space_size();
    let base = AdvisorConfig {
        max_dimensionality: 1,
        range_options: vec![2],
        ..Default::default()
    };

    let admit = session(
        schema.clone(),
        AdvisorConfig {
            max_candidates: u64::try_from(space).unwrap(),
            ..base.clone()
        },
    );
    let report = admit.rank().unwrap();
    assert_eq!(report.enumerated as u128, space);

    let reject = session(
        schema,
        AdvisorConfig {
            max_candidates: u64::try_from(space).unwrap() - 1,
            ..base
        },
    );
    assert!(matches!(
        reject.rank().unwrap_err(),
        WarlockError::CandidateBudget { .. }
    ));
}
