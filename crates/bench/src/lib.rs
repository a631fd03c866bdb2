//! Shared fixtures for the WARLOCK benchmark & experiment harness.
//!
//! Both the criterion micro-benchmarks (`benches/`) and the experiment
//! binary (`src/bin/experiments.rs`, which prints the reproduction's
//! tables and figures) build on the same demonstration configuration:
//! the APB-1-like schema and ten-class mix on a 16-disk circa-2001
//! system. The scenario-fleet harness lives in [`fleet`].

#![warn(missing_docs)]

pub mod alloc_probe;
pub mod fleet;

use warlock::{AdvisorConfig, Warlock};
use warlock_bitmap::{BitmapScheme, SchemeConfig};
use warlock_schema::{apb1_like_schema, Apb1Config, Dimension, FactTable, StarSchema};
use warlock_storage::SystemConfig;
use warlock_workload::{apb1_like_mix, DimensionPredicate, QueryClass, QueryMix};

/// The demonstration fixture: schema, mix, system and derived scheme.
pub struct Fixture {
    /// APB-1-like star schema.
    pub schema: StarSchema,
    /// Ten-class weighted mix.
    pub mix: QueryMix,
    /// 16-disk circa-2001 system.
    pub system: SystemConfig,
    /// Bitmap scheme derived for the mix.
    pub scheme: BitmapScheme,
}

impl Fixture {
    /// Builds the default demonstration fixture.
    pub fn demo() -> Self {
        Self::with_disks(16)
    }

    /// Builds the fixture with a custom disk count.
    pub fn with_disks(disks: u32) -> Self {
        let schema = apb1_like_schema(Apb1Config::default()).expect("preset schema");
        let mix = apb1_like_mix().expect("preset mix");
        let system = SystemConfig::default_2001(disks);
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        Self {
            schema,
            mix,
            system,
            scheme,
        }
    }

    /// An owned advisory session over the fixture (default config).
    pub fn session(&self) -> Warlock {
        self.session_with(AdvisorConfig::default())
    }

    /// An owned advisory session with a custom configuration.
    pub fn session_with(&self, config: AdvisorConfig) -> Warlock {
        Warlock::builder()
            .schema(self.schema.clone())
            .system(self.system)
            .mix(self.mix.clone())
            .config(config)
            .build()
            .expect("fixture inputs are valid")
    }
}

/// The structure of one large generated warehouse: the fan-out of every
/// level of every dimension, its fact rows and its `max_fragments`.
/// Every shaped warehouse runs on 32 disks and enumerates candidates of
/// up to three attributes with range sizes 2 and 3.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Fan-out per level, per dimension.
    pub fanouts: &'static [&'static [u64]],
    /// Fact-table rows.
    pub fact_rows: u64,
    /// The `max_fragments` threshold.
    pub max_fragments: u64,
}

/// The `fit` warehouse of the `tuning-fit` benchmark workload: 6
/// dimensions, 3 to 4 levels deep, 2·10⁹ fact rows.
pub const FIT: Shape = Shape {
    fanouts: &[
        &[4, 6, 2, 3],
        &[6, 4, 3],
        &[2, 6, 4],
        &[3, 4, 6, 2],
        &[4, 2, 6],
        &[6, 3, 4],
    ],
    fact_rows: 2_000_000_000,
    max_fragments: 1 << 16,
};

/// The warehouse of the `tuning-spill` benchmark workload: 7
/// dimensions, 4 to 5 levels deep, 15,527 candidates, 2·10⁹ fact rows.
pub const SPILL: Shape = Shape {
    fanouts: &[
        &[4, 6, 2, 3, 2],
        &[6, 4, 3, 2],
        &[2, 6, 4, 2, 3],
        &[3, 4, 6, 2],
        &[4, 2, 6, 3],
        &[6, 3, 4, 2, 2],
        &[2, 4, 6, 3],
    ],
    fact_rows: 2_000_000_000,
    max_fragments: 1 << 16,
};

/// The enumeration-bound warehouse of the `cold-advise` benchmark
/// workload: 45,278 candidates, most of them over its `max_fragments`
/// of 4096.
pub const ENUMERATION: Shape = Shape {
    fanouts: &[
        &[4, 6, 8, 4, 6],
        &[6, 4, 8, 6],
        &[8, 6, 4, 4, 6],
        &[4, 8, 6, 4],
        &[6, 6, 4, 8],
        &[8, 4, 6, 6, 4],
        &[4, 6, 6, 8],
    ],
    fact_rows: 1_000_000_000,
    max_fragments: 1 << 12,
};

/// A session over the warehouse of `shape`, with six query classes that
/// each filter one dimension by a point and another by a quarter of its
/// values.
pub fn shaped_session(shape: &Shape) -> Warlock {
    let mut schema = StarSchema::builder();
    for (d, fanouts) in shape.fanouts.iter().enumerate() {
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
        .rows(shape.fact_rows)
        .build();
    let schema = schema.fact(fact).build().expect("valid shaped schema");

    let n = shape.fanouts.len();
    let cardinality = |d: usize, level: usize| shape.fanouts[d][..=level].iter().product::<u64>();
    let mut mix = QueryMix::builder();
    for c in 0..6usize {
        let (point, ranged) = (c % n, (2 * c + 1) % n);
        let level = |d: usize| c % shape.fanouts[d].len();
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
    config.thresholds.max_fragments = shape.max_fragments;
    Warlock::builder()
        .schema(schema)
        .system(SystemConfig::default_2001(32))
        .mix(mix.build().expect("non-empty shaped mix"))
        .config(config)
        .build()
        .expect("valid shaped session")
}

/// A small scaled-down fixture for simulation-backed experiments, where
/// rows are actually materialized.
pub struct SmallFixture {
    /// Scaled-down star schema (3 dimensions, 3M rows).
    pub schema: StarSchema,
    /// Four-class mix.
    pub mix: QueryMix,
    /// 17-disk system (prime: avoids stride aliasing).
    pub system: SystemConfig,
    /// Bitmap scheme for the mix.
    pub scheme: BitmapScheme,
}

impl SmallFixture {
    /// Builds the simulation fixture.
    pub fn new() -> Self {
        use warlock_schema::{Dimension, FactTable};
        use warlock_workload::{DimensionPredicate, QueryClass};
        let schema = StarSchema::builder()
            .dimension(
                Dimension::builder("product")
                    .level("division", 4)
                    .level("line", 16)
                    .level("code", 128)
                    .build()
                    .expect("valid"),
            )
            .dimension(
                Dimension::builder("time")
                    .level("year", 2)
                    .level("month", 24)
                    .build()
                    .expect("valid"),
            )
            .dimension(
                Dimension::builder("channel")
                    .level("base", 6)
                    .build()
                    .expect("valid"),
            )
            .fact(
                FactTable::builder("sales")
                    .measure("m", 8)
                    .rows(3_000_000)
                    .build(),
            )
            .build()
            .expect("valid schema");
        let mix = QueryMix::builder()
            .class(
                QueryClass::new("month_line")
                    .with(1, DimensionPredicate::point(1))
                    .with(0, DimensionPredicate::point(1)),
                3.0,
            )
            .class(
                QueryClass::new("year_division")
                    .with(1, DimensionPredicate::point(0))
                    .with(0, DimensionPredicate::point(0)),
                2.0,
            )
            .class(
                QueryClass::new("channel_month")
                    .with(2, DimensionPredicate::point(0))
                    .with(1, DimensionPredicate::point(1)),
                2.0,
            )
            .class(
                QueryClass::new("code_pinpoint")
                    .with(0, DimensionPredicate::point(2))
                    .with(1, DimensionPredicate::point(1)),
                1.0,
            )
            .build()
            .expect("valid mix");
        let system = SystemConfig::default_2001(17);
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        Self {
            schema,
            mix,
            system,
            scheme,
        }
    }

    /// An owned advisory session over the small fixture.
    pub fn session(&self) -> Warlock {
        Warlock::builder()
            .schema(self.schema.clone())
            .system(self.system)
            .mix(self.mix.clone())
            .build()
            .expect("fixture inputs are valid")
    }
}

impl Default for SmallFixture {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_fixture_builds_and_advises() {
        let f = Fixture::demo();
        let report = f.session().run().unwrap();
        assert!(!report.ranked.is_empty());
    }

    #[test]
    fn the_enumeration_shape_is_the_benchmark_space() {
        let s = shaped_session(&ENUMERATION);
        assert_eq!(s.candidate_space_size(), 45_278);
        let report = s.rank().unwrap();
        assert_eq!(report.excluded.count_of("too_many_fragments"), 38_479);
    }

    #[test]
    fn the_spill_shape_is_the_benchmark_space() {
        assert_eq!(shaped_session(&SPILL).candidate_space_size(), 15_527);
    }

    #[test]
    fn small_fixture_validates() {
        let f = SmallFixture::new();
        f.mix.validate(&f.schema).unwrap();
        assert_eq!(f.system.num_disks, 17);
    }
}
