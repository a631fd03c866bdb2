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
use warlock_schema::{apb1_like_schema, Apb1Config, StarSchema};
use warlock_storage::SystemConfig;
use warlock_workload::{apb1_like_mix, QueryMix};

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
    fn small_fixture_validates() {
        let f = SmallFixture::new();
        f.mix.validate(&f.schema).unwrap();
        assert_eq!(f.system.num_disks, 17);
    }
}
