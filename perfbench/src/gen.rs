//! Seeded warehouse generation.
//!
//! Every warehouse is derived from the workload seed and handed to the
//! program as rendered configuration text (`config_file::render_config`),
//! exactly as a user would write it. Large warehouses come from the
//! generator below: deep hierarchies with divisible fan-outs plus
//! `range_options = 2, 3`. Served warehouses come from the scenario
//! fleet generator.

use warlock::config_file::{render_config, ParsedConfig};
use warlock::fragment::CandidateSource;
use warlock::schema::{Dimension, FactTable, StarSchema};
use warlock::storage::SystemConfig;
use warlock::workload::{ClassObservation, DimensionPredicate, QueryClass, QueryMix};
use warlock::AdvisorConfig;
use warlock_scenarios::{MixShape, ScenarioGenerator, ScenarioSpace};

/// The evaluation memo's entry cap (`EvalCache`): once it holds this many
/// outcomes the next insert clears it.
pub const MEMO_CAP: u128 = 1 << 16;

/// SplitMix64: a small, seedable, platform-independent stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// One generated warehouse, as the program will receive it.
#[derive(Debug, Clone)]
pub struct Generated {
    pub name: String,
    pub config: String,
    /// Exact candidate-space size of the rendered configuration.
    pub space: u128,
    pub disks: u32,
}

/// The fixed structure of one large warehouse: the fan-out of every
/// level of every dimension, and the advisor limits.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub fanouts: &'static [&'static [u64]],
    pub max_dimensionality: usize,
    pub max_fragments: u64,
    pub fact_rows: u64,
    pub disks: u32,
}

/// The range sizes every large warehouse enumerates alongside points.
const RANGE_OPTIONS: [u64; 2] = [2, 3];

/// Query classes per generated mix.
const CLASSES: usize = 6;

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range(0, i as u64) as usize);
    }
    order
}

/// The large warehouse of `shape` as drawn for `seed`.
///
/// Class `c` filters dimension `c mod n` with a point predicate and
/// dimension `2c + 1 mod n` with a range predicate, at level
/// `c mod depth`. The seed shuffles the order of the classes in the
/// mix. So every seed yields its own configuration text but the same
/// candidates in the same order, the same exclusions and the same
/// winner: the work a run measures does not depend on the seed (a
/// shuffled dimension order would change how many candidates the
/// streaming rank retains, and with it the time).
pub fn large(name: &str, seed: u64, shape: &Shape) -> Generated {
    let mut rng = Rng::new(seed);
    let n = shape.fanouts.len();
    let mut builder = StarSchema::builder();
    for (d, fanouts) in shape.fanouts.iter().enumerate() {
        let mut dim = Dimension::builder(format!("d{d}"));
        let mut cardinality = 1u64;
        for (l, fanout) in fanouts.iter().enumerate() {
            cardinality *= fanout;
            dim = dim.level(format!("l{l}"), cardinality);
        }
        builder = builder.dimension(dim.build().expect("integral fan-outs by construction"));
    }
    let fact = FactTable::builder("fact")
        .measure("m0", 8)
        .measure("m1", 8)
        .rows(shape.fact_rows)
        .build();
    let schema = builder
        .fact(fact)
        .build()
        .expect("generated schemas are valid by construction");

    let cardinality = |d: usize, level: usize| shape.fanouts[d][..=level].iter().product::<u64>();
    let mut mix = QueryMix::builder();
    for c in permutation(&mut rng, CLASSES) {
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
    let mix = mix.build().expect("generated mixes are non-empty");

    let space =
        CandidateSource::ranged(&schema, shape.max_dimensionality, &RANGE_OPTIONS).space_size();
    let mut advisor = AdvisorConfig {
        max_dimensionality: shape.max_dimensionality,
        range_options: RANGE_OPTIONS.to_vec(),
        ..AdvisorConfig::default()
    };
    advisor.thresholds.max_fragments = shape.max_fragments;
    let config = render_config(&ParsedConfig {
        schema,
        mix,
        system: SystemConfig::default_2001(shape.disks),
        advisor,
    });
    Generated {
        name: name.to_owned(),
        config,
        space,
        disks: shape.disks,
    }
}

/// A scenario-fleet warehouse served by `warlockd`.
#[derive(Debug, Clone)]
pub struct ServedWarehouse {
    pub generated: Generated,
    /// The seeded drift trajectory (empty for static warehouses).
    pub trajectory: Vec<Vec<ClassObservation>>,
}

/// `statics` non-drifting and `drifting` `Drifting`-class warehouses of
/// the scenario fleet for `seed`, at `parallelism = auto`. Drifting
/// warehouses run with `auto_advise = on`, so replaying their trajectory
/// re-advises.
pub fn served(seed: u64, statics: usize, drifting: usize) -> Result<Vec<ServedWarehouse>, String> {
    let space = ScenarioSpace {
        parallelism: 0,
        ..ScenarioSpace::default()
    };
    let generator = ScenarioGenerator::new(seed, space)?;
    let mut out = Vec::new();
    let (mut s, mut d) = (0, 0);
    for id in 0u32.. {
        if s == statics && d == drifting {
            break;
        }
        let scenario = generator.scenario(id);
        let is_drifting = scenario.class.mix == MixShape::Drifting;
        if (is_drifting && d == drifting) || (!is_drifting && s == statics) {
            continue;
        }
        let mut parsed = scenario.parsed.clone();
        parsed.advisor.auto_advise = is_drifting;
        let name = if is_drifting {
            d += 1;
            format!("drift{}", d - 1)
        } else {
            s += 1;
            format!("static{}", s - 1)
        };
        let space = CandidateSource::ranged(
            &parsed.schema,
            parsed.advisor.max_dimensionality,
            &parsed.advisor.range_options,
        )
        .space_size();
        out.push(ServedWarehouse {
            generated: Generated {
                name,
                disks: parsed.system.num_disks,
                config: render_config(&parsed),
                space,
            },
            trajectory: scenario.drift_trajectory(),
        });
    }
    Ok(out)
}
