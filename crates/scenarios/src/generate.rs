//! The scenario generator: `(fleet seed, index)` → concrete warehouse.

use warlock::config_file::{render_config, ParsedConfig};
use warlock::{AdvisorConfig, Warlock, WarlockError};
use warlock_alloc::AllocationPolicy;
use warlock_schema::{Dimension, FactTable, StarSchema};
use warlock_skew::DimensionSkew;
use warlock_storage::{Architecture, DiskParams, PageConfig, PrefetchPolicy, SystemConfig};
use warlock_workload::{ClassObservation, DimensionPredicate, QueryClass, QueryMix};

use crate::rng::Rng;
use crate::space::{MixShape, ScenarioClass, ScenarioSpace, SkewProfile};

/// One generated warehouse scenario: a coverage-grid class plus the
/// concrete inputs drawn for it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Index of this scenario within its fleet.
    pub id: u32,
    /// The per-scenario seed every draw derived from (itself derived
    /// from the fleet seed and `id`).
    pub seed: u64,
    /// The coverage-grid cell this scenario exercises.
    pub class: ScenarioClass,
    /// The fully assembled advisory inputs — the same struct the
    /// config-file front end produces.
    pub parsed: ParsedConfig,
    /// Seed of the drift-trajectory sub-stream; `Some` only for
    /// `Drifting`-mix scenarios.
    drift_seed: Option<u64>,
}

/// Batches per drift trajectory.
const DRIFT_BATCHES: usize = 12;

/// Batches over which the blend ramps from the configured mix to the
/// drifted target; the remaining batches hold at the target so the
/// decayed statistics window converges onto it.
const DRIFT_RAMP: usize = 8;

/// Total-variation distance between the configured shares and the
/// trajectory's target mix. Comfortably above the default drift-enter
/// threshold (0.25), and low enough that the residual drift left after
/// an auto re-advise adopts the observed mix mid-ramp (at most
/// `DRIFT_SCORE_DEPTH - drift_enter`) stays below that threshold — the
/// structural guarantee behind "one trajectory, exactly one re-advise".
const DRIFT_SCORE_DEPTH: f64 = 0.38;

impl Scenario {
    /// Stable human-readable label, e.g. `s007-deep/hot_spot/drifting`.
    pub fn label(&self) -> String {
        format!("s{:03}-{}", self.id, self.class)
    }

    /// Renders this scenario as a config file in the format
    /// [`warlock::config_file`] parses — the byte-identity of this
    /// string across runs is the fleet's determinism contract.
    pub fn config_string(&self) -> String {
        render_config(&self.parsed)
    }

    /// Materializes the scenario into an owned advisory session.
    pub fn session(&self) -> Result<Warlock, WarlockError> {
        Warlock::from_parsed(self.parsed.clone())
    }

    /// The seeded drift trajectory of a `Drifting`-mix scenario: a
    /// sequence of observation batches whose traffic starts at the
    /// configured (head-heavy) mix and drifts toward its inversion —
    /// the lingering tail classes take over — ramping over the first
    /// `DRIFT_RAMP` (8) batches and then holding, so replaying the
    /// batches through [`Warlock::observe`] crosses the default
    /// drift-enter threshold before the final batch. A pure function
    /// of `(fleet seed, id)`: the same fleet always replays
    /// byte-identical traffic. Non-`Drifting` scenarios have no
    /// trajectory (empty).
    ///
    /// The drift *depth* is normalized: the target sits exactly
    /// `DRIFT_SCORE_DEPTH` (0.38) total-variation away from the configured
    /// shares regardless of class count. Deep enough to cross the
    /// default enter threshold with margin — and shallow enough that
    /// once an auto re-advise adopts the observed mix mid-ramp, the
    /// remaining approach to the target cannot cross it again: one
    /// trajectory fires exactly one re-advise.
    ///
    /// Every class keeps at least one observation per batch, so the
    /// observed class set — and with it the structure fingerprint the
    /// evaluation cache keys unweighted cost rows on — stays stable
    /// across re-advises.
    pub fn drift_trajectory(&self) -> Vec<Vec<ClassObservation>> {
        let Some(seed) = self.drift_seed else {
            return Vec::new();
        };
        let mut rng = Rng::new(seed);
        let configured: Vec<(String, f64)> = self
            .parsed
            .mix
            .classes()
            .iter()
            .map(|w| (w.class.name().to_owned(), w.share))
            .collect();
        // The drifted target points at the inverted head-heavy shape
        // (the faded tail classes become the new head), scaled back so
        // its total-variation distance is exactly DRIFT_SCORE_DEPTH.
        let inverted: Vec<f64> = configured.iter().rev().map(|(_, s)| *s).collect();
        let full: f64 = 0.5
            * configured
                .iter()
                .zip(&inverted)
                .map(|((_, share), inv)| (share - inv).abs())
                .sum::<f64>();
        let depth = if full > 0.0 {
            (DRIFT_SCORE_DEPTH / full).min(1.0)
        } else {
            0.0
        };
        let target: Vec<f64> = configured
            .iter()
            .zip(&inverted)
            .map(|((_, share), inv)| share + depth * (inv - share))
            .collect();
        (0..DRIFT_BATCHES)
            .map(|step| {
                let t = ((step + 1) as f64 / DRIFT_RAMP as f64).min(1.0);
                let total = rng.range(400, 600) as f64;
                configured
                    .iter()
                    .zip(&target)
                    .map(|((name, share), target_share)| {
                        let blended = (1.0 - t) * share + t * target_share;
                        let jitter = rng.f64_range(0.95, 1.05);
                        let count = (blended * jitter * total).round().max(1.0) as u64;
                        let obs = ClassObservation::new(name.clone(), count);
                        if rng.chance(0.5) {
                            obs.with_latency_ms(rng.f64_range(1.0, 20.0))
                        } else {
                            obs
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Deterministic scenario generator over a bounded parameter space.
///
/// Each scenario is a pure function of `(seed, index, space)`: indexes
/// are addressable in any order, and the same seed always reproduces
/// the same fleet byte-for-byte. Index `i` exercises coverage-grid
/// class `i % 36`, so any fleet of ≥ 36 scenarios covers the whole
/// categorical grid.
#[derive(Debug, Clone)]
pub struct ScenarioGenerator {
    seed: u64,
    space: ScenarioSpace,
    grid: Vec<ScenarioClass>,
}

impl ScenarioGenerator {
    /// Creates a generator.
    ///
    /// # Errors
    ///
    /// Returns the validation message when `space` is malformed.
    pub fn new(seed: u64, space: ScenarioSpace) -> Result<Self, String> {
        space.validate()?;
        Ok(Self {
            seed,
            space,
            grid: ScenarioClass::grid(),
        })
    }

    /// The parameter space in effect.
    pub fn space(&self) -> &ScenarioSpace {
        &self.space
    }

    /// Generates scenario `id`.
    pub fn scenario(&self, id: u32) -> Scenario {
        let class = self.grid[id as usize % self.grid.len()];
        // Mix the fleet seed and index through one splitmix step so
        // consecutive ids do not draw correlated streams.
        let seed =
            Rng::new(self.seed ^ u64::from(id).wrapping_mul(0xa076_1d64_78bd_642f)).next_u64();
        let mut rng = Rng::new(seed);

        let schema = gen_schema(&mut rng.fork(1), class, &self.space);
        let skews = gen_skews(&mut rng.fork(2), class.skew, &schema);
        let mix = gen_mix(&mut rng.fork(3), class.mix, &schema, &self.space);
        let system = gen_system(&mut rng.fork(4), &self.space);
        let advisor = gen_advisor(&mut rng.fork(5), &self.space, skews);
        // Drawn last, and only for drifting mixes: nothing reads the
        // parent stream afterwards, so configs generated before the
        // trajectory existed stay byte-identical.
        let drift_seed = (class.mix == MixShape::Drifting)
            .then(|| rng.fork(6))
            .map(|mut r| r.next_u64());

        Scenario {
            id,
            seed,
            class,
            parsed: ParsedConfig {
                schema,
                mix,
                system,
                advisor,
            },
            drift_seed,
        }
    }
}

/// Generates `count` scenarios from `seed` over `space`.
///
/// # Panics
///
/// Panics when `space` fails validation — use [`ScenarioGenerator::new`]
/// for the fallible path.
pub fn generate_fleet(seed: u64, count: usize, space: &ScenarioSpace) -> Vec<Scenario> {
    let generator = ScenarioGenerator::new(seed, space.clone()).expect("valid scenario space");
    (0..count as u32).map(|id| generator.scenario(id)).collect()
}

fn gen_schema(rng: &mut Rng, class: ScenarioClass, space: &ScenarioSpace) -> StarSchema {
    let (min_dims, max_dims, min_depth, max_depth, max_fanout) = class.schema.bounds();
    let num_dims = rng.range(min_dims, max_dims);
    let mut builder = StarSchema::builder();
    for d in 0..num_dims {
        let depth = rng.range(min_depth, max_depth);
        let mut dim = Dimension::builder(format!("d{d}"));
        let mut cardinality = 1u64;
        for l in 0..depth {
            cardinality *= rng.range(2, max_fanout);
            dim = dim.level(format!("l{l}"), cardinality);
        }
        builder = builder.dimension(dim.build().expect("integral fan-outs by construction"));
    }
    // Log-uniform fact volume between the space bounds.
    let ln_lo = (space.min_fact_rows as f64).ln();
    let ln_hi = (space.max_fact_rows as f64).ln();
    let rows = rng.f64_range(ln_lo, ln_hi).exp() as u64;
    let mut fact = FactTable::builder("fact");
    for m in 0..rng.range(1, 4) {
        fact = fact.measure(format!("m{m}"), 8);
    }
    builder
        .fact(
            fact.rows(rows.clamp(space.min_fact_rows, space.max_fact_rows))
                .build(),
        )
        .build()
        .expect("generated schemas are valid by construction")
}

fn gen_skews(rng: &mut Rng, profile: SkewProfile, schema: &StarSchema) -> Vec<DimensionSkew> {
    schema
        .dimensions()
        .iter()
        .map(|_| match profile {
            SkewProfile::Uniform => DimensionSkew::UNIFORM,
            SkewProfile::Zipfian => {
                if rng.chance(0.75) {
                    DimensionSkew::zipf(rng.f64_range(0.4, 1.0))
                } else {
                    DimensionSkew::UNIFORM
                }
            }
            SkewProfile::HotSpot => {
                if rng.chance(0.5) {
                    DimensionSkew::hot_spot(rng.f64_range(1.4, 2.0), rng.next_u64() % 1_000_000)
                } else {
                    DimensionSkew::zipf(rng.f64_range(0.4, 1.0))
                }
            }
        })
        .collect()
}

/// Draws a predicate level and value count for one dimension.
fn gen_predicate(rng: &mut Rng, dim: &Dimension, ranged: bool) -> DimensionPredicate {
    let level = rng.range(0, dim.depth() as u64 - 1) as u16;
    let card = dim.levels()[level as usize].cardinality();
    if ranged && card >= 4 {
        DimensionPredicate::range(level, rng.range(2, (card / 2).max(2)))
    } else {
        DimensionPredicate::point(level)
    }
}

/// Picks `k` distinct dimension ids deterministically.
fn pick_dims(rng: &mut Rng, num_dims: usize, k: usize) -> Vec<u16> {
    let mut ids: Vec<u16> = (0..num_dims as u16).collect();
    // Fisher–Yates on the deterministic stream.
    for i in (1..ids.len()).rev() {
        let j = rng.range(0, i as u64) as usize;
        ids.swap(i, j);
    }
    ids.truncate(k.clamp(1, num_dims));
    ids
}

fn gen_mix(rng: &mut Rng, shape: MixShape, schema: &StarSchema, space: &ScenarioSpace) -> QueryMix {
    let num_dims = schema.num_dimensions();
    let num_classes = rng.range(space.mix_classes.0 as u64, space.mix_classes.1 as u64) as usize;
    // Correlated mixes revolve around a fixed set of focus dimensions.
    let focus = pick_dims(rng, num_dims, 2.min(num_dims));

    let mut builder = QueryMix::builder();
    for i in 0..num_classes {
        let (prefix, range_probability) = match shape {
            MixShape::PointHeavy => ("pq", 0.05),
            MixShape::RangeHeavy => ("rq", 0.8),
            MixShape::Correlated => ("cq", 0.3),
            MixShape::Drifting => ("dq", 0.25),
        };
        let dims: Vec<u16> = match shape {
            MixShape::Correlated => {
                let mut dims = focus.clone();
                if num_dims > dims.len() && rng.chance(0.3) {
                    let extra = rng.range(0, num_dims as u64 - 1) as u16;
                    if !dims.contains(&extra) {
                        dims.push(extra);
                    }
                }
                dims
            }
            _ => {
                let k = rng.range(1, 3.min(num_dims as u64)) as usize;
                pick_dims(rng, num_dims, k)
            }
        };
        let mut class = QueryClass::new(format!("{prefix}{i:02}"));
        for d in dims {
            let dim = &schema.dimensions()[d as usize];
            let ranged = rng.chance(range_probability);
            class = class.with(d, gen_predicate(rng, dim, ranged));
        }
        let weight = match shape {
            // Head-heavy geometric decay: the drifted-away tail lingers
            // with fading shares.
            MixShape::Drifting => 8.0 * 0.6f64.powi(i as i32) + 0.2,
            _ => rng.f64_range(1.0, 10.0),
        };
        builder = builder.class(class, weight);
    }
    let mix = builder.build().expect("generated mixes are non-empty");
    debug_assert!(mix.validate(schema).is_ok());
    mix
}

fn gen_system(rng: &mut Rng, space: &ScenarioSpace) -> SystemConfig {
    let disks = rng.pick(&space.disks);
    let architecture = if rng.chance(0.7) {
        Architecture::SharedEverything {
            processors: rng.range(4, 32) as u32,
        }
    } else {
        Architecture::shared_disk(rng.range(2, 4) as u32, rng.range(2, 8) as u32)
    };
    let prefetch = if rng.chance(0.6) {
        PrefetchPolicy::Auto { max_pages: 256 }
    } else {
        PrefetchPolicy::Fixed(rng.pick(&[8u32, 16, 32, 64]))
    };
    SystemConfig {
        num_disks: disks,
        disk: DiskParams {
            avg_seek_ms: rng.f64_range(3.0, 8.0),
            avg_rotational_ms: rng.f64_range(2.0, 4.0),
            transfer_mb_per_s: rng.f64_range(15.0, 60.0),
            capacity_bytes: 18 * (1u64 << 30),
        },
        page: PageConfig::new(rng.pick(&[4096u32, 8192, 16384])),
        fact_prefetch: prefetch,
        bitmap_prefetch: prefetch,
        architecture,
    }
}

fn gen_advisor(rng: &mut Rng, space: &ScenarioSpace, skews: Vec<DimensionSkew>) -> AdvisorConfig {
    let allocation_policy = match rng.range(0, 3) {
        0 | 1 => AllocationPolicy::default(),
        2 => AllocationPolicy::GreedySize,
        _ => AllocationPolicy::RoundRobin,
    };
    // The graph-policy knob short-circuits before touching the stream:
    // the default `graph_probability = 0.0` draws nothing, so historical
    // fleet fingerprints stay byte-identical.
    let allocation_policy = if space.graph_probability > 0.0 && rng.chance(space.graph_probability)
    {
        AllocationPolicy::GraphPartition {
            seed: rng.next_u64(),
        }
    } else {
        allocation_policy
    };
    AdvisorConfig {
        max_dimensionality: rng.range(3, 4) as usize,
        range_options: if rng.chance(space.ranged_probability) {
            vec![2, 3]
        } else {
            Vec::new()
        },
        allocation_policy,
        skew: if skews.iter().any(|s| !s.is_uniform()) {
            Some(skews)
        } else {
            None
        },
        parallelism: space.parallelism,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SchemaShape;

    #[test]
    fn same_seed_is_byte_identical() {
        let space = ScenarioSpace::default();
        let a = generate_fleet(42, 40, &space);
        let b = generate_fleet(42, 40, &space);
        let join = |fleet: &[Scenario]| {
            fleet
                .iter()
                .map(Scenario::config_string)
                .collect::<Vec<_>>()
                .join("\n---\n")
        };
        assert_eq!(join(&a), join(&b));
        let c = generate_fleet(43, 40, &space);
        assert_ne!(join(&a), join(&c));
    }

    #[test]
    fn indexes_are_addressable_out_of_order() {
        let generator = ScenarioGenerator::new(7, ScenarioSpace::default()).unwrap();
        let direct = generator.scenario(17);
        let fleet = generate_fleet(7, 20, &ScenarioSpace::default());
        assert_eq!(direct.config_string(), fleet[17].config_string());
        assert_eq!(direct.label(), fleet[17].label());
    }

    #[test]
    fn a_full_grid_fleet_covers_every_class() {
        let fleet = generate_fleet(5, 36, &ScenarioSpace::default());
        let classes: std::collections::BTreeSet<String> =
            fleet.iter().map(|s| s.class.label()).collect();
        assert_eq!(classes.len(), 36);
    }

    #[test]
    fn scenarios_materialize_into_valid_sessions() {
        for scenario in generate_fleet(11, 36, &ScenarioSpace::default()) {
            let label = scenario.label();
            scenario
                .parsed
                .mix
                .validate(&scenario.parsed.schema)
                .unwrap_or_else(|e| panic!("{label}: invalid mix: {e}"));
            let session = scenario
                .session()
                .unwrap_or_else(|e| panic!("{label}: session failed: {e}"));
            assert!(session.candidate_space_size() > 0, "{label}: empty space");
        }
    }

    #[test]
    fn graph_probability_one_puts_every_scenario_on_the_graph_policy() {
        let space = ScenarioSpace {
            graph_probability: 1.0,
            ..Default::default()
        };
        for scenario in generate_fleet(13, 8, &space) {
            assert!(
                matches!(
                    scenario.parsed.advisor.allocation_policy,
                    AllocationPolicy::GraphPartition { .. }
                ),
                "{}: drew {:?}",
                scenario.label(),
                scenario.parsed.advisor.allocation_policy
            );
            // The rendered config round-trips the policy (and seed).
            let reparsed = warlock::config_file::parse_config(&scenario.config_string()).unwrap();
            assert_eq!(
                reparsed.advisor.allocation_policy,
                scenario.parsed.advisor.allocation_policy
            );
        }
        // Off means OFF: the knob must not consume any random draws, so
        // an explicit 0.0 reproduces the default space byte for byte.
        let off = ScenarioSpace {
            graph_probability: 0.0,
            ..Default::default()
        };
        let a: Vec<String> = generate_fleet(13, 8, &off)
            .iter()
            .map(Scenario::config_string)
            .collect();
        let b: Vec<String> = generate_fleet(13, 8, &ScenarioSpace::default())
            .iter()
            .map(Scenario::config_string)
            .collect();
        assert_eq!(a, b);
    }

    /// FNV-1a over the canonical debug rendering — a compact pin for
    /// byte-identity regressions.
    fn fnv1a(text: &str) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in text.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    #[test]
    fn drift_trajectories_are_pinned_for_a_fixed_seed() {
        let fleet = generate_fleet(42, 36, &ScenarioSpace::default());
        // Only drifting-mix scenarios carry traffic.
        for s in &fleet {
            let trajectory = s.drift_trajectory();
            if s.class.mix == MixShape::Drifting {
                assert_eq!(trajectory.len(), DRIFT_BATCHES, "{}", s.label());
                for batch in &trajectory {
                    assert_eq!(batch.len(), s.parsed.mix.len(), "{}", s.label());
                    assert!(batch.iter().all(|o| o.count >= 1), "{}", s.label());
                }
            } else {
                assert!(trajectory.is_empty(), "{}", s.label());
            }
        }
        // Same fleet ⇒ byte-identical traffic, pinned: regenerating
        // must reproduce these exact observations forever — the fleet
        // harness's replay metrics depend on it.
        let rendered: String = fleet
            .iter()
            .filter(|s| s.class.mix == MixShape::Drifting)
            .map(|s| format!("{}: {:?}\n", s.label(), s.drift_trajectory()))
            .collect();
        let again: String = generate_fleet(42, 36, &ScenarioSpace::default())
            .iter()
            .filter(|s| s.class.mix == MixShape::Drifting)
            .map(|s| format!("{}: {:?}\n", s.label(), s.drift_trajectory()))
            .collect();
        assert_eq!(rendered, again);
        assert_eq!(
            fnv1a(&rendered),
            11_903_387_315_265_414_035,
            "pinned trajectory bytes changed"
        );
    }

    #[test]
    fn drift_trajectories_cross_the_default_enter_threshold() {
        use warlock_workload::{mix_divergence, StatsWindow};
        let defaults = AdvisorConfig::default();
        for s in generate_fleet(17, 36, &ScenarioSpace::default())
            .iter()
            .filter(|s| s.class.mix == MixShape::Drifting)
        {
            let mut window = StatsWindow::new(defaults.stats_half_life);
            let mut peak = 0.0f64;
            for batch in s.drift_trajectory() {
                window.ingest(&batch);
                peak = peak.max(mix_divergence(&s.parsed.mix, &window));
            }
            assert!(
                peak > defaults.drift_enter,
                "{}: peak divergence {peak} never crossed {}",
                s.label(),
                defaults.drift_enter
            );
        }
    }

    #[test]
    fn config_files_round_trip_through_the_parser() {
        for scenario in generate_fleet(23, 12, &ScenarioSpace::default()) {
            let text = scenario.config_string();
            let reparsed = warlock::config_file::parse_config(&text)
                .unwrap_or_else(|e| panic!("{}: rendered config rejected: {e}", scenario.label()));
            assert_eq!(reparsed.schema, scenario.parsed.schema);
            assert_eq!(reparsed.mix.len(), scenario.parsed.mix.len());
            assert_eq!(reparsed.advisor.skew, scenario.parsed.advisor.skew);
            assert_eq!(
                reparsed.advisor.allocation_policy,
                scenario.parsed.advisor.allocation_policy
            );
            assert_eq!(
                reparsed.advisor.range_options,
                scenario.parsed.advisor.range_options
            );
        }
    }

    #[test]
    fn shapes_respect_their_structural_bounds() {
        for scenario in generate_fleet(3, 72, &ScenarioSpace::default()) {
            let (min_dims, max_dims, min_depth, max_depth, _) = scenario.class.schema.bounds();
            let dims = scenario.parsed.schema.num_dimensions() as u64;
            assert!(
                (min_dims..=max_dims).contains(&dims),
                "{}",
                scenario.label()
            );
            for d in scenario.parsed.schema.dimensions() {
                let depth = d.depth() as u64;
                assert!(
                    (min_depth..=max_depth).contains(&depth),
                    "{}: depth {depth}",
                    scenario.label()
                );
            }
            if scenario.class.schema == SchemaShape::Deep {
                assert!(dims <= 3);
            }
        }
    }

    #[test]
    fn mix_shapes_have_their_signatures() {
        let space = ScenarioSpace::default();
        for scenario in generate_fleet(9, 72, &space) {
            let mix = &scenario.parsed.mix;
            match scenario.class.mix {
                MixShape::Correlated => {
                    // Every class shares the focus dimensions, so the
                    // intersection of referenced dims is non-trivial.
                    let num_dims = scenario.parsed.schema.num_dimensions();
                    let mut shared: std::collections::BTreeSet<u16> = mix.classes()[0]
                        .class
                        .referenced_dimensions()
                        .map(|d| d.0)
                        .collect();
                    for w in &mix.classes()[1..] {
                        let dims: std::collections::BTreeSet<u16> =
                            w.class.referenced_dimensions().map(|d| d.0).collect();
                        shared = shared.intersection(&dims).copied().collect();
                    }
                    assert!(
                        shared.len() >= 2.min(num_dims),
                        "{}: focus intersection {shared:?}",
                        scenario.label()
                    );
                }
                MixShape::Drifting => {
                    // Weights strictly decay head → tail.
                    let shares: Vec<f64> = mix.classes().iter().map(|w| w.share).collect();
                    for pair in shares.windows(2) {
                        assert!(pair[0] > pair[1], "{}: not decaying", scenario.label());
                    }
                }
                MixShape::PointHeavy | MixShape::RangeHeavy => {}
            }
        }
        // Point-heavy mixes carry almost no ranges; range-heavy plenty —
        // checked over the aggregate, not per scenario.
        let count_ranges = |shape: MixShape| {
            let mut point = 0usize;
            let mut range = 0usize;
            for s in generate_fleet(9, 144, &space)
                .into_iter()
                .filter(|s| s.class.mix == shape)
            {
                for w in s.parsed.mix.classes() {
                    for p in w.class.predicates().values() {
                        if p.values > 1 {
                            range += 1;
                        } else {
                            point += 1;
                        }
                    }
                }
            }
            (point, range)
        };
        let (p_point, p_range) = count_ranges(MixShape::PointHeavy);
        let (r_point, r_range) = count_ranges(MixShape::RangeHeavy);
        assert!(p_range * 5 < p_point, "point-heavy: {p_point}p/{p_range}r");
        assert!(r_range > r_point / 2, "range-heavy: {r_point}p/{r_range}r");
    }
}
