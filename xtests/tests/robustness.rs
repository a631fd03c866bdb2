//! Robustness sweep: the full advisor over randomized schemas and
//! workloads. Nothing here checks specific numbers — it checks that the
//! pipeline upholds its contracts on arbitrary valid inputs.

use warlock::prelude::*;
use warlock::storage::Architecture;
use warlock_schema::{random_schema, RandomSchemaConfig};
use warlock_workload::{GeneratorConfig, WorkloadGenerator};

#[test]
fn advisor_never_fails_on_random_inputs() {
    for seed in 0..40u64 {
        let schema = random_schema(seed, RandomSchemaConfig::default()).unwrap();
        let mix = WorkloadGenerator::new(
            seed.wrapping_mul(31),
            GeneratorConfig {
                num_classes: 6,
                max_dimensionality: 3,
                range_probability: 0.3,
            },
        )
        .mix(&schema);
        mix.validate(&schema).unwrap();

        let disks = 1 + (seed % 32) as u32;
        let mut system = SystemConfig::default_2001(disks);
        if seed % 3 == 0 {
            system.architecture = Architecture::shared_disk(2, 4);
        }
        let session = Warlock::builder()
            .schema(schema)
            .system(system)
            .mix(mix)
            .build()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let report = session.rank().unwrap().clone();

        // Contracts: bookkeeping adds up; rankings ordered; baseline is
        // never beaten on response by nothing (some candidate exists —
        // the baseline itself always survives).
        assert_eq!(
            report.evaluated + report.excluded.total(),
            report.enumerated,
            "seed {seed}"
        );
        assert!(!report.ranked.is_empty(), "seed {seed}: no candidates");
        for w in report.ranked.windows(2) {
            assert!(
                w[0].cost.response_ms <= w[1].cost.response_ms,
                "seed {seed}: ranking disordered"
            );
        }
        // Response can exceed busy time only by the architecture's
        // coordination overhead (a serial query on Shared Disk pays it).
        let overhead = system.architecture.overhead_factor();
        for r in &report.ranked {
            assert!(r.cost.response_ms.is_finite() && r.cost.response_ms > 0.0);
            assert!(r.cost.io_cost_ms.is_finite() && r.cost.io_cost_ms > 0.0);
            assert!(
                r.cost.response_ms <= r.cost.io_cost_ms * overhead * 1.0000001,
                "seed {seed}: response {} vs busy {} (overhead {overhead})",
                r.cost.response_ms,
                r.cost.io_cost_ms
            );
        }

        // Analysis and allocation of the winner must be internally
        // consistent on every random input.
        let top = report.top().unwrap();
        let analysis = session.analyze(1).unwrap();
        assert_eq!(analysis.num_fragments, top.cost.num_fragments);
        let plan = session.plan_allocation(1).unwrap();
        assert_eq!(
            plan.allocation.num_fragments() as u64,
            top.cost.num_fragments
        );
        assert!(plan
            .allocation
            .placements()
            .iter()
            .all(|&d| d < system.num_disks));
    }
}

#[test]
fn what_if_tuning_survives_random_inputs() {
    for seed in 0..10u64 {
        let schema = random_schema(seed, RandomSchemaConfig::default()).unwrap();
        let mix = WorkloadGenerator::new(seed, GeneratorConfig::default()).mix(&schema);
        let session = Warlock::builder()
            .schema(schema)
            .system(SystemConfig::default_2001(8))
            .mix(mix)
            .build()
            .unwrap();
        // Note: more disks do NOT guarantee a better *recommendation* —
        // the full-declustering threshold excludes candidates with fewer
        // fragments than disks, which can strand small schemas on the
        // baseline. Monotonicity holds per fixed fragmentation (covered in
        // advisor_pipeline.rs); here we only require well-formed results.
        let (more_report, more) = session.what_if_disks(32).unwrap();
        let (fewer_report, fewer) = session.what_if_disks(2).unwrap();
        assert!(!more_report.ranked.is_empty() && !fewer_report.ranked.is_empty());
        assert!(more.variation_response_ms.is_finite() && more.variation_response_ms > 0.0);
        assert!(fewer.variation_response_ms.is_finite() && fewer.variation_response_ms > 0.0);
        // When both runs recommend the same fragmentation, monotonicity
        // must hold.
        if more.variation_top == fewer.variation_top {
            assert!(more.variation_response_ms <= fewer.variation_response_ms * 1.0000001);
        }
        let (_, fixed) = session.what_if_fixed_prefetch(4).unwrap();
        assert!(fixed.variation_response_ms.is_finite());
    }
}

#[test]
fn degenerate_configurations_are_handled() {
    // One dimension, one level, one disk, one processor.
    let schema = random_schema(
        1,
        RandomSchemaConfig {
            dimensions: (1, 1),
            depth: (1, 1),
            max_fanout: 4,
            max_rows: 1000,
        },
    )
    .unwrap();
    let mix = WorkloadGenerator::new(
        2,
        GeneratorConfig {
            num_classes: 1,
            max_dimensionality: 1,
            range_probability: 0.0,
        },
    )
    .mix(&schema);
    let mut system = SystemConfig::default_2001(1);
    system.architecture = Architecture::SharedEverything { processors: 1 };
    let report = Warlock::builder()
        .schema(schema)
        .system(system)
        .mix(mix)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(!report.ranked.is_empty());
    // On one disk, response equals busy time for every candidate.
    for r in &report.ranked {
        assert!((r.cost.response_ms - r.cost.io_cost_ms).abs() < 1e-6);
    }
}

/// Builds a session from `text` and its session report, and requires a
/// typed error or a report that round-trips through JSON: never a panic.
/// Returns the error, if any, or `Err(())` on a panic.
fn builds_or_fails_typed(what: &str, text: &str) -> Result<Option<warlock::WarlockError>, ()> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use warlock::SessionReport;

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Warlock::from_config_str(text).and_then(|session| session.session_report())
    }));
    match outcome {
        Err(_) => Err(()),
        // A typed error is a fine answer to an absurd value.
        Ok(Err(e)) => Ok(Some(e)),
        Ok(Ok(report)) => {
            let json = report.to_json().pretty();
            let parsed = SessionReport::from_json_str(&json)
                .unwrap_or_else(|e| panic!("{what}: {e}\n{json}"));
            assert_eq!(parsed, report, "{what} does not round-trip");
            Ok(None)
        }
    }
}

#[test]
fn every_float_config_key_builds_or_fails_typed() {
    use warlock::config_file::{demo_config, render_config};

    let demo = render_config(&demo_config());
    // Each key's line in the demo config (`skew` has none, so it goes
    // under the first dimension's levels), rewritten to carry `value`.
    let with = |key: &str, value: &str| -> String {
        let (line, replacement) = match key {
            "skew" => {
                let levels = demo.lines().find(|l| l.starts_with("levels = ")).unwrap();
                (levels.to_string(), format!("{levels}\nskew = {value}"))
            }
            "allocation_policy" => (
                "allocation_policy = auto".to_string(),
                format!("allocation_policy = auto:{value}"),
            ),
            _ => {
                let prefix = format!("{key} = ");
                let line = demo.lines().find(|l| l.starts_with(&prefix)).unwrap();
                (line.to_string(), format!("{prefix}{value}"))
            }
        };
        assert!(demo.contains(&line), "{key}");
        demo.replacen(&line, &replacement, 1)
    };
    let keys = [
        "seek_ms",
        "rotational_ms",
        "transfer_mb_s",
        "capacity_gb",
        "top_x_percent",
        "density",
        "weight",
        "allocation_policy",
        "skew",
    ];
    let values = ["nan", "inf", "-inf", "-1", "0", "1e308", "1e-308"];
    let mut panicked = Vec::new();
    for key in keys {
        for value in values {
            let what = format!("{key} = {value}");
            match builds_or_fails_typed(&what, &with(key, value)) {
                Err(()) => panicked.push(what),
                // No capacity but the smallest fits a disk, and even that
                // one is below one byte; each is refused naming the key.
                Ok(error) if key == "capacity_gb" && value != "1e-308" => {
                    let error = error.unwrap_or_else(|| panic!("{what} was accepted"));
                    assert!(error.to_string().contains("capacity_gb"), "{what}: {error}");
                }
                Ok(_) => {}
            }
        }
    }
    assert!(panicked.is_empty(), "panicked on: {panicked:?}");
}

#[test]
fn every_integer_config_key_builds_or_fails_typed() {
    use warlock::config_file::{demo_config, render_config};

    let demo = render_config(&demo_config());
    // Each integer key, as the line of the demo config it replaces and
    // that line rewritten to set the key; `{}` stands for the value. Keys
    // the demo does not write come with the keys they need.
    let keys = [
        (
            "levels = base:9",
            "levels = base:9\nskew = 0.5\nskew_shuffle = {}",
        ),
        ("density = 0.01", "rows = {}"),
        ("disks = 16", "disks = {}"),
        ("page_bytes = 8192", "page_bytes = {}"),
        (
            "architecture = shared_everything",
            "architecture = shared_disk\nnodes = {}",
        ),
        ("processors = 16", "processors = {}"),
        ("prefetch = auto", "prefetch = {}"),
        ("max_dimensionality = 4", "max_dimensionality = {}"),
        ("top_n = 10", "top_n = {}"),
        ("min_keep = 10", "min_keep = {}"),
        ("max_fragments = 1048576", "max_fragments = {}"),
        (
            "allocation_policy = auto",
            "allocation_policy = graph\ngraph_seed = {}",
        ),
        ("parallelism = auto", "parallelism = {}"),
        ("max_candidates = unlimited", "max_candidates = {}"),
        ("chunk_size = auto", "chunk_size = {}"),
        ("[advisor]", "[advisor]\nrange_options = {}"),
    ];
    let values = ["0", "1", "4294967295", "18446744073709551615"];
    let mut panicked = Vec::new();
    for (line, set) in keys {
        assert!(demo.contains(line), "{line}");
        for value in values {
            let what = set.replace("{}", value);
            let text = demo.replacen(line, &what, 1);
            match builds_or_fails_typed(&what, &text) {
                Err(()) => panicked.push(what),
                // Too many disks or workers to afford is refused before
                // anything is allocated or started, naming the key's line.
                Ok(error) if value != "0" && value != "1" => {
                    if what.starts_with("disks") || what.starts_with("parallelism") {
                        let error = error.unwrap_or_else(|| panic!("{what} was accepted"));
                        let at = text.lines().position(|l| l == what).unwrap() + 1;
                        assert!(
                            error.to_string().contains(&format!("line {at}:")),
                            "{error}"
                        );
                    }
                }
                Ok(_) => {}
            }
        }
    }
    assert!(panicked.is_empty(), "panicked on: {panicked:?}");
}
