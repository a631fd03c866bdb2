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

/// The fuzz lane: generated requests and documents for the dispatcher
/// and every wire type's decoder. Nothing here checks a number; every
/// input must end in a well-formed reply or a typed error, never a
/// panic.
mod fuzz {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    use proptest::TestRng;
    use warlock::config_file::{demo_config, render_config};
    use warlock::json::{FromJson, Json, JsonError};
    use warlock::{Registry, Service};
    use warlock_scenarios::{generate_fleet, ScenarioSpace};

    /// Every op of protocol v2, plus names no version knows.
    const OPS: [&str; 24] = [
        "rank",
        "analyze",
        "allocate",
        "evaluate",
        "what_if_disks",
        "what_if_prefetch",
        "what_if_without_bitmap_dimension",
        "what_if_without_class",
        "set_mix",
        "set_budget",
        "cache_stats",
        "ping",
        "shutdown",
        "load",
        "unload",
        "reload",
        "list_warehouses",
        "recommend_policy",
        "observe_stats",
        "drift_status",
        "advice_events",
        "set_auto_advise",
        "",
        "frobnicate",
    ];

    /// Every `error.kind` a reply may carry, save `internal`: a broken
    /// invariant is a fault however odd the request.
    const KINDS: [&str; 19] = [
        "bad_request",
        "unknown_op",
        "unsupported_version",
        "missing_input",
        "schema",
        "candidate",
        "workload",
        "config",
        "system",
        "skew",
        "config_file",
        "json",
        "candidate_budget",
        "rank_out_of_range",
        "unknown_class",
        "unknown_warehouse",
        "duplicate_warehouse",
        "reload_failed",
        "io",
    ];

    /// Member names the trees draw from: the request params and the
    /// wire keys, so generated objects reach past the first check.
    const KEYS: [&str; 24] = [
        "disks",
        "pages",
        "dimension",
        "level",
        "range",
        "class",
        "rank",
        "fragmentation",
        "observations",
        "count",
        "mean_latency_ms",
        "weights",
        "limit",
        "on",
        "name",
        "max_candidates",
        "chunk_size",
        "q01_month_store_code",
        "q04_year_line",
        "rq00",
        "label",
        "state",
        "event",
        "x",
    ];

    /// Stands for 2^64 − 1 in a rendered tree, which a `Json::Int`
    /// cannot hold; replaced in the request text.
    const U64_MAX: &str = "\"<u64::MAX>\"";

    fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
        items[rng.below(items.len())].clone()
    }

    fn scalar(rng: &mut TestRng) -> Json {
        match rng.below(8) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 0),
            2 | 3 => Json::Int(pick(
                rng,
                &[0, 1, 2, 7, -1, 65_536, (1 << 32) - 1, 1 << 32, i64::MAX],
            )),
            4 => Json::Str(U64_MAX.trim_matches('"').into()),
            5 => Json::Num(pick(rng, &[0.5, -0.0, 1e300, -2.5, 1e-300])),
            _ => Json::Str(pick(rng, &KEYS).into()),
        }
    }

    /// A random JSON tree at most `depth` containers deep.
    fn tree(rng: &mut TestRng, depth: u32) -> Json {
        if depth == 0 || rng.below(3) == 0 {
            return scalar(rng);
        }
        let len = rng.below(4);
        if rng.below(3) == 0 {
            Json::Arr((0..len).map(|_| tree(rng, depth - 1)).collect())
        } else {
            Json::Obj(
                (0..len)
                    .map(|_| (pick(rng, &KEYS).to_owned(), tree(rng, depth - 1)))
                    .collect(),
            )
        }
    }

    /// Renders `json`, writing the 2^64 − 1 placeholder as the integer.
    fn render(json: &Json) -> String {
        json.render().replace(U64_MAX, "18446744073709551615")
    }

    /// An integer param: 0, 1, a small count, or a bound (2^16, 2^32 − 1,
    /// 2^63 − 1, 2^64 − 1).
    fn int(rng: &mut TestRng) -> Json {
        match rng.below(8) {
            0 => Json::Str(U64_MAX.trim_matches('"').into()),
            _ => Json::Int(pick(
                rng,
                &[0, 1, 2, 3, 64, 65_536, (1 << 32) - 1, i64::MAX],
            )),
        }
    }

    /// `params` shaped the way `op` reads them, with boundary values.
    fn typed_params(rng: &mut TestRng, op: &str) -> Json {
        let class = |rng: &mut TestRng| {
            Json::Str(
                pick(
                    rng,
                    &["q01_month_store_code", "q04_year_line", "pq00", "nope"],
                )
                .into(),
            )
        };
        let members: Vec<(&str, Json)> = match op {
            "analyze" | "allocate" => vec![("rank", int(rng))],
            "evaluate" => {
                let attrs = (0..rng.below(4)).map(|_| {
                    let small = |rng: &mut TestRng| Json::Int(rng.below(5) as i64);
                    let range = if rng.below(2) == 0 {
                        Json::Int(1)
                    } else {
                        int(rng)
                    };
                    Json::object([
                        ("dimension", small(rng)),
                        ("level", small(rng)),
                        ("range", range),
                    ])
                });
                vec![("fragmentation", Json::Arr(attrs.collect()))]
            }
            "what_if_disks" => vec![("disks", int(rng))],
            "what_if_prefetch" => vec![("pages", int(rng))],
            "what_if_without_bitmap_dimension" => vec![("dimension", int(rng))],
            "what_if_without_class" => vec![("class", class(rng))],
            "set_mix" => {
                let weights = (0..rng.below(4)).map(|_| {
                    let Json::Str(name) = class(rng) else {
                        unreachable!()
                    };
                    (
                        name,
                        pick(rng, &[Json::Int(0), Json::Int(1), Json::Num(2.5)]),
                    )
                });
                vec![("weights", Json::Obj(weights.collect()))]
            }
            "set_budget" => {
                let drawn = int(rng);
                let budget = pick(rng, &[Json::Int(0), Json::Int(0), drawn]);
                vec![("max_candidates", budget), ("chunk_size", int(rng))]
            }
            "observe_stats" => {
                let observations = (0..rng.below(4)).map(|_| {
                    let latency = pick(rng, &[Json::Null, Json::Num(1.5), Json::Num(-1.0)]);
                    Json::object([
                        ("class", class(rng)),
                        ("count", int(rng)),
                        ("mean_latency_ms", latency),
                    ])
                });
                vec![("observations", Json::Arr(observations.collect()))]
            }
            "advice_events" => vec![("limit", int(rng))],
            "set_auto_advise" => vec![("on", Json::Bool(rng.below(2) == 0))],
            "unload" | "reload" => vec![("name", Json::Str(pick(rng, &["w1", "s000"]).into()))],
            _ => return tree(rng, 3),
        };
        Json::object(members)
    }

    /// One request line: arbitrary bytes, or a request object for a
    /// real op with random envelope fields and a random `params` tree.
    /// `load` paths name only files in `dir`.
    fn request(rng: &mut TestRng, dir: &Path) -> String {
        if rng.below(6) == 0 {
            let bytes: Vec<u8> = (0..rng.below(24)).map(|_| rng.next_u64() as u8).collect();
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        let op = pick(rng, &OPS);
        let mut members = Vec::new();
        match rng.below(8) {
            0 => {}
            1 => members.push(("v".to_owned(), Json::Int(1))),
            2 => members.push(("v".to_owned(), scalar(rng))),
            _ => members.push(("v".to_owned(), Json::Int(2))),
        }
        if rng.below(2) == 0 {
            members.push(("id".to_owned(), tree(rng, 2)));
        }
        members.push(("op".to_owned(), Json::Str(op.into())));
        if rng.below(3) == 0 {
            let route = pick(rng, &["demo", "s000", "s000", "ghost"]);
            members.push(("warehouse".to_owned(), Json::Str(route.into())));
        }
        if rng.below(5) != 0 {
            let mut params = match rng.below(3) {
                0 => tree(rng, 3),
                _ => typed_params(rng, op),
            };
            if op == "load" {
                let file = pick(rng, &["demo.cfg", "s000.cfg", "missing.cfg"]);
                let path = Json::Str(dir.join(file).display().to_string());
                let name = Json::Str(pick(rng, &["w1", "w2", "s000"]).into());
                params = Json::object([("name", name), ("path", path)]);
            }
            members.push(("params".to_owned(), params));
        }
        render(&Json::Obj(members))
    }

    fn scratch_dir() -> PathBuf {
        std::env::temp_dir().join(format!("warlock-fuzz-{}", std::process::id()))
    }

    /// A registry of the demo config (`demo`, the default) and one
    /// generated fleet warehouse (`s000`), both loaded from `dir`.
    fn service(dir: &Path) -> Service {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join("demo.cfg"), render_config(&demo_config())).unwrap();
        let fleet = generate_fleet(42, 1, &ScenarioSpace::default());
        std::fs::write(dir.join("s000.cfg"), fleet[0].config_string()).unwrap();
        let registry = Registry::new("demo");
        for name in ["demo", "s000"] {
            let path = dir.join(format!("{name}.cfg"));
            registry.load(name, path.display().to_string()).unwrap();
        }
        Service::with_registry(Arc::new(registry))
    }

    /// Checks one reply: one line of JSON with `ok`, echoing the
    /// request's `v` and `id`, and a failure's kind from [`KINDS`].
    fn check_reply(request: &str, line: &str) -> Result<(), String> {
        if line.contains('\n') {
            return Err("reply spans lines".into());
        }
        let reply = warlock_json::parse(line).map_err(|e| format!("reply: {e}"))?;
        let sent = warlock_json::parse(request).ok();
        let sent_v = sent
            .as_ref()
            .and_then(|r| r.get("v").and_then(Json::as_i64));
        let v = reply.get("v").and_then(Json::as_i64);
        let want_v = if sent_v == Some(1) { 1 } else { 2 };
        if v != Some(want_v) {
            return Err(format!("`v` is {v:?}, expected {want_v}"));
        }
        let want_id = sent
            .as_ref()
            .filter(|r| matches!(r, Json::Obj(_)))
            .and_then(|r| r.get("id").cloned())
            .unwrap_or(Json::Null);
        if reply.get("id") != Some(&want_id) {
            return Err(format!("`id` not echoed: expected {}", want_id.render()));
        }
        match reply.get("ok").and_then(Json::as_bool) {
            Some(true) if reply.get("result").is_some() => Ok(()),
            Some(false) => {
                let kind = reply.get("error").and_then(|e| e.get("kind"));
                match kind.and_then(Json::as_str) {
                    Some(kind) if KINDS.contains(&kind) => Ok(()),
                    _ => Err(format!("unknown error kind {kind:?}")),
                }
            }
            _ => Err("no `ok` with a `result` or an `error`".into()),
        }
    }

    /// Arbitrary bytes and generated requests for every op, sent to one
    /// two-warehouse service in sequence: each reply is one well-formed
    /// line, and nothing panics.
    #[test]
    fn the_dispatcher_answers_every_request_with_one_reply_line() {
        let dir = scratch_dir().join("dispatch");
        let service = service(&dir);
        let mut rng = TestRng::deterministic();
        let mut failures = Vec::new();
        for case in 0..320 {
            let line = request(&mut rng, &dir);
            let reply = catch_unwind(AssertUnwindSafe(|| service.handle_line(&line)));
            let outcome = match reply {
                Err(_) => Err("panicked".to_owned()),
                Ok(reply) => check_reply(&line, &reply.line),
            };
            if let Err(why) = outcome {
                failures.push(format!("case {case}: {why}\n  request: {line}"));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    /// A decoder under test: its name and the parse it runs.
    type Decoder = (&'static str, fn(&Json) -> Result<(), JsonError>);

    fn decodes<T: FromJson>(json: &Json) -> Result<(), JsonError> {
        T::from_json(json).map(drop)
    }

    /// Every generated `FromJson`, and the hand-written ones.
    fn decoders() -> Vec<Decoder> {
        use warlock::serial::*;
        use warlock_bench::fleet::{FleetReport, InvariantFailure, ScenarioRecord};
        vec![
            ("FragmentationAttr", decodes::<FragmentationAttr>),
            ("RankingRow", decodes::<RankingRow>),
            ("ExclusionRow", decodes::<ExclusionRow>),
            ("ExclusionGroupRow", decodes::<ExclusionGroupRow>),
            ("ExcludedSummaryRow", decodes::<ExcludedSummaryRow>),
            ("ClassRow", decodes::<ClassRow>),
            ("AnalysisReport", decodes::<AnalysisReport>),
            ("DiskRow", decodes::<DiskRow>),
            ("ClassProfileRow", decodes::<ClassProfileRow>),
            ("AllocationReport", decodes::<AllocationReport>),
            ("SessionReport", decodes::<SessionReport>),
            ("PolicyVerdict", decodes::<warlock::PolicyVerdict>),
            (
                "PolicyRecommendation",
                decodes::<warlock::PolicyRecommendation>,
            ),
            ("DriftStatus", decodes::<warlock::DriftStatus>),
            ("AdviceEvent", decodes::<warlock::AdviceEvent>),
            ("TuningDelta", decodes::<warlock::TuningDelta>),
            ("EvalCacheStats", decodes::<warlock::EvalCacheStats>),
            ("WarehouseStats", decodes::<warlock::WarehouseStats>),
            ("ScenarioRecord", decodes::<ScenarioRecord>),
            ("InvariantFailure", decodes::<InvariantFailure>),
            ("FleetReport", decodes::<FleetReport>),
            ("observation", |json| observation_from_json(json).map(drop)),
        ]
    }

    /// Real documents of every wire type, to mutate.
    fn documents() -> Vec<Json> {
        let dir = scratch_dir().join("documents");
        let service = service(&dir);
        let mut docs = Vec::new();
        for request in [
            r#"{"op":"rank"}"#,
            r#"{"op":"analyze"}"#,
            r#"{"op":"allocate"}"#,
            r#"{"op":"recommend_policy"}"#,
            r#"{"op":"what_if_disks","params":{"disks":4}}"#,
            r#"{"op":"list_warehouses"}"#,
            r#"{"op":"set_auto_advise","params":{"on":true}}"#,
            r#"{"op":"observe_stats","params":{"observations":[{"class":"q04_year_line","count":900}]}}"#,
            r#"{"op":"advice_events"}"#,
        ] {
            let reply = warlock_json::parse(&service.handle_line(request).line).unwrap();
            docs.push(reply.get("result").unwrap().clone());
        }
        let session = service.registry().get("demo").unwrap().session();
        docs.push(warlock_json::ToJson::to_json(
            &session.session_report().unwrap(),
        ));
        let observation = warlock::ClassObservation::new("q01", 3).with_latency_ms(1.5);
        docs.push(warlock::serial::observation_to_json(&observation));
        std::fs::remove_dir_all(&dir).ok();
        docs.push(
            warlock_json::parse(include_str!("../../crates/bench/fleet.golden.json")).unwrap(),
        );
        docs
    }

    /// Every container in `json`, as child-index paths.
    fn paths(json: &Json, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        out.push(at.clone());
        let children: Vec<&Json> = match json {
            Json::Arr(items) => items.iter().collect(),
            Json::Obj(members) => members.iter().map(|(_, v)| v).collect(),
            _ => return,
        };
        for (i, child) in children.into_iter().enumerate() {
            at.push(i);
            paths(child, at, out);
            at.pop();
        }
    }

    fn node<'a>(json: &'a mut Json, path: &[usize]) -> &'a mut Json {
        path.iter().fold(json, |node, &i| match node {
            Json::Arr(items) => &mut items[i],
            Json::Obj(members) => &mut members[i].1,
            _ => unreachable!("paths only descend into containers"),
        })
    }

    /// `doc` with one node replaced by a random tree, or, in an object,
    /// one member dropped.
    fn mutate(rng: &mut TestRng, doc: &Json) -> Json {
        let mut doc = doc.clone();
        let mut all = Vec::new();
        paths(&doc, &mut Vec::new(), &mut all);
        let path = all[rng.below(all.len())].clone();
        let target = node(&mut doc, &path);
        match target {
            Json::Obj(members) if !members.is_empty() && rng.below(2) == 0 => {
                members.remove(rng.below(members.len()));
            }
            _ => *target = tree(rng, 2),
        }
        doc
    }

    /// Random trees, and real documents with one node replaced or one
    /// member dropped, fed to every decoder (the root and a sample of
    /// nested nodes): each returns `Ok` or `Err`, never panics.
    #[test]
    fn every_decoder_answers_ok_or_err_on_arbitrary_trees() {
        let decoders = decoders();
        let documents = documents();
        let mut rng = TestRng::deterministic();
        let mut failures = Vec::new();
        for case in 0..400 {
            let json = if case % 4 == 0 {
                tree(&mut rng, 4)
            } else {
                let doc = &documents[rng.below(documents.len())];
                mutate(&mut rng, doc)
            };
            let mut nodes = Vec::new();
            paths(&json, &mut Vec::new(), &mut nodes);
            let mut json = json;
            // The root and up to seven other nodes of each document.
            for k in 0..nodes.len().min(8) {
                let path = &nodes[if k == 0 { 0 } else { rng.below(nodes.len()) }];
                let sub = node(&mut json, path).clone();
                for (name, decode) in &decoders {
                    if catch_unwind(|| decode(&sub)).is_err() {
                        failures.push(format!("{name} panicked on {}", sub.render()));
                    }
                }
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn strategies_draw_every_op() {
        let mut rng = TestRng::deterministic();
        let dir = scratch_dir();
        let lines: Vec<String> = (0..400).map(|_| request(&mut rng, &dir)).collect();
        for op in OPS.iter().filter(|op| !op.is_empty()) {
            let tag = format!(r#""op":"{op}""#);
            assert!(lines.iter().any(|l| l.contains(&tag)), "`{op}` never drawn");
        }
    }
}
