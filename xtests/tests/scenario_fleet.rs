//! Cross-crate tests of the scenario-fleet harness: the exact golden of
//! the 25-scenario fleet, the golden comparison's sensitivity to a
//! one-ulp change or a reordered verdict list, and the config-file
//! materialization path (`Warlock::from_config_path`).

use std::sync::OnceLock;

use warlock::Warlock;
use warlock_bench::fleet::{fleet_fingerprint, golden_mismatch, run_fleet, FleetReport};
use warlock_scenarios::{generate_fleet, ScenarioSpace};

/// The committed golden. Regenerate it after an intended change of the
/// advisor's outputs with
/// `cargo run --release -p warlock-bench --bin fleet -- run --seed 42 --count 25 --out crates/bench/fleet.golden.json`.
const GOLDEN: &str = include_str!("../../crates/bench/fleet.golden.json");

/// `run_fleet(42, 25)`, run once and shared by every test here.
fn golden_fleet() -> &'static FleetReport {
    static REPORT: OnceLock<FleetReport> = OnceLock::new();
    REPORT.get_or_init(|| run_fleet(42, 25, &ScenarioSpace::default()).unwrap())
}

/// The fleet's advice is a pure function of schema, mix and system:
/// the fresh report matches the golden line for line, at any worker
/// count and chunk size.
#[test]
fn fleet_matches_the_golden() {
    let report = golden_fleet();
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.scenarios.len(), 25);
    let fleet = generate_fleet(42, 25, &ScenarioSpace::default());
    assert_eq!(report.fingerprint, fleet_fingerprint(&fleet));
    if let Some(mismatch) = golden_mismatch(GOLDEN, &report.to_json_string()) {
        panic!("the fleet diverged from crates/bench/fleet.golden.json: {mismatch}");
    }
}

/// Same seed ⇒ an identical report across independent harness runs.
#[test]
fn fleet_runs_are_reproducible() {
    let again = run_fleet(42, 25, &ScenarioSpace::default()).unwrap();
    assert_eq!(&again, golden_fleet());
    assert_eq!(again.to_json_string(), golden_fleet().to_json_string());
}

/// Nudges `value` by one ulp, away from zero when `up`.
fn one_ulp(value: f64, up: bool) -> f64 {
    let bits = value.to_bits();
    f64::from_bits(if up || bits == 0 { bits + 1 } else { bits - 1 })
}

/// A one-ulp change to any f64 field of any scenario is caught, and
/// the comparison names the scenario and the field.
#[test]
fn golden_rejects_a_one_ulp_change_in_any_float() {
    let report = golden_fleet();
    let rendered = report.to_json_string();
    type Field = fn(&mut warlock_bench::fleet::ScenarioRecord) -> &mut f64;
    let fields: [(&str, Field); 4] = [
        ("cache_hit_rate", |m| &mut m.cache_hit_rate),
        ("greedy_heat_imbalance", |m| &mut m.greedy_heat_imbalance),
        ("graph_heat_imbalance", |m| &mut m.graph_heat_imbalance),
        ("graph_makespan_ratio", |m| &mut m.graph_makespan_ratio),
    ];
    for i in 0..report.scenarios.len() {
        for (name, field) in fields {
            for up in [true, false] {
                let mut changed = report.clone();
                let value = field(&mut changed.scenarios[i]);
                *value = one_ulp(*value, up);
                let mismatch = golden_mismatch(&rendered, &changed.to_json_string())
                    .unwrap_or_else(|| panic!("one ulp of {name} went unnoticed"));
                assert!(
                    mismatch.contains(&report.scenarios[i].label)
                        && mismatch.contains(&format!("`{name}`")),
                    "{mismatch}"
                );
            }
        }
    }
}

/// Swapping two entries of one verdict order is caught and named.
#[test]
fn golden_rejects_a_reordered_verdict_list() {
    let report = golden_fleet();
    let rendered = report.to_json_string();
    for i in 0..report.scenarios.len() {
        let mut changed = report.clone();
        changed.scenarios[i].policy_order.swap(0, 2);
        let mismatch = golden_mismatch(&rendered, &changed.to_json_string())
            .expect("a reordered verdict list went unnoticed");
        assert!(
            mismatch.contains(&report.scenarios[i].label) && mismatch.contains("`policy_order`"),
            "{mismatch}"
        );
    }
}

/// A generated scenario written to disk materializes through the
/// config-file entry point into an equivalent session.
#[test]
fn scenarios_materialize_from_config_files() {
    let fleet = generate_fleet(123, 6, &ScenarioSpace::default());
    let dir = std::env::temp_dir().join(format!("warlock-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for scenario in &fleet {
        let path = dir.join(format!("{}.cfg", scenario.id));
        std::fs::write(&path, scenario.config_string()).unwrap();
        let from_file = Warlock::from_config_path(&path).unwrap();
        let direct = scenario.session().unwrap();
        assert_eq!(from_file.schema(), direct.schema());
        assert_eq!(from_file.system(), direct.system());
        assert_eq!(from_file.config(), direct.config());
        assert_eq!(
            from_file.candidate_space_size(),
            direct.candidate_space_size()
        );
        // Both paths produce the same ranking. Costs agree to ulp
        // precision only: the config file stores *normalized* mix
        // shares, and re-normalizing on parse can shift each share by
        // one ulp — structure and ordering must still be identical.
        let a = from_file.rank().unwrap();
        let b = direct.rank().unwrap();
        assert_eq!(a.enumerated, b.enumerated, "{}", scenario.label());
        assert_eq!(a.evaluated, b.evaluated, "{}", scenario.label());
        assert_eq!(a.ranked.len(), b.ranked.len(), "{}", scenario.label());
        for (x, y) in a.ranked.iter().zip(&b.ranked) {
            assert_eq!(x.label, y.label, "{}", scenario.label());
            assert_eq!(x.cost.fragmentation, y.cost.fragmentation);
            assert_eq!(x.cost.num_fragments, y.cost.num_fragments);
            let rel = (x.cost.response_ms - y.cost.response_ms).abs()
                / y.cost.response_ms.abs().max(1e-12);
            assert!(
                rel < 1e-9,
                "{}: {} vs {}",
                scenario.label(),
                x.cost.response_ms,
                y.cost.response_ms
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
