//! The scenario-fleet harness: runs rank → allocate → what-if → policy
//! judge → drift replay over a generated scenario fleet, checks the
//! cross-cutting invariants, and records each scenario's deterministic
//! outputs in a [`FleetReport`].
//!
//! Every field of the report is a pure function of `(seed, count,
//! space)`: there are no timings and no memory counts. The rendered
//! report of `run_fleet(42, 25, ..)` is committed as the exact golden
//! `crates/bench/fleet.golden.json`, and [`golden_mismatch`] compares a
//! fresh rendering with it line for line. `warlock_json` writes the
//! shortest round-trip form of each f64, so a one-ulp change to any
//! number shows up in the text.

use warlock::config_file::parse_config;
use warlock::{SessionReport, Warlock};
use warlock_json::{json_struct, ToJson};
use warlock_scenarios::{generate_fleet, Scenario, ScenarioSpace};

/// Every `sample_stride`-th scenario additionally re-ranks with forced
/// chunked-streaming settings and asserts bit-identical reports.
pub const SAMPLE_STRIDE: u32 = 5;

json_struct! {
    /// The deterministic outputs of one scenario run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScenarioRecord {
        /// Stable label, e.g. `s007-deep/hot_spot/drifting`. It leads the
        /// rendered object, so [`golden_mismatch`] can name the scenario of
        /// any later line.
        pub label: String,
        /// Scenario index within the fleet.
        pub id: u32,
        /// Coverage-grid class label, e.g. `deep/hot_spot/drifting`.
        pub class: String,
        /// Disks in the generated system configuration.
        pub disks: u32,
        /// Exact candidate-space size.
        pub candidates: u64,
        /// Candidates that passed the thresholds and were ranked.
        pub evaluated: u64,
        /// Candidates excluded by a structural check or a threshold.
        pub excluded: u64,
        /// Label of the top-ranked candidate.
        pub top_label: String,
        /// Fragments of the top-ranked candidate.
        pub fragments: u64,
        /// Hit fraction of the evaluation memo over rank, report,
        /// allocation and the two what-if calls.
        pub cache_hit_rate: f64,
        /// The policy judge's verdicts for the top candidate, best first.
        pub policy_order: Vec<String>,
        /// Max-over-mean mix-weighted disk heat of the winner's allocation
        /// under the greedy size-based policy.
        pub greedy_heat_imbalance: f64,
        /// The same heat imbalance under the co-access graph partitioner.
        pub graph_heat_imbalance: f64,
        /// Simulated replay makespan of the graph policy over greedy's
        /// (< 1 means the partitioner wins head-to-head; 0 when greedy's
        /// makespan is 0).
        pub graph_makespan_ratio: f64,
        /// Observation batches of the scenario's seeded drift trajectory
        /// replayed before the resident optimizer fired its first auto
        /// re-advise (0 for non-drifting scenarios, or when none fired).
        pub drift_detect_batches: u64,
    }
}

json_struct! {
    /// One failed cross-cutting invariant.
    #[derive(Debug, Clone, PartialEq)]
    pub struct InvariantFailure {
        /// Label of the offending scenario.
        pub scenario: String,
        /// Which invariant broke.
        pub invariant: String,
        /// Human-readable detail.
        pub detail: String,
    }
}

json_struct! {
    /// The fleet's outputs, rendered as the golden by
    /// [`FleetReport::to_json_string`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct FleetReport {
        /// Fleet seed.
        pub seed: u64,
        /// Scenarios generated.
        pub count: u32,
        /// FNV-1a fingerprint of every rendered scenario config, in fleet
        /// order — byte-identical scenario sets have equal fingerprints.
        pub fingerprint: String,
        /// Failed invariants (empty on a healthy run).
        pub failures: Vec<InvariantFailure>,
        /// Per-scenario outputs, in fleet order (failed scenarios omitted).
        pub scenarios: Vec<ScenarioRecord>,
    }
}

/// FNV-1a over the rendered configs — the fleet's identity.
pub fn fleet_fingerprint(fleet: &[Scenario]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for scenario in fleet {
        for byte in scenario.config_string().bytes().chain([0u8]) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// A broken invariant: its name and a human-readable detail.
type Broken = (&'static str, String);

/// Drives one scenario through every invariant and collects its
/// outputs; the first broken invariant ends the scenario.
fn check_scenario(scenario: &Scenario) -> Result<ScenarioRecord, Broken> {
    // Invariant: the rendered config parses back to the same inputs —
    // the generator's output is a valid config file.
    let reparsed = parse_config(&scenario.config_string()).map_err(|e| {
        (
            "config_round_trip",
            format!("rendered config rejected: {e}"),
        )
    })?;
    if reparsed.schema != scenario.parsed.schema {
        return Err((
            "config_round_trip",
            "schema changed across render/parse".into(),
        ));
    }

    let session = scenario
        .session()
        .map_err(|e| ("session_build", e.to_string()))?;
    let baseline = session.rank().map_err(|e| ("rank", e.to_string()))?.clone();

    // Invariant: lazy enumeration visited the entire space.
    let space = session.candidate_space_size();
    if baseline.enumerated as u128 != space {
        return Err((
            "space_size",
            format!("enumerated {} != space size {}", baseline.enumerated, space),
        ));
    }

    // Invariant: the machine-readable report round-trips through its
    // JSON wire form, compact and pretty.
    let report = session
        .session_report()
        .map_err(|e| ("report_round_trip", e.to_string()))?;
    for text in [report.to_json().render(), report.to_json().pretty()] {
        match SessionReport::from_json_str(&text) {
            Ok(back) if back == report => {}
            Ok(_) => return Err(("report_round_trip", "reparse differs".into())),
            Err(e) => return Err(("report_round_trip", e.to_string())),
        }
    }

    // Invariant: the winner's allocation covers every fragment exactly
    // once on a valid disk.
    let plan = session
        .plan_allocation(1)
        .map_err(|e| ("allocation", e.to_string()))?;
    let placements = plan.allocation.placements();
    if placements.is_empty() {
        return Err(("allocation_coverage", "no fragments placed".into()));
    }
    if placements.len() != plan.allocation.num_fragments() {
        return Err((
            "allocation_coverage",
            format!(
                "{} placements for {} fragments",
                placements.len(),
                plan.allocation.num_fragments()
            ),
        ));
    }
    if let Some(&bad) = placements
        .iter()
        .find(|&&d| d >= plan.allocation.num_disks())
    {
        return Err((
            "allocation_coverage",
            format!(
                "fragment placed on disk {bad} of {}",
                plan.allocation.num_disks()
            ),
        ));
    }
    let occupied: u64 = plan.allocation.occupancy().iter().sum();
    if occupied == 0 {
        return Err(("allocation_coverage", "zero bytes placed".into()));
    }

    // Invariant (sampled): forced chunked-streaming settings reproduce
    // the baseline ranking bit-for-bit.
    if scenario.id.is_multiple_of(SAMPLE_STRIDE) {
        for chunk in [1usize, 64] {
            let mut config = session.config().clone();
            config.chunk_size = chunk;
            config.parallelism = 1;
            let streamed = Warlock::builder()
                .schema(session.schema().clone())
                .system(*session.system())
                .mix(session.mix().clone())
                .config(config)
                .build()
                .and_then(|s| s.run())
                .map_err(|e| ("streaming_equivalence", e.to_string()))?;
            if streamed != baseline {
                return Err((
                    "streaming_equivalence",
                    format!("chunk_size={chunk} ranking differs from baseline"),
                ));
            }
        }
    }

    // A what-if variation, repeated: the second call is pure cache hits.
    let varied = session.system().num_disks.saturating_mul(2).max(2);
    for _ in 0..2 {
        session
            .what_if_disks(varied)
            .map_err(|e| ("what_if", e.to_string()))?;
    }
    let stats = session.cache_stats();
    let lookups = stats.hits + stats.misses;
    let cache_hit_rate = if lookups == 0 {
        0.0
    } else {
        stats.hits as f64 / lookups as f64
    };

    let (top_label, fragments) = baseline
        .top()
        .map(|t| (t.label.clone(), t.cost.num_fragments))
        .unwrap_or_default();
    let (policy_order, greedy_heat_imbalance, graph_heat_imbalance, graph_makespan_ratio) =
        policy_quality(&session)?;
    Ok(ScenarioRecord {
        id: scenario.id,
        label: scenario.label(),
        class: scenario.class.label(),
        disks: session.system().num_disks,
        candidates: u64::try_from(space).unwrap_or(u64::MAX),
        evaluated: baseline.evaluated as u64,
        excluded: baseline.excluded.total() as u64,
        top_label,
        fragments,
        cache_hit_rate,
        policy_order,
        greedy_heat_imbalance,
        graph_heat_imbalance,
        graph_makespan_ratio,
        drift_detect_batches: drift_replay(scenario, &session)?,
    })
}

/// Replays the scenario's seeded drift trajectory through `observe` on
/// an auto-advising clone and returns the number of batches until the
/// first auto re-advise fired (0 for non-drifting scenarios, or when
/// none fired).
fn drift_replay(scenario: &Scenario, session: &Warlock) -> Result<u64, Broken> {
    let trajectory = scenario.drift_trajectory();
    if trajectory.is_empty() {
        return Ok(0);
    }
    let mut session = session.clone();
    session
        .set_auto_advise(true)
        .map_err(|e| ("drift_replay", e.to_string()))?;
    let mut detect_batches = 0;
    for (i, batch) in trajectory.iter().enumerate() {
        let status = session
            .observe(batch)
            .map_err(|e| ("drift_replay", format!("batch {}: {e}", i + 1)))?;
        if detect_batches == 0 && status.events_emitted > 0 {
            detect_batches = i as u64 + 1;
        }
    }
    Ok(detect_batches)
}

/// The head-to-head policy judge's outputs for the top candidate:
/// `(verdict order, greedy heat imbalance, graph heat imbalance,
/// graph/greedy makespan ratio)`.
fn policy_quality(session: &Warlock) -> Result<(Vec<String>, f64, f64, f64), Broken> {
    let rec = session
        .recommend_policy()
        .map_err(|e| ("policy_judge", e.to_string()))?;
    let find = |name: &str| {
        rec.verdicts
            .iter()
            .find(|v| v.policy == name)
            .ok_or_else(|| ("policy_judge", format!("no `{name}` verdict")))
    };
    let (greedy, graph) = (find("greedy")?, find("graph")?);
    let ratio = if greedy.makespan_ms > 0.0 {
        graph.makespan_ms / greedy.makespan_ms
    } else {
        0.0
    };
    Ok((
        rec.verdicts.iter().map(|v| v.policy.clone()).collect(),
        greedy.heat_imbalance,
        graph.heat_imbalance,
        ratio,
    ))
}

/// Runs the fleet harness: generates `count` scenarios from `seed` over
/// `space` and drives each through the invariants of
/// `check_scenario`, recording its outputs.
pub fn run_fleet(seed: u64, count: u32, space: &ScenarioSpace) -> Result<FleetReport, String> {
    space.validate()?;
    let fleet = generate_fleet(seed, count as usize, space);
    let mut scenarios = Vec::with_capacity(fleet.len());
    let mut failures = Vec::new();
    for scenario in &fleet {
        match check_scenario(scenario) {
            Ok(record) => scenarios.push(record),
            Err((invariant, detail)) => failures.push(InvariantFailure {
                scenario: scenario.label(),
                invariant: invariant.into(),
                detail,
            }),
        }
    }
    Ok(FleetReport {
        seed,
        count,
        fingerprint: fleet_fingerprint(&fleet),
        failures,
        scenarios,
    })
}

impl FleetReport {
    /// Serializes the report (pretty, trailing newline — the committed
    /// golden form).
    pub fn to_json_string(&self) -> String {
        let mut text = self.to_json().pretty();
        text.push('\n');
        text
    }
}

/// The key of a rendered `"key": value` line, if the line has one.
fn line_key(line: &str) -> Option<&str> {
    let (key, _) = line.trim_start().strip_prefix('"')?.split_once("\":")?;
    Some(key)
}

/// Compares a rendered report with the golden text line for line.
/// Returns `None` when they are identical, or else a description of the
/// first differing line: its number, the scenario and field it belongs
/// to, and both versions of the line.
pub fn golden_mismatch(golden: &str, current: &str) -> Option<String> {
    let mut scenario = "(fleet header)";
    let mut field = "";
    let golden: Vec<&str> = golden.lines().collect();
    let current: Vec<&str> = current.lines().collect();
    for i in 0..golden.len().max(current.len()) {
        let (g, c) = (golden.get(i).copied(), current.get(i).copied());
        if g != c {
            if let Some(key) = g.or(c).and_then(line_key) {
                field = key;
            }
            return Some(format!(
                "line {}: scenario {scenario}, field `{field}`: golden `{}`, current `{}`",
                i + 1,
                g.map_or("<end of file>", str::trim),
                c.map_or("<end of file>", str::trim),
            ));
        }
        let line = g.unwrap_or_default();
        if let Some(key) = line_key(line) {
            field = key;
            if key == "label" {
                scenario = line
                    .split_once(": ")
                    .map_or(line, |(_, value)| value.trim_end_matches(','));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_report() -> FleetReport {
        run_fleet(7, 6, &ScenarioSpace::default()).unwrap()
    }

    #[test]
    fn fleet_runs_clean_and_round_trips() {
        let report = small_report();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.scenarios.len(), 6);
        // The rendering is valid JSON that re-renders to the same text:
        // every f64 is written in its shortest round-trip form.
        let text = report.to_json_string();
        let parsed = warlock_json::parse(&text).unwrap();
        assert_eq!(format!("{}\n", parsed.pretty()), text);
        assert_eq!(golden_mismatch(&text, &text), None);
    }

    #[test]
    fn exact_fields_are_reproducible() {
        let a = run_fleet(7, 6, &ScenarioSpace::default()).unwrap();
        let b = run_fleet(7, 6, &ScenarioSpace::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json_string(), b.to_json_string());
        let c = run_fleet(8, 6, &ScenarioSpace::default()).unwrap();
        assert_ne!(a.fingerprint, c.fingerprint);
        let mismatch = golden_mismatch(&a.to_json_string(), &c.to_json_string()).unwrap();
        assert!(mismatch.contains("field `seed`"), "{mismatch}");
    }

    #[test]
    fn quality_numbers_are_recorded() {
        let report = small_report();
        for m in &report.scenarios {
            assert!(m.greedy_heat_imbalance >= 1.0 - 1e-9, "{}", m.label);
            assert!(m.graph_heat_imbalance >= 1.0 - 1e-9, "{}", m.label);
            assert!(m.graph_makespan_ratio > 0.0, "{}", m.label);
            let mut policies = m.policy_order.clone();
            policies.sort();
            assert_eq!(policies, ["graph", "greedy", "round_robin"], "{}", m.label);
            assert!(!m.top_label.is_empty(), "{}", m.label);
            assert_eq!(m.evaluated + m.excluded, m.candidates, "{}", m.label);
        }
    }

    #[test]
    fn drift_numbers_are_recorded() {
        let report = small_report();
        // The 6-scenario fleet contains exactly one Drifting-mix member
        // (mix shape cycles fastest in the coverage grid), and its
        // seeded trajectory must have fired the auto re-advise.
        let drifting: Vec<_> = report
            .scenarios
            .iter()
            .filter(|m| m.drift_detect_batches > 0)
            .collect();
        assert_eq!(drifting.len(), 1, "expected exactly one drifting member");
        assert!(drifting[0].class.ends_with("/drifting"));
    }

    #[test]
    fn counts_beyond_i64_render_as_floats_not_wrapped() {
        let mut report = small_report();
        report.scenarios[0].candidates = u64::MAX;
        let parsed = warlock_json::parse(&report.to_json_string()).unwrap();
        let candidates = parsed.get("scenarios").unwrap().as_array().unwrap()[0]
            .get("candidates")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(candidates, u64::MAX as f64);
    }

    #[test]
    fn a_mismatch_names_the_scenario_and_field() {
        let report = small_report();
        let golden = report.to_json_string();
        let mut changed = report.clone();
        changed.scenarios[2].disks += 1;
        let mismatch = golden_mismatch(&golden, &changed.to_json_string()).unwrap();
        assert!(mismatch.contains(&report.scenarios[2].label), "{mismatch}");
        assert!(mismatch.contains("field `disks`"), "{mismatch}");

        // A truncated rendering is a mismatch too.
        let truncated = &golden[..golden.len() / 2];
        let cut = truncated.rfind('\n').unwrap();
        assert!(golden_mismatch(&golden, &golden[..cut]).is_some());
    }
}
