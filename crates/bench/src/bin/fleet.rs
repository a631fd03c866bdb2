//! Scenario-fleet harness.
//!
//! Usage:
//!
//! ```text
//! fleet run    [--seed N] [--count N] [--out PATH] [--quiet]
//! fleet list   [--seed N] [--count N]
//! ```
//!
//! `run` generates the seeded fleet, drives every scenario through
//! rank → allocate → what-if → policy judge → drift replay under the
//! cross-cutting invariants, and writes the deterministic report. The
//! committed golden is regenerated with
//! `fleet run --seed 42 --count 25 --out crates/bench/fleet.golden.json`.
//! `list` prints the scenario set without running anything.

use std::process::ExitCode;

use warlock_bench::fleet::run_fleet;
use warlock_scenarios::{generate_fleet, ScenarioSpace};

const DEFAULT_SEED: u64 = 42;
const DEFAULT_COUNT: u32 = 25;

struct Args {
    positional: Vec<String>,
    seed: u64,
    count: u32,
    out: Option<String>,
    quiet: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        seed: DEFAULT_SEED,
        count: DEFAULT_COUNT,
        out: None,
        quiet: false,
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} expects a value"))
        };
        match arg.as_str() {
            "--seed" => args.seed = parse_num(value("--seed")?, "--seed")?,
            "--count" => args.count = parse_num(value("--count")?, "--count")?,
            "--out" => args.out = Some(value("--out")?.clone()),
            "--quiet" => args.quiet = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => args.positional.push(other.to_string()),
        }
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: `{value}` is not a valid number"))
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let report = run_fleet(args.seed, args.count, &ScenarioSpace::default())?;
    if !args.quiet {
        eprintln!(
            "fleet: {} scenarios (seed {}, fingerprint {})",
            report.scenarios.len(),
            report.seed,
            report.fingerprint,
        );
        for m in &report.scenarios {
            eprintln!(
                "  {:<40} {:>6} cand  top {:<40} {:>5} frags  {}",
                m.label,
                m.candidates,
                m.top_label,
                m.fragments,
                m.policy_order.join(" > "),
            );
        }
    }
    let text = report.to_json_string();
    match &args.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            if !args.quiet {
                eprintln!("fleet: wrote {path}");
            }
        }
        None => print!("{text}"),
    }
    if !report.failures.is_empty() {
        for failure in &report.failures {
            eprintln!(
                "fleet: INVARIANT {} broke on {}: {}",
                failure.invariant, failure.scenario, failure.detail
            );
        }
        return Err(format!("{} invariant failure(s)", report.failures.len()));
    }
    Ok(())
}

fn cmd_list(args: &Args) -> Result<(), String> {
    let fleet = generate_fleet(args.seed, args.count as usize, &ScenarioSpace::default());
    for scenario in &fleet {
        let parsed = &scenario.parsed;
        println!(
            "{:<40} dims={} rows={:>9} disks={:>3} classes={}",
            scenario.label(),
            parsed.schema.num_dimensions(),
            parsed.schema.fact_rows(0),
            parsed.system.num_disks,
            parsed.mix.len(),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.positional.first().map(String::as_str) {
        Some("run") => cmd_run(&args),
        Some("list") => cmd_list(&args),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("usage: fleet <run|list> [args]  (see src/bin/fleet.rs)".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fleet: {e}");
            ExitCode::FAILURE
        }
    }
}
