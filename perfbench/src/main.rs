//! `perfbench` — the WARLOCK repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --warlockd <path> --workdir <dir>
//! ```
//!
//! Workloads: `cold-advise`, `tuning-fit`, `tuning-spill`,
//! `served-drift` (see `README.md` next to this crate). Every input is
//! derived from `--seed`. With `--trace 0` the last stdout line carries
//! the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics of a traced run, and the spans are written to `--workdir`.
//! The line before it is a detail object (sample counts, percentiles,
//! warehouse sizes, failure messages).

mod cold;
mod gen;
mod layers;
mod replay;
mod served;
mod stats;
mod trace;
mod tuning;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use warlock::json::Json;

use crate::stats::Report;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Environment overrides that would silently change what is measured.
const ENV_OVERRIDES: [&str; 3] = [
    "WARLOCK_PARALLELISM",
    "WARLOCK_CHUNK_SIZE",
    "WARLOCK_KERNEL",
];

/// Times each workload sets itself up; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub warlockd: PathBuf,
    pub workdir: PathBuf,
    /// Reference instant for span timestamps.
    pub epoch: Instant,
}

impl Args {
    /// Seconds of the untraced and the traced measurement phase. A
    /// traced run measures half its time untraced, so the tracing
    /// overhead comes from the same run.
    pub fn phases(&self) -> (f64, f64) {
        if self.trace {
            (self.seconds / 2.0, self.seconds / 2.0)
        } else {
            (self.seconds, 0.0)
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut warlockd, mut workdir) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                })
            }
            "--warlockd" => warlockd = Some(PathBuf::from(value)),
            "--workdir" => workdir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        warlockd: warlockd.ok_or("missing --warlockd")?,
        workdir: workdir.ok_or("missing --workdir")?,
        epoch: Instant::now(),
    })
}

/// The end-to-end metrics every workload reports, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_bytes", "bytes"),
    ("main_p50_ms", "ms"),
    ("main_p90_ms", "ms"),
    ("side_p50_ms", "ms"),
    ("work_per_s", "1/s"),
];

/// Wire ops the served workload sends, for the per-op service and
/// transport metrics.
pub const SERVED_OPS: [&str; 9] = [
    "rank",
    "what_if_disks",
    "allocate",
    "drift_status",
    "ping",
    "observe_stats",
    "advice_events",
    "load",
    "unload",
];

/// Every per-layer metric with its unit, in output order (the served
/// per-op service/transport metrics follow these).
pub const PER_LAYER: [(&str, &str); 36] = [
    ("fragment.enumerate_ms", "ms"),
    ("fragment.enumerated", "count"),
    ("fragment.pre_exclude_ms", "ms"),
    ("fragment.pre_excluded", "count"),
    ("fragment.layout_ms", "ms"),
    ("fragment.threshold_excluded", "count"),
    ("cost.tables_ms", "ms"),
    ("cost.kernel_ms", "ms"),
    ("cost.costed", "count"),
    ("cost.yao_memo_entries", "count"),
    ("cost.detail_ms", "ms"),
    ("cost.detail_calls", "count"),
    ("core.ranking.merge_ms", "ms"),
    ("core.ranking.retained", "count"),
    ("core.exec.workers", "count"),
    ("core.exec.serial_over_auto", "ratio"),
    ("core.engine.run_ms", "ms"),
    ("core.engine.unattributed_ms", "ms"),
    ("core.engine.allocs_per_cand", "count"),
    ("core.engine.peak_bytes", "bytes"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.entries", "count"),
    ("core.cache.clears", "count"),
    ("alloc.plan_ms", "ms"),
    ("core.policy_judge_ms", "ms"),
    ("core.serial.render_ms", "ms"),
    ("core.serial.bytes", "bytes"),
    ("json.parse_ms", "ms"),
    ("workload.ingest_ms", "ms"),
    ("workload.divergence_ms", "ms"),
    ("core.readvise.batches_to_detect", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Every per-layer metric name with its unit, including the per-op
/// `core.service.<op>_ms` and `transport.<op>_ms`.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for prefix in ["core.service", "transport"] {
        for op in SERVED_OPS {
            names.push((format!("{prefix}.{op}_ms"), "ms"));
        }
    }
    names
}

/// Orders `report`'s metrics by the requested set, filling a layer the
/// workload does not exercise with 0 and rejecting any metric outside
/// the set.
fn finish_metrics(
    report: &Report,
    trace: bool,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let wanted: Vec<(String, &'static str)> = if trace {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    for (name, ..) in &report.metrics {
        if !wanted.iter().any(|(n, _)| n == name) {
            return Err(format!("metric `{name}` is not in the requested set"));
        }
    }
    Ok(wanted
        .into_iter()
        .map(|(name, unit)| {
            let value = report
                .metrics
                .iter()
                .rev()
                .find(|(n, ..)| *n == name)
                .map_or(0.0, |(_, v, _)| *v);
            (name, value, unit)
        })
        .collect())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for var in ENV_OVERRIDES {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: refusing to run with {var} set; unset it to measure the shipped defaults");
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", args.workdir.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "cold-advise" => cold::run(&args),
        "tuning-fit" => tuning::run(&args, tuning::Fit::Fit),
        "tuning-spill" => tuning::run(&args, tuning::Fit::Spill),
        "served-drift" => served::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let metrics = match finish_metrics(&report, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for message in report.checks.messages() {
        eprintln!("perfbench: check failed: {message}");
    }
    let attempted = report.checks.attempted.max(1);
    let mut detail = vec![
        ("workload".to_owned(), Json::Str(args.workload.clone())),
        ("seed".to_owned(), Json::Int(args.seed as i64)),
        ("trace".to_owned(), Json::Bool(args.trace)),
        (
            "failed_ratio".to_owned(),
            Json::Num(report.checks.failed as f64 / attempted as f64),
        ),
        (
            "available_parallelism".to_owned(),
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
    ];
    detail.extend(report.detail.iter().cloned());
    println!(
        "{}",
        Json::Obj(vec![("detail".to_owned(), Json::Obj(detail))]).render()
    );
    let result = Json::object([
        ("correct", Json::Bool(report.checks.failed == 0)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(report.checks.failed as i64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name,
                            Json::object([
                                ("value", Json::Num(value)),
                                ("unit", Json::Str(unit.to_owned())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
