//! Per-layer measurements shared by the workloads' traced runs.

use std::collections::BTreeMap;
use std::time::Instant;

use warlock::{EvalCacheStats, Warlock};

use crate::replay::{replay, StageCounts};
use crate::stats::{median, Report};
use crate::trace::{count_allocations, Tracer};

/// Replays and cold runs per warehouse; per-layer times are medians over
/// these repeats.
const REPEATS: usize = 3;

/// The staged stages whose times sum (with `core.engine.unattributed_ms`)
/// to `core.engine.run_ms`.
const STAGES: [&str; 7] = [
    "fragment.enumerate",
    "fragment.pre_exclude",
    "fragment.layout",
    "cost.tables",
    "cost.kernel",
    "core.ranking.merge",
    "cost.detail",
];

fn cold_run_ms(session: &Warlock) -> Result<f64, String> {
    let mut cold = session.clone();
    cold.invalidate();
    let t = Instant::now();
    cold.run().map_err(|e| e.to_string())?;
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// The `fragment`, `cost`, `core.ranking`, `core.exec` and `core.engine`
/// layers over one round of `sessions` (times and counts summed over the
/// warehouses, medians over [`REPEATS`]). Leaves every session's memo
/// cleared. A replay that disagrees with the engine is a failed check.
pub fn engine(
    sessions: &[Warlock],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut stage_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut run_ms = Vec::new();
    let mut serial_ms = Vec::new();
    let mut counts = StageCounts::default();
    for _ in 0..REPEATS {
        let mut round: BTreeMap<&str, f64> = BTreeMap::new();
        let (mut run, mut serial) = (0.0, 0.0);
        counts = StageCounts::default();
        for session in sessions {
            tracer.begin_op();
            let mut local = tracer.fork();
            let c = replay(session, &mut local);
            report.checks.record(c.as_ref().err().cloned());
            counts += c.unwrap_or_default();
            for (name, (ms, _)) in local.self_times() {
                *round.entry(name).or_insert(0.0) += ms;
            }
            tracer.absorb(local);

            let mut one = session.clone();
            let mut config = one.config().clone();
            config.parallelism = 1;
            one.set_config(config).map_err(|e| e.to_string())?;
            serial += cold_run_ms(&one)?;
            run += cold_run_ms(session)?;
        }
        for stage in STAGES {
            stage_ms
                .entry(stage)
                .or_default()
                .push(round.get(stage).copied().unwrap_or(0.0));
        }
        run_ms.push(run);
        serial_ms.push(serial);
    }
    let mut staged_total = 0.0;
    for stage in STAGES {
        let ms = median(&stage_ms[stage]);
        staged_total += ms;
        report.metric(format!("{stage}_ms"), ms, "ms");
    }
    let run = median(&run_ms);
    report.metric("core.engine.run_ms", run, "ms");
    report.metric("core.engine.unattributed_ms", run - staged_total, "ms");
    report.metric(
        "core.exec.serial_over_auto",
        median(&serial_ms) / run,
        "ratio",
    );
    report.metric(
        "core.exec.workers",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        "count",
    );
    report.metric("fragment.enumerated", counts.enumerated as f64, "count");
    report.metric("fragment.pre_excluded", counts.pre_excluded as f64, "count");
    report.metric(
        "fragment.threshold_excluded",
        counts.threshold_excluded as f64,
        "count",
    );
    report.metric("cost.costed", counts.costed as f64, "count");
    report.metric(
        "cost.yao_memo_entries",
        counts.yao_memo_entries as f64,
        "count",
    );
    report.metric("cost.detail_calls", counts.detail_calls as f64, "count");
    report.metric("core.ranking.retained", counts.retained as f64, "count");

    let (mut allocations, mut peak) = (0u64, 0u64);
    for session in sessions {
        let mut cold = session.clone();
        cold.invalidate();
        let (result, a, p) = count_allocations(|| cold.run());
        result.map_err(|e| e.to_string())?;
        allocations += a;
        peak = peak.max(p);
    }
    report.metric(
        "core.engine.allocs_per_cand",
        allocations as f64 / counts.enumerated.max(1) as f64,
        "count",
    );
    report.metric("core.engine.peak_bytes", peak as f64, "bytes");
    report.detail(
        "backend",
        warlock::json::Json::Str(
            warlock::KernelBackend::resolve(warlock::KernelChoice::Auto)
                .name()
                .to_owned(),
        ),
    );
    Ok(())
}

/// Evaluation-memo counters accumulated around each timed operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheDelta {
    pub hits: u64,
    pub misses: u64,
    /// Operations across which the entry count dropped (a clear).
    pub clears: u64,
    pub entries: usize,
}

impl CacheDelta {
    pub fn add(&mut self, before: EvalCacheStats, after: EvalCacheStats) {
        // Only `invalidate` resets the hit/miss counters; the entry-cap
        // clear drops entries alone.
        let reset = after.hits < before.hits || after.misses < before.misses;
        let (h0, m0) = if reset {
            (0, 0)
        } else {
            (before.hits, before.misses)
        };
        self.hits += after.hits - h0;
        self.misses += after.misses - m0;
        self.clears += u64::from(after.entries < before.entries);
        self.entries = after.entries;
    }

    pub fn report(&self, report: &mut Report) {
        report.metric("core.cache.hits", self.hits as f64, "count");
        report.metric("core.cache.misses", self.misses as f64, "count");
        let lookups = (self.hits + self.misses).max(1) as f64;
        report.metric("core.cache.hit_ratio", self.hits as f64 / lookups, "ratio");
        report.metric("core.cache.entries", self.entries as f64, "count");
        report.metric("core.cache.clears", self.clears as f64, "count");
    }
}

/// The tracing overhead: traced minus untraced median of the workload's
/// main operation, absolute and as a share of the untraced median.
pub fn overhead(report: &mut Report, untraced_p50: f64, traced_p50: f64, spans: usize) {
    report.metric("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
    report.metric(
        "trace.overhead_ratio",
        (traced_p50 - untraced_p50) / untraced_p50.max(f64::MIN_POSITIVE),
        "ratio",
    );
    report.metric("trace.spans", spans as f64, "count");
}
