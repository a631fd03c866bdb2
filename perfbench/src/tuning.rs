//! `tuning-fit` / `tuning-spill`: a DBA's what-if session after one
//! untimed rank.
//!
//! Each cycle runs the fixed what-if set (disks ×½/×2/×4, fixed
//! prefetch, without one bitmap dimension, without one class), then
//! `plan_allocation(1)`, then `session_report()`. The `fit` warehouse's
//! seven fingerprints (baseline plus six variations) stay under the
//! 65,536-entry memo, so after the first cycle every what-if is a memo
//! hit; the `spill` warehouse's exceed it, so the clear-all cliff forces
//! re-costing.

use std::time::Instant;

use warlock::json::{Json, ToJson};
use warlock::schema::DimensionId;
use warlock::{SessionReport, Warlock};

use crate::gen::{self, Generated, Shape};
use crate::layers::{self, CacheDelta};
use crate::stats::{median, peak_rss_bytes, Report, Summary};
use crate::trace::Tracer;
use crate::{Args, SETUP_REPEATS};

/// Which side of the memo cap the warehouse's working set falls on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fit {
    Fit,
    Spill,
}

/// Baseline plus the six variations: distinct memo fingerprints per cycle.
const FINGERPRINTS: u128 = 7;

/// 6 dimensions, 3 to 4 levels deep.
const FIT: Shape = Shape {
    fanouts: &[
        &[4, 6, 2, 3],
        &[6, 4, 3],
        &[2, 6, 4],
        &[3, 4, 6, 2],
        &[4, 2, 6],
        &[6, 3, 4],
    ],
    max_dimensionality: 3,
    max_fragments: 1 << 16,
    fact_rows: 2_000_000_000,
    disks: 32,
};

/// 7 dimensions, 4 to 5 levels deep.
const SPILL: Shape = Shape {
    fanouts: &[
        &[4, 6, 2, 3, 2],
        &[6, 4, 3, 2],
        &[2, 6, 4, 2, 3],
        &[3, 4, 6, 2],
        &[4, 2, 6, 3],
        &[6, 3, 4, 2, 2],
        &[2, 4, 6, 3],
    ],
    max_dimensionality: 3,
    max_fragments: 1 << 16,
    fact_rows: 2_000_000_000,
    disks: 32,
};

#[derive(Debug, Clone)]
enum Variation {
    Disks(u32),
    Prefetch(u32),
    NoBitmap(DimensionId),
    NoClass(String),
}

impl Variation {
    /// The fixed what-if set. The dimension and class are chosen by
    /// name, so every seed's shuffled configuration drops the same ones.
    fn set(session: &Warlock, disks: u32) -> Result<Vec<Variation>, String> {
        let schema = session.schema();
        let bitmap = session
            .scheme()
            .dimensions()
            .iter()
            .filter(|d| d.vectors_stored() > 0)
            .min_by_key(|d| {
                schema
                    .dimension(d.dimension)
                    .map(|dim| dim.name().to_owned())
                    .ok()
            })
            .map(|d| d.dimension)
            .ok_or("no dimension carries bitmaps")?;
        let class = session
            .mix()
            .classes()
            .iter()
            .map(|w| w.class.name().to_owned())
            .min()
            .ok_or("empty mix")?;
        Ok(vec![
            Variation::Disks((disks / 2).max(1)),
            Variation::Disks(disks * 2),
            Variation::Disks(disks * 4),
            Variation::Prefetch(16),
            Variation::NoBitmap(bitmap),
            Variation::NoClass(class),
        ])
    }

    fn run(&self, session: &Warlock) -> Result<warlock::AdvisorReport, warlock::WarlockError> {
        let (report, _delta) = match self {
            Variation::Disks(n) => session.what_if_disks(*n)?,
            Variation::Prefetch(p) => session.what_if_fixed_prefetch(*p)?,
            Variation::NoBitmap(d) => session.what_if_without_bitmap_dimension(*d)?,
            Variation::NoClass(c) => session.what_if_without_class(c)?,
        };
        Ok(report)
    }
}

#[derive(Default)]
struct Samples {
    whatif_ms: Vec<f64>,
    report_ms: Vec<f64>,
    candidates: f64,
    whatif_seconds: f64,
    cache: CacheDelta,
    plan_ms: Vec<f64>,
    judge_ms: Vec<f64>,
    render_ms: Vec<f64>,
    parse_ms: Vec<f64>,
    bytes: Vec<f64>,
}

fn check_plan(session: &Warlock) -> Option<String> {
    let plan = match session.plan_allocation(1) {
        Ok(p) => p,
        Err(e) => return Some(e.to_string()),
    };
    let fragments = match session.rank() {
        Ok(r) => r.ranked.first().map_or(0, |t| t.cost.num_fragments),
        Err(e) => return Some(e.to_string()),
    };
    let allocation = &plan.allocation;
    let disks = allocation.num_disks();
    let bytes: u64 = (0..allocation.num_fragments())
        .map(|f| allocation.size_of(f))
        .sum();
    if allocation.num_fragments() as u64 != fragments
        || allocation.placements().len() != allocation.num_fragments()
        || allocation.placements().iter().any(|&d| d >= disks)
        || bytes != plan.fact_bytes + plan.bitmap_bytes
    {
        return Some(format!(
            "allocation covers {} of {fragments} fragments",
            allocation.num_fragments()
        ));
    }
    None
}

fn cycle_loop(
    session: &Warlock,
    variations: &[Variation],
    space: u128,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Samples {
    let mut s = Samples::default();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        for v in variations {
            tracer.begin_op();
            let before = session.cache_stats();
            let (elapsed, outcome) = tracer.span("what_if", |_| {
                let t = Instant::now();
                let r = v.run(session);
                (t.elapsed().as_secs_f64(), r)
            });
            s.cache.add(before, session.cache_stats());
            s.whatif_ms.push(elapsed * 1e3);
            s.whatif_seconds += elapsed;
            let problem = match outcome {
                Err(e) => Some(e.to_string()),
                Ok(r) => {
                    s.candidates += r.enumerated as f64;
                    (r.enumerated as u128 != space)
                        .then(|| format!("{v:?}: enumerated {} != {space}", r.enumerated))
                }
            };
            report.checks.record(problem);
        }

        tracer.begin_op();
        let t = Instant::now();
        let problem = tracer.span("alloc.plan", |_| check_plan(session));
        s.plan_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.checks.record(problem);

        tracer.begin_op();
        let (elapsed, outcome) = tracer.span("session_report", |_| {
            let t = Instant::now();
            let r = session.session_report();
            (t.elapsed().as_secs_f64(), r)
        });
        s.report_ms.push(elapsed * 1e3);
        let problem = match outcome {
            Err(e) => Some(e.to_string()),
            Ok(r) => {
                let t = Instant::now();
                let text = tracer.span("core.serial.render", |_| r.to_json().render());
                s.render_ms.push(t.elapsed().as_secs_f64() * 1e3);
                s.bytes.push(text.len() as f64);
                let t = Instant::now();
                let back = tracer.span("json.parse", |_| SessionReport::from_json_str(&text));
                s.parse_ms.push(t.elapsed().as_secs_f64() * 1e3);
                match back {
                    Ok(back) if back == r => None,
                    Ok(_) => Some("session report changed through JSON".to_owned()),
                    Err(e) => Some(format!("session report JSON rejected: {e}")),
                }
            }
        };
        report.checks.record(problem);

        if tracer.on() {
            let t = Instant::now();
            let judged = tracer.span("core.policy_judge", |_| session.recommend_policy());
            s.judge_ms.push(t.elapsed().as_secs_f64() * 1e3);
            report.checks.record(judged.err().map(|e| e.to_string()));
        }
    }
    s
}

fn warehouse(seed: u64, fit: Fit) -> Result<Generated, String> {
    let (g, fits) = match fit {
        Fit::Fit => (gen::large("fit", seed ^ 0xf17, &FIT), true),
        Fit::Spill => (gen::large("spill", seed ^ 0x5b111, &SPILL), false),
    };
    // The workload's premise: the variation set fits the memo, or not.
    if (g.space * FINGERPRINTS < gen::MEMO_CAP) != fits {
        return Err(format!("{} warehouse has {} candidates", g.name, g.space));
    }
    Ok(g)
}

pub fn run(args: &Args, fit: Fit) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let g = warehouse(args.seed, fit)?;
        let session = Warlock::from_config_str(&g.config).map_err(|e| e.to_string())?;
        session.rank().map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        built = Some((g, session));
    }
    let (g, session) = built.expect("at least one setup");
    let variations = Variation::set(&session, g.disks)?;
    let baseline = session.rank().map_err(|e| e.to_string())?;
    let pre = baseline.excluded.count_of("too_many_fragments")
        + baseline.excluded.count_of("fragment_count_overflow");
    report.detail(
        "warehouse",
        Json::object([
            ("name", Json::Str(g.name.clone())),
            ("candidate_space_size", Json::Int(g.space as i64)),
            ("pre_excluded", Json::Int(pre as i64)),
            (
                "threshold_excluded",
                Json::Int((baseline.excluded.total() - pre) as i64),
            ),
            ("costed", Json::Int(baseline.evaluated as i64)),
            (
                "memo_working_set",
                Json::Int((g.space * FINGERPRINTS) as i64),
            ),
            ("memo_cap", Json::Int(gen::MEMO_CAP as i64)),
            (
                "variations",
                Json::Arr(
                    variations
                        .iter()
                        .map(|v| Json::Str(format!("{v:?}")))
                        .collect(),
                ),
            ),
        ]),
    );

    let (plain_secs, traced_secs) = args.phases();
    let mut tracer = Tracer::new(false, args.epoch);
    let plain = cycle_loop(
        &session,
        &variations,
        g.space,
        plain_secs,
        &mut tracer,
        &mut report,
    );
    let whatif = Summary::of(&plain.whatif_ms);
    let session_report = Summary::of(&plain.report_ms);
    let name = if fit == Fit::Fit {
        "whatif_fit_ms"
    } else {
        "whatif_spill_ms"
    };
    report.detail(name, whatif.to_json());
    report.detail("report_ms", session_report.to_json());
    report.detail(
        "whatif_cand_per_s",
        Json::Num(plain.candidates / plain.whatif_seconds.max(1e-9)),
    );
    report.detail(
        "cache",
        Json::object([
            ("hits", plain.cache.hits.to_json()),
            ("misses", plain.cache.misses.to_json()),
            ("clears", plain.cache.clears.to_json()),
            ("entries", plain.cache.entries.to_json()),
        ]),
    );

    if !args.trace {
        report.metric("setup_s", median(&setups), "s");
        report.metric(
            "peak_rss_bytes",
            peak_rss_bytes("self").unwrap_or(0.0),
            "bytes",
        );
        report.metric("main_p50_ms", whatif.p50, "ms");
        report.metric("main_p90_ms", whatif.p90, "ms");
        report.metric("side_p50_ms", session_report.p50, "ms");
        report.metric(
            "work_per_s",
            plain.candidates / plain.whatif_seconds.max(1e-9),
            "1/s",
        );
        return Ok(report);
    }

    let mut tracer = Tracer::new(true, args.epoch);
    let traced = cycle_loop(
        &session,
        &variations,
        g.space,
        traced_secs,
        &mut tracer,
        &mut report,
    );
    traced.cache.report(&mut report);
    report.metric("alloc.plan_ms", median(&traced.plan_ms), "ms");
    report.metric("core.policy_judge_ms", median(&traced.judge_ms), "ms");
    report.metric("core.serial.render_ms", median(&traced.render_ms), "ms");
    report.metric("core.serial.bytes", median(&traced.bytes), "bytes");
    report.metric("json.parse_ms", median(&traced.parse_ms), "ms");
    layers::engine(std::slice::from_ref(&session), &mut tracer, &mut report)?;
    layers::overhead(
        &mut report,
        whatif.p50,
        Summary::of(&traced.whatif_ms).p50,
        tracer.spans().len(),
    );
    report.detail("self_times", tracer.self_times_json());
    let path = args
        .workdir
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    tracer.write(&path).map_err(|e| e.to_string())?;
    Ok(report)
}
