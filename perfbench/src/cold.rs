//! `cold-advise`: repeated cold ranks of long-lived sessions.
//!
//! Each op is `invalidate()` then `rank()`: the memo and baseline are
//! empty, the worker pool and per-worker scratch are warm. Two
//! warehouses alternate — a costing-bound one (most candidates reach the
//! kernels; `main_*`) and an enumeration-bound one (most candidates are
//! pre-excluded by `max_fragments`; `side_p50_ms`).

use std::time::Instant;

use warlock::json::Json;
use warlock::Warlock;

use crate::gen::{self, Generated, Shape};
use crate::layers::{self, CacheDelta};
use crate::stats::{median, peak_rss_bytes, Report, Summary};
use crate::trace::Tracer;
use crate::{Args, SETUP_REPEATS};

/// Most of its candidates reach the kernels.
const COSTING: Shape = Shape {
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
    max_fragments: 1 << 24,
    fact_rows: 20_000_000_000,
    disks: 32,
};

/// Most of its candidates are pre-excluded by `max_fragments`.
const ENUMERATION: Shape = Shape {
    fanouts: &[
        &[4, 6, 8, 4, 6],
        &[6, 4, 8, 6],
        &[8, 6, 4, 4, 6],
        &[4, 8, 6, 4],
        &[6, 6, 4, 8],
        &[8, 4, 6, 6, 4],
        &[4, 6, 6, 8],
    ],
    max_dimensionality: 3,
    max_fragments: 1 << 12,
    fact_rows: 1_000_000_000,
    disks: 32,
};

fn warehouses(seed: u64) -> Vec<Generated> {
    vec![
        gen::large("costing", seed ^ 0xc057, &COSTING),
        gen::large("enumeration", seed ^ 0xe0e0, &ENUMERATION),
    ]
}

/// What one warehouse's cold ranks must keep producing.
struct Expected {
    space: u128,
    top: String,
}

#[derive(Default)]
struct Samples {
    ms: Vec<Vec<f64>>,
    candidates: f64,
    seconds: f64,
    cache: CacheDelta,
}

fn rank_loop(
    sessions: &mut [Warlock],
    expected: &[Expected],
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Samples {
    let mut samples = Samples {
        ms: vec![Vec::new(); sessions.len()],
        ..Samples::default()
    };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < deadline || i % sessions.len() != 0 {
        let w = i % sessions.len();
        i += 1;
        let session = &mut sessions[w];
        session.invalidate();
        tracer.begin_op();
        let before = session.cache_stats();
        let (elapsed, outcome) = tracer.span("rank_cold", |_| {
            let t = Instant::now();
            let result = session.rank();
            let elapsed = t.elapsed().as_secs_f64();
            (
                elapsed,
                result
                    .map(|r| (r.enumerated, r.top().map(|t| t.label.clone())))
                    .map_err(|e| e.to_string()),
            )
        });
        samples.cache.add(before, session.cache_stats());
        let problem = match outcome {
            Err(e) => Some(e),
            Ok((enumerated, top)) => {
                samples.candidates += enumerated as f64;
                if enumerated as u128 != expected[w].space {
                    Some(format!(
                        "{w}: enumerated {enumerated} != space {}",
                        expected[w].space
                    ))
                } else if top.as_deref() != Some(expected[w].top.as_str()) {
                    Some(format!("{w}: top changed to {top:?}"))
                } else {
                    None
                }
            }
        };
        report.checks.record(problem);
        samples.seconds += elapsed;
        samples.ms[w].push(elapsed * 1e3);
    }
    samples
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let generated = warehouses(args.seed);
        let mut sessions = Vec::new();
        for g in &generated {
            let session = Warlock::from_config_str(&g.config).map_err(|e| e.to_string())?;
            session.rank().map_err(|e| e.to_string())?;
            sessions.push(session);
        }
        setups.push(t.elapsed().as_secs_f64());
        built = Some((generated, sessions));
    }
    let (generated, mut sessions) = built.expect("at least one setup");

    let mut warehouses_json = Vec::new();
    let mut expected = Vec::new();
    for (g, s) in generated.iter().zip(&sessions) {
        let r = s.rank().map_err(|e| e.to_string())?;
        let pre = r.excluded.count_of("too_many_fragments")
            + r.excluded.count_of("fragment_count_overflow");
        warehouses_json.push(Json::object([
            ("name", Json::Str(g.name.clone())),
            ("candidate_space_size", Json::Int(g.space as i64)),
            ("pre_excluded", Json::Int(pre as i64)),
            (
                "threshold_excluded",
                Json::Int((r.excluded.total() - pre) as i64),
            ),
            ("costed", Json::Int(r.evaluated as i64)),
            ("memo_working_set", Json::Int(g.space as i64)),
            ("memo_cap", Json::Int(gen::MEMO_CAP as i64)),
        ]));
        expected.push(Expected {
            space: g.space,
            top: r.top().map(|t| t.label.clone()).unwrap_or_default(),
        });
    }
    report.detail("warehouses", Json::Arr(warehouses_json));

    let (plain_secs, traced_secs) = args.phases();
    let mut tracer = Tracer::new(false, args.epoch);
    let plain = rank_loop(
        &mut sessions,
        &expected,
        plain_secs,
        &mut tracer,
        &mut report,
    );
    let main = Summary::of(&plain.ms[0]);
    let side = Summary::of(&plain.ms[1]);
    report.detail("rank_cold_ms", main.to_json());
    report.detail("rank_cold_enumeration_ms", side.to_json());
    report.detail(
        "rank_cand_per_s",
        Json::Num(plain.candidates / plain.seconds.max(1e-9)),
    );

    if !args.trace {
        report.metric("setup_s", median(&setups), "s");
        report.metric(
            "peak_rss_bytes",
            peak_rss_bytes("self").unwrap_or(0.0),
            "bytes",
        );
        report.metric("main_p50_ms", main.p50, "ms");
        report.metric("main_p90_ms", main.p90, "ms");
        report.metric("side_p50_ms", side.p50, "ms");
        report.metric(
            "work_per_s",
            plain.candidates / plain.seconds.max(1e-9),
            "1/s",
        );
        return Ok(report);
    }

    let mut tracer = Tracer::new(true, args.epoch);
    let traced = rank_loop(
        &mut sessions,
        &expected,
        traced_secs,
        &mut tracer,
        &mut report,
    );
    traced.cache.report(&mut report);
    layers::engine(&sessions, &mut tracer, &mut report)?;
    layers::overhead(
        &mut report,
        main.p50,
        Summary::of(&traced.ms[0]).p50,
        tracer.spans().len(),
    );
    report.detail("self_times", tracer.self_times_json());
    let path = args
        .workdir
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    tracer.write(&path).map_err(|e| e.to_string())?;
    Ok(report)
}
