//! The protocol transcript: the exact reply of every `warlockd` op.
//!
//! `protocol_transcript.txt` next to this file is the reference
//! conversation with [`Service::handle_line`]: every op of protocol v1
//! and v2, and every typed error reply, over the demo configuration
//! plus two generated fleet warehouses loaded with `load`. Lines
//! starting with `>` are requests, sent in order; the `<` line after
//! each is the exact reply. `#` lines are comments. `$DIR` stands for
//! the temporary directory the warehouse configs are written to, in
//! requests and replies alike.
//!
//! The test replays the requests and compares the whole conversation
//! line by line. On a mismatch it names the first differing line and
//! the op of its request, and writes the actual conversation to
//! `target/protocol_transcript.actual.txt`: after an intended protocol
//! change, review the diff and copy that file over the committed one.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use warlock::config_file::{demo_config, render_config};
use warlock::registry::Registry;
use warlock::service::Service;
use warlock_scenarios::{generate_fleet, ScenarioSpace};

const TRANSCRIPT: &str = include_str!("protocol_transcript.txt");

/// The placeholder of the machine-specific config directory.
const DIR: &str = "$DIR";

/// Writes the warehouse configs into `dir` and serves the demo config
/// as the default warehouse `demo`. The fleet configs (`s000.cfg`,
/// `s001.cfg`, from `generate_fleet(42, 2, ..)`) are loaded by the
/// transcript itself.
fn service(dir: &Path) -> Service {
    std::fs::create_dir_all(dir).unwrap();
    let demo = dir.join("demo.cfg");
    std::fs::write(&demo, render_config(&demo_config())).unwrap();
    for scenario in generate_fleet(42, 2, &ScenarioSpace::default()) {
        let path = dir.join(format!("s{:03}.cfg", scenario.id));
        std::fs::write(path, scenario.config_string()).unwrap();
    }
    let registry = Registry::new("demo");
    registry.load("demo", demo.display().to_string()).unwrap();
    Service::with_registry(Arc::new(registry))
}

/// Replays the transcript's requests and returns the conversation as
/// it happened, in the transcript's own format.
fn replay(dir: &Path) -> String {
    let service = service(dir);
    let dir = dir.display().to_string();
    let mut out = String::new();
    for line in TRANSCRIPT.lines() {
        if line.starts_with('<') {
            continue;
        }
        out.push_str(line);
        out.push('\n');
        if let Some(request) = line.strip_prefix("> ") {
            let reply = service.handle_line(&request.replace(DIR, &dir));
            out.push_str("< ");
            out.push_str(&reply.line.replace(&dir, DIR));
            out.push('\n');
        }
    }
    out
}

/// The op a request line names, for mismatch messages.
fn op_of(request: &str) -> String {
    warlock_json::parse(request)
        .ok()
        .and_then(|r| r.get("op").and_then(|op| op.as_str()).map(str::to_owned))
        .unwrap_or_else(|| "(no op)".into())
}

/// The first line where `actual` departs from `expected`: its number,
/// the op of the request it answers, and both versions.
fn first_mismatch(expected: &str, actual: &str) -> Option<String> {
    let expected: Vec<&str> = expected.lines().collect();
    let actual: Vec<&str> = actual.lines().collect();
    let mut op = String::from("(none)");
    for i in 0..expected.len().max(actual.len()) {
        let (e, a) = (expected.get(i).copied(), actual.get(i).copied());
        if let Some(request) = e.or(a).and_then(|l| l.strip_prefix("> ")) {
            op = op_of(request);
        }
        if e != a {
            let cut = |l: Option<&str>| match l {
                None => "<end of file>".to_owned(),
                Some(l) if l.chars().count() > 240 => {
                    format!("{}…", l.chars().take(240).collect::<String>())
                }
                Some(l) => l.to_owned(),
            };
            return Some(format!(
                "line {}, op `{op}`:\n  expected `{}`\n  actual   `{}`",
                i + 1,
                cut(e),
                cut(a)
            ));
        }
    }
    None
}

fn scratch_dir() -> PathBuf {
    std::env::temp_dir().join(format!("warlock-transcript-{}", std::process::id()))
}

#[test]
fn every_op_replies_exactly_as_the_transcript() {
    let dir = scratch_dir();
    let actual = replay(&dir);
    std::fs::remove_dir_all(&dir).ok();
    if let Some(mismatch) = first_mismatch(TRANSCRIPT, &actual) {
        let out =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/protocol_transcript.actual.txt");
        std::fs::create_dir_all(out.parent().unwrap()).ok();
        std::fs::write(&out, &actual).unwrap();
        panic!(
            "the protocol diverged from xtests/tests/protocol_transcript.txt at {mismatch}\n\
             the actual conversation is in {}",
            out.display()
        );
    }
}

/// The transcript covers every op of both protocol versions and every
/// typed error kind it promises to pin.
#[test]
fn the_transcript_covers_every_op_and_error_kind() {
    let requests: Vec<&str> = TRANSCRIPT
        .lines()
        .filter_map(|l| l.strip_prefix("> "))
        .collect();
    let replies: Vec<&str> = TRANSCRIPT
        .lines()
        .filter_map(|l| l.strip_prefix("< "))
        .collect();
    assert_eq!(requests.len(), replies.len(), "one reply per request");
    let ops: Vec<(i64, String)> = requests
        .iter()
        .filter_map(|r| warlock_json::parse(r).ok())
        .map(|r| {
            let v = r.get("v").and_then(|v| v.as_i64()).unwrap_or(2);
            let op = r.get("op").and_then(|op| op.as_str()).unwrap_or("");
            (v, op.to_owned())
        })
        .collect();
    let v1 = [
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
    ];
    let v2_only = [
        "load",
        "unload",
        "reload",
        "list_warehouses",
        "recommend_policy",
        "observe_stats",
        "drift_status",
        "advice_events",
        "set_auto_advise",
    ];
    for op in v1 {
        for v in [1, 2] {
            assert!(ops.contains(&(v, op.to_owned())), "v{v} `{op}` is missing");
        }
    }
    for op in v2_only {
        assert!(ops.contains(&(2, op.to_owned())), "v2 `{op}` is missing");
    }
    for kind in [
        "bad_request",
        "unknown_op",
        "unsupported_version",
        "unknown_warehouse",
        "unknown_class",
        "candidate",
        "candidate_budget",
        "json",
    ] {
        let tag = format!(r#""ok":false,"error":{{"kind":"{kind}""#);
        assert!(
            replies.iter().any(|r| r.contains(&tag)),
            "no `{kind}` error reply"
        );
    }
    assert!(TRANSCRIPT.contains(r#"`dimension` out of range for u16"#));
    assert!(TRANSCRIPT.contains(r#""event":"recommendation_changed""#));
}
