//! End-to-end smoke tests of the `warlockd` binary: the stdio line
//! protocol, the TCP transport (concurrent clients, routed ops against
//! two warehouses, v1 compat, hot reload, deterministic shutdown), the
//! HTTP transport, request-size bounds, and usage-error exit codes. The
//! CI smoke lanes drive the same conversations from a shell script;
//! these tests keep them pinned under plain `cargo test`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use warlock::config_file::{demo_config, render_config};
use warlock::json::Json;

fn parse_ok(line: &str) -> Json {
    let json = warlock::json::parse(line).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"));
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {line}"
    );
    json
}

/// Writes a demo configuration (with `disks` disks) to a temp file.
fn write_cfg(tag: &str, disks: u32) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "warlockd-smoke-{tag}-{}-{:?}.cfg",
        std::process::id(),
        std::thread::current().id()
    ));
    let cfg = render_config(&demo_config()).replace("disks = 16", &format!("disks = {disks}"));
    std::fs::write(&path, cfg).unwrap();
    path
}

/// Waits (bounded) for the child to exit and returns its status.
fn wait_with_timeout(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("warlockd did not exit within {timeout:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Reads `warlockd: <label> on ADDR` lines off stderr until `label` is
/// announced, returning the address.
fn announced_addr(stderr: &mut impl BufRead, label: &str) -> String {
    let needle = format!("{label} on ");
    let mut lines = String::new();
    loop {
        let mut line = String::new();
        if stderr.read_line(&mut line).unwrap() == 0 {
            panic!("warlockd never announced `{label}`; stderr so far:\n{lines}");
        }
        lines.push_str(&line);
        if let Some(idx) = line.find(&needle) {
            return line[idx + needle.len()..].trim().to_owned();
        }
    }
}

/// One request/response round-trip over an established line-protocol
/// stream. The request and its newline go out in one write, as a
/// latency-sensitive client should send them.
fn round_trip(stream: &mut TcpStream, request: &str) -> String {
    stream.write_all(format!("{request}\n").as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim().to_owned()
}

#[test]
fn warlockd_stdio_round_trip() {
    let config_path = write_cfg("stdio", 16);

    let mut child = Command::new(env!("CARGO_BIN_EXE_warlockd"))
        .arg(&config_path)
        .arg("--stdio")
        .args(["-j", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("warlockd spawns");

    {
        let mut stdin = child.stdin.take().unwrap();
        writeln!(stdin, r#"{{"v":2,"id":0,"op":"ping"}}"#).unwrap();
        writeln!(stdin, r#"{{"v":2,"id":1,"op":"rank"}}"#).unwrap();
        writeln!(
            stdin,
            r#"{{"v":2,"id":2,"op":"what_if_disks","params":{{"disks":64}}}}"#
        )
        .unwrap();
        writeln!(stdin, r#"{{"v":2,"id":3,"op":"cache_stats"}}"#).unwrap();
        writeln!(stdin, r#"{{"v":2,"id":4,"op":"ping"}}"#).unwrap();
        writeln!(stdin, r#"{{"v":2,"id":5,"op":"shutdown"}}"#).unwrap();
        // Dropping stdin closes the pipe; the server must already have
        // stopped at the shutdown request either way.
    }

    let lines: Vec<String> = BufReader::new(child.stdout.take().unwrap())
        .lines()
        .map(|l| l.unwrap())
        .collect();
    let status = child.wait().unwrap();
    let _ = std::fs::remove_file(&config_path);

    assert!(status.success(), "warlockd exited with {status}");
    assert_eq!(lines.len(), 6, "one response per request: {lines:#?}");

    // Cold ping: protocol + warehouse + exact space size, no ranking
    // yet, cold cache.
    let pong = parse_ok(&lines[0]);
    let health = pong.get("result").unwrap();
    assert_eq!(health.get("protocol").and_then(Json::as_i64), Some(2));
    assert_eq!(
        health.get("warehouse").and_then(Json::as_str),
        Some("default")
    );
    assert_eq!(health.get("space_size").and_then(Json::as_u64), Some(168));
    assert_eq!(health.get("enumerated"), Some(&Json::Null));
    assert_eq!(
        health
            .get("cache_stats")
            .and_then(|s| s.get("entries"))
            .and_then(Json::as_u64),
        Some(0)
    );

    let rank = parse_ok(&lines[1]);
    assert_eq!(rank.get("id").and_then(Json::as_i64), Some(1));
    let ranking = rank
        .get("result")
        .and_then(|r| r.get("ranking"))
        .and_then(Json::as_array)
        .expect("rank returns a ranking");
    assert!(!ranking.is_empty());

    let what_if = parse_ok(&lines[2]);
    let delta = what_if
        .get("result")
        .and_then(|r| r.get("delta"))
        .expect("what_if_disks returns a delta");
    assert_eq!(
        delta.get("variation").and_then(Json::as_str),
        Some("disks = 64")
    );

    let stats = parse_ok(&lines[3]);
    let entries = stats
        .get("result")
        .and_then(|r| r.get("entries"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(entries > 0, "the shared cache must be warm after two runs");

    // Warm ping: the baseline ranking's enumeration count and warm
    // cache stats appear — no extra rank round-trip needed.
    let pong = parse_ok(&lines[4]);
    let health = pong.get("result").unwrap();
    assert_eq!(health.get("enumerated").and_then(Json::as_u64), Some(168));
    assert_eq!(
        health
            .get("cache_stats")
            .and_then(|s| s.get("entries"))
            .and_then(Json::as_u64),
        Some(entries)
    );

    let bye = parse_ok(&lines[5]);
    assert_eq!(
        bye.get("result")
            .and_then(|r| r.get("stopping"))
            .and_then(Json::as_bool),
        Some(true)
    );
}

#[test]
fn warlockd_tcp_two_warehouses_reload_and_clean_shutdown() {
    let us_path = write_cfg("tcp-us", 16);
    let eu_path = write_cfg("tcp-eu", 64);

    let mut child = Command::new(env!("CARGO_BIN_EXE_warlockd"))
        .args(["--warehouse", &format!("us={}", us_path.display())])
        .args(["--warehouse", &format!("eu={}", eu_path.display())])
        .args(["--listen", "127.0.0.1:0"])
        .args(["-j", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("warlockd spawns");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = announced_addr(&mut stderr, "listening");

    // Two concurrent clients, one per warehouse: the routed ranks must
    // differ from each other and match what a v1 client (unrouted, so
    // default = first warehouse = `us`) sees.
    let threads: Vec<_> = ["us", "eu"]
        .into_iter()
        .map(|warehouse| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(&addr).unwrap();
                let line = round_trip(
                    &mut stream,
                    &format!(r#"{{"v":2,"op":"rank","warehouse":"{warehouse}"}}"#),
                );
                parse_ok(&line).get("result").unwrap().render()
            })
        })
        .collect();
    let ranks: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert_ne!(ranks[0], ranks[1], "warehouses must advise independently");

    let mut stream = TcpStream::connect(&addr).unwrap();
    let v1 = round_trip(&mut stream, r#"{"v":1,"op":"rank"}"#);
    let v1 = parse_ok(&v1);
    assert_eq!(
        v1.get("v").and_then(Json::as_i64),
        Some(1),
        "v1 clients get v1 responses"
    );
    assert_eq!(
        v1.get("result").unwrap().render(),
        ranks[0],
        "unrouted v1 requests resolve to the default warehouse"
    );

    // list_warehouses sees both, sorted, with the default marked.
    let listed = parse_ok(&round_trip(
        &mut stream,
        r#"{"v":2,"op":"list_warehouses"}"#,
    ));
    let result = listed.get("result").unwrap();
    assert_eq!(result.get("default").and_then(Json::as_str), Some("us"));
    let names: Vec<&str> = result
        .get("warehouses")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, ["eu", "us"]);

    // Hot reload: rewrite `us` and reload it over the wire. Its advice
    // changes; `eu` keeps its cached baseline (enumerated stays set).
    let us_cfg = render_config(&demo_config()).replace("disks = 16", "disks = 32");
    std::fs::write(&us_path, us_cfg).unwrap();
    let reloaded = parse_ok(&round_trip(
        &mut stream,
        r#"{"v":2,"op":"reload","params":{"name":"us"}}"#,
    ));
    assert_eq!(
        reloaded
            .get("result")
            .and_then(|r| r.get("name"))
            .and_then(Json::as_str),
        Some("us")
    );
    let after = parse_ok(&round_trip(
        &mut stream,
        r#"{"v":2,"op":"rank","warehouse":"us"}"#,
    ));
    assert_ne!(after.get("result").unwrap().render(), ranks[0]);
    let eu_after = parse_ok(&round_trip(
        &mut stream,
        r#"{"v":2,"op":"rank","warehouse":"eu"}"#,
    ));
    assert_eq!(
        eu_after.get("result").unwrap().render(),
        ranks[1],
        "reloading `us` must not disturb `eu`"
    );

    // Shutdown over TCP: the accept loop must unblock without a next
    // connection and the process must exit 0 promptly.
    let bye = parse_ok(&round_trip(&mut stream, r#"{"v":2,"op":"shutdown"}"#));
    assert!(bye.render().contains("stopping"));
    let status = wait_with_timeout(&mut child, Duration::from_secs(10));
    assert_eq!(status.code(), Some(0), "clean shutdown must exit 0");

    let _ = std::fs::remove_file(us_path);
    let _ = std::fs::remove_file(eu_path);
}

#[test]
fn warlockd_tcp_requests_do_not_wait_on_delayed_acks() {
    let config_path = write_cfg("latency", 16);
    let mut child = Command::new(env!("CARGO_BIN_EXE_warlockd"))
        .arg(&config_path)
        .args(["--listen", "127.0.0.1:0"])
        .args(["-j", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("warlockd spawns");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = announced_addr(&mut stderr, "listening");

    // 200 sequential pings on one persistent connection. A reply split
    // across two writes stalls each one ~40 ms behind the client's
    // delayed ACK (~8.8 s in all); one write per reply takes
    // milliseconds.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let started = Instant::now();
    for id in 0..200 {
        let pong = parse_ok(&round_trip(
            &mut stream,
            &format!(r#"{{"v":2,"id":{id},"op":"ping"}}"#),
        ));
        assert_eq!(pong.get("id").and_then(Json::as_i64), Some(id));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "200 pings took {elapsed:?}"
    );

    parse_ok(&round_trip(&mut stream, r#"{"v":2,"op":"shutdown"}"#));
    let status = wait_with_timeout(&mut child, Duration::from_secs(10));
    assert_eq!(status.code(), Some(0));
    let _ = std::fs::remove_file(config_path);
}

#[test]
fn warlockd_http_round_trip_and_shutdown() {
    let us_path = write_cfg("http-us", 16);
    let eu_path = write_cfg("http-eu", 64);

    let mut child = Command::new(env!("CARGO_BIN_EXE_warlockd"))
        .args(["--warehouse", &format!("us={}", us_path.display())])
        .args(["--warehouse", &format!("eu={}", eu_path.display())])
        .args(["--http", "127.0.0.1:0"])
        .args(["-j", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("warlockd spawns");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = announced_addr(&mut stderr, "http");

    let post = |path: &str, body: &str| -> (u16, Json) {
        let mut stream = TcpStream::connect(&addr).unwrap();
        write!(
            stream,
            "POST {path} HTTP/1.1\r\nHost: warlockd\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status = response.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        (status, warlock::json::parse(body).unwrap())
    };

    let (status, pong) = post("/v2/ping", r#"{"warehouse":"eu"}"#);
    assert_eq!(status, 200);
    let result = pong.get("result").unwrap();
    assert_eq!(result.get("warehouse").and_then(Json::as_str), Some("eu"));
    assert_eq!(result.get("space_size").and_then(Json::as_u64), Some(168));

    let (status, us) = post("/v2/rank", "");
    assert_eq!(status, 200);
    let (_, eu) = post("/v2/rank", r#"{"warehouse":"eu"}"#);
    assert_ne!(
        us.get("result").unwrap().render(),
        eu.get("result").unwrap().render()
    );

    let (status, err) = post("/v2/rank", r#"{"warehouse":"mars"}"#);
    assert_eq!(status, 404);
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("unknown_warehouse")
    );

    let (status, bye) = post("/v2/shutdown", "");
    assert_eq!(status, 200);
    assert!(bye.render().contains("stopping"));
    let status = wait_with_timeout(&mut child, Duration::from_secs(10));
    assert_eq!(status.code(), Some(0));

    let _ = std::fs::remove_file(us_path);
    let _ = std::fs::remove_file(eu_path);
}

#[test]
fn warlockd_bounds_request_sizes_without_killing_the_connection() {
    let config_path = write_cfg("bound", 16);

    let mut child = Command::new(env!("CARGO_BIN_EXE_warlockd"))
        .arg(&config_path)
        .arg("--stdio")
        .args(["-j", "1"])
        .args(["--max-request-bytes", "1024"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("warlockd spawns");

    {
        let mut stdin = child.stdin.take().unwrap();
        // An over-limit request line (a 4 KiB id against a 1 KiB bound):
        // the server must answer with a typed error and keep serving.
        writeln!(
            stdin,
            r#"{{"v":2,"id":"{}","op":"ping"}}"#,
            "x".repeat(4096)
        )
        .unwrap();
        writeln!(stdin, r#"{{"v":2,"id":1,"op":"ping"}}"#).unwrap();
        writeln!(stdin, r#"{{"v":2,"id":2,"op":"shutdown"}}"#).unwrap();
    }

    let lines: Vec<String> = BufReader::new(child.stdout.take().unwrap())
        .lines()
        .map(|l| l.unwrap())
        .collect();
    let status = child.wait().unwrap();
    let _ = std::fs::remove_file(&config_path);

    assert!(status.success());
    assert_eq!(lines.len(), 3, "one response per request: {lines:#?}");
    let rejected = warlock::json::parse(&lines[0]).unwrap();
    assert_eq!(rejected.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        rejected
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("bad_request")
    );
    assert!(
        lines[0].contains("1024"),
        "the limit is named: {}",
        lines[0]
    );
    // The stream stays aligned: the next request is answered normally.
    let pong = parse_ok(&lines[1]);
    assert_eq!(pong.get("id").and_then(Json::as_i64), Some(1));
    parse_ok(&lines[2]);
}

#[test]
fn warlockd_reports_bad_usage() {
    let usage_error = |args: &[&str]| {
        let status = Command::new(env!("CARGO_BIN_EXE_warlockd"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(2), "{args:?} must be a usage error");
    };
    usage_error(&[]); // no warehouse at all
    usage_error(&["a.cfg", "b.cfg"]); // stray positional
    usage_error(&["a.cfg", "--stdio", "--listen", "127.0.0.1:0"]);
    usage_error(&["a.cfg", "--stdio", "--http", "127.0.0.1:0"]);
    usage_error(&["--warehouse", "nopath"]); // not NAME=PATH
    usage_error(&["--warehouse", "=x.cfg"]); // empty name
    usage_error(&["--warehouse", "a=x.cfg", "--warehouse", "a=y.cfg"]); // dup
    usage_error(&["a.cfg", "--default-warehouse", "ghost"]); // unknown default
    usage_error(&["a.cfg", "--max-request-bytes", "none"]);
    usage_error(&["a.cfg", "--max-request-bytes", "0"]);
    usage_error(&["a.cfg", "--parallelism"]); // missing value
    usage_error(&["a.cfg", "--listen"]); // missing value

    let status = Command::new(env!("CARGO_BIN_EXE_warlockd"))
        .arg("/definitely/not/a/file.cfg")
        .arg("--stdio")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(
        status.code(),
        Some(1),
        "unreadable config is a startup failure"
    );
}
