//! `served-drift`: a spawned `warlockd` over loopback TCP (protocol v2),
//! driven by one persistent closed-loop connection per core (at most
//! two).
//!
//! The seeded request mix is mostly reads — `rank`, warm
//! `what_if_disks`, `allocate`, `drift_status`, `ping` — on static
//! scenario-fleet warehouses. Beside them each connection replays the
//! drift trajectories of the `Drifting`-class warehouses it owns:
//! `unload`, `load`, a baseline `rank`, the trajectory's `observe_stats`
//! batches (exactly one of which auto re-advises through a copy-on-write
//! `set_mix`), then `advice_events` to check that exactly one
//! `RecommendationChanged` fired.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use warlock::json::{self, FromJson, Json};
use warlock::registry::Registry;
use warlock::serial::observation_to_json;
use warlock::service::Service;
use warlock::workload::{mix_divergence, StatsWindow};
use warlock::{AdviceEvent, DriftStatus};

use crate::gen::{self, Rng, ServedWarehouse};
use crate::layers::{self, CacheDelta};
use crate::stats::{median, peak_rss_bytes, Checks, Report, Summary};
use crate::trace::Tracer;
use crate::{Args, SERVED_OPS, SETUP_REPEATS};

const STATICS: usize = 4;
const DRIFTING: usize = 4;
/// Share of requests that advance a drift replay.
const WRITE_SHARE: f64 = 0.4;
/// Re-advises each run collects at least: a connection keeps going past
/// the deadline (up to three times its length) until it has its share.
const MIN_READVISES: usize = 10;

/// A running `warlockd` and the port it listens on.
struct Server {
    child: Child,
    port: u16,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn spawn(warlockd: &Path, files: &[(String, PathBuf)]) -> Result<Server, String> {
        let mut command = Command::new(warlockd);
        command.args([
            "--listen",
            "127.0.0.1:0",
            "--default-warehouse",
            &files[0].0,
        ]);
        for (name, path) in files {
            command
                .arg("--warehouse")
                .arg(format!("{name}={}", path.display()));
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", warlockd.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let port = loop {
            line.clear();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("warlockd exited before listening".to_owned());
            }
            if let Some(addr) = line.trim().strip_prefix("warlockd: listening on ") {
                break addr
                    .rsplit(':')
                    .next()
                    .and_then(|p| p.parse::<u16>().ok())
                    .ok_or_else(|| format!("unparseable listen line `{}`", line.trim()))?;
            }
        };
        // Drain anything else warlockd writes so it never blocks on a
        // full pipe; the thread ends when the process does.
        let stderr = std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).unwrap_or(0) > 0 {
                sink.clear();
            }
        });
        Ok(Server {
            child,
            port,
            stderr: Some(stderr),
        })
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(("127.0.0.1", self.port)).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
            next_id: 0,
        })
    }

    /// Asks the server to stop and waits for it; kills it if it lingers.
    fn stop(mut self) {
        if let Ok(mut conn) = self.connect() {
            let _ = conn.call("shutdown", &[]);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.reap();
    }

    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(thread) = self.stderr.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One persistent client connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: i64,
}

fn request(id: i64, op: &str, fields: &[(&str, Json)]) -> String {
    let mut members = vec![
        ("v".to_owned(), Json::Int(2)),
        ("id".to_owned(), Json::Int(id)),
        ("op".to_owned(), Json::Str(op.to_owned())),
    ];
    members.extend(fields.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
    Json::Obj(members).render()
}

impl Conn {
    /// Sends one request and waits for its reply line.
    fn call(&mut self, op: &str, fields: &[(&str, Json)]) -> Result<String, String> {
        self.next_id += 1;
        let mut line = request(self.next_id, op, fields);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed".to_owned()),
            Ok(_) => Ok(reply.trim_end().to_owned()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// The `result` part of a reply line, byte for byte.
fn result_bytes(line: &str) -> Option<&str> {
    line.find("\"result\":").map(|i| &line[i..])
}

fn ok_result(line: &str) -> Result<Json, String> {
    let reply = json::parse(line).map_err(|e| format!("unparseable reply: {e}"))?;
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request failed: {line:.200}"));
    }
    reply
        .get("result")
        .cloned()
        .ok_or_else(|| "reply has no result".to_owned())
}

fn routed(name: &str) -> (&'static str, Json) {
    ("warehouse", Json::Str(name.to_owned()))
}

/// Where one owned drifting warehouse is in its replay cycle.
#[derive(Debug, Clone, Copy)]
enum Step {
    Unload,
    Load,
    Rank,
    Observe(usize),
    Events,
}

#[derive(Debug, Clone, Copy)]
struct Replay {
    warehouse: usize,
    step: Step,
    events: u64,
}

/// The state every connection shares read-only.
struct Plan<'a> {
    warehouses: &'a [ServedWarehouse],
    /// Indexes of the static (non-drifting) warehouses.
    statics: Vec<usize>,
    files: &'a [(String, PathBuf)],
    /// Expected `rank` result bytes per static warehouse.
    expected_rank: &'a BTreeMap<String, String>,
}

/// What one connection measured.
#[derive(Default)]
struct Measured {
    by_op: BTreeMap<&'static str, Vec<f64>>,
    all_ms: Vec<f64>,
    readvise_ms: Vec<f64>,
    batches_to_detect: Vec<f64>,
    checks: Checks,
    /// Request lines sent, in order, for the in-process replay.
    sent: Vec<(&'static str, String)>,
}

struct Client {
    conn: Conn,
    rng: Rng,
    replays: Vec<Replay>,
    next_replay: usize,
}

impl Client {
    fn loaded(&self, warehouse: usize) -> bool {
        self.replays
            .iter()
            .any(|r| r.warehouse == warehouse && !matches!(r.step, Step::Load))
    }

    /// Sends one request, timing it at the client; returns the reply.
    fn timed(
        &mut self,
        op: &'static str,
        fields: &[(&str, Json)],
        tracer: &mut Tracer,
        out: &mut Measured,
    ) -> Result<(String, f64), String> {
        tracer.begin_op();
        if tracer.on() {
            out.sent
                .push((op, request(self.conn.next_id + 1, op, fields)));
        }
        let conn = &mut self.conn;
        let (elapsed, reply) = tracer.span(op, |_| {
            let t = Instant::now();
            let reply = conn.call(op, fields);
            (t.elapsed().as_secs_f64() * 1e3, reply)
        });
        out.by_op.entry(op).or_default().push(elapsed);
        out.all_ms.push(elapsed);
        reply.map(|r| (r, elapsed))
    }

    fn read(&mut self, plan: &Plan, tracer: &mut Tracer, out: &mut Measured) -> Option<String> {
        let w = plan.statics[self.rng.next_u64() as usize % plan.statics.len()];
        let name = plan.warehouses[w].generated.name.clone();
        let roll = self.rng.unit();
        if roll < 0.30 {
            let (reply, _) = match self.timed("rank", &[routed(&name)], tracer, out) {
                Ok(r) => r,
                Err(e) => return Some(e),
            };
            let expected = plan.expected_rank.get(&name).map(String::as_str);
            return (result_bytes(&reply) != expected)
                .then(|| format!("served rank of {name} differs from the in-process reply"));
        }
        let (op, fields) = if roll < 0.55 {
            let disks = plan.warehouses[w].generated.disks;
            let disks = if self.rng.chance(0.5) {
                (disks / 2).max(1)
            } else {
                disks * 2
            };
            (
                "what_if_disks",
                vec![
                    routed(&name),
                    (
                        "params",
                        Json::object([("disks", Json::Int(i64::from(disks)))]),
                    ),
                ],
            )
        } else if roll < 0.70 {
            ("allocate", vec![routed(&name)])
        } else if roll < 0.85 {
            let own = match self.replays.len() {
                0 => None,
                n => Some(self.replays[self.rng.next_u64() as usize % n].warehouse),
            }
            .filter(|&d| self.loaded(d));
            let target = own.map_or(name, |d| plan.warehouses[d].generated.name.clone());
            ("drift_status", vec![routed(&target)])
        } else {
            ("ping", vec![routed(&name)])
        };
        match self.timed(op, &fields, tracer, out) {
            Ok((reply, _)) => ok_result(&reply).err(),
            Err(e) => Some(e),
        }
    }

    fn write(&mut self, plan: &Plan, tracer: &mut Tracer, out: &mut Measured) -> Option<String> {
        let slot = self.next_replay % self.replays.len();
        self.next_replay += 1;
        let Replay {
            warehouse,
            step,
            events,
        } = self.replays[slot];
        let w = &plan.warehouses[warehouse];
        let name = w.generated.name.clone();
        let name_param = ("params", Json::object([("name", Json::Str(name.clone()))]));
        let (next, problem) = match step {
            Step::Unload => match self.timed("unload", &[name_param], tracer, out) {
                Ok((reply, _)) => (Step::Load, ok_result(&reply).err()),
                Err(e) => (Step::Load, Some(e)),
            },
            Step::Load => {
                let path = plan.files[warehouse].1.display().to_string();
                let params =
                    Json::object([("name", Json::Str(name.clone())), ("path", Json::Str(path))]);
                match self.timed("load", &[("params", params)], tracer, out) {
                    Ok((reply, _)) => (Step::Rank, ok_result(&reply).err()),
                    Err(e) => (Step::Rank, Some(e)),
                }
            }
            Step::Rank => match self.timed("rank", &[routed(&name)], tracer, out) {
                Ok((reply, _)) => {
                    let problem = match ok_result(&reply) {
                        Err(e) => Some(e),
                        Ok(result) => {
                            let enumerated = result.get("enumerated").and_then(Json::as_u64);
                            (enumerated.map(u128::from) != Some(w.generated.space)).then(|| {
                                format!(
                                    "{name}: enumerated {enumerated:?} != {}",
                                    w.generated.space
                                )
                            })
                        }
                    };
                    (Step::Observe(0), problem)
                }
                Err(e) => (Step::Observe(0), Some(e)),
            },
            Step::Observe(batch) => {
                let observations: Vec<Json> = w.trajectory[batch]
                    .iter()
                    .map(observation_to_json)
                    .collect();
                let params = Json::object([("observations", Json::Arr(observations))]);
                let next = if batch + 1 < w.trajectory.len() {
                    Step::Observe(batch + 1)
                } else {
                    Step::Events
                };
                match self.timed(
                    "observe_stats",
                    &[routed(&name), ("params", params)],
                    tracer,
                    out,
                ) {
                    Ok((reply, ms)) => {
                        let status = ok_result(&reply)
                            .and_then(|r| DriftStatus::from_json(&r).map_err(|e| e.to_string()));
                        match status {
                            Ok(status) => {
                                if status.events_emitted > events {
                                    out.readvise_ms.push(ms);
                                    out.batches_to_detect.push((batch + 1) as f64);
                                }
                                self.replays[slot].events = status.events_emitted;
                                (next, None)
                            }
                            Err(e) => (next, Some(e)),
                        }
                    }
                    Err(e) => (next, Some(e)),
                }
            }
            Step::Events => {
                let reply = self.timed("advice_events", &[routed(&name)], tracer, out);
                let problem = match reply.and_then(|(r, _)| ok_result(&r)) {
                    Err(e) => Some(e),
                    Ok(result) => {
                        let events: Vec<AdviceEvent> = result
                            .get("events")
                            .and_then(Json::as_array)
                            .unwrap_or(&[])
                            .iter()
                            .filter_map(|e| AdviceEvent::from_json(e).ok())
                            .collect();
                        let changed = events
                            .iter()
                            .filter(|e| matches!(e, AdviceEvent::RecommendationChanged { .. }))
                            .count();
                        (changed != 1).then(|| {
                            format!("{name}: trajectory fired {changed} re-advises, expected 1")
                        })
                    }
                };
                self.replays[slot].events = 0;
                (Step::Unload, problem)
            }
        };
        self.replays[slot].step = next;
        problem
    }

    fn drive(
        &mut self,
        plan: &Plan,
        seconds: f64,
        readvises: usize,
        tracer: &mut Tracer,
    ) -> Measured {
        let mut out = Measured::default();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let cutoff = start + Duration::from_secs_f64(3.0 * seconds);
        loop {
            let now = Instant::now();
            if now >= cutoff || (now >= deadline && out.readvise_ms.len() >= readvises) {
                break;
            }
            let problem = if !self.replays.is_empty() && self.rng.chance(WRITE_SHARE) {
                self.write(plan, tracer, &mut out)
            } else {
                self.read(plan, tracer, &mut out)
            };
            out.checks.record(problem);
        }
        out
    }
}

/// A warmed-up server, its clients, and the files it loaded.
struct Setup {
    warehouses: Vec<ServedWarehouse>,
    files: Vec<(String, PathBuf)>,
    server: Server,
    clients: Vec<Client>,
}

/// Writes the configs and starts a warmed-up server with its clients.
fn set_up(args: &Args, conns: usize) -> Result<Setup, String> {
    let warehouses = gen::served(args.seed, STATICS, DRIFTING)?;
    let dir = args.workdir.join(format!("served-{}", args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut files = Vec::new();
    for w in &warehouses {
        let path = dir.join(format!("{}.cfg", w.generated.name));
        std::fs::write(&path, &w.generated.config).map_err(|e| e.to_string())?;
        files.push((w.generated.name.clone(), path));
    }
    let server = Server::spawn(&args.warlockd, &files)?;
    let mut clients = Vec::new();
    for c in 0..conns {
        let replays = (0..warehouses.len())
            .filter(|&i| !warehouses[i].trajectory.is_empty())
            .filter(|i| i % conns == c)
            .map(|warehouse| Replay {
                warehouse,
                step: Step::Unload,
                events: 0,
            })
            .collect();
        clients.push(Client {
            conn: server.connect()?,
            rng: Rng::new(args.seed ^ (0x5e7e_d000 + c as u64)),
            replays,
            next_replay: 0,
        });
    }
    // Warm-up: every baseline ranked, the what-if variations and the
    // allocation of every static warehouse priced once.
    let warm = &mut clients[0].conn;
    for w in &warehouses {
        let name = &w.generated.name;
        ok_result(&warm.call("rank", &[routed(name)])?)?;
        if w.trajectory.is_empty() {
            for disks in [(w.generated.disks / 2).max(1), w.generated.disks * 2] {
                let params = Json::object([("disks", Json::Int(i64::from(disks)))]);
                ok_result(&warm.call("what_if_disks", &[routed(name), ("params", params)])?)?;
            }
            ok_result(&warm.call("allocate", &[routed(name)])?)?;
        }
    }
    Ok(Setup {
        warehouses,
        files,
        server,
        clients,
    })
}

fn drive_all(
    clients: &mut [Client],
    plan: &Plan,
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> (Vec<Measured>, Vec<Tracer>, f64) {
    let owners = clients
        .iter()
        .filter(|c| !c.replays.is_empty())
        .count()
        .max(1);
    let share = MIN_READVISES.div_ceil(owners);
    let t = Instant::now();
    let results: Vec<(Measured, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(trace, epoch);
                    let readvises = if client.replays.is_empty() { 0 } else { share };
                    let measured = client.drive(plan, seconds, readvises, &mut tracer);
                    (measured, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let (measured, tracers) = results.into_iter().unzip();
    (measured, tracers, wall)
}

fn merged(parts: &mut Vec<Measured>) -> Measured {
    let mut all = Measured::default();
    for part in parts.drain(..) {
        for (op, ms) in part.by_op {
            all.by_op.entry(op).or_default().extend(ms);
        }
        all.all_ms.extend(part.all_ms);
        all.readvise_ms.extend(part.readvise_ms);
        all.batches_to_detect.extend(part.batches_to_detect);
        all.checks.merge(part.checks);
        all.sent.extend(part.sent);
    }
    all
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let conns = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2);
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let fresh = set_up(args, conns)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some(old) = built.replace(fresh) {
            old.server.stop();
        }
    }
    let Setup {
        warehouses,
        files,
        server,
        mut clients,
    } = built.expect("at least one setup");

    // The in-process reference: the same files behind a `Service`.
    let reference = in_process(&files)?;
    let mut expected_rank = BTreeMap::new();
    for w in warehouses.iter().filter(|w| w.trajectory.is_empty()) {
        let line = reference
            .handle_line(&request(0, "rank", &[routed(&w.generated.name)]))
            .line;
        let bytes = result_bytes(&line).ok_or("in-process rank failed")?;
        expected_rank.insert(w.generated.name.clone(), bytes.to_owned());
    }
    report.detail(
        "warehouses",
        Json::Arr(
            warehouses
                .iter()
                .map(|w| {
                    Json::object([
                        ("name", Json::Str(w.generated.name.clone())),
                        ("candidate_space_size", Json::Int(w.generated.space as i64)),
                        ("drift_batches", Json::Int(w.trajectory.len() as i64)),
                    ])
                })
                .collect(),
        ),
    );
    report.detail("connections", Json::Int(conns as i64));
    let plan = Plan {
        warehouses: &warehouses,
        statics: (0..warehouses.len())
            .filter(|&i| warehouses[i].trajectory.is_empty())
            .collect(),
        files: &files,
        expected_rank: &expected_rank,
    };

    let (plain_secs, traced_secs) = args.phases();
    let (mut parts, _, wall) = drive_all(&mut clients, &plan, plain_secs, false, args.epoch);
    let plain = merged(&mut parts);
    let requests = Summary::of(&plain.all_ms);
    let readvise = Summary::of(&plain.readvise_ms);
    report.detail("req_ms", requests.to_json());
    report.detail("readvise_ms", readvise.to_json());
    report.detail("req_per_s", Json::Num(plain.all_ms.len() as f64 / wall));
    report.detail(
        "per_op_ms",
        Json::object(
            plain
                .by_op
                .iter()
                .map(|(op, ms)| (*op, Summary::of(ms).to_json())),
        ),
    );
    report.checks.merge(plain.checks);

    if !args.trace {
        let rss = peak_rss_bytes(&server.child.id().to_string()).unwrap_or(0.0);
        server.stop();
        report.metric("setup_s", median(&setups), "s");
        report.metric("peak_rss_bytes", rss, "bytes");
        report.metric("main_p50_ms", requests.p50, "ms");
        report.metric("main_p90_ms", requests.p90, "ms");
        report.metric("side_p50_ms", readvise.p50, "ms");
        report.metric("work_per_s", plain.all_ms.len() as f64 / wall, "1/s");
        return Ok(report);
    }

    // Which drifting warehouses are loaded when the traced phase starts:
    // the in-process replay starts from the same registry contents.
    let unloaded: Vec<usize> = clients
        .iter()
        .flat_map(|c| c.replays.iter())
        .filter(|r| matches!(r.step, Step::Load))
        .map(|r| r.warehouse)
        .collect();
    let (mut parts, tracers, _) = drive_all(&mut clients, &plan, traced_secs, true, args.epoch);
    server.stop();
    let traced = merged(&mut parts);
    report.checks.merge(traced.checks);
    let mut tracer = Tracer::new(true, args.epoch);
    for t in tracers {
        tracer.absorb(t);
    }

    // core.service: the same request stream through `Service::handle_line`
    // in process; transport: client latency minus that, per op.
    let loaded: Vec<(String, PathBuf)> = files
        .iter()
        .enumerate()
        .filter(|(i, _)| !unloaded.contains(i))
        .map(|(_, f)| f.clone())
        .collect();
    let service = in_process(&loaded)?;
    let mut service_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut cache = CacheDelta::default();
    for (op, line) in &traced.sent {
        let before = total_cache(service.registry());
        let t = Instant::now();
        let reply = service.handle_line(line);
        service_ms
            .entry(op)
            .or_default()
            .push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(reply);
        if !matches!(*op, "load" | "unload") {
            cache.add(before, total_cache(service.registry()));
        }
    }
    cache.report(&mut report);
    for op in SERVED_OPS {
        let inside = service_ms.get(op).map_or(0.0, |ms| median(ms));
        let client = traced.by_op.get(op).map_or(0.0, |ms| median(ms));
        report.metric(format!("core.service.{op}_ms"), inside, "ms");
        report.metric(format!("transport.{op}_ms"), client - inside, "ms");
    }

    // workload: the statistics window and divergence score over every
    // drifting warehouse's trajectory.
    let (mut ingest_ms, mut divergence_ms) = (Vec::new(), Vec::new());
    for w in warehouses.iter().filter(|w| !w.trajectory.is_empty()) {
        let parsed =
            warlock::config_file::parse_config(&w.generated.config).map_err(|e| e.to_string())?;
        let mut window = StatsWindow::new(parsed.advisor.stats_half_life);
        for batch in &w.trajectory {
            let t = Instant::now();
            tracer.span("workload.ingest", |_| window.ingest(batch));
            ingest_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            std::hint::black_box(tracer.span("workload.divergence", |_| {
                mix_divergence(&parsed.mix, &window)
            }));
            divergence_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    report.metric("workload.ingest_ms", median(&ingest_ms), "ms");
    report.metric("workload.divergence_ms", median(&divergence_ms), "ms");
    report.metric(
        "core.readvise.batches_to_detect",
        median(&traced.batches_to_detect),
        "count",
    );

    let statics: Vec<warlock::Warlock> = warehouses
        .iter()
        .filter(|w| w.trajectory.is_empty())
        .map(|w| warlock::Warlock::from_config_str(&w.generated.config).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    layers::engine(&statics, &mut tracer, &mut report)?;
    layers::overhead(
        &mut report,
        requests.p50,
        Summary::of(&traced.all_ms).p50,
        tracer.spans().len(),
    );
    report.detail("self_times", tracer.self_times_json());
    let path = args
        .workdir
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    tracer.write(&path).map_err(|e| e.to_string())?;
    Ok(report)
}

/// A `Service` over a registry loaded from `files` (the first is the
/// default warehouse), as `warlockd` builds it.
fn in_process(files: &[(String, PathBuf)]) -> Result<Service, String> {
    let registry = Registry::new(files[0].0.clone());
    for (name, path) in files {
        registry
            .load(name.clone(), path.display().to_string())
            .map_err(|e| e.to_string())?;
    }
    Ok(Service::with_registry(std::sync::Arc::new(registry)))
}

fn total_cache(registry: &Registry) -> warlock::EvalCacheStats {
    let mut total = warlock::EvalCacheStats::default();
    for w in registry.list() {
        total.entries += w.cache.entries;
        total.hits += w.cache.hits;
        total.misses += w.cache.misses;
    }
    total
}
