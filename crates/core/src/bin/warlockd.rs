//! `warlockd` — the long-lived WARLOCK advisory server.
//!
//! Loads one or more warehouse descriptions at startup and serves the
//! versioned JSON protocol of [`warlock::service`] over stdio, TCP
//! and/or HTTP, dispatching every request to its named warehouse:
//!
//! ```text
//! warlockd <config-file> --stdio
//! warlockd --warehouse us=us.cfg --warehouse eu=eu.cfg \
//!          --listen 127.0.0.1:7341 --http 127.0.0.1:7342
//! ```
//!
//! - The positional `<config-file>` loads as a warehouse named
//!   `default`; `--warehouse NAME=PATH` (repeatable) loads more. The
//!   first loaded warehouse is the **default route** for unrouted and
//!   protocol-v1 requests unless `--default-warehouse NAME` picks
//!   another.
//! - `--stdio` reads requests from stdin and writes responses to
//!   stdout, one JSON object per line — scriptable from anything that
//!   can spawn a process. This is the default when no transport flag is
//!   given.
//! - `--listen ADDR` accepts any number of concurrent TCP connections,
//!   one thread per connection, speaking the same line protocol.
//! - `--http ADDR` serves the same op set as minimal HTTP/1.1
//!   (`POST /v2/<op>`, JSON body in/out — see [`warlock::http`]), and
//!   may be combined with `--listen`.
//! - `-j`/`--parallelism` overrides every warehouse's evaluation worker
//!   count (0 = auto, 1 = serial); `--max-candidates` and
//!   `--chunk-size` override the candidate-space budget (0 = unlimited)
//!   and the streaming evaluation chunk (0 = auto). A wire `reload`
//!   re-reads the warehouse's file as written — without these CLI
//!   overrides.
//! - `--max-request-bytes N` bounds each request line / HTTP body
//!   (default 16 MiB): over-limit requests are answered with a typed
//!   `bad_request` error instead of buffering without bound, and the
//!   connection stays usable.
//!
//! Every line-protocol reply leaves in a single write — the JSON line
//! and its `\n` together — and accepted TCP sockets set `TCP_NODELAY`.
//! A reply split across two writes has its second, tiny segment held
//! back by Nagle's algorithm until the client's delayed ACK arrives,
//! which put a ~44 ms floor under every request on Linux loopback.
//!
//! A `{"op":"shutdown"}` request over *any* transport stops the whole
//! server after the response is flushed (as does EOF on stdin in stdio
//! mode): the shared [`ShutdownSignal`] wakes every accept loop
//! deterministically via self-connect, so the process exits promptly
//! instead of blocking in `accept` until a next client arrives. Exit
//! codes: 0 on clean shutdown, 1 on startup failure, 2 on usage errors.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use warlock::http::{accept_until_shutdown, serve_http, ShutdownSignal};
use warlock::registry::Registry;
use warlock::service::{Service, ServiceReply};
use warlock::Warlock;

const USAGE: &str = "usage: warlockd [<config-file>] [--warehouse NAME=PATH]... \
[--default-warehouse NAME] [--stdio | --listen ADDR] [--http ADDR] \
[-j N | --parallelism N] [--max-candidates N] [--chunk-size N] [--max-request-bytes N]";

/// The default per-request size bound: far above any real advisory
/// request, far below anything that could stress the server's memory.
const DEFAULT_MAX_REQUEST_BYTES: usize = 16 * 1024 * 1024;

struct Options {
    /// `(name, path)` per warehouse, in load order; a positional
    /// `<config-file>` is the warehouse named `default`.
    warehouses: Vec<(String, String)>,
    /// The default route; the first loaded warehouse when absent.
    default_warehouse: Option<String>,
    listen: Option<String>,
    http: Option<String>,
    stdio: bool,
    parallelism: Option<usize>,
    max_candidates: Option<u64>,
    chunk_size: Option<usize>,
    max_request_bytes: usize,
}

fn parse_args(mut args: Vec<String>) -> Result<Options, String> {
    /// The (already validated to exist) value of `flag`, parsed.
    fn value_of<T: std::str::FromStr>(
        args: &mut Vec<String>,
        flag: &str,
        what: &str,
    ) -> Result<T, String> {
        if args.is_empty() {
            return Err(format!("`{flag}` needs {what}"));
        }
        let value = args.remove(0);
        value
            .parse::<T>()
            .map_err(|_| format!("invalid {what} `{value}` for `{flag}`"))
    }
    let mut warehouses: Vec<(String, String)> = Vec::new();
    let mut default_warehouse = None;
    let mut listen = None;
    let mut http = None;
    let mut stdio = false;
    let mut parallelism = None;
    let mut max_candidates = None;
    let mut chunk_size = None;
    let mut max_request_bytes = DEFAULT_MAX_REQUEST_BYTES;
    let mut positional = Vec::new();
    while !args.is_empty() {
        let arg = args.remove(0);
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--listen" => listen = Some(value_of::<String>(&mut args, &arg, "an address")?),
            "--http" => http = Some(value_of::<String>(&mut args, &arg, "an address")?),
            "--warehouse" => {
                let spec = value_of::<String>(&mut args, &arg, "a NAME=PATH pair")?;
                let (name, path) = spec
                    .split_once('=')
                    .filter(|(n, p)| !n.is_empty() && !p.is_empty())
                    .ok_or_else(|| format!("`--warehouse` wants NAME=PATH, got `{spec}`"))?;
                warehouses.push((name.to_owned(), path.to_owned()));
            }
            "--default-warehouse" => {
                default_warehouse = Some(value_of::<String>(&mut args, &arg, "a warehouse name")?);
            }
            "-j" | "--parallelism" => {
                parallelism = Some(value_of::<usize>(&mut args, &arg, "a worker count")?);
            }
            "--max-candidates" => {
                max_candidates = Some(value_of::<u64>(&mut args, &arg, "a candidate budget")?);
            }
            "--chunk-size" => {
                chunk_size = Some(value_of::<usize>(&mut args, &arg, "a chunk size")?);
            }
            "--max-request-bytes" => {
                max_request_bytes = value_of::<usize>(&mut args, &arg, "a byte count")?;
                if max_request_bytes == 0 {
                    return Err("`--max-request-bytes` must be positive".into());
                }
            }
            _ => positional.push(arg),
        }
    }
    if stdio && (listen.is_some() || http.is_some()) {
        return Err("`--stdio` and `--listen`/`--http` are mutually exclusive".into());
    }
    let mut positional = positional.into_iter();
    if let Some(config_path) = positional.next() {
        warehouses.insert(0, ("default".to_owned(), config_path));
    }
    if let Some(extra) = positional.next() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    if warehouses.is_empty() {
        return Err("missing <config-file> (or --warehouse NAME=PATH)".into());
    }
    for (i, (name, _)) in warehouses.iter().enumerate() {
        if warehouses[..i].iter().any(|(n, _)| n == name) {
            return Err(format!("warehouse `{name}` is given twice"));
        }
    }
    if let Some(name) = &default_warehouse {
        if !warehouses.iter().any(|(n, _)| n == name) {
            return Err(format!(
                "`--default-warehouse {name}` names no loaded warehouse"
            ));
        }
    }
    Ok(Options {
        warehouses,
        default_warehouse,
        listen,
        http,
        stdio,
        parallelism,
        max_candidates,
        chunk_size,
        max_request_bytes,
    })
}

/// A line-protocol buffer keeps at most this much capacity between
/// requests, so one rare huge request does not pin its memory for the
/// rest of the connection.
const RETAINED_BUFFER_BYTES: usize = 64 * 1024;

/// One bounded line read: a complete line (≤ limit bytes of content,
/// left in the caller's buffer without its `\n` or `\r\n`), end of
/// input, or an over-limit line (drained so the stream stays aligned on
/// the next request).
enum LineRead {
    Line,
    Eof,
    TooLong,
}

fn read_bounded_line<R: BufRead>(
    input: &mut R,
    limit: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    buf.clear();
    // Room for `limit` bytes of content plus a `\r\n` terminator.
    let cap = (limit as u64).saturating_add(2);
    input.by_ref().take(cap).read_until(b'\n', buf)?;
    if buf.is_empty() {
        return Ok(LineRead::Eof);
    }
    if buf.last() != Some(&b'\n') && buf.len() as u64 == cap {
        // The cap cut the line off mid-way: discard the rest of it so
        // the next read starts on the next request, not on this line's
        // tail masquerading as one.
        drain_line(input)?;
        return Ok(LineRead::TooLong);
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    Ok(if buf.len() > limit {
        LineRead::TooLong
    } else {
        LineRead::Line
    })
}

/// Discards input until (and including) the next newline, in O(1)
/// memory.
fn drain_line<R: BufRead>(input: &mut R) -> std::io::Result<()> {
    loop {
        let available = input.fill_buf()?;
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                input.consume(pos + 1);
                return Ok(());
            }
            None => {
                let len = available.len();
                input.consume(len);
            }
        }
    }
}

/// Serves one request stream: reads JSON lines from `input`, writes one
/// response line per request to `output`. Returns `true` when the peer
/// asked the whole server to shut down.
fn serve<R: BufRead, W: Write>(
    service: &Service,
    mut input: R,
    mut output: W,
    max_request_bytes: usize,
) -> bool {
    let mut buf = Vec::new();
    loop {
        buf.shrink_to(RETAINED_BUFFER_BYTES);
        let reply = match read_bounded_line(&mut input, max_request_bytes, &mut buf) {
            Err(_) => return false, // peer vanished mid-line
            Ok(LineRead::Eof) => return false,
            Ok(LineRead::TooLong) => ServiceReply::error(
                "bad_request",
                &format!("request line exceeds the {max_request_bytes}-byte limit"),
            ),
            Ok(LineRead::Line) => {
                // Borrows the buffer when it is valid UTF-8 (the usual
                // case); only a malformed request is copied.
                let line = String::from_utf8_lossy(&buf);
                if line.trim().is_empty() {
                    continue;
                }
                // A panicking request (a bug), JSON parsing included,
                // must not take the server down: it degrades to an
                // internal-error response in the request's envelope.
                ServiceReply::catch_panic(
                    || service.handle_line(&line),
                    || {
                        (
                            ServiceReply::request_version(&line),
                            ServiceReply::request_id(&line),
                        )
                    },
                )
            }
        };
        // The line and its newline leave in one write: split in two, the
        // second would wait in Nagle's algorithm for the peer's ACK.
        let shutdown = reply.shutdown;
        let mut bytes = reply.line.into_bytes();
        bytes.push(b'\n');
        if output
            .write_all(&bytes)
            .and_then(|_| output.flush())
            .is_err()
        {
            return false;
        }
        if shutdown {
            return true;
        }
    }
}

/// The TCP accept loop for the line protocol. Exits deterministically
/// once `shutdown` trips — a shutdown request from any connection (or
/// any other transport) wakes the loop via self-connect instead of
/// leaving it blocked in `accept`.
fn serve_tcp(
    service: &Arc<Service>,
    listener: TcpListener,
    max_request_bytes: usize,
    shutdown: &Arc<ShutdownSignal>,
) {
    eprintln!(
        "warlockd: listening on {}",
        listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into())
    );
    let service = Arc::clone(service);
    // A connection serves requests until its peer leaves; a clean
    // shutdown request returns `true` once its response is flushed,
    // which stops every transport and lets main exit 0.
    accept_until_shutdown(listener, shutdown, move |stream| {
        // Replies are whole lines in one write, so there is nothing for
        // Nagle's algorithm to coalesce — only a delayed ACK to wait on.
        let _ = stream.set_nodelay(true);
        let Ok(reader) = stream.try_clone() else {
            return false;
        };
        serve(&service, BufReader::new(reader), stream, max_request_bytes)
    });
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1).collect()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("warlockd: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let default = options
        .default_warehouse
        .clone()
        .unwrap_or_else(|| options.warehouses[0].0.clone());
    let registry = Arc::new(Registry::new(default));
    for (name, path) in &options.warehouses {
        let mut session = match Warlock::from_config_path(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("warlockd: {e}");
                return ExitCode::FAILURE;
            }
        };
        if options.parallelism.is_some()
            || options.max_candidates.is_some()
            || options.chunk_size.is_some()
        {
            let mut config = session.config().clone();
            if let Some(workers) = options.parallelism {
                config.parallelism = workers;
            }
            if let Some(budget) = options.max_candidates {
                config.max_candidates = budget;
            }
            if let Some(chunk) = options.chunk_size {
                config.chunk_size = chunk;
            }
            if let Err(e) = session.set_config(config) {
                eprintln!("warlockd: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = registry.insert(name.clone(), Some(path.clone()), session) {
            eprintln!("warlockd: {e}");
            return ExitCode::FAILURE;
        }
    }
    let service = Arc::new(Service::with_registry(registry));

    if options.stdio || (options.listen.is_none() && options.http.is_none()) {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        serve(
            &service,
            stdin.lock(),
            stdout.lock(),
            options.max_request_bytes,
        );
        return ExitCode::SUCCESS;
    }

    // Bind every requested transport before serving on any, so address
    // conflicts fail the whole startup instead of half of it.
    let bind = |addr: &str| match TcpListener::bind(addr) {
        Ok(listener) => Ok(listener),
        Err(e) => {
            eprintln!("warlockd: cannot listen on {addr}: {e}");
            Err(ExitCode::FAILURE)
        }
    };
    let tcp = match options.listen.as_deref().map(bind).transpose() {
        Ok(l) => l,
        Err(code) => return code,
    };
    let http = match options.http.as_deref().map(bind).transpose() {
        Ok(l) => l,
        Err(code) => return code,
    };

    let shutdown = Arc::new(ShutdownSignal::new());
    let mut http_thread = None;
    if let Some(listener) = http {
        eprintln!(
            "warlockd: http on {}",
            listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown>".into())
        );
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        let max = options.max_request_bytes;
        if tcp.is_some() {
            http_thread = Some(std::thread::spawn(move || {
                serve_http(service, listener, max, shutdown)
            }));
        } else {
            serve_http(service, listener, max, shutdown);
        }
    }
    if let Some(listener) = tcp {
        serve_tcp(&service, listener, options.max_request_bytes, &shutdown);
    }
    if let Some(thread) = http_thread {
        let _ = thread.join();
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use warlock::config_file::{demo_config, render_config};

    const PING: &str = r#"{"v":2,"id":1,"op":"ping"}"#;

    fn demo_service() -> Service {
        let config = render_config(&demo_config());
        Service::new(Warlock::from_config_str(&config).unwrap())
    }

    #[derive(Debug, PartialEq)]
    enum Event {
        Write(String),
        Flush,
    }

    /// A `Write` that records every `write` and `flush` call.
    #[derive(Default)]
    struct Recorder(Vec<Event>);

    impl Write for Recorder {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.0
                .push(Event::Write(String::from_utf8(bytes.to_vec()).unwrap()));
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.0.push(Event::Flush);
            Ok(())
        }
    }

    /// Serves `input`, returning `serve`'s result and the calls it made.
    fn drive(service: &Service, input: &str, limit: usize) -> (bool, Vec<Event>) {
        let mut output = Recorder::default();
        let stopped = serve(service, input.as_bytes(), &mut output, limit);
        (stopped, output.0)
    }

    /// The calls that frame `replies`: one write of line + `\n`, then a
    /// flush, per reply.
    fn framed(replies: &[String]) -> Vec<Event> {
        replies
            .iter()
            .flat_map(|line| [Event::Write(format!("{line}\n")), Event::Flush])
            .collect()
    }

    #[test]
    fn each_reply_is_one_write_of_the_line_and_its_newline() {
        let service = demo_service();
        let pong = service.handle_line(PING).line;
        let (stopped, events) = drive(&service, &format!("{PING}\n{PING}\r\n"), 1024);
        assert!(!stopped, "end of input is not a shutdown");
        assert_eq!(events, framed(&[pong.clone(), pong]));
    }

    #[test]
    fn an_over_limit_line_is_answered_in_one_write() {
        let service = demo_service();
        let long = format!(r#"{{"v":2,"id":"{}","op":"ping"}}"#, "x".repeat(64));
        let (_, events) = drive(&service, &format!("{long}\n{PING}\n"), 32);
        let rejected = ServiceReply::error("bad_request", "request line exceeds the 32-byte limit");
        assert_eq!(
            events,
            framed(&[rejected.line, service.handle_line(PING).line])
        );
    }

    #[test]
    fn blank_lines_are_skipped_without_a_write() {
        let service = demo_service();
        let (_, events) = drive(&service, &format!("\n\r\n   \n{PING}\n\n"), 1024);
        assert_eq!(events, framed(&[service.handle_line(PING).line]));
    }

    #[test]
    fn shutdown_is_written_and_flushed_before_serve_returns() {
        let service = demo_service();
        let shutdown = r#"{"v":2,"id":9,"op":"shutdown"}"#;
        let (stopped, events) = drive(&service, &format!("{shutdown}\n{PING}\n"), 1024);
        assert!(stopped);
        // The request after the shutdown is never answered.
        assert_eq!(events, framed(&[service.handle_line(shutdown).line]));
    }

    /// Every line of `input` read with `limit`: `Some(content)`, or
    /// `None` for an over-limit line.
    fn read_lines(input: &str, limit: usize) -> Vec<Option<String>> {
        let mut input = input.as_bytes();
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        loop {
            match read_bounded_line(&mut input, limit, &mut buf).unwrap() {
                LineRead::Eof => return lines,
                LineRead::TooLong => lines.push(None),
                LineRead::Line => lines.push(Some(String::from_utf8(buf.clone()).unwrap())),
            }
        }
    }

    #[test]
    fn the_limit_counts_content_not_the_terminator() {
        const LIMIT: usize = 8;
        for terminator in ["\n", "\r\n"] {
            for len in [LIMIT - 1, LIMIT, LIMIT + 1] {
                let content = "x".repeat(len);
                let lines = read_lines(&format!("{content}{terminator}next{terminator}"), LIMIT);
                let first = (len <= LIMIT).then(|| content.clone());
                assert_eq!(
                    lines,
                    [first, Some("next".to_owned())],
                    "{len} content bytes + {terminator:?}"
                );
            }
        }
    }

    #[test]
    fn a_cut_off_line_is_drained_to_the_next_request() {
        let lines = read_lines(&format!("{}\r\nnext\nlast", "x".repeat(100)), 8);
        let expected = [None, Some("next".to_owned()), Some("last".to_owned())];
        assert_eq!(lines, expected);
    }
}
