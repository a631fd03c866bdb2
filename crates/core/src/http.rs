//! A minimal, std-only HTTP/1.1 transport for the v2 service protocol.
//!
//! `warlockd --http ADDR` serves the exact op set of
//! [`crate::service`] as `POST /v2/<op>`: the JSON request body carries
//! the remaining request fields (`id`, `warehouse`, `params` — an empty
//! body means none), and the response body is the same JSON envelope
//! the line protocol writes. One request per connection
//! (`Connection: close`), one thread per connection — deliberately the
//! simplest thing that lets `curl`, load balancers and dashboards talk
//! to the advisor without a custom client:
//!
//! ```text
//! $ curl -s http://127.0.0.1:7342/v2/rank -d '{"warehouse":"eu"}'
//! {"v":2,"id":null,"ok":true,"result":{…}}
//! ```
//!
//! Error kinds map onto status codes (`bad_request`/
//! `unsupported_version` → 400, `unknown_op`/`unknown_warehouse` → 404,
//! over-limit bodies → 413, `internal` → 500, other advisory errors →
//! 422); the body always carries the full typed JSON error, so HTTP
//! clients see exactly what line-protocol clients see.
//!
//! The module also provides [`ShutdownSignal`], the cross-transport
//! stop flag: a `shutdown` op arriving over *any* transport trips it,
//! and every accept loop — HTTP here, the TCP line protocol in
//! `warlockd` — is woken deterministically by a self-connect instead of
//! blocking in `accept` until a next client happens to arrive.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use warlock_json::Json;

use crate::service::{Service, ServiceReply, PROTOCOL_VERSION};

/// How many bytes of request line + headers an HTTP request may use.
/// Generous for hand-written clients, far below any memory concern.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A cross-transport shutdown flag with deterministic accept-loop
/// wakeup. Accept loops [`register`](ShutdownSignal::register) their
/// listening address and check [`is_stopped`](ShutdownSignal::is_stopped)
/// after every accepted connection; [`trigger`](ShutdownSignal::trigger)
/// sets the flag and then **self-connects** to every registered
/// listener, so a loop blocked in `accept` wakes immediately instead of
/// waiting for the next real client.
#[derive(Debug, Default)]
pub struct ShutdownSignal {
    stopped: AtomicBool,
    listeners: Mutex<Vec<SocketAddr>>,
}

impl ShutdownSignal {
    /// A fresh, untriggered signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a listening address to be woken by
    /// [`trigger`](ShutdownSignal::trigger). A listener that registers
    /// *after* the signal already tripped is woken immediately, so a
    /// shutdown racing a transport's startup can never leave its accept
    /// loop blocked forever.
    pub fn register(&self, addr: SocketAddr) {
        self.listeners
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(addr);
        if self.is_stopped() {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    /// Whether shutdown was requested.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Requests shutdown and wakes every registered accept loop.
    pub fn trigger(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        let listeners = self
            .listeners
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        for addr in listeners {
            // The connection content is irrelevant — accepting it is
            // what unblocks the loop; it observes the flag and exits.
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }
}

/// The pieces of one parsed HTTP request this transport cares about.
struct HttpRequest {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// A transport-level failure to answer with a plain status + typed JSON
/// error body.
struct HttpError {
    status: u16,
    reply: ServiceReply,
}

impl HttpError {
    fn new(status: u16, kind: &'static str, message: &str) -> Self {
        Self {
            status,
            reply: ServiceReply::error(kind, message),
        }
    }
}

/// The accept loop of every network transport: accepts connections on
/// `listener` until `shutdown` trips, handling each on a thread of its
/// own. A handler returning `true` — its client asked the whole server
/// to stop and was answered — trips `shutdown`, which wakes this loop
/// and every other registered one.
pub fn accept_until_shutdown<H>(listener: TcpListener, shutdown: &Arc<ShutdownSignal>, handle: H)
where
    H: Fn(TcpStream) -> bool + Send + Sync + 'static,
{
    if let Ok(addr) = listener.local_addr() {
        shutdown.register(addr);
    }
    let handle = Arc::new(handle);
    for stream in listener.incoming() {
        if shutdown.is_stopped() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let handle = Arc::clone(&handle);
        let shutdown = Arc::clone(shutdown);
        std::thread::spawn(move || {
            if handle(stream) {
                shutdown.trigger();
            }
        });
    }
}

/// Serves the v2 protocol over HTTP until `shutdown` trips (from a
/// request on this transport or any other). One thread per connection;
/// request bodies above `max_request_bytes` are answered with `413` and
/// a typed `bad_request` JSON error instead of being read.
pub fn serve_http(
    service: Arc<Service>,
    listener: TcpListener,
    max_request_bytes: usize,
    shutdown: Arc<ShutdownSignal>,
) {
    accept_until_shutdown(listener, &shutdown, move |stream| {
        handle_connection(&service, stream, max_request_bytes)
    });
}

/// Handles one connection (one request); returns `true` when the client
/// asked the whole server to shut down.
fn handle_connection(service: &Service, stream: TcpStream, max_request_bytes: usize) -> bool {
    // A stuck or malicious client must not pin the thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    match read_request(&mut BufReader::new(&stream), max_request_bytes) {
        Err(e) => {
            write_response(&stream, e.status, &e.reply.line);
            false
        }
        Ok(request) => {
            let reply = dispatch(service, &request);
            let status = match reply {
                Err(ref e) => e.status,
                Ok(ref reply) => match reply.error_kind {
                    None => 200,
                    Some("bad_request") | Some("unsupported_version") => 400,
                    Some("unknown_op") | Some("unknown_warehouse") => 404,
                    Some("internal") => 500,
                    Some(_) => 422,
                },
            };
            let reply = match reply {
                Ok(reply) => reply,
                Err(e) => e.reply,
            };
            write_response(&stream, status, &reply.line);
            reply.shutdown
        }
    }
}

/// Routes `POST /v2/<op>` to the service's shared dispatch.
fn dispatch(service: &Service, request: &HttpRequest) -> Result<ServiceReply, HttpError> {
    if request.method != "POST" {
        return Err(HttpError::new(
            405,
            "bad_request",
            &format!("method {} not allowed (use POST /v2/<op>)", request.method),
        ));
    }
    let op = request
        .path
        .strip_prefix("/v2/")
        .filter(|op| !op.is_empty() && !op.contains('/'))
        .ok_or_else(|| {
            HttpError::new(
                404,
                "unknown_op",
                &format!("unknown path `{}` (use POST /v2/<op>)", request.path),
            )
        })?;
    let body = if request.body.is_empty() {
        Json::object([] as [(&str, Json); 0])
    } else {
        let text = std::str::from_utf8(&request.body)
            .map_err(|_| HttpError::new(400, "bad_request", "request body is not UTF-8"))?;
        warlock_json::parse(text).map_err(|e| {
            HttpError::new(
                400,
                "bad_request",
                &format!("request body is not valid JSON: {e}"),
            )
        })?
    };
    let Json::Obj(members) = body else {
        return Err(HttpError::new(
            400,
            "bad_request",
            "request body must be a JSON object",
        ));
    };
    // The path names the op and pins the protocol version; the body
    // carries everything else (`id`, `warehouse`, `params`).
    let mut request = vec![
        ("v".to_owned(), Json::Int(2)),
        ("op".to_owned(), Json::Str(op.to_owned())),
    ];
    request.extend(members.into_iter().filter(|(k, _)| k != "v" && k != "op"));
    let request = Json::Obj(request);
    // A panicking request (a bug) must not drop the connection without
    // a response: it degrades to a typed 500 echoing the request's id.
    Ok(ServiceReply::catch_panic(
        || service.handle_request(&request),
        || {
            let id = request.get("id").cloned().unwrap_or(Json::Null);
            (PROTOCOL_VERSION, id)
        },
    ))
}

/// Reads one HTTP request: a bounded head, then a `Content-Length`
/// body bounded by `max_request_bytes`. The body comes from the same
/// buffered reader as the head, so bytes read ahead past the head are
/// not lost.
fn read_request<R: BufRead>(
    reader: &mut R,
    max_request_bytes: usize,
) -> Result<HttpRequest, HttpError> {
    let mut head = Vec::new();
    while !head.ends_with(b"\r\n\r\n") {
        let room = MAX_HEAD_BYTES - head.len();
        if room == 0 {
            return Err(HttpError::new(431, "bad_request", "request head too large"));
        }
        match reader
            .by_ref()
            .take(room as u64)
            .read_until(b'\n', &mut head)
        {
            Ok(0) => {
                return Err(HttpError::new(
                    400,
                    "bad_request",
                    "connection closed mid-request",
                ))
            }
            Ok(_) => {}
            Err(e) => {
                return Err(HttpError::new(
                    400,
                    "bad_request",
                    &format!("read failed: {e}"),
                ))
            }
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let path = parts.next().unwrap_or("").to_owned();
    if method.is_empty() || path.is_empty() {
        return Err(HttpError::new(400, "bad_request", "malformed request line"));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    HttpError::new(
                        400,
                        "bad_request",
                        &format!("invalid Content-Length `{}`", value.trim()),
                    )
                })?;
            }
        }
    }
    if content_length > max_request_bytes {
        // Drain (bounded) before answering, so for modestly over-limit
        // bodies the rejection reaches the client instead of being lost
        // to a TCP reset when we close with unread data. The drain is
        // capped — a client declaring an astronomical Content-Length
        // must not pin this thread streaming bytes at us; past the cap
        // we answer and close, unread data or not.
        let drain = content_length.min(max_request_bytes.max(64 * 1024)) as u64;
        let _ = std::io::copy(&mut reader.by_ref().take(drain), &mut std::io::sink());
        return Err(HttpError::new(
            413,
            "bad_request",
            &format!(
                "request body of {content_length} bytes exceeds the {max_request_bytes}-byte limit"
            ),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| HttpError::new(400, "bad_request", &format!("short request body: {e}")))?;
    Ok(HttpRequest { method, path, body })
}

fn write_response(mut stream: &TcpStream, status: u16, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::session::Warlock;
    use warlock_schema::{apb1_like_schema, Apb1Config};
    use warlock_storage::SystemConfig;
    use warlock_workload::apb1_like_mix;

    fn demo_session(disks: u32) -> Warlock {
        Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(disks))
            .mix(apb1_like_mix().unwrap())
            .parallelism(1)
            .build()
            .unwrap()
    }

    struct Server {
        addr: SocketAddr,
        shutdown: Arc<ShutdownSignal>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl Server {
        fn start(max_request_bytes: usize) -> Self {
            let registry = Registry::new("us");
            registry.insert("us", None, demo_session(16)).unwrap();
            registry.insert("eu", None, demo_session(64)).unwrap();
            let service = Arc::new(Service::with_registry(Arc::new(registry)));
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let shutdown = Arc::new(ShutdownSignal::new());
            let thread = {
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || {
                    serve_http(service, listener, max_request_bytes, shutdown)
                })
            };
            Self {
                addr,
                shutdown,
                thread: Some(thread),
            }
        }

        /// Sends one raw HTTP request, returns (status, body).
        fn request(&self, raw: &str) -> (u16, Json) {
            let mut stream = TcpStream::connect(self.addr).unwrap();
            stream.write_all(raw.as_bytes()).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            let status: u16 = response
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("malformed response: {response}"));
            let body = response
                .split("\r\n\r\n")
                .nth(1)
                .unwrap_or_else(|| panic!("no body: {response}"));
            (status, warlock_json::parse(body).unwrap())
        }

        fn post(&self, path: &str, body: &str) -> (u16, Json) {
            self.request(&format!(
                "POST {path} HTTP/1.1\r\nHost: warlockd\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ))
        }
    }

    impl Drop for Server {
        fn drop(&mut self) {
            self.shutdown.trigger();
            if let Some(thread) = self.thread.take() {
                thread.join().unwrap();
            }
        }
    }

    #[test]
    fn post_round_trip_with_routing() {
        let server = Server::start(1 << 20);
        let (status, pong) = server.post("/v2/ping", "");
        assert_eq!(status, 200);
        let result = pong.get("result").unwrap();
        assert_eq!(result.get("warehouse").and_then(Json::as_str), Some("us"));
        assert_eq!(result.get("space_size").and_then(Json::as_u64), Some(168));

        let (status, us) = server.post("/v2/rank", r#"{"id":7}"#);
        assert_eq!(status, 200);
        assert_eq!(us.get("id").and_then(Json::as_i64), Some(7));
        let (status, eu) = server.post("/v2/rank", r#"{"warehouse":"eu"}"#);
        assert_eq!(status, 200);
        assert_ne!(
            us.get("result").unwrap().render(),
            eu.get("result").unwrap().render(),
            "the two warehouses advise differently"
        );
        // Bit-identical to a standalone session on the same inputs.
        use warlock_json::ToJson;
        assert_eq!(
            eu.get("result").unwrap().render(),
            demo_session(64).rank().unwrap().to_json().render()
        );
    }

    #[test]
    fn error_kinds_map_to_status_codes() {
        let server = Server::start(1 << 20);
        let (status, body) = server.post("/v2/frobnicate", "");
        assert_eq!(status, 404);
        assert_eq!(
            body.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("unknown_op")
        );
        let (status, body) = server.post("/v2/rank", r#"{"warehouse":"mars"}"#);
        assert_eq!(status, 404);
        assert_eq!(
            body.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("unknown_warehouse")
        );
        let (status, _) = server.post("/v2/analyze", r#"{"params":{"rank":999}}"#);
        assert_eq!(status, 422);
        let (status, _) = server.post("/v2/rank", "not json");
        assert_eq!(status, 400);
        let (status, _) = server.post("/other/rank", "");
        assert_eq!(status, 404);
        let (status, _) = server.request("GET /v2/rank HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 405);
    }

    #[test]
    fn oversized_bodies_are_rejected_with_a_typed_reply() {
        let server = Server::start(256);
        let huge = format!(r#"{{"params":{{"pad":"{}"}}}}"#, "x".repeat(512));
        let (status, body) = server.post("/v2/ping", &huge);
        assert_eq!(status, 413);
        assert_eq!(
            body.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("bad_request")
        );
        assert!(body.render().contains("exceeds"));
        // The server survives and keeps answering.
        let (status, _) = server.post("/v2/ping", "");
        assert_eq!(status, 200);
    }

    #[test]
    fn head_and_body_in_one_segment_reach_the_handler() {
        let server = Server::start(1 << 20);
        let body = r#"{"id":42,"warehouse":"eu"}"#;
        let raw = format!(
            "POST /v2/ping HTTP/1.1\r\nHost: warlockd\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut stream = TcpStream::connect(server.addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
        // The body the head's buffered read pulled in along with it is
        // still the body the request handler sees.
        let reply = warlock_json::parse(response.split("\r\n\r\n").nth(1).unwrap()).unwrap();
        assert_eq!(reply.get("id").and_then(Json::as_i64), Some(42));
        let warehouse = reply.get("result").and_then(|r| r.get("warehouse"));
        assert_eq!(warehouse.and_then(Json::as_str), Some("eu"));
    }

    #[test]
    fn heads_over_the_limit_are_refused_with_431() {
        // A head of exactly the limit is read; one byte more is refused.
        let head = |len: usize| {
            let start = "POST /v2/ping HTTP/1.1\r\nX-Pad: ";
            let pad = "p".repeat(len - start.len() - "\r\n\r\n".len());
            format!("{start}{pad}\r\n\r\n")
        };
        let exact = head(MAX_HEAD_BYTES);
        assert!(read_request(&mut exact.as_bytes(), 1 << 20).is_ok());
        let over = head(MAX_HEAD_BYTES + 1);
        let refused = read_request(&mut over.as_bytes(), 1 << 20).err().unwrap();
        assert_eq!(refused.status, 431);

        // Over the wire, the refusal reaches the client.
        let server = Server::start(1 << 20);
        let mut stream = TcpStream::connect(server.addr).unwrap();
        let _ = stream.write_all(head(MAX_HEAD_BYTES + 1024).as_bytes());
        // The server closes with the head's tail unread, which may reset
        // the connection after the response: keep what arrived.
        let mut response = Vec::new();
        let mut chunk = [0u8; 4096];
        while let Ok(n @ 1..) = stream.read(&mut chunk) {
            response.extend_from_slice(&chunk[..n]);
        }
        let response = String::from_utf8(response).unwrap();
        assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
        assert!(response.contains("request head too large"));
        // The server keeps answering.
        let (status, _) = server.post("/v2/ping", "");
        assert_eq!(status, 200);
    }

    #[test]
    fn shutdown_over_http_stops_the_accept_loop() {
        let mut server = Server::start(1 << 20);
        let (status, body) = server.post("/v2/shutdown", "");
        assert_eq!(status, 200);
        assert!(body.render().contains("stopping"));
        // The accept loop exits without any further client connecting.
        server.thread.take().unwrap().join().unwrap();
        assert!(server.shutdown.is_stopped());
    }
}
