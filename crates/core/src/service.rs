//! The `warlockd` service layer: a versioned, newline-delimited JSON
//! request protocol dispatched over a registry of named warehouses.
//!
//! The paper frames WARLOCK as an interactive tool — an analyst loads
//! one warehouse description and explores many what-if variations
//! against it. [`Service`] serves that interaction pattern at service
//! scale for **many warehouses at once**: it is a thin dispatcher over a
//! [`Registry`] of named [`Warlock`] sessions. Read requests resolve
//! their warehouse, clone its session handle (cheap — clones share the
//! immutable snapshot and the evaluation cache) and evaluate **without
//! holding any lock**, so concurrent what-ifs run
//! truly in parallel and a variation priced for one client is warm for
//! every other. Mutating ops (`set_mix`, `set_budget`, `reload`) swap
//! one warehouse's session to a new snapshot under a brief write lock;
//! in-flight readers finish on the old snapshot, and sibling warehouses
//! are never disturbed.
//!
//! ## Protocol v2
//!
//! One JSON object per line in, one per line out (stdio, TCP, or the
//! HTTP transport in [`crate::http`] — see the `warlockd` binary):
//!
//! ```text
//! → {"v":2, "id":7, "op":"rank", "warehouse":"eu"}
//! ← {"v":2, "id":7, "ok":true, "result":{"enumerated":168, "ranking":[…], …}}
//! → {"v":2, "id":8, "op":"what_if_disks", "params":{"disks":64}}
//! ← {"v":2, "id":8, "ok":true, "result":{"delta":{…}, "report":{…}}}
//! → {"v":2, "id":9, "op":"rank", "warehouse":"mars"}
//! ← {"v":2, "id":9, "ok":false, "error":{"kind":"unknown_warehouse", "message":"…"}}
//! ```
//!
//! Every op accepts an optional top-level `"warehouse"` routing field;
//! when omitted the request resolves to the registry's **default**
//! warehouse. v2 adds the registry ops `load` (`params.name`/`path`),
//! `unload` (`params.name`), `reload` (`params.name`, default: the
//! routed/default warehouse — atomic copy-on-write re-read of the
//! warehouse's configuration file) and `list_warehouses`, plus
//! `recommend_policy` — the head-to-head allocation-policy judge
//! replaying the mix through the disk simulator under each policy.
//!
//! ## v1 compatibility
//!
//! `v` defaults to [`PROTOCOL_VERSION`] when omitted; `{"v":1}` requests
//! are served through an explicit compat shim: they speak the exact PR-3
//! op set, always resolve to the default warehouse, get `"v":1`
//! responses, and are rejected with `bad_request` if they try to route
//! (`warehouse` is a v2 field) — and with `unknown_op` for the v2
//! registry ops, exactly as a v1 server would have answered. Any other
//! version is rejected with `unsupported_version` so clients fail loudly
//! when the protocol evolves. `id` is echoed verbatim (any JSON value,
//! default `null`).
//!
//! Operations: `rank`, `analyze`, `allocate`, `evaluate`,
//! `what_if_disks`, `what_if_prefetch`,
//! `what_if_without_bitmap_dimension`, `what_if_without_class`,
//! `set_mix`, `set_budget`, `cache_stats`, `ping`, `shutdown`, plus (v2)
//! `load`, `unload`, `reload`, `list_warehouses`, `recommend_policy`,
//! and the resident-optimizer ops `observe_stats`
//! (`params.observations`: array of `{class, count[, mean_latency_ms]}`
//! — feeds the warehouse's drift detector, may auto re-advise),
//! `drift_status`, `advice_events` (`params.limit`, 0/absent = all
//! retained) and `set_auto_advise` (`params.on`).
//!
//! `ping` doubles as a per-warehouse health probe: besides `protocol`
//! and the resolved `warehouse` name it reports the exact `space_size`
//! of the current candidate space (from the lazy source's predictor —
//! no enumeration happens), `enumerated` from the cached baseline
//! ranking (`null` until one was computed), and the warehouse's
//! `cache_stats`. `list_warehouses` reports the same counters for every
//! loaded warehouse. `set_budget` adjusts the streaming knobs
//! (`max_candidates`, `chunk_size`) of the routed warehouse.

use std::sync::Arc;

use warlock_json::{Json, ToJson};
use warlock_workload::QueryMix;

use crate::error::WarlockError;
use crate::registry::{Registry, Warehouse};
use crate::serial::FragmentationAttr;
use crate::session::Warlock;

/// The current wire protocol version `warlockd` speaks.
pub const PROTOCOL_VERSION: i64 = 2;

/// The oldest protocol version still served (via the compat shim).
pub const MIN_PROTOCOL_VERSION: i64 = 1;

/// A request outcome the server loop acts on: the response line to
/// write, whether the client asked the service to stop, and the error
/// kind (for transports that map kinds to status codes).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReply {
    /// The serialized JSON response (no trailing newline).
    pub line: String,
    /// `true` after a `shutdown` request was acknowledged.
    pub shutdown: bool,
    /// The error kind of a failed request (`None` on success), so
    /// transports like HTTP can pick a status code without re-parsing
    /// the response.
    pub error_kind: Option<&'static str>,
}

impl ServiceReply {
    /// A standalone error reply outside any request dispatch — used by
    /// server loops for failures the service never saw (oversized
    /// requests, panicking handlers). The envelope speaks the current
    /// protocol version and carries a `null` id; use
    /// [`error_for_request`](ServiceReply::error_for_request) when the
    /// failing request is known.
    pub fn error(kind: &'static str, message: &str) -> Self {
        Self::error_for_request(PROTOCOL_VERSION, Json::Null, kind, message)
    }

    /// Like [`error`](ServiceReply::error), in the failing request's
    /// envelope version and echoing its `id` — so v1 clients get
    /// `"v":1`, and pipelining clients can match the reply, even on
    /// panic-path replies.
    pub fn error_for_request(version: i64, id: Json, kind: &'static str, message: &str) -> Self {
        let line = Json::object([
            ("v", Json::Int(version)),
            ("id", id),
            ("ok", Json::Bool(false)),
            (
                "error",
                Json::object([("kind", kind.to_json()), ("message", message.to_json())]),
            ),
        ])
        .render();
        Self {
            line,
            shutdown: false,
            error_kind: Some(kind),
        }
    }

    /// Runs one request's handler and returns its reply. A panicking
    /// handler (a bug) must neither take a transport down nor leave its
    /// client unanswered: it degrades to a typed `internal` error in the
    /// envelope `envelope` names — the request's version and `id`, so
    /// v1 clients get `"v":1` and pipelining clients can match it. The
    /// one panic fallback of every transport.
    pub fn catch_panic(
        handle: impl FnOnce() -> ServiceReply,
        envelope: impl FnOnce() -> (i64, Json),
    ) -> ServiceReply {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(handle)).unwrap_or_else(|_| {
            let (version, id) = envelope();
            Self::error_for_request(version, id, "internal", "request handler panicked")
        })
    }

    /// The version a raw request line claims to speak, for shaping
    /// replies the service itself never produced (panic fallbacks).
    /// Unparseable lines report the current version.
    pub fn request_version(line: &str) -> i64 {
        warlock_json::parse(line)
            .ok()
            .and_then(|r| r.get("v").and_then(Json::as_i64))
            .filter(|v| (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(v))
            .unwrap_or(PROTOCOL_VERSION)
    }

    /// The `id` a raw request line carries, for echoing in replies the
    /// service itself never produced (panic fallbacks). `null` when the
    /// line is unparseable or has none.
    pub fn request_id(line: &str) -> Json {
        warlock_json::parse(line)
            .ok()
            .and_then(|r| r.get("id").cloned())
            .unwrap_or(Json::Null)
    }
}

/// A long-lived advisory service dispatching over a [`Registry`] of
/// named warehouses. See the [module docs](self).
#[derive(Debug)]
pub struct Service {
    registry: Arc<Registry>,
}

/// A protocol-level failure (malformed request, unknown op), distinct
/// from the advisory [`WarlockError`]s.
struct BadRequest {
    kind: &'static str,
    message: String,
}

impl BadRequest {
    fn new(kind: &'static str, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }
}

enum ReplyError {
    Bad(BadRequest),
    Warlock(WarlockError),
}

impl From<WarlockError> for ReplyError {
    fn from(e: WarlockError) -> Self {
        Self::Warlock(e)
    }
}

impl ReplyError {
    fn kind_and_message(&self) -> (&'static str, String) {
        match self {
            Self::Bad(b) => (b.kind, b.message.clone()),
            Self::Warlock(e) => (e.kind(), e.to_string()),
        }
    }
}

type OpResult = Result<Json, ReplyError>;

fn bad(kind: &'static str, message: impl Into<String>) -> ReplyError {
    ReplyError::Bad(BadRequest::new(kind, message))
}

/// `params.key` as a u64, or an error naming the field.
fn u64_param(params: &Json, key: &str) -> Result<u64, ReplyError> {
    params.get(key).and_then(Json::as_u64).ok_or_else(|| {
        bad(
            "bad_request",
            format!("`params.{key}` must be an unsigned integer"),
        )
    })
}

fn str_param<'a>(params: &'a Json, key: &str) -> Result<&'a str, ReplyError> {
    params
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| bad("bad_request", format!("`params.{key}` must be a string")))
}

/// 1-based rank parameter, defaulting to 1 (the winner).
fn rank_param(params: &Json) -> Result<usize, ReplyError> {
    match params.get("rank") {
        None => Ok(1),
        Some(v) => v
            .as_usize()
            .filter(|&r| r > 0)
            .ok_or_else(|| bad("bad_request", "`params.rank` must be a positive integer")),
    }
}

/// The ping result, shaped for the negotiated version: v1 clients get
/// the exact PR-3 shape (`protocol: 1`, no `warehouse` field) so probes
/// written against the old server keep passing.
fn warehouse_ping(version: i64, warehouse: &Warehouse) -> Json {
    let session = warehouse.session();
    let enumerated = match session.ranking() {
        Some(report) => report.enumerated.to_json(),
        None => Json::Null,
    };
    let mut fields = vec![("protocol", Json::Int(version))];
    if version >= 2 {
        fields.push(("warehouse", warehouse.name().to_json()));
    }
    fields.extend([
        ("space_size", session.candidate_space_size().to_json()),
        ("enumerated", enumerated),
        ("cache_stats", session.cache_stats().to_json()),
    ]);
    Json::object(fields)
}

fn cost_json(cost: &warlock_cost::CandidateCost, label: String) -> Json {
    Json::object([
        ("label", label.to_json()),
        ("num_fragments", cost.num_fragments.to_json()),
        ("io_cost_ms", cost.io_cost_ms.to_json()),
        ("response_ms", cost.response_ms.to_json()),
        ("total_ios", cost.total_ios.to_json()),
        ("total_pages", cost.total_pages.to_json()),
    ])
}

/// A what-if reply: the delta against the baseline, then the report.
fn what_if_json((report, delta): (crate::AdvisorReport, crate::TuningDelta)) -> Json {
    Json::object([("delta", delta.to_json()), ("report", report.to_json())])
}

impl Service {
    /// Wraps a single programmatic session for service use: a registry
    /// holding it under the name `"default"`, which is also the default
    /// route.
    pub fn new(session: Warlock) -> Self {
        Self::with_registry(Arc::new(Registry::single("default", session)))
    }

    /// A dispatcher over an existing (possibly shared) registry.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        Self { registry }
    }

    /// The warehouse registry this service dispatches over.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Handles one request line, returning the response line. Never
    /// panics on malformed input — every failure is a JSON error
    /// response.
    pub fn handle_line(&self, line: &str) -> ServiceReply {
        match warlock_json::parse(line) {
            Ok(request) => self.handle_request(&request),
            Err(e) => self.reply(
                PROTOCOL_VERSION,
                Json::Null,
                Err(bad(
                    "bad_request",
                    format!("request is not valid JSON: {e}"),
                )),
                false,
            ),
        }
    }

    /// Handles one already-parsed request object — the shared dispatch
    /// path of the line protocol and the HTTP transport.
    pub fn handle_request(&self, request: &Json) -> ServiceReply {
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        match self.negotiate_version(request) {
            Err(e) => self.reply(PROTOCOL_VERSION, id, Err(e), false),
            Ok(version) => {
                let op = request.get("op").and_then(Json::as_str).unwrap_or("");
                let outcome = self.dispatch(version, request);
                // Only a well-formed, successful shutdown stops the
                // server.
                let shutdown = op == "shutdown" && outcome.is_ok();
                self.reply(version, id, outcome, shutdown)
            }
        }
    }

    fn reply(&self, version: i64, id: Json, outcome: OpResult, shutdown: bool) -> ServiceReply {
        match outcome {
            Ok(result) => ServiceReply {
                line: Json::object([
                    ("v", Json::Int(version)),
                    ("id", id),
                    ("ok", Json::Bool(true)),
                    ("result", result),
                ])
                .render(),
                shutdown,
                error_kind: None,
            },
            Err(e) => {
                let (kind, message) = e.kind_and_message();
                ServiceReply::error_for_request(version, id, kind, &message)
            }
        }
    }

    /// The protocol version this request speaks: absent → the current
    /// version; 1 → the compat shim; anything else → rejected.
    fn negotiate_version(&self, request: &Json) -> Result<i64, ReplyError> {
        match request.get("v") {
            None => Ok(PROTOCOL_VERSION),
            Some(v) => match v.as_i64() {
                Some(n) if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&n) => Ok(n),
                _ => Err(bad(
                    "unsupported_version",
                    format!(
                        "protocol version {} is not supported \
                         (speak v{MIN_PROTOCOL_VERSION}..=v{PROTOCOL_VERSION})",
                        v.render()
                    ),
                )),
            },
        }
    }

    fn dispatch(&self, version: i64, request: &Json) -> OpResult {
        let op = request
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("bad_request", "`op` must be a string"))?;
        let params = request.get("params").cloned().unwrap_or(Json::Null);
        let route = match request.get("warehouse") {
            None => None,
            Some(Json::Str(name)) if version >= 2 => Some(name.as_str()),
            Some(Json::Str(_)) => {
                return Err(bad(
                    "bad_request",
                    "`warehouse` routing requires protocol v2 (this request speaks v1)",
                ))
            }
            Some(_) => return Err(bad("bad_request", "`warehouse` must be a string")),
        };
        // The v2 registry ops. In a v1 request they fall through to the
        // `unknown_op` arm below — exactly what a v1 server answered.
        if version >= 2 {
            match op {
                "load" => {
                    let name = str_param(&params, "name")?;
                    let path = str_param(&params, "path")?;
                    self.registry.load(name, path)?;
                    return Ok(self.registry.stats(name)?.to_json());
                }
                "unload" => {
                    let name = str_param(&params, "name")?;
                    self.registry.unload(name)?;
                    return Ok(Json::object([("unloaded", name.to_json())]));
                }
                "reload" => {
                    // An explicit `params.name` wins; otherwise the
                    // routed (or default) warehouse is reloaded.
                    let name = match params.get("name") {
                        None => self.registry.resolve(route).map(|w| w.name().to_owned())?,
                        Some(v) => v
                            .as_str()
                            .ok_or_else(|| bad("bad_request", "`params.name` must be a string"))?
                            .to_owned(),
                    };
                    self.registry.reload(&name)?;
                    return Ok(self.registry.stats(&name)?.to_json());
                }
                "list_warehouses" => {
                    let warehouses: Vec<Json> =
                        self.registry.list().iter().map(ToJson::to_json).collect();
                    return Ok(Json::object([
                        ("default", self.registry.default_name().to_json()),
                        ("warehouses", warehouses.to_json()),
                    ]));
                }
                "recommend_policy" => {
                    let session = self.registry.resolve(route)?.session();
                    return Ok(session.recommend_policy()?.to_json());
                }
                "observe_stats" => {
                    let observations = params
                        .get("observations")
                        .and_then(Json::as_array)
                        .ok_or_else(|| {
                            bad("bad_request", "`params.observations` must be an array")
                        })?;
                    let batch: Vec<crate::workload::ClassObservation> = observations
                        .iter()
                        .map(crate::serial::observation_from_json)
                        .collect::<Result<_, _>>()
                        .map_err(WarlockError::Json)?;
                    // `observe` may adopt the observed mix (auto
                    // re-advise), so it routes through the write
                    // session like `set_mix`.
                    let warehouse = self.registry.resolve(route)?;
                    let mut session = warehouse.write_session();
                    return Ok(session.observe(&batch)?.to_json());
                }
                "drift_status" => {
                    let session = self.registry.resolve(route)?.session();
                    return Ok(session.drift_status().to_json());
                }
                "advice_events" => {
                    let limit = match params.get("limit") {
                        None => 0,
                        Some(v) => v.as_usize().ok_or_else(|| {
                            bad("bad_request", "`params.limit` must be an unsigned integer")
                        })?,
                    };
                    let session = self.registry.resolve(route)?.session();
                    let events: Vec<Json> = session
                        .advice_events(limit)
                        .iter()
                        .map(ToJson::to_json)
                        .collect();
                    return Ok(Json::object([("events", events.to_json())]));
                }
                "set_auto_advise" => {
                    let on = params
                        .get("on")
                        .and_then(Json::as_bool)
                        .ok_or_else(|| bad("bad_request", "`params.on` must be a boolean"))?;
                    let warehouse = self.registry.resolve(route)?;
                    let mut session = warehouse.write_session();
                    session.set_auto_advise(on)?;
                    return Ok(session.drift_status().to_json());
                }
                _ => {}
            }
        }
        match op {
            "ping" => {
                // A health probe must stay cheap: the space size comes
                // from the source's exact predictor (no enumeration),
                // and `enumerated` only reflects an already-cached
                // baseline ranking — never triggers one.
                let warehouse = self.registry.resolve(route)?;
                Ok(warehouse_ping(version, &warehouse))
            }
            "shutdown" => Ok(Json::object([("stopping", Json::Bool(true))])),
            "rank" => {
                let session = self.registry.resolve(route)?.session();
                Ok(session.rank()?.to_json())
            }
            "analyze" => {
                let rank = rank_param(&params)?;
                let session = self.registry.resolve(route)?.session();
                Ok(session.analyze(rank)?.to_json())
            }
            "allocate" => {
                let rank = rank_param(&params)?;
                let session = self.registry.resolve(route)?.session();
                Ok(session.plan_allocation(rank)?.to_json())
            }
            "evaluate" => {
                let attrs = params
                    .get("fragmentation")
                    .and_then(Json::as_array)
                    .ok_or_else(|| bad("bad_request", "`params.fragmentation` must be an array"))?;
                let attrs: Vec<FragmentationAttr> = attrs
                    .iter()
                    .map(warlock_json::FromJson::from_json)
                    .collect::<Result<_, _>>()
                    .map_err(WarlockError::Json)?;
                let fragmentation = FragmentationAttr::to_fragmentation(&attrs)?;
                let session = self.registry.resolve(route)?.session();
                let cost = session.evaluate(&fragmentation)?;
                Ok(cost_json(&cost, fragmentation.label(session.schema())))
            }
            "what_if_disks" => {
                let disks = u32::try_from(u64_param(&params, "disks")?)
                    .map_err(|_| bad("bad_request", "`params.disks` out of range"))?;
                let session = self.registry.resolve(route)?.session();
                Ok(what_if_json(session.what_if_disks(disks)?))
            }
            "what_if_prefetch" => {
                let pages = u32::try_from(u64_param(&params, "pages")?)
                    .map_err(|_| bad("bad_request", "`params.pages` out of range"))?;
                let session = self.registry.resolve(route)?.session();
                Ok(what_if_json(session.what_if_fixed_prefetch(pages)?))
            }
            "what_if_without_bitmap_dimension" => {
                let dimension = u16::try_from(u64_param(&params, "dimension")?)
                    .map_err(|_| bad("bad_request", "`params.dimension` out of range"))?;
                let session = self.registry.resolve(route)?.session();
                Ok(what_if_json(session.what_if_without_bitmap_dimension(
                    warlock_schema::DimensionId(dimension),
                )?))
            }
            "what_if_without_class" => {
                let name = str_param(&params, "class")?;
                let session = self.registry.resolve(route)?.session();
                Ok(what_if_json(session.what_if_without_class(name)?))
            }
            "set_mix" => self.set_mix(&*self.registry.resolve(route)?, &params),
            "set_budget" => self.set_budget(&*self.registry.resolve(route)?, &params),
            "cache_stats" => Ok(self
                .registry
                .resolve(route)?
                .session()
                .cache_stats()
                .to_json()),
            other => Err(bad("unknown_op", format!("unknown op `{other}`"))),
        }
    }

    /// Re-weights a warehouse's mix: `params.weights` maps class names
    /// to new (raw) weights; classes absent from the map are dropped.
    /// Unknown names fail with `unknown_class`, and the mix must keep
    /// at least one positively-weighted class. The swap happens under a
    /// brief write lock — in-flight readers keep their snapshot.
    fn set_mix(&self, warehouse: &Warehouse, params: &Json) -> OpResult {
        let weights = match params.get("weights") {
            Some(Json::Obj(members)) => members.clone(),
            _ => return Err(bad("bad_request", "`params.weights` must be an object")),
        };
        let mut session = warehouse.write_session();
        let current = session.mix().clone();
        for (name, _) in &weights {
            if current.class_by_name(name).is_none() {
                return Err(WarlockError::UnknownClass { name: name.clone() }.into());
            }
        }
        let mut builder = QueryMix::builder();
        for weighted in current.classes() {
            let name = weighted.class.name();
            if let Some((_, w)) = weights.iter().find(|(n, _)| n == name) {
                let weight = w.as_f64().ok_or_else(|| {
                    bad(
                        "bad_request",
                        format!("`params.weights.{name}` must be a number"),
                    )
                })?;
                builder = builder.class(weighted.class.clone(), weight);
            }
        }
        let mix = builder.build().map_err(WarlockError::Workload)?;
        session.set_mix(mix)?;
        let classes: Vec<Json> = session
            .mix()
            .classes()
            .iter()
            .map(|w| {
                Json::object([
                    ("name", w.class.name().to_json()),
                    ("share", w.share.to_json()),
                ])
            })
            .collect();
        Ok(Json::object([("classes", classes.to_json())]))
    }

    /// Adjusts a warehouse's streaming knobs: `params.max_candidates`
    /// (0 = unlimited) and/or `params.chunk_size` (0 = auto). Echoes the
    /// effective values plus the exact candidate-space size, so a client
    /// immediately sees whether the budget would admit the current
    /// space. Swaps under a brief write lock; in-flight readers keep
    /// their snapshot.
    fn set_budget(&self, warehouse: &Warehouse, params: &Json) -> OpResult {
        let max_candidates = match params.get("max_candidates") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                bad(
                    "bad_request",
                    "`params.max_candidates` must be an unsigned integer",
                )
            })?),
        };
        let chunk_size = match params.get("chunk_size") {
            None => None,
            Some(v) => Some(v.as_usize().ok_or_else(|| {
                bad(
                    "bad_request",
                    "`params.chunk_size` must be an unsigned integer",
                )
            })?),
        };
        if max_candidates.is_none() && chunk_size.is_none() {
            return Err(bad(
                "bad_request",
                "`params` must set `max_candidates` and/or `chunk_size`",
            ));
        }
        let mut session = warehouse.write_session();
        let mut config = session.config().clone();
        if let Some(budget) = max_candidates {
            config.max_candidates = budget;
        }
        if let Some(chunk) = chunk_size {
            config.chunk_size = chunk;
        }
        session.set_config(config)?;
        Ok(Json::object([
            ("max_candidates", session.config().max_candidates.to_json()),
            ("chunk_size", session.config().chunk_size.to_json()),
            ("space_size", session.candidate_space_size().to_json()),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn service() -> Service {
        Service::new(demo_session(16))
    }

    /// A two-warehouse service: `us` (default, 16 disks) and `eu`
    /// (64 disks).
    fn two_warehouse_service() -> Service {
        let registry = Registry::new("us");
        registry.insert("us", None, demo_session(16)).unwrap();
        registry.insert("eu", None, demo_session(64)).unwrap();
        Service::with_registry(Arc::new(registry))
    }

    fn ok_result(service: &Service, line: &str) -> Json {
        let reply = service.handle_line(line);
        assert_eq!(reply.error_kind, None, "{}", reply.line);
        let json = warlock_json::parse(&reply.line).unwrap();
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            reply.line
        );
        json.get("result").unwrap().clone()
    }

    fn err_kind(service: &Service, line: &str) -> String {
        let reply = service.handle_line(line);
        let json = warlock_json::parse(&reply.line).unwrap();
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
        let kind = json
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        assert_eq!(reply.error_kind, Some(kind.as_str()), "kinds must agree");
        kind
    }

    #[test]
    fn rank_round_trip_and_id_echo() {
        let service = service();
        let reply = service.handle_line(r#"{"v":2,"id":{"seq":7},"op":"rank"}"#);
        assert!(!reply.shutdown);
        let json = warlock_json::parse(&reply.line).unwrap();
        assert_eq!(json.get("v").and_then(Json::as_i64), Some(2));
        assert_eq!(
            json.get("id").unwrap().render(),
            r#"{"seq":7}"#,
            "ids echo verbatim"
        );
        let result = json.get("result").unwrap();
        assert!(!result
            .get("ranking")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn recommend_policy_is_a_v2_op() {
        let service = service();
        let result = ok_result(&service, r#"{"op":"recommend_policy"}"#);
        let recommended = result.get("recommended").and_then(Json::as_str).unwrap();
        assert!(["round_robin", "greedy", "graph"].contains(&recommended));
        let verdicts = result.get("verdicts").and_then(Json::as_array).unwrap();
        assert_eq!(verdicts.len(), 3);
        for v in verdicts {
            assert!(v.get("makespan_ms").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(v.get("scheme").and_then(Json::as_str).is_some());
        }
        // A pre-judge v1 client never knew the op; it must still see
        // `unknown_op`, exactly as the old server answered.
        assert_eq!(
            err_kind(&service, r#"{"v":1,"op":"recommend_policy"}"#),
            "unknown_op"
        );
    }

    #[test]
    fn v1_compat_requests_keep_working_unchanged() {
        let service = two_warehouse_service();
        // A v1 request: answered as v1, resolved to the default
        // warehouse.
        let reply = service.handle_line(r#"{"v":1,"id":1,"op":"rank"}"#);
        let json = warlock_json::parse(&reply.line).unwrap();
        assert_eq!(
            json.get("v").and_then(Json::as_i64),
            Some(1),
            "{}",
            reply.line
        );
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
        let v1_result = json.get("result").unwrap().render();
        // …which is bit-identical to an explicitly routed v2 rank of the
        // default warehouse.
        let v2_result = ok_result(&service, r#"{"v":2,"op":"rank","warehouse":"us"}"#);
        assert_eq!(v1_result, v2_result.render());

        // Routing is a v2 feature: the shim rejects it loudly rather
        // than silently ignoring the field.
        assert_eq!(
            err_kind(&service, r#"{"v":1,"op":"rank","warehouse":"eu"}"#),
            "bad_request"
        );
        // The v2 registry ops answer `unknown_op` under v1, exactly as a
        // v1 server would have.
        assert_eq!(
            err_kind(&service, r#"{"v":1,"op":"list_warehouses"}"#),
            "unknown_op"
        );
        assert_eq!(err_kind(&service, r#"{"v":1,"op":"reload"}"#), "unknown_op");
        // A v1 ping keeps the exact PR-3 shape: protocol 1, no
        // `warehouse` field — health probes written against the old
        // server keep passing.
        let reply = service.handle_line(r#"{"v":1,"op":"ping"}"#);
        let pong = warlock_json::parse(&reply.line).unwrap();
        let result = pong.get("result").unwrap();
        assert_eq!(result.get("protocol").and_then(Json::as_i64), Some(1));
        assert_eq!(result.get("warehouse"), None);
        assert_eq!(result.get("space_size").and_then(Json::as_u64), Some(168));
    }

    #[test]
    fn routing_selects_the_named_warehouse() {
        let service = two_warehouse_service();
        let us = ok_result(&service, r#"{"op":"rank","warehouse":"us"}"#);
        let eu = ok_result(&service, r#"{"op":"rank","warehouse":"eu"}"#);
        assert_ne!(us.render(), eu.render());
        // Unrouted requests resolve to the default warehouse.
        let unrouted = ok_result(&service, r#"{"op":"rank"}"#);
        assert_eq!(unrouted.render(), us.render());
        // Routed reports are bit-identical to a standalone session on
        // the same inputs.
        let standalone = demo_session(64);
        assert_eq!(eu.render(), standalone.rank().unwrap().to_json().render());

        assert_eq!(
            err_kind(&service, r#"{"op":"rank","warehouse":"mars"}"#),
            "unknown_warehouse"
        );
        assert_eq!(
            err_kind(&service, r#"{"op":"rank","warehouse":7}"#),
            "bad_request"
        );
    }

    #[test]
    fn registry_ops_over_the_wire() {
        let service = two_warehouse_service();
        let listed = ok_result(&service, r#"{"op":"list_warehouses"}"#);
        assert_eq!(listed.get("default").and_then(Json::as_str), Some("us"));
        let warehouses = listed.get("warehouses").unwrap().as_array().unwrap();
        assert_eq!(warehouses.len(), 2);
        assert_eq!(
            warehouses[0].get("name").and_then(Json::as_str),
            Some("eu"),
            "sorted by name"
        );
        assert_eq!(
            warehouses[0].get("space_size").and_then(Json::as_u64),
            Some(168)
        );

        // Load a third warehouse from a config file, route to it, unload
        // it again.
        let path = std::env::temp_dir().join(format!(
            "warlock-service-load-{}-{:?}.cfg",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(
            &path,
            crate::config_file::render_config(&crate::config_file::demo_config()),
        )
        .unwrap();
        let request = format!(
            r#"{{"op":"load","params":{{"name":"apac","path":{}}}}}"#,
            Json::Str(path.display().to_string()).render()
        );
        let loaded = ok_result(&service, &request);
        assert_eq!(loaded.get("name").and_then(Json::as_str), Some("apac"));
        assert_eq!(
            loaded.get("path").and_then(Json::as_str),
            Some(path.display().to_string().as_str())
        );
        assert_eq!(err_kind(&service, &request), "duplicate_warehouse");
        let pong = ok_result(&service, r#"{"op":"ping","warehouse":"apac"}"#);
        assert_eq!(pong.get("warehouse").and_then(Json::as_str), Some("apac"));

        // Unloading the default warehouse is refused — every unrouted
        // and v1 request would dead-end.
        assert_eq!(
            err_kind(&service, r#"{"op":"unload","params":{"name":"us"}}"#),
            "config"
        );

        let _ = ok_result(&service, r#"{"op":"unload","params":{"name":"apac"}}"#);
        assert_eq!(
            err_kind(&service, r#"{"op":"ping","warehouse":"apac"}"#),
            "unknown_warehouse"
        );
        assert_eq!(
            err_kind(&service, r#"{"op":"unload","params":{"name":"apac"}}"#),
            "unknown_warehouse"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn reload_over_the_wire_swaps_the_routed_warehouse() {
        let path = std::env::temp_dir().join(format!(
            "warlock-service-reload-{}-{:?}.cfg",
            std::process::id(),
            std::thread::current().id()
        ));
        let cfg = crate::config_file::render_config(&crate::config_file::demo_config());
        std::fs::write(&path, &cfg).unwrap();
        let registry = Registry::new("main");
        registry.load("main", path.display().to_string()).unwrap();
        let service = Service::with_registry(Arc::new(registry));

        let baseline = ok_result(&service, r#"{"op":"rank"}"#);
        std::fs::write(&path, cfg.replace("disks = 16", "disks = 64")).unwrap();
        // The running service still answers from the old snapshot until
        // an explicit reload.
        assert_eq!(
            ok_result(&service, r#"{"op":"rank"}"#).render(),
            baseline.render()
        );
        let stats = ok_result(&service, r#"{"op":"reload"}"#);
        assert_eq!(stats.get("name").and_then(Json::as_str), Some("main"));
        let after = ok_result(&service, r#"{"op":"rank"}"#);
        assert_ne!(after.render(), baseline.render());

        // Reloads of pathless or unknown warehouses are typed failures.
        std::fs::write(&path, "[dimension broken\n").unwrap();
        assert_eq!(err_kind(&service, r#"{"op":"reload"}"#), "reload_failed");
        assert_eq!(
            ok_result(&service, r#"{"op":"rank"}"#).render(),
            after.render(),
            "failed reload must keep the current snapshot"
        );
        assert_eq!(
            err_kind(&service, r#"{"op":"reload","params":{"name":"ghost"}}"#),
            "unknown_warehouse"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_allocate_and_evaluate() {
        let service = service();
        let analysis = ok_result(&service, r#"{"op":"analyze"}"#);
        assert!(!analysis
            .get("per_class")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        let allocation = ok_result(&service, r#"{"op":"allocate","params":{"rank":1}}"#);
        assert_eq!(
            allocation.get("disks").unwrap().as_array().unwrap().len(),
            16
        );
        let cost = ok_result(
            &service,
            r#"{"op":"evaluate","params":{"fragmentation":[{"dimension":2,"level":2,"range":1}]}}"#,
        );
        assert_eq!(cost.get("label").and_then(Json::as_str), Some("time.month"));
        assert!(cost.get("response_ms").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn what_ifs_and_cache_stats() {
        let service = service();
        let first = ok_result(&service, r#"{"op":"what_if_disks","params":{"disks":64}}"#);
        assert!(first.get("delta").unwrap().get("variation").is_some());
        let misses_after_first = ok_result(&service, r#"{"op":"cache_stats"}"#)
            .get("misses")
            .and_then(Json::as_u64)
            .unwrap();
        let _ = ok_result(&service, r#"{"op":"what_if_disks","params":{"disks":64}}"#);
        let misses_after_second = ok_result(&service, r#"{"op":"cache_stats"}"#)
            .get("misses")
            .and_then(Json::as_u64)
            .unwrap();
        assert_eq!(
            misses_after_first, misses_after_second,
            "repeat what-if must be served from the shared cache"
        );
        let prefetch = ok_result(
            &service,
            r#"{"op":"what_if_prefetch","params":{"pages":4}}"#,
        );
        assert!(prefetch.get("report").is_some());
        let nobitmaps = ok_result(
            &service,
            r#"{"op":"what_if_without_bitmap_dimension","params":{"dimension":0}}"#,
        );
        assert!(nobitmaps.get("delta").is_some());
    }

    #[test]
    fn set_mix_reshapes_only_the_routed_warehouse() {
        let service = two_warehouse_service();
        let us_baseline = ok_result(&service, r#"{"op":"rank","warehouse":"us"}"#);
        let eu_baseline = ok_result(&service, r#"{"op":"rank","warehouse":"eu"}"#);
        // Keep only two classes on `us`.
        let result = ok_result(
            &service,
            r#"{"op":"set_mix","warehouse":"us","params":{"weights":{"q01_month_store_code":3,"q02_month_class":1}}}"#,
        );
        let classes = result.get("classes").unwrap().as_array().unwrap();
        assert_eq!(classes.len(), 2);
        assert!((classes[0].get("share").and_then(Json::as_f64).unwrap() - 0.75).abs() < 1e-9);
        // `us` now advises on the reduced mix; `eu` is untouched.
        let after = ok_result(&service, r#"{"op":"rank","warehouse":"us"}"#);
        assert_ne!(us_baseline.render(), after.render());
        assert_eq!(
            ok_result(&service, r#"{"op":"rank","warehouse":"eu"}"#).render(),
            eu_baseline.render()
        );
        // Unknown classes fail loudly and atomically.
        assert_eq!(
            err_kind(
                &service,
                r#"{"op":"set_mix","params":{"weights":{"nope":1}}}"#
            ),
            "unknown_class"
        );
    }

    #[test]
    fn errors_are_typed_and_never_panic() {
        let service = service();
        assert_eq!(err_kind(&service, "not json at all"), "bad_request");
        assert_eq!(err_kind(&service, r#"{"op":"frobnicate"}"#), "unknown_op");
        assert_eq!(err_kind(&service, r#"{"op":42}"#), "bad_request");
        assert_eq!(
            err_kind(&service, r#"{"v":3,"op":"rank"}"#),
            "unsupported_version"
        );
        assert_eq!(
            err_kind(&service, r#"{"v":0,"op":"rank"}"#),
            "unsupported_version"
        );
        assert_eq!(
            err_kind(&service, r#"{"v":"two","op":"rank"}"#),
            "unsupported_version"
        );
        assert_eq!(
            err_kind(&service, r#"{"op":"analyze","params":{"rank":999}}"#),
            "rank_out_of_range"
        );
        assert_eq!(
            err_kind(
                &service,
                r#"{"op":"what_if_without_class","params":{"class":"nope"}}"#
            ),
            "unknown_class"
        );
        assert_eq!(
            err_kind(
                &service,
                r#"{"op":"what_if_without_bitmap_dimension","params":{"dimension":9}}"#
            ),
            "schema"
        );
        assert_eq!(
            err_kind(&service, r#"{"op":"what_if_disks","params":{}}"#),
            "bad_request"
        );
        assert_eq!(
            err_kind(&service, r#"{"op":"load","params":{"name":"x"}}"#),
            "bad_request"
        );
    }

    #[test]
    fn standalone_error_replies_carry_version_and_kind() {
        let reply = ServiceReply::error("bad_request", "request exceeds 16 bytes");
        assert!(!reply.shutdown);
        assert_eq!(reply.error_kind, Some("bad_request"));
        let json = warlock_json::parse(&reply.line).unwrap();
        assert_eq!(json.get("v").and_then(Json::as_i64), Some(PROTOCOL_VERSION));
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
        assert!(reply.line.contains("exceeds"));
        assert_eq!(json.get("id"), Some(&Json::Null));
    }

    #[test]
    fn panic_fallback_replies_echo_the_request_version_and_id() {
        let line = r#"{"v":1,"id":{"seq":7},"op":"rank"}"#;
        let reply = ServiceReply::catch_panic(
            || panic!("handler bug"),
            || {
                (
                    ServiceReply::request_version(line),
                    ServiceReply::request_id(line),
                )
            },
        );
        assert_eq!(reply.error_kind, Some("internal"));
        let json = warlock_json::parse(&reply.line).unwrap();
        assert_eq!(json.get("v").and_then(Json::as_i64), Some(1));
        assert_eq!(json.get("id").unwrap().render(), r#"{"seq":7}"#);
        // Neither is recoverable from a line that does not parse.
        assert_eq!(ServiceReply::request_id("{not json"), Json::Null);
        assert_eq!(ServiceReply::request_id(r#"{"op":"rank"}"#), Json::Null);
    }

    #[test]
    fn ping_reports_warehouse_health_without_ranking() {
        let service = service();
        let pong = ok_result(&service, r#"{"op":"ping"}"#);
        assert_eq!(pong.get("protocol").and_then(Json::as_i64), Some(2));
        assert_eq!(
            pong.get("warehouse").and_then(Json::as_str),
            Some("default")
        );
        // The exact space predictor answers before anything was ranked…
        assert_eq!(pong.get("space_size").and_then(Json::as_u64), Some(168));
        // …and `enumerated` stays null until a baseline ranking exists.
        assert_eq!(pong.get("enumerated"), Some(&Json::Null));
        let stats = pong.get("cache_stats").unwrap();
        assert_eq!(stats.get("entries").and_then(Json::as_u64), Some(0));

        let _ = ok_result(&service, r#"{"op":"rank"}"#);
        let pong = ok_result(&service, r#"{"op":"ping"}"#);
        assert_eq!(pong.get("enumerated").and_then(Json::as_u64), Some(168));
        assert!(
            pong.get("cache_stats")
                .and_then(|s| s.get("entries"))
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
    }

    #[test]
    fn set_budget_adjusts_streaming_knobs() {
        let service = service();
        let result = ok_result(
            &service,
            r#"{"op":"set_budget","params":{"max_candidates":100,"chunk_size":7}}"#,
        );
        assert_eq!(
            result.get("max_candidates").and_then(Json::as_u64),
            Some(100)
        );
        assert_eq!(result.get("chunk_size").and_then(Json::as_u64), Some(7));
        assert_eq!(result.get("space_size").and_then(Json::as_u64), Some(168));
        // The 168-candidate space now exceeds the budget: rank fails
        // with the typed error instead of evaluating anything.
        assert_eq!(err_kind(&service, r#"{"op":"rank"}"#), "candidate_budget");
        // Raising the budget restores service.
        let _ = ok_result(
            &service,
            r#"{"op":"set_budget","params":{"max_candidates":0}}"#,
        );
        let _ = ok_result(&service, r#"{"op":"rank"}"#);
        // Parameterless calls are rejected.
        assert_eq!(
            err_kind(&service, r#"{"op":"set_budget","params":{}}"#),
            "bad_request"
        );
    }

    #[test]
    fn drift_ops_over_the_wire() {
        let service = two_warehouse_service();
        // A fresh warehouse reports a cold, stable optimizer.
        let status = ok_result(&service, r#"{"op":"drift_status","warehouse":"us"}"#);
        assert_eq!(status.get("state").and_then(Json::as_str), Some("stable"));
        assert_eq!(
            status.get("observed_queries").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            status.get("auto_advise").and_then(Json::as_bool),
            Some(false)
        );

        // Observed traffic lands on the routed warehouse only.
        let result = ok_result(
            &service,
            r#"{"op":"observe_stats","warehouse":"us","params":{"observations":[
                {"class":"q01_month_store_code","count":40,"mean_latency_ms":12.5},
                {"class":"q02_month_class","count":60}]}}"#,
        );
        assert_eq!(
            result.get("observed_queries").and_then(Json::as_u64),
            Some(100)
        );
        assert_eq!(
            result.get("tracked_classes").and_then(Json::as_u64),
            Some(2)
        );
        let eu = ok_result(&service, r#"{"op":"drift_status","warehouse":"eu"}"#);
        assert_eq!(eu.get("observed_queries").and_then(Json::as_u64), Some(0));

        // No events yet; the log answers an empty array.
        let events = ok_result(&service, r#"{"op":"advice_events","warehouse":"us"}"#);
        assert!(events.get("events").unwrap().as_array().unwrap().is_empty());

        // Toggling auto-advise answers the updated status.
        let status = ok_result(
            &service,
            r#"{"op":"set_auto_advise","warehouse":"us","params":{"on":true}}"#,
        );
        assert_eq!(
            status.get("auto_advise").and_then(Json::as_bool),
            Some(true)
        );

        // Malformed requests fail loudly.
        assert_eq!(
            err_kind(&service, r#"{"op":"observe_stats","params":{}}"#),
            "bad_request"
        );
        assert_eq!(
            err_kind(
                &service,
                r#"{"op":"observe_stats","params":{"observations":[{"class":"q01"}]}}"#
            ),
            "json"
        );
        assert_eq!(
            err_kind(&service, r#"{"op":"set_auto_advise","params":{}}"#),
            "bad_request"
        );
        assert_eq!(
            err_kind(&service, r#"{"op":"advice_events","params":{"limit":-1}}"#),
            "bad_request"
        );
        // The resident optimizer is a v2 feature; v1 clients see
        // `unknown_op`, exactly as the old server answered.
        for op in [
            "observe_stats",
            "drift_status",
            "advice_events",
            "set_auto_advise",
        ] {
            assert_eq!(
                err_kind(&service, &format!(r#"{{"v":1,"op":"{op}"}}"#)),
                "unknown_op"
            );
        }
    }

    #[test]
    fn observe_stats_auto_advises_over_the_wire() {
        let service = two_warehouse_service();
        let _ = ok_result(
            &service,
            r#"{"op":"set_auto_advise","warehouse":"us","params":{"on":true}}"#,
        );
        let _ = ok_result(&service, r#"{"op":"rank","warehouse":"us"}"#);
        // Traffic concentrated on one class drifts far from the
        // configured mix and must fire exactly one re-advise.
        let line = r#"{"op":"observe_stats","warehouse":"us","params":{"observations":[
            {"class":"q04_year_line","count":10000}]}}"#;
        let status = ok_result(&service, line);
        assert_eq!(status.get("events_emitted").and_then(Json::as_u64), Some(1));
        let events = ok_result(&service, r#"{"op":"advice_events","warehouse":"us"}"#);
        let events = events.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("event").and_then(Json::as_str),
            Some("recommendation_changed")
        );
        assert!(events[0].get("old").unwrap().as_str().is_some());
        assert!(events[0].get("new").unwrap().as_str().is_some());
        // The sibling warehouse never saw any of it.
        let eu = ok_result(&service, r#"{"op":"drift_status","warehouse":"eu"}"#);
        assert_eq!(eu.get("events_emitted").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn shutdown_is_acknowledged() {
        let service = service();
        let reply = service.handle_line(r#"{"op":"shutdown"}"#);
        assert!(reply.shutdown);
        assert!(reply.line.contains("stopping"));
        // A malformed shutdown is not honored.
        let reply = service.handle_line(r#"{"v":9,"op":"shutdown"}"#);
        assert!(!reply.shutdown);
        // v1 clients can still stop the server.
        let reply = service.handle_line(r#"{"v":1,"op":"shutdown"}"#);
        assert!(reply.shutdown);
    }

    #[test]
    fn concurrent_connections_share_warehouses() {
        let service = std::sync::Arc::new(two_warehouse_service());
        let baseline = ok_result(&service, r#"{"op":"rank"}"#).render();
        let mut handles = Vec::new();
        for (i, d) in [8u32, 16, 32, 64].into_iter().enumerate() {
            let service = service.clone();
            let warehouse = if i % 2 == 0 { "us" } else { "eu" };
            handles.push(std::thread::spawn(move || {
                let line = format!(
                    r#"{{"op":"what_if_disks","warehouse":"{warehouse}","params":{{"disks":{d}}}}}"#
                );
                let reply = service.handle_line(&line);
                let json = warlock_json::parse(&reply.line).unwrap();
                assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The default warehouse is warm and unchanged.
        assert_eq!(ok_result(&service, r#"{"op":"rank"}"#).render(), baseline);
        let stats = ok_result(&service, r#"{"op":"cache_stats"}"#);
        assert!(stats.get("entries").and_then(Json::as_u64).unwrap() > 0);
    }
}
