//! The HTTP server: accept pool, routing, request handlers.
//!
//! A fixed pool of accept threads shares one `TcpListener`; each thread
//! owns the connections it accepts and serves them with keep-alive until
//! the peer closes (so the pool size bounds concurrent connections, not
//! requests). Handlers never panic outward: every failure becomes a JSON
//! error response with the right status, and only transport errors drop a
//! connection. That holds by construction — each request is routed under
//! `catch_unwind`, so a handler that panics anyway answers 500 with its
//! request id, counts in `handler_panics_total` and ends its trace at the
//! `panic` terminal, and the accept thread goes on serving.

use crate::error::ServeError;
use crate::http::{self, HttpError, Request};
use crate::json::{self, Json};
use crate::log;
use crate::metrics::Scrape;
use crate::registry::Registry;
use crate::trace::{self, Stage, Trace, TraceRecord, STAGE_NAMES};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a connection thread blocks in one socket read before
/// re-checking the stop flag; bounds shutdown latency per idle
/// connection. Also the ceiling on mid-request network stalls (a peer
/// that pauses longer mid-request is treated as dead).
const READ_POLL: Duration = Duration::from_millis(500);

/// Server construction parameters. Coalescing parameters live on the
/// [`Registry`] (each model's batcher is created at load time), not here.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:8080` (`:0` for an ephemeral port).
    pub addr: String,
    /// Accept-pool size = maximum concurrently served connections.
    pub workers: usize,
    /// How long an idle keep-alive connection is held open before the
    /// server closes it.
    pub keep_alive_timeout: Duration,
    /// Wall-clock budget for reading one request (head + body) once its
    /// first byte arrived: the slow-loris defense. A peer that trickles
    /// bytes past this budget is answered 408 and disconnected. Zero
    /// disables the deadline. Granularity is the internal read-poll slice
    /// (500 ms), so budgets below that round up to roughly one slice.
    pub request_deadline: Duration,
    /// Requests slower than this end-to-end (milliseconds) are copied to
    /// the slow-trace ring (`GET /debug/traces/slow`) and logged with
    /// their per-stage breakdown. 0 disables slow-request capture.
    pub slow_request_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 8,
            keep_alive_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_secs(10),
            slow_request_ms: 0,
        }
    }
}

/// A running server; dropping it (or calling [`shutdown`](Self::shutdown))
/// stops the accept pool.
pub struct Server {
    addr: SocketAddr,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    accepters: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving `registry` in background threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(registry: Arc<Registry>, config: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        registry.metrics().set_slow_request_us(config.slow_request_ms.saturating_mul(1_000));
        log::info(
            "server.start",
            "listening",
            &[
                ("addr", addr.to_string()),
                ("workers", config.workers.max(1).to_string()),
                ("slow_request_ms", config.slow_request_ms.to_string()),
            ],
        );
        let stop = Arc::new(AtomicBool::new(false));
        let workers = config.workers.max(1);
        let mut accepters = Vec::with_capacity(workers);
        let listener = Arc::new(listener);
        for i in 0..workers {
            let listener = Arc::clone(&listener);
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let keep_alive_timeout = config.keep_alive_timeout;
            let request_deadline = config.request_deadline;
            accepters.push(
                std::thread::Builder::new()
                    .name(format!("hdc-serve-accept-{i}"))
                    .spawn(move || {
                        while !stop.load(Ordering::Acquire) {
                            match listener.accept() {
                                Ok((stream, _peer)) => {
                                    if stop.load(Ordering::Acquire) {
                                        return;
                                    }
                                    let _ = stream.set_read_timeout(Some(READ_POLL));
                                    let _ = stream.set_nodelay(true);
                                    serve_connection(
                                        stream,
                                        &registry,
                                        &stop,
                                        keep_alive_timeout,
                                        request_deadline,
                                    );
                                }
                                Err(_) if stop.load(Ordering::Acquire) => return,
                                Err(_) => continue,
                            }
                        }
                    })
                    .expect("spawn accept thread"),
            );
        }
        Ok(Server { addr, registry, stop, accepters })
    }

    /// The bound address (useful with an ephemeral `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry this server fronts.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Stops accepting and joins the pool. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock every accepter with throwaway connections.
        for _ in 0..self.accepters.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.accepters.drain(..) {
            let _ = handle.join();
        }
    }

    /// Graceful drain: stops accepting, lets in-flight requests and their
    /// coalesced batches finish (joining the accept pool blocks on them),
    /// then writes one final crash-safe snapshot per model trained since
    /// its last snapshot. Returns how many models were flushed. Idempotent
    /// like [`shutdown`](Self::shutdown); call it instead of `shutdown`
    /// when online training progress must survive the restart.
    pub fn drain(&mut self) -> usize {
        self.shutdown();
        self.registry.flush_dirty()
    }

    /// Blocks the calling thread while the server runs (the CLI's serve
    /// loop). Returns when the accept pool exits.
    pub fn join(&mut self) {
        for handle in self.accepters.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one keep-alive connection until the peer closes, the idle
/// timeout expires, or the server shuts down. Between requests the thread
/// polls `fill_buf` in [`READ_POLL`] slices so it observes `stop` promptly
/// without losing buffered request bytes.
fn serve_connection(
    stream: TcpStream,
    registry: &Registry,
    stop: &AtomicBool,
    keep_alive_timeout: Duration,
    request_deadline: Duration,
) {
    let Ok(write_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let mut idle_since = Instant::now();
    loop {
        // Idle wait: block at most one poll slice for the next request's
        // first byte, then re-check the stop flag and the idle budget.
        match reader.fill_buf() {
            Ok([]) => return, // clean EOF
            Ok(_) => {}       // request bytes buffered, fall through
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) || idle_since.elapsed() >= keep_alive_timeout {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // The request's first byte is buffered: its wall-clock deadline
        // starts now and covers the rest of the head plus the whole body.
        let deadline = (!request_deadline.is_zero()).then(|| Instant::now() + request_deadline);
        let mut client_id = None;
        match http::read_request_timed(&mut reader, deadline, &mut client_id) {
            Ok(None) => return, // clean close
            Ok(Some((request, timings))) => {
                let keep_alive = request.keep_alive();
                registry.metrics().on_request();
                // The id echoes whether tracing is on or not — it is part
                // of the HTTP contract; only the span/ring/histogram work
                // is gated (that delta is what `serve_trace_overhead`
                // measures).
                let trace_id = request
                    .header("x-request-id")
                    .filter(|id| trace::valid_id(id))
                    .map_or_else(trace::generate_id, str::to_owned);
                let trace = Trace::new(&trace_id, registry.metrics().trace_enabled());
                trace.record_span(Stage::HeadParse, timings.first_byte, timings.head_done);
                trace.record_span(Stage::BodyRead, timings.head_done, timings.body_done);
                let mut reply = route_isolated(&request, registry, &trace);
                registry.metrics().on_response(reply.status);
                reply.headers.push(("x-request-id".to_owned(), trace_id));
                let write_started = Instant::now();
                if http::write_response_bytes(
                    &mut writer,
                    reply.status,
                    reply.content_type,
                    &reply.headers,
                    &reply.body,
                    keep_alive,
                )
                .is_err()
                {
                    return;
                }
                let written = Instant::now();
                trace.record_span(Stage::ReplyWrite, write_started, written);
                let total_us =
                    written.saturating_duration_since(timings.first_byte).as_micros() as u64;
                if let Some(record) = trace.finalize(reply.status, total_us) {
                    if registry.metrics().on_trace(&record) {
                        log_slow_request(&record);
                    }
                }
                if !keep_alive {
                    let _ = writer.flush();
                    return;
                }
                idle_since = Instant::now();
            }
            Err(HttpError::Bad(status, reason)) => {
                // The request never completed; answer and close (framing
                // is unreliable past a malformed read). Even these replies
                // carry a request id: the client's own if the head parsed
                // far enough to reveal one, generated otherwise.
                registry.metrics().on_request();
                registry.metrics().on_response(status);
                let trace_id = client_id
                    .take()
                    .filter(|id| trace::valid_id(id))
                    .unwrap_or_else(trace::generate_id);
                let body = Json::obj([
                    ("error", Json::from(reason.as_str())),
                    ("status", Json::from(u64::from(status))),
                ])
                .render();
                let _ = http::write_response(
                    &mut writer,
                    status,
                    &[("x-request-id", &trace_id)],
                    &body,
                    false,
                );
                if registry.metrics().trace_enabled() {
                    // The request died while being read: the terminal is
                    // the read stage it failed in.
                    let terminal = if reason.contains("body") { "body_read" } else { "head_parse" };
                    let mut record = TraceRecord::synthetic(trace_id, String::new(), terminal, 0);
                    record.status = status;
                    registry.metrics().on_trace(&record);
                }
                return;
            }
            Err(HttpError::Io(_)) => return,
        }
    }
}

/// One structured line per request that crossed the slow threshold, with
/// the full stage breakdown so the log alone answers "where did the time
/// go" even after the ring entry is evicted.
fn log_slow_request(record: &TraceRecord) {
    let mut fields: Vec<(&str, String)> = vec![
        ("trace", record.id.clone()),
        ("model", record.model.clone()),
        ("status", record.status.to_string()),
        ("total_us", record.total_us.to_string()),
        ("terminal", record.terminal.to_owned()),
    ];
    fields.extend(record.entered_stages().map(|(i, us)| (STAGE_NAMES[i], us.to_string())));
    log::warn("server.slow_request", "slow request", &fields);
}

/// How long `GET /v1/deltas` long-polls for fresh records when the
/// caller is caught up. Must sit well under the follower's read timeout
/// so an idle tail is never mistaken for a dead leader.
const DELTAS_LONG_POLL: Duration = Duration::from_secs(2);

/// One routed response: status, computed headers, content type and raw
/// body bytes (JSON text for every route but `/v1/export`, which
/// streams model bytes).
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    content_type: &'static str,
    body: Vec<u8>,
}

fn json_reply(status: u16, doc: &Json) -> Reply {
    Reply {
        status,
        headers: Vec::new(),
        content_type: "application/json",
        body: doc.render().into_bytes(),
    }
}

/// Looks up `key` in a raw query string (`a=1&b=2`). No percent
/// decoding — model names and versions are plain tokens.
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then_some(v)
    })
}

/// Rejects writes on a follower with 409 and the leader's address —
/// replication is single-direction, and accepting a direct write here
/// would fork the version lineage.
fn require_leader(registry: &Registry) -> Result<(), ServeError> {
    match registry.replica() {
        Some(state) => Err(ServeError::NotLeader { leader: state.leader().to_owned() }),
        None => Ok(()),
    }
}

/// [`route`] under `catch_unwind`: a handler that panics answers 500,
/// counts in `handler_panics_total` and marks its trace's terminal
/// `panic`, and the calling accept thread survives it.
fn route_isolated(request: &Request, registry: &Registry, trace: &Trace) -> Reply {
    catch_unwind(AssertUnwindSafe(|| route(request, registry, trace))).unwrap_or_else(|_| {
        registry.metrics().on_handler_panic();
        trace.set_terminal("panic");
        let error = ServeError::Panicked("request handler panicked".into());
        json_reply(error.status(), &error.body())
    })
}

/// Dispatches one parsed request to its handler; the error arm turns any
/// [`ServeError`] into its status, extra headers (`Allow` on 405) and
/// JSON body.
fn route(request: &Request, registry: &Registry, trace: &Trace) -> Reply {
    #[cfg(test)]
    tests::maybe_inject_handler_panic(request);
    // The path may carry a query string (`/v1/deltas?model=..&from=..`):
    // split it off so routing matches the bare path.
    let (path, query) = match request.path.split_once('?') {
        Some((path, query)) => (path, query),
        None => (request.path.as_str(), ""),
    };
    let result = match (request.method.as_str(), path) {
        ("GET", "/healthz") => Ok(handle_healthz(registry)),
        ("GET", "/healthz/live") => Ok(json_reply(
            200,
            &Json::obj([("status", Json::from("ok")), ("live", Json::from(true))]),
        )),
        ("GET", "/metrics") if query_param(query, "format") == Some("prometheus") => Ok(Reply {
            status: 200,
            headers: Vec::new(),
            content_type: "text/plain; version=0.0.4",
            body: scrape(registry).prometheus().into_bytes(),
        }),
        ("GET", "/metrics") => Ok(json_reply(200, &scrape(registry).json())),
        ("GET", "/debug/traces") => {
            handle_traces(query, registry, false).map(|doc| json_reply(200, &doc))
        }
        ("GET", "/debug/traces/slow") => {
            handle_traces(query, registry, true).map(|doc| json_reply(200, &doc))
        }
        ("GET", "/v1/models") => handle_models(registry).map(|doc| json_reply(200, &doc)),
        ("GET", "/v1/deltas") => handle_deltas(query, registry).map(|doc| json_reply(200, &doc)),
        ("GET", "/v1/export") => handle_export(query, registry),
        ("POST", "/v1/predict") => {
            handle_predict(request, registry, trace).map(|doc| json_reply(200, &doc))
        }
        ("POST", "/v1/train") => require_leader(registry)
            .and_then(|()| handle_train(request, registry, trace))
            .map(|doc| json_reply(200, &doc)),
        ("POST", "/v1/feedback") => require_leader(registry)
            .and_then(|()| handle_feedback(request, registry, trace))
            .map(|doc| json_reply(200, &doc)),
        // A follower may snapshot (it persists replicated — hence
        // durable-on-the-leader — state locally) but not reload: a local
        // file load would fork the lineage the tail threads continue.
        ("POST", "/v1/snapshot") => {
            handle_snapshot(request, registry).map(|doc| json_reply(200, &doc))
        }
        ("POST", "/v1/reload") => require_leader(registry)
            .and_then(|()| handle_reload(request, registry))
            .map(|doc| json_reply(200, &doc)),
        (
            _,
            "/healthz" | "/healthz/live" | "/metrics" | "/debug/traces" | "/debug/traces/slow"
            | "/v1/models" | "/v1/deltas" | "/v1/export",
        ) => Err(ServeError::MethodNotAllowed("GET")),
        (_, "/v1/predict" | "/v1/train" | "/v1/feedback" | "/v1/snapshot" | "/v1/reload") => {
            Err(ServeError::MethodNotAllowed("POST"))
        }
        (_, path) => Err(ServeError::NotFound(format!("no route for '{path}'"))),
    };
    match result {
        Ok(reply) => reply,
        Err(e) => {
            let headers = match &e {
                ServeError::MethodNotAllowed(allow) => {
                    vec![("allow".to_owned(), (*allow).to_owned())]
                }
                // Shed responses tell well-behaved clients when to come
                // back; one second clears a full queue at any realistic
                // drain rate.
                ServeError::Overloaded(_) => vec![("retry-after".to_owned(), "1".to_owned())],
                _ => Vec::new(),
            };
            let mut reply = json_reply(e.status(), &e.body());
            reply.headers = headers;
            reply
        }
    }
}

/// `GET /healthz` — **readiness**: 200 while this process should receive
/// traffic, 503 with `ready: false` while it is alive but should not —
/// maintenance mode (`max_queue` 0 sheds every job) or a follower that
/// has not yet caught up with its leader. Liveness (is the process
/// responsive at all) is the separate `GET /healthz/live`, which always
/// answers 200: orchestrators restart on failed liveness but merely
/// unroute on failed readiness, and conflating the two would turn a
/// still-syncing follower into a crash loop.
fn handle_healthz(registry: &Registry) -> Reply {
    let mut reasons: Vec<Json> = Vec::new();
    if registry.batch_config().max_queue == 0 {
        reasons.push(Json::from("maintenance: max_queue is 0, every queued job sheds"));
    }
    if let Some(replica) = registry.replica() {
        if !replica.is_ready() {
            reasons.push(Json::from(format!(
                "follower syncing from {} (lag {})",
                replica.leader(),
                replica.max_lag()
            )));
        }
    }
    let ready = reasons.is_empty();
    let doc = Json::obj([
        ("status", Json::from(if ready { "ok" } else { "degraded" })),
        ("live", Json::from(true)),
        ("ready", Json::from(ready)),
        ("models", Json::from(registry.len())),
        ("reasons", Json::Arr(reasons)),
    ]);
    json_reply(if ready { 200 } else { 503 }, &doc)
}

/// `GET /v1/deltas?model=NAME&from=V` — the replication feed: every
/// published delta record with version above `from`, in version order,
/// long-polling up to [`DELTAS_LONG_POLL`] when the caller is caught
/// up. `reset: true` means `from` has fallen below the retained ring's
/// floor and the caller must re-bootstrap from `/v1/export`; the
/// response's `generation` lets the caller detect operator reloads
/// (which may rebase the lineage) the same way.
fn handle_deltas(query: &str, registry: &Registry) -> Result<Json, ServeError> {
    let model = query_param(query, "model").unwrap_or("default");
    let from = match query_param(query, "from") {
        None => 0,
        Some(raw) => raw.parse::<u64>().map_err(|_| {
            ServeError::BadRequest(format!(
                "query parameter 'from' must be a non-negative integer, got '{raw}'"
            ))
        })?,
    };
    let entry = registry.get(model)?;
    let (records, reset) = match entry.shared().deltas().collect_after(from, DELTAS_LONG_POLL) {
        None => (Vec::new(), true),
        Some(records) => (records.iter().map(|r| r.to_json()).collect(), false),
    };
    Ok(Json::obj([
        ("model", Json::from(model)),
        ("from", Json::from(from)),
        ("version", Json::from(entry.version())),
        ("generation", Json::from(entry.info().generation)),
        ("reset", Json::from(reset)),
        ("records", Json::Arr(records)),
    ]))
}

/// `GET /v1/export?model=NAME` — the bootstrap transfer: the model's
/// current bytes in its own save format (`application/octet-stream`),
/// with the consistent version lineage in `x-model-version`,
/// `x-trained-examples` and `x-model-generation` headers. A follower
/// installs the body via [`Registry::install_synced`] at exactly that
/// version and tails `/v1/deltas` from there.
fn handle_export(query: &str, registry: &Registry) -> Result<Reply, ServeError> {
    let model = query_param(query, "model").unwrap_or("default");
    let entry = registry.get(model)?;
    let (snapshot, version, examples) = entry.shared().model_and_version();
    let mut body = Vec::new();
    snapshot
        .save(&mut body)
        .map_err(|e| ServeError::Internal(format!("cannot serialize model '{model}': {e}")))?;
    Ok(Reply {
        status: 200,
        headers: vec![
            ("x-model-version".to_owned(), version.to_string()),
            ("x-trained-examples".to_owned(), examples.to_string()),
            ("x-model-generation".to_owned(), entry.info().generation.to_string()),
        ],
        content_type: "application/octet-stream",
        body,
    })
}

fn handle_models(registry: &Registry) -> Result<Json, ServeError> {
    let models: Vec<Json> = registry.entries().iter().map(|entry| entry.render_info()).collect();
    Ok(Json::obj([("models", Json::Arr(models))]))
}

/// `GET /metrics` reads the shared counters plus the registry's rows:
/// each model's live training version (so a scraper sees version bumps
/// without hitting `/v1/models`) and, on a follower, its replication lag.
fn scrape(registry: &Registry) -> Scrape<'_> {
    let models = registry
        .entries()
        .iter()
        .map(|entry| {
            let info = entry.info();
            (info.name, entry.version(), info.generation)
        })
        .collect();
    Scrape { models, replica: registry.replica(), ..registry.metrics().scrape() }
}

/// `GET /debug/traces[?model=NAME&status=N&min_us=N&terminal=NAME]` — the
/// recent completed-trace ring, newest first, with optional filters; with
/// `slow`, the dedicated slow-request ring (`/debug/traces/slow`) plus
/// the active threshold.
fn handle_traces(query: &str, registry: &Registry, slow: bool) -> Result<Json, ServeError> {
    let model = query_param(query, "model");
    let terminal = query_param(query, "terminal");
    let status = match query_param(query, "status") {
        None => None,
        Some(raw) => Some(raw.parse::<u16>().map_err(|_| {
            ServeError::BadRequest(format!(
                "query parameter 'status' must be an HTTP status code, got '{raw}'"
            ))
        })?),
    };
    let min_us = match query_param(query, "min_us") {
        None => 0,
        Some(raw) => raw.parse::<u64>().map_err(|_| {
            ServeError::BadRequest(format!(
                "query parameter 'min_us' must be a non-negative integer, got '{raw}'"
            ))
        })?,
    };
    let metrics = registry.metrics();
    let ring = if slow { metrics.slow_traces() } else { metrics.traces() };
    let traces: Vec<Json> = ring
        .snapshot()
        .into_iter()
        .rev() // newest first: the request you just made is on top
        .filter(|r| model.is_none_or(|m| r.model == m))
        .filter(|r| status.is_none_or(|s| r.status == s))
        .filter(|r| terminal.is_none_or(|t| r.terminal == t))
        .filter(|r| r.total_us >= min_us)
        .map(|r| render_trace(&r))
        .collect();
    Ok(Json::obj([
        ("enabled", Json::from(metrics.trace_enabled())),
        ("capacity", Json::from(ring.capacity())),
        ("pushed", Json::from(ring.pushed())),
        ("slow_threshold_us", Json::from(metrics.slow_request_us())),
        ("count", Json::from(traces.len())),
        ("traces", Json::Arr(traces)),
    ]))
}

/// Renders one trace record; only the stages the request entered appear.
fn render_trace(record: &TraceRecord) -> Json {
    let stages: Vec<(&'static str, Json)> =
        record.entered_stages().map(|(i, us)| (STAGE_NAMES[i], Json::from(us))).collect();
    Json::obj([
        ("id", Json::from(record.id.as_str())),
        ("model", Json::from(record.model.as_str())),
        ("status", Json::from(u64::from(record.status))),
        ("total_us", Json::from(record.total_us)),
        ("terminal", Json::from(record.terminal)),
        ("stages", Json::obj(stages)),
    ])
}

/// Parses the request body as a JSON object.
fn parse_body(request: &Request) -> Result<Json, ServeError> {
    let doc = json::parse(&request.body).map_err(|e| ServeError::BadRequest(e.to_string()))?;
    match doc {
        Json::Obj(_) => Ok(doc),
        other => {
            Err(ServeError::BadRequest(format!("request body must be a JSON object, got {other}")))
        }
    }
}

/// Decodes one JSON array of pixel values into bytes, rejecting anything
/// that is not an integer in `0..=255`.
fn decode_input(value: &Json, what: &str) -> Result<Vec<u8>, ServeError> {
    let items = value.as_array().ok_or_else(|| {
        ServeError::BadRequest(format!("{what} must be an array of pixel values"))
    })?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let n = item
                .as_f64()
                .ok_or_else(|| ServeError::BadRequest(format!("{what}[{i}] is not a number")))?;
            if n.trunc() != n || !(0.0..=255.0).contains(&n) {
                return Err(ServeError::BadRequest(format!(
                    "{what}[{i}] = {n} is not an integer in 0..=255"
                )));
            }
            Ok(n as u8)
        })
        .collect()
}

/// Reads the optional `model` field (default `"default"`).
fn model_name(body: &Json) -> Result<&str, ServeError> {
    match body.get("model") {
        None => Ok("default"),
        Some(v) => v
            .as_str()
            .ok_or_else(|| ServeError::BadRequest("field 'model' must be a string".into())),
    }
}

/// Decodes a non-negative integer class label.
fn decode_label(value: &Json, what: &str) -> Result<usize, ServeError> {
    let n =
        value.as_f64().ok_or_else(|| ServeError::BadRequest(format!("{what} must be a number")))?;
    if n.trunc() != n || n < 0.0 || n > u32::MAX.into() {
        return Err(ServeError::BadRequest(format!(
            "{what} = {n} is not a non-negative integer class label"
        )));
    }
    Ok(n as usize)
}

/// Decodes one labeled example object `{"input": [...], "label": n}`.
fn decode_example(value: &Json, what: &str) -> Result<(Vec<u8>, usize), ServeError> {
    let input = value
        .get("input")
        .ok_or_else(|| ServeError::BadRequest(format!("{what} is missing field 'input'")))?;
    let label = value
        .get("label")
        .ok_or_else(|| ServeError::BadRequest(format!("{what} is missing field 'label'")))?;
    Ok((
        decode_input(input, &format!("{what}.input"))?,
        decode_label(label, &format!("{what}.label"))?,
    ))
}

fn render_prediction(p: &hdc::Prediction) -> Json {
    Json::obj([
        ("class", Json::from(p.class)),
        ("similarity", Json::from(p.similarity)),
        ("margin", Json::from(p.margin)),
    ])
}

/// `POST /v1/predict` — body `{"model": name?, "input": [...]}` for one
/// input (runs through the coalescer) or `{"inputs": [[...], ...]}` for an
/// explicit batch (runs `predict_batch` directly).
fn handle_predict(
    request: &Request,
    registry: &Registry,
    trace: &Trace,
) -> Result<Json, ServeError> {
    let started = Instant::now();
    let body = parse_body(request)?;
    let model_name = model_name(&body)?;
    let entry = registry.get(model_name)?;
    trace.set_model(model_name);
    let response = match (body.get("input"), body.get("inputs")) {
        (Some(_), Some(_)) => {
            return Err(ServeError::BadRequest(
                "provide either 'input' or 'inputs', not both".into(),
            ))
        }
        (Some(input), None) => {
            registry.metrics().on_predict(1);
            let pixels = decode_input(input, "input")?;
            let prediction = entry.batcher().predict(pixels, trace.clone())?;
            let mut obj = render_prediction(&prediction);
            if let Json::Obj(map) = &mut obj {
                map.insert("model".into(), Json::from(model_name));
            }
            obj
        }
        (None, Some(inputs)) => {
            let arrays = inputs.as_array().ok_or_else(|| {
                ServeError::BadRequest("field 'inputs' must be an array of arrays".into())
            })?;
            if arrays.is_empty() {
                return Err(ServeError::BadRequest("'inputs' must not be empty".into()));
            }
            registry.metrics().on_predict(arrays.len());
            let decoded: Vec<Vec<u8>> = arrays
                .iter()
                .enumerate()
                .map(|(i, a)| decode_input(a, &format!("inputs[{i}]")))
                .collect::<Result<_, _>>()?;
            // An explicit batch is already coalesced: skip the queue and
            // do NOT record it in the batch histogram, which must reflect
            // only what the coalescer actually executed. It still shards
            // across the model's predict pool, so a large explicit batch
            // scales the same way coalesced traffic does.
            let execute_started = Instant::now();
            let predictions = entry.batcher().predict_batch_direct(decoded, trace)?;
            trace.record_since(Stage::Execute, execute_started);
            Json::obj([
                ("model", Json::from(model_name)),
                ("results", Json::Arr(predictions.iter().map(render_prediction).collect())),
            ])
        }
        (None, None) => {
            return Err(ServeError::BadRequest(
                "body must contain 'input' (one pixel array) or 'inputs' (array of them)".into(),
            ))
        }
    };
    registry.metrics().on_latency(started.elapsed());
    Ok(response)
}

/// `POST /v1/train` — online learning. Body is either one labeled example
/// `{"model": name?, "input": [...], "label": n}` or an explicit batch
/// `{"examples": [{"input": [...], "label": n}, ...]}`. Examples ride the
/// model's coalescing batcher into one `partial_fit_batch`; the response
/// reports how many were absorbed and the model version after the batch.
fn handle_train(request: &Request, registry: &Registry, trace: &Trace) -> Result<Json, ServeError> {
    let started = Instant::now();
    let body = parse_body(request)?;
    let model_name = model_name(&body)?;
    let entry = registry.get(model_name)?;
    trace.set_model(model_name);
    let examples: Vec<(Vec<u8>, usize)> = match (body.get("input"), body.get("examples")) {
        (Some(_), Some(_)) => {
            return Err(ServeError::BadRequest(
                "provide either 'input'+'label' or 'examples', not both".into(),
            ))
        }
        (Some(_), None) => vec![decode_example(&body, "body")?],
        (None, Some(examples)) => {
            let items = examples.as_array().ok_or_else(|| {
                ServeError::BadRequest("field 'examples' must be an array of objects".into())
            })?;
            if items.is_empty() {
                return Err(ServeError::BadRequest("'examples' must not be empty".into()));
            }
            items
                .iter()
                .enumerate()
                .map(|(i, item)| decode_example(item, &format!("examples[{i}]")))
                .collect::<Result<_, _>>()?
        }
        (None, None) => {
            return Err(ServeError::BadRequest(
                "body must contain 'input'+'label' (one example) or 'examples' (array)".into(),
            ))
        }
    };
    let outcome = entry.batcher().train(examples, trace.clone())?;
    registry.metrics().on_train(outcome.applied);
    registry.metrics().on_latency(started.elapsed());
    Ok(Json::obj([
        ("model", Json::from(model_name)),
        ("trained", Json::from(outcome.applied)),
        ("version", Json::from(outcome.version)),
    ]))
}

/// `POST /v1/feedback` — body `{"model": name?, "input": [...], "label": n}`:
/// report the true label for an input (typically one the client previously
/// predicted). The model applies an adaptive update only if it mispredicts
/// the input; the response says what it predicted and whether it learned.
fn handle_feedback(
    request: &Request,
    registry: &Registry,
    trace: &Trace,
) -> Result<Json, ServeError> {
    let started = Instant::now();
    let body = parse_body(request)?;
    let model_name = model_name(&body)?;
    let entry = registry.get(model_name)?;
    trace.set_model(model_name);
    let (input, label) = decode_example(&body, "body")?;
    let outcome = entry.batcher().feedback(input, label, trace.clone())?;
    registry.metrics().on_feedback(outcome.updated);
    registry.metrics().on_latency(started.elapsed());
    Ok(Json::obj([
        ("model", Json::from(model_name)),
        ("predicted", Json::from(outcome.prediction.class)),
        ("correct", Json::from(outcome.prediction.class == label)),
        ("updated", Json::from(outcome.updated)),
        ("version", Json::from(outcome.version)),
    ]))
}

/// `POST /v1/snapshot` — body `{"model": name?, "path": "file.hdc"}`:
/// atomically persist the model's current trainable counter state (temp
/// file + rename, in the model's own `hdc::io` format — the reload path
/// sniffs it back), so online progress survives restarts.
///
/// Path trust: with a configured model-dir jail (`serve --model-dir`),
/// relative paths resolve inside the jail and escaping paths — here and
/// on `/v1/reload` — are refused with a 403. Without a jail this writes
/// wherever the server user can; that mode is only for the documented
/// private-network trust model (see ROADMAP for the remaining auth item).
fn handle_snapshot(request: &Request, registry: &Registry) -> Result<Json, ServeError> {
    let body = parse_body(request)?;
    let model_name = model_name(&body)?;
    let path = body
        .get("path")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("field 'path' (string) is required".into()))?;
    let version = registry.snapshot(model_name, std::path::Path::new(path))?;
    Ok(Json::obj([(
        "snapshot",
        Json::obj([
            ("model", Json::from(model_name)),
            ("path", Json::from(path)),
            ("version", Json::from(version)),
        ]),
    )]))
}

/// `POST /v1/reload` — body `{"model": name?, "path": "file.hdc"}`: load or
/// hot-swap a model from disk. A failed load keeps the old model serving.
fn handle_reload(request: &Request, registry: &Registry) -> Result<Json, ServeError> {
    let body = parse_body(request)?;
    let model_name = model_name(&body)?;
    let path = body
        .get("path")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("field 'path' (string) is required".into()))?;
    let info = registry.load(model_name, std::path::Path::new(path))?;
    Ok(Json::obj([("reloaded", info.render())]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchConfig;
    use crate::metrics::Metrics;
    use hdc::memory::ValueEncoding;
    use hdc::prelude::*;

    fn registry_with_model() -> Arc<Registry> {
        let registry = Registry::new(Arc::new(Metrics::new()), BatchConfig::default());
        let encoder = PixelEncoder::new(PixelEncoderConfig {
            dim: 512,
            width: 4,
            height: 4,
            levels: 8,
            value_encoding: ValueEncoding::Random,
            seed: 5,
        })
        .unwrap();
        let mut model = HdcClassifier::new(encoder, 2);
        model.train_one(&[0u8; 16][..], 0).unwrap();
        model.train_one(&[224u8; 16][..], 1).unwrap();
        model.finalize();
        registry.insert_model("default", model).unwrap();
        Arc::new(registry)
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request { method: "GET".into(), path: path.into(), headers: vec![], body: vec![] }
    }

    /// Request ids that make [`route`] panic in test builds, standing in
    /// for a handler bug.
    const PANIC_ID: &str = "inject-handler-panic";

    pub(super) fn maybe_inject_handler_panic(request: &Request) {
        if request.header("x-request-id").is_some_and(|id| id.starts_with(PANIC_ID)) {
            panic!("injected handler panic");
        }
    }

    /// Routes a request and hands back the JSON-route shape the tests
    /// assert on (status, headers, body text).
    fn call(request: &Request, registry: &Registry) -> (u16, Vec<(String, String)>, String) {
        let reply = route(request, registry, &Trace::off());
        (reply.status, reply.headers, String::from_utf8(reply.body).expect("text body"))
    }

    #[test]
    fn healthz_and_models_and_metrics() {
        let registry = registry_with_model();
        let (status, _headers, body) = call(&get("/healthz"), &registry);
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""), "{body}");
        let (status, _headers, body) = call(&get("/v1/models"), &registry);
        assert_eq!(status, 200);
        assert!(body.contains("\"default\""), "{body}");
        let (status, _headers, _) = call(&get("/metrics"), &registry);
        assert_eq!(status, 200);
    }

    #[test]
    fn predict_single_and_batch() {
        let registry = registry_with_model();
        let input: Vec<String> = std::iter::repeat_n("224".to_owned(), 16).collect();
        let body = format!("{{\"input\":[{}]}}", input.join(","));
        let (status, _headers, response) = call(&post("/v1/predict", &body), &registry);
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"class\":1"), "{response}");

        let body = format!("{{\"inputs\":[[{}],[{}]]}}", input.join(","), vec!["0"; 16].join(","));
        let (status, _headers, response) = call(&post("/v1/predict", &body), &registry);
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"results\""), "{response}");
    }

    #[test]
    fn malformed_json_is_400() {
        let registry = registry_with_model();
        for bad in ["{not json", "", "[1,2,3]", "{\"input\": \"x\"}", "{\"input\": [999]}"] {
            let (status, _headers, body) = call(&post("/v1/predict", bad), &registry);
            assert_eq!(status, 400, "body {bad:?} gave {body}");
            assert!(body.contains("\"error\""), "{body}");
        }
    }

    #[test]
    fn wrong_input_length_is_400() {
        let registry = registry_with_model();
        let (status, _headers, body) = call(&post("/v1/predict", "{\"input\":[1,2,3]}"), &registry);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("shape"), "{body}");
    }

    #[test]
    fn unknown_model_is_404() {
        let registry = registry_with_model();
        let (status, _headers, body) =
            call(&post("/v1/predict", "{\"model\":\"nope\",\"input\":[0]}"), &registry);
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("nope"), "{body}");
    }

    #[test]
    fn unknown_route_is_404_and_wrong_method_is_405() {
        let registry = registry_with_model();
        let (status, _headers, _) = call(&get("/nope"), &registry);
        assert_eq!(status, 404);
        let (status, headers, _) = call(&post("/healthz", ""), &registry);
        assert_eq!(status, 405);
        assert_eq!(headers, vec![("allow".to_owned(), "GET".to_owned())]);
        let (status, headers, _) = call(&get("/v1/predict"), &registry);
        assert_eq!(status, 405);
        assert_eq!(headers, vec![("allow".to_owned(), "POST".to_owned())]);
    }

    #[test]
    fn reload_requires_path() {
        let registry = registry_with_model();
        let (status, _headers, body) = call(&post("/v1/reload", "{}"), &registry);
        assert_eq!(status, 400, "{body}");
        let (status, _headers, _) =
            call(&post("/v1/reload", "{\"path\":\"/nonexistent.hdc\"}"), &registry);
        assert_eq!(status, 400);
    }

    #[test]
    fn train_changes_predictions_and_bumps_version() {
        let registry = registry_with_model();
        let grey: Vec<String> = std::iter::repeat_n("128".to_owned(), 16).collect();
        let grey = grey.join(",");

        // Absorb several mid-grey examples labeled class 0; the decision
        // boundary must move and the version must count the batches.
        let mut version = 0.0;
        for _ in 0..6 {
            let body = format!("{{\"input\":[{grey}],\"label\":0}}");
            let (status, _h, response) = call(&post("/v1/train", &body), &registry);
            assert_eq!(status, 200, "{response}");
            let doc = crate::json::parse(response.as_bytes()).unwrap();
            assert_eq!(doc.get("trained").unwrap().as_f64(), Some(1.0));
            let v = doc.get("version").unwrap().as_f64().unwrap();
            assert!(v > version, "version must be monotonic: {v} after {version}");
            version = v;
        }

        let (status, _h, response) =
            call(&post("/v1/predict", &format!("{{\"input\":[{grey}]}}")), &registry);
        assert_eq!(status, 200);
        assert!(response.contains("\"class\":0"), "training must win the probe: {response}");

        // The version shows up in /v1/models and /metrics.
        let (_s, _h, models) = call(&get("/v1/models"), &registry);
        assert!(models.contains(&format!("\"version\":{version}")), "{models}");
        let (_s, _h, metrics) = call(&get("/metrics"), &registry);
        assert!(metrics.contains("\"training\""), "{metrics}");
        assert!(metrics.contains(&format!("\"version\":{version}")), "{metrics}");

        // Batch form.
        let body = format!(
            "{{\"examples\":[{{\"input\":[{grey}],\"label\":0}},{{\"input\":[{grey}],\"label\":0}}]}}"
        );
        let (status, _h, response) = call(&post("/v1/train", &body), &registry);
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"trained\":2"), "{response}");
    }

    #[test]
    fn train_rejects_malformed_bodies() {
        let registry = registry_with_model();
        for bad in [
            "{}",
            "{\"input\":[1,2,3]}",                         // no label
            "{\"input\":[0],\"label\":-1}",                // negative label
            "{\"input\":[0],\"label\":0.5}",               // fractional label
            "{\"examples\":[]}",                           // empty batch
            "{\"examples\":[{\"label\":0}]}",              // example missing input
            "{\"input\":[0],\"label\":0,\"examples\":[]}", // both forms
        ] {
            let (status, _h, body) = call(&post("/v1/train", bad), &registry);
            assert_eq!(status, 400, "body {bad:?} gave {body}");
        }
        // Wrong shape and unknown class flow back as 400 from the compute
        // layer; neither changes the model version.
        let (status, _h, _b) =
            call(&post("/v1/train", "{\"input\":[1,2,3],\"label\":0}"), &registry);
        assert_eq!(status, 400);
        let input: Vec<String> = std::iter::repeat_n("0".to_owned(), 16).collect();
        let body = format!("{{\"input\":[{}],\"label\":9}}", input.join(","));
        let (status, _h, _b) = call(&post("/v1/train", &body), &registry);
        assert_eq!(status, 400);
        assert_eq!(registry.get("default").unwrap().version(), 0);
    }

    #[test]
    fn feedback_applies_only_on_mistake() {
        let registry = registry_with_model();
        let light: Vec<String> = std::iter::repeat_n("224".to_owned(), 16).collect();
        let light = light.join(",");

        // Correct label: no update.
        let body = format!("{{\"input\":[{light}],\"label\":1}}");
        let (status, _h, response) = call(&post("/v1/feedback", &body), &registry);
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"updated\":false"), "{response}");
        assert!(response.contains("\"correct\":true"), "{response}");
        assert!(response.contains("\"version\":0"), "{response}");

        // Claim the light image is class 0: the model mispredicts relative
        // to the label, updates, and the version bumps.
        let body = format!("{{\"input\":[{light}],\"label\":0}}");
        let (status, _h, response) = call(&post("/v1/feedback", &body), &registry);
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"updated\":true"), "{response}");
        assert!(response.contains("\"version\":1"), "{response}");
    }

    #[test]
    fn snapshot_persists_a_loadable_model() {
        let dir = std::env::temp_dir().join(format!("hdc-serve-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.hdc");

        let registry = registry_with_model();
        // Train one example so the snapshot carries online state.
        let input: Vec<String> = std::iter::repeat_n("128".to_owned(), 16).collect();
        let body = format!("{{\"input\":[{}],\"label\":0}}", input.join(","));
        let (status, _h, _b) = call(&post("/v1/train", &body), &registry);
        assert_eq!(status, 200);

        let body = format!("{{\"path\":\"{}\"}}", path.display());
        let (status, _h, response) = call(&post("/v1/snapshot", &body), &registry);
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"version\":1"), "{response}");

        // The snapshot is a complete, loadable model whose counters match
        // the live one (trainable state round-trips).
        let loaded = hdc::io::load_pixel_classifier(std::io::BufReader::new(
            std::fs::File::open(&path).unwrap(),
        ))
        .unwrap();
        let live = registry.get("default").unwrap().model();
        let live = live.as_dense().expect("default model is dense");
        for c in 0..2 {
            assert_eq!(
                loaded.associative_memory().accumulator(c).unwrap(),
                live.associative_memory().accumulator(c).unwrap(),
                "class {c}"
            );
        }

        // Missing path is a 400; unknown model a 404.
        let (status, _h, _b) = call(&post("/v1/snapshot", "{}"), &registry);
        assert_eq!(status, 400);
        let (status, _h, _b) =
            call(&post("/v1/snapshot", "{\"model\":\"nope\",\"path\":\"/tmp/x\"}"), &registry);
        assert_eq!(status, 404);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn healthz_splits_readiness_from_liveness() {
        let registry = registry_with_model();
        let (status, _h, body) = call(&get("/healthz"), &registry);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"ready\":true"), "{body}");
        assert!(body.contains("\"live\":true"), "{body}");
        let (status, _h, body) = call(&get("/healthz/live"), &registry);
        assert_eq!(status, 200);
        assert!(body.contains("\"live\":true"), "{body}");

        // Maintenance mode (max_queue 0): alive, not ready.
        let maintenance = Arc::new(Registry::new(
            Arc::new(Metrics::new()),
            BatchConfig { max_queue: 0, ..BatchConfig::default() },
        ));
        let (status, _h, body) = call(&get("/healthz"), &maintenance);
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("\"ready\":false"), "{body}");
        assert!(body.contains("\"live\":true"), "{body}");
        assert!(body.contains("maintenance"), "{body}");
        let (status, _h, _b) = call(&get("/healthz/live"), &maintenance);
        assert_eq!(status, 200, "liveness must not flap with readiness");
    }

    #[test]
    fn follower_rejects_writes_with_409_and_leader_address() {
        let registry = registry_with_model();
        registry.set_replica(Arc::new(crate::replica::ReplicaState::new("10.1.2.3:9999")));
        let input: Vec<String> = std::iter::repeat_n("0".to_owned(), 16).collect();
        let example = format!("{{\"input\":[{}],\"label\":0}}", input.join(","));
        for (path, body) in [
            ("/v1/train", example.as_str()),
            ("/v1/feedback", example.as_str()),
            ("/v1/reload", "{\"path\":\"/tmp/x.hdc\"}"),
        ] {
            let (status, _h, response) = call(&post(path, body), &registry);
            assert_eq!(status, 409, "{path} gave {response}");
            assert!(response.contains("10.1.2.3:9999"), "{response}");
            assert!(response.contains("\"leader\""), "{response}");
        }
        // Reads keep serving on a follower.
        let predict = format!("{{\"input\":[{}]}}", input.join(","));
        let (status, _h, response) = call(&post("/v1/predict", &predict), &registry);
        assert_eq!(status, 200, "{response}");
        // A not-yet-caught-up follower is alive but not ready.
        let (status, _h, body) = call(&get("/healthz"), &registry);
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("follower syncing"), "{body}");
        let (status, _h, _b) = call(&get("/healthz/live"), &registry);
        assert_eq!(status, 200);
    }

    #[test]
    fn deltas_feed_serves_published_records_and_flags_resets() {
        let registry = registry_with_model();
        let entry = registry.get("default").unwrap();
        entry.batcher().train(vec![(vec![128u8; 16], 0)], Trace::off()).unwrap();
        entry.batcher().train(vec![(vec![64u8; 16], 1)], Trace::off()).unwrap();

        let (status, _h, body) = call(&get("/v1/deltas?model=default&from=0"), &registry);
        assert_eq!(status, 200, "{body}");
        let doc = crate::json::parse(body.as_bytes()).unwrap();
        assert_eq!(doc.get("reset").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("version").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("generation").unwrap().as_f64(), Some(1.0));
        let records = doc.get("records").unwrap().as_array().unwrap();
        assert_eq!(records.len(), 2, "{body}");
        assert_eq!(records[0].get("version").unwrap().as_f64(), Some(1.0));
        assert_eq!(records[1].get("version").unwrap().as_f64(), Some(2.0));

        // from=1 returns only the newer record ('model' defaults too).
        let (_s, _h, body) = call(&get("/v1/deltas?from=1"), &registry);
        let doc = crate::json::parse(body.as_bytes()).unwrap();
        assert_eq!(doc.get("records").unwrap().as_array().unwrap().len(), 1);

        // Malformed 'from' is a 400, unknown model a 404.
        let (status, _h, _b) = call(&get("/v1/deltas?from=abc"), &registry);
        assert_eq!(status, 400);
        let (status, _h, _b) = call(&get("/v1/deltas?model=nope&from=0"), &registry);
        assert_eq!(status, 404);

        // A 'from' below the ring floor tells the caller to re-bootstrap.
        entry.shared().deltas().rebase(10);
        let (status, _h, body) = call(&get("/v1/deltas?from=2"), &registry);
        assert_eq!(status, 200);
        assert!(body.contains("\"reset\":true"), "{body}");
    }

    #[test]
    fn export_streams_model_bytes_with_version_headers() {
        let registry = registry_with_model();
        let entry = registry.get("default").unwrap();
        entry.batcher().train(vec![(vec![128u8; 16], 0)], Trace::off()).unwrap();

        let reply = route(&get("/v1/export?model=default"), &registry, &Trace::off());
        assert_eq!(reply.status, 200);
        assert_eq!(reply.content_type, "application/octet-stream");
        let header =
            |name: &str| reply.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str());
        assert_eq!(header("x-model-version"), Some("1"));
        assert_eq!(header("x-trained-examples"), Some("1"));
        assert_eq!(header("x-model-generation"), Some("1"));

        // The body is a loadable model whose counters equal the live one.
        let exported = hdc::io::load_any(&mut reply.body.as_slice()).unwrap();
        let live = entry.model();
        let (live, exported) = (live.as_dense().unwrap(), exported.as_dense().unwrap());
        for c in 0..2 {
            assert_eq!(
                exported.associative_memory().accumulator(c).unwrap(),
                live.associative_memory().accumulator(c).unwrap(),
                "class {c}"
            );
        }

        let reply = route(&get("/v1/export?model=nope"), &registry, &Trace::off());
        assert_eq!(reply.status, 404);
    }

    #[test]
    fn server_starts_and_shuts_down() {
        let registry = registry_with_model();
        let mut server = Server::start(registry, &ServerConfig::default()).unwrap();
        let addr = server.addr();
        assert_ne!(addr.port(), 0);
        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn a_stage_entered_in_under_a_microsecond_still_counts() {
        let registry = registry_with_model();
        let trace = Trace::new("zero-head", true);
        trace.record(Stage::HeadParse, 0);
        let input = vec!["224"; 16].join(",");
        let reply =
            route(&post("/v1/predict", &format!("{{\"input\":[{input}]}}")), &registry, &trace);
        assert_eq!(reply.status, 200);
        registry.metrics().on_trace(&trace.finalize(reply.status, 10).unwrap());

        let (_, _, body) = call(&get("/debug/traces?model=default"), &registry);
        let doc = crate::json::parse(body.as_bytes()).unwrap();
        let traces = doc.get("traces").and_then(Json::as_array).unwrap();
        let stages = traces[0].get("stages").unwrap();
        assert_eq!(stages.get("head_parse").and_then(Json::as_f64), Some(0.0), "{body}");
        assert!(stages.get("execute").is_some(), "{body}");
        assert!(stages.get("wal_append").is_none() && stages.get("publish").is_none(), "{body}");
        let (_, _, text) = call(&get("/metrics?format=prometheus"), &registry);
        let head = "hdc_stage_latency_us_count{model=\"default\",stage=\"head_parse\"} 1";
        assert!(text.contains(head), "{text}");
        assert!(!text.contains("stage=\"wal_append\"") && !text.contains("stage=\"publish\""));
    }

    #[test]
    fn a_panicking_handler_answers_500_and_its_thread_serves_on() {
        // One more panicking request than there are accept threads: were
        // a panic to kill its thread, the last one would find none left.
        let registry = registry_with_model();
        let workers = 2;
        let config = ServerConfig { workers, ..ServerConfig::default() };
        let mut server = Server::start(Arc::clone(&registry), &config).unwrap();
        for k in 0..=workers {
            let id = format!("{PANIC_ID}-{k}");
            let mut client = crate::client::Client::connect(server.addr()).unwrap();
            let response = client
                .request_with_headers("GET", "/healthz/live", &[("x-request-id", &id)], None)
                .expect("a panicking handler still answers");
            assert_eq!(response.status, 500, "{}", String::from_utf8_lossy(&response.body));
            assert_eq!(response.header("x-request-id"), Some(id.as_str()));
        }
        let mut client = crate::client::Client::connect(server.addr()).unwrap();
        assert_eq!(client.get("/healthz/live").unwrap().status, 200);

        let metrics = registry.metrics();
        assert_eq!(metrics.handler_panics_total(), workers as u64 + 1);
        let json = String::from_utf8(client.get("/metrics").unwrap().body).unwrap();
        assert!(json.contains(&format!("\"handler_panics_total\":{}", workers + 1)), "{json}");
        let text = client.get("/metrics?format=prometheus").unwrap().body;
        let text = String::from_utf8(text).unwrap();
        assert!(text.contains(&format!("hdc_handler_panics_total {}", workers + 1)), "{text}");
        let panicked: Vec<_> = metrics
            .traces()
            .snapshot()
            .into_iter()
            .filter(|record| record.id.starts_with(PANIC_ID))
            .collect();
        assert_eq!(panicked.len(), workers + 1);
        assert!(panicked.iter().all(|r| r.terminal == "panic" && r.status == 500), "{panicked:?}");
        server.shutdown();
    }
}
