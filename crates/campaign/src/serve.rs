//! `fxnet serve` — a memoizing HTTP query daemon over the campaign
//! engine.
//!
//! A cell's metrics are a pure function of its identity-derived seed,
//! so "γ for this scenario × fault × algorithm" is a perfect
//! memoization target: warm queries answer from the content-addressed
//! [`fx_store::Store`], cold queries are scheduled onto a small
//! compute pool through a **bounded priority queue** (priority =
//! waiter count, so hot cells jump the line) with single-flight
//! coalescing — N concurrent identical misses cost one computation.
//! When the queue is full the daemon answers `429 Too Many Requests`
//! with a `Retry-After` header instead of accepting unbounded work.
//!
//! The HTTP layer is a hand-rolled blocking HTTP/1.1 server (the
//! build environment is offline — no crates.io), deliberately tiny:
//! GET only, no body parsing, bounded request-line/header sizes,
//! keep-alive + pipelining via a per-connection read loop. Endpoints:
//!
//! * `GET /v1/cell?scenario=S&fault=F&algo=A[&replicate=N]` — the
//!   query surface. The response body is **deterministic** (identity
//!   and metrics only — no wall-clock fields), so a response can be
//!   byte-compared across hot/cold/chaos runs; the `X-Cache` header
//!   (`hit` or `miss`) carries the cache disposition out of band.
//!   `fxnet cell` runs the same [`resolve_cell`] → [`compute_cell`] →
//!   [`cell_body`] path without a daemon.
//! * `GET /v1/health` — liveness probe (`ok`).
//! * `GET /v1/stats` — hits/misses/coalesced/computed/rejected
//!   counters plus inflight and queue-depth gauges. Gauges live in
//!   dedicated atomics (fx-trace counters drain on snapshot); every
//!   counter is *also* mirrored to `serve`-target trace counters so
//!   `FXNET_TRACE=serve` works and tests can assert single-flight.
//!
//! Failure containment mirrors the campaign engine: a panicking cell
//! is caught by [`run_cell_resilient`](crate::run_cell_resilient)'s
//! machinery downstream of the same chaos sites, a failed cell answers
//! `500` without wedging a worker, and `store_io` chaos degrades
//! lookups to recomputes — by the determinism contract the served
//! bytes never change.

use crate::engine::store_lookup;
use crate::exec::{cell_params, CellResult};
use crate::grid::{cell_seed, expand, Cell};
use crate::spec::{Algo, CampaignSpec};
use fx_graph::par::CancelToken;
use fx_trace::{Counter, Target};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

static TRACE_REQUESTS: Counter = Counter::new(Target::Serve, "requests");
static TRACE_HITS: Counter = Counter::new(Target::Serve, "hits");
static TRACE_MISSES: Counter = Counter::new(Target::Serve, "misses");
static TRACE_COALESCED: Counter = Counter::new(Target::Serve, "coalesced");
static TRACE_COMPUTED: Counter = Counter::new(Target::Serve, "computed");
static TRACE_REJECTED: Counter = Counter::new(Target::Serve, "rejected");
static TRACE_BAD_REQUESTS: Counter = Counter::new(Target::Serve, "bad_requests");

/// Maximum bytes of request line + headers the server reads before
/// answering `431 Request Header Fields Too Large`.
pub const MAX_HEADER_BYTES: usize = 8192;

/// `Retry-After` seconds suggested on a `429` backpressure response.
pub const RETRY_AFTER_SECS: u64 = 1;

/// Configuration of one [`serve`] daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// HTTP connection-handler threads. Each blocked cold query
    /// occupies one, so size this above the expected concurrent
    /// cold-query fan-in.
    pub http_threads: usize,
    /// Cell-compute threads draining the miss queue.
    pub compute_threads: usize,
    /// Bounded miss-queue capacity (cells *waiting*, excluding the
    /// ones already computing). A miss arriving at a full queue is
    /// answered `429` + `Retry-After` — accepted requests are never
    /// dropped.
    pub queue_cap: usize,
    /// How long a request waits for its cold cell before answering
    /// `504 Gateway Timeout`. The cell keeps computing and is
    /// published to the store, so a retry becomes a hit.
    pub request_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7171".to_string(),
            http_threads: 4,
            compute_threads: 1,
            queue_cap: 64,
            request_timeout_ms: 120_000,
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduling: single-flight jobs behind a bounded priority queue
// ---------------------------------------------------------------------------

/// One in-flight cold cell. All concurrent requests for the same
/// canonical key share one `Job` (single-flight).
struct Job {
    cell: Cell,
    key: u64,
    /// `None` until computed; then the terminal outcome.
    done: Mutex<Option<Result<CellResult, String>>>,
    cv: Condvar,
    /// Requests waiting on this job — the scheduling priority.
    waiters: AtomicU64,
    /// True while the job is still in the queue (not yet claimed by a
    /// compute worker). Cleared exactly once; duplicate lazy heap
    /// entries observe `false` and are skipped.
    queued: AtomicBool,
}

/// Max-heap entry: higher waiter-count first, then FIFO.
struct QueueEntry {
    prio: u64,
    seq: u64,
    key: u64,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.prio == other.prio && self.seq == other.seq
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.prio.cmp(&other.prio).then(other.seq.cmp(&self.seq)) // earlier seq wins ties
    }
}

#[derive(Default)]
struct JobQueue {
    heap: BinaryHeap<QueueEntry>,
    jobs: HashMap<u64, Arc<Job>>,
    /// Jobs in `Queued` state — the bounded quantity.
    queued: usize,
    seq: u64,
}

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    computed: AtomicU64,
    rejected: AtomicU64,
    bad_requests: AtomicU64,
    inflight: AtomicU64,
}

struct Shared {
    spec: CampaignSpec,
    store: Option<fx_store::Store>,
    /// Canonical cell key → the spec's expanded cell (so queries that
    /// name a spec grid point run with that grid's overrides/seed).
    known: HashMap<String, Cell>,
    opts: ServeOptions,
    stop: AtomicBool,
    cancel: CancelToken,
    conns: Mutex<VecDeque<TcpStream>>,
    conns_cv: Condvar,
    queue: Mutex<JobQueue>,
    queue_cv: Condvar,
    stats: Stats,
}

/// A running `fxnet serve` daemon. Dropping the handle does **not**
/// stop the server; call [`Server::shutdown`] (tests) or
/// [`Server::join`] (CLI).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

/// Starts the daemon for `spec` on `opts.addr` and returns
/// immediately; request handling happens on background threads.
///
/// The store is the spec's `[params] store` (queries still work
/// without one — every query is then a recompute, single-flighted).
pub fn serve(spec: &CampaignSpec, opts: &ServeOptions) -> Result<Server, String> {
    let store = match &spec.params.store {
        Some(dir) => Some(
            fx_store::Store::open(dir)
                .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?,
        ),
        None => None,
    };
    let known = index_cells(spec)?;
    let listener =
        TcpListener::bind(&opts.addr).map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let shared = Arc::new(Shared {
        spec: spec.clone(),
        store,
        known,
        opts: opts.clone(),
        stop: AtomicBool::new(false),
        cancel: CancelToken::new(),
        conns: Mutex::new(VecDeque::new()),
        conns_cv: Condvar::new(),
        queue: Mutex::new(JobQueue::default()),
        queue_cv: Condvar::new(),
        stats: Stats::default(),
    });
    let mut threads = Vec::new();
    {
        let shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, &shared))
                .map_err(|e| format!("spawn: {e}"))?,
        );
    }
    for i in 0..opts.http_threads.max(1) {
        let shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-http-{i}"))
                .spawn(move || http_worker(&shared))
                .map_err(|e| format!("spawn: {e}"))?,
        );
    }
    for i in 0..opts.compute_threads.max(1) {
        let shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-compute-{i}"))
                .spawn(move || compute_worker(&shared))
                .map_err(|e| format!("spawn: {e}"))?,
        );
    }
    Ok(Server {
        addr,
        shared,
        threads,
    })
}

impl Server {
    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks the calling thread until the daemon stops (the CLI
    /// foreground mode; in practice until the process is killed).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stops the daemon: cancels in-flight computations
    /// cooperatively, wakes every worker, and joins all threads.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.cancel.cancel();
        // Wake the accept loop with a throwaway connection; wake the
        // worker pools through their condvars.
        let _ = TcpStream::connect(self.addr);
        self.shared.conns_cv.notify_all();
        self.shared.queue_cv.notify_all();
        // Waiters parked on job condvars re-check `stop` on their
        // wait timeout; computed jobs notify as usual.
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The spec's expanded cells by canonical identity key: the grid a
/// [`resolve_cell`] query is matched against.
pub fn index_cells(spec: &CampaignSpec) -> Result<HashMap<String, Cell>, String> {
    Ok(expand(spec)?
        .into_iter()
        .map(|cell| (canonical_cell_key(&cell), cell))
        .collect())
}

/// The canonical (spelling-normalized) identity key of a cell — what
/// queries are resolved against.
fn canonical_cell_key(cell: &Cell) -> String {
    let canonical = fx_core::Scenario::from_spec(&cell.graph)
        .map(|s| s.to_string())
        .unwrap_or_else(|_| cell.graph.clone());
    format!(
        "{canonical}|{}|{}|r{}",
        cell.fault, cell.algo, cell.replicate
    )
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        // Without it, Nagle's algorithm holds a response until the
        // client's delayed ACK of the previous one (~40 ms).
        let _ = stream.set_nodelay(true);
        let mut conns = shared.conns.lock().unwrap();
        conns.push_back(stream);
        drop(conns);
        shared.conns_cv.notify_one();
    }
}

fn http_worker(shared: &Shared) {
    loop {
        let stream = {
            let mut conns = shared.conns.lock().unwrap();
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                match conns.pop_front() {
                    Some(s) => break s,
                    None => conns = shared.conns_cv.wait(conns).unwrap(),
                }
            }
        };
        // Errors on one connection (including a client that vanished
        // mid-response) only end that connection; the worker returns
        // to the pool either way — a wedged worker would be a
        // denial-of-service bug.
        handle_connection(stream, shared);
    }
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    extra_headers: Vec<String>,
    body: String,
}

impl Response {
    fn new(status: u16, reason: &'static str, body: String) -> Response {
        Response {
            status,
            reason,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body,
        }
    }

    fn text(status: u16, reason: &'static str, body: &str) -> Response {
        Response {
            status,
            reason,
            content_type: "text/plain",
            extra_headers: Vec::new(),
            body: body.to_string(),
        }
    }

    fn error(status: u16, reason: &'static str, message: &str) -> Response {
        let body = fx_json::Json::Obj(vec![(
            "error".to_string(),
            fx_json::Json::Str(message.to_string()),
        )]);
        Response::new(status, reason, fx_json::to_string(&body))
    }

    /// Writes head and body with one `write_all`, so a response never
    /// leaves as two segments.
    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len()
        );
        for h in &self.extra_headers {
            out.push_str(h);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        out.push_str(&self.body);
        stream.write_all(out.as_bytes())
    }
}

/// Outcome of reading one request off the wire.
enum ReadOutcome {
    /// `GET` path (with query string still attached) + whether the
    /// client asked to close the connection after the response.
    Request { path: String, close: bool },
    /// Clean end of the connection (EOF between requests, timeout).
    Closed,
    /// Protocol violation → respond and close.
    Bad(Response),
}

fn read_request(reader: &mut BufReader<TcpStream>) -> ReadOutcome {
    let mut line = String::new();
    match read_capped_line(reader, &mut line) {
        Ok(0) => return ReadOutcome::Closed,
        Ok(_) => {}
        Err(CapErr::TooLong) => {
            return ReadOutcome::Bad(Response::error(
                431,
                "Request Header Fields Too Large",
                "request line too long",
            ))
        }
        Err(CapErr::Io) => return ReadOutcome::Closed,
    }
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p.to_string(), v),
        _ => {
            return ReadOutcome::Bad(Response::error(
                400,
                "Bad Request",
                "malformed request line",
            ))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return ReadOutcome::Bad(Response::error(
            400,
            "Bad Request",
            "unsupported protocol version",
        ));
    }
    // Headers: consumed and (mostly) ignored — GET only, no body —
    // but bounded, and `Connection: close` is honored.
    let mut close = version == "HTTP/1.0";
    let mut total = line.len();
    loop {
        let mut header = String::new();
        match read_capped_line(reader, &mut header) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => total += n,
            Err(CapErr::TooLong) | Err(CapErr::Io) if total > MAX_HEADER_BYTES => {
                return ReadOutcome::Bad(Response::error(
                    431,
                    "Request Header Fields Too Large",
                    "headers exceed the size bound",
                ))
            }
            Err(CapErr::TooLong) => {
                return ReadOutcome::Bad(Response::error(
                    431,
                    "Request Header Fields Too Large",
                    "header line too long",
                ))
            }
            Err(CapErr::Io) => return ReadOutcome::Closed,
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if total > MAX_HEADER_BYTES {
            return ReadOutcome::Bad(Response::error(
                431,
                "Request Header Fields Too Large",
                "headers exceed the size bound",
            ));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("connection") && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    if method != "GET" {
        return ReadOutcome::Bad(Response::error(
            405,
            "Method Not Allowed",
            "only GET is supported",
        ));
    }
    ReadOutcome::Request { path, close }
}

enum CapErr {
    TooLong,
    Io,
}

/// `read_line` with a hard size cap, so a malicious endless line
/// cannot balloon memory or wedge the worker past the cap.
fn read_capped_line(reader: &mut BufReader<TcpStream>, out: &mut String) -> Result<usize, CapErr> {
    let mut bytes = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        use std::io::Read as _;
        match reader.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                bytes.push(byte[0]);
                if byte[0] == b'\n' {
                    break;
                }
                if bytes.len() > MAX_HEADER_BYTES {
                    return Err(CapErr::TooLong);
                }
            }
            Err(_) => return Err(CapErr::Io),
        }
    }
    out.push_str(&String::from_utf8_lossy(&bytes));
    Ok(bytes.len())
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // A read timeout bounds how long an idle keep-alive connection
    // (or a stalled mid-request client) can hold the worker.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    let mut stream = stream;
    loop {
        match read_request(&mut reader) {
            ReadOutcome::Closed => return,
            ReadOutcome::Bad(resp) => {
                shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                TRACE_BAD_REQUESTS.incr();
                let _ = resp.write_to(&mut stream);
                return; // protocol errors poison the connection
            }
            ReadOutcome::Request { path, close } => {
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                TRACE_REQUESTS.incr();
                let resp = route(&path, shared);
                if resp.write_to(&mut stream).is_err() {
                    // Early client disconnect mid-response: drop the
                    // connection, keep the worker.
                    return;
                }
                if close || shared.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Routing and the /v1/cell pipeline
// ---------------------------------------------------------------------------

fn route(path: &str, shared: &Shared) -> Response {
    let (route, query) = match path.split_once('?') {
        Some((r, q)) => (r, q),
        None => (path, ""),
    };
    match route {
        "/v1/health" => Response::text(200, "OK", "ok\n"),
        "/v1/stats" => stats_response(shared),
        "/v1/cell" => cell_response(query, shared),
        _ => Response::error(404, "Not Found", "unknown path"),
    }
}

fn stats_response(shared: &Shared) -> Response {
    use fx_json::Json;
    let queue_depth = shared.queue.lock().unwrap().queued as u64;
    let s = &shared.stats;
    let u = |n: &AtomicU64| Json::UInt(n.load(Ordering::Relaxed));
    let body = Json::Obj(vec![
        ("requests".to_string(), u(&s.requests)),
        ("hits".to_string(), u(&s.hits)),
        ("misses".to_string(), u(&s.misses)),
        ("coalesced".to_string(), u(&s.coalesced)),
        ("computed".to_string(), u(&s.computed)),
        ("rejected".to_string(), u(&s.rejected)),
        ("bad_requests".to_string(), u(&s.bad_requests)),
        ("inflight".to_string(), u(&s.inflight)),
        ("queue_depth".to_string(), Json::UInt(queue_depth)),
        (
            "queue_cap".to_string(),
            Json::UInt(shared.opts.queue_cap as u64),
        ),
        (
            "store_entries".to_string(),
            Json::UInt(shared.store.as_ref().map_or(0, |s| s.len() as u64)),
        ),
    ]);
    Response::new(200, "OK", fx_json::to_string(&body))
}

/// Percent-decodes a query component (`%41` → `A`). Malformed escapes
/// pass through literally — the scenario/fault parsers reject garbage
/// downstream with a clear message.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let Some(hex) = s.get(i + 1..i + 3) {
                if let Ok(b) = u8::from_str_radix(hex, 16) {
                    out.push(b);
                    i += 3;
                    continue;
                }
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn query_param(query: &str, name: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then(|| percent_decode(v))
    })
}

/// Reads a `/v1/cell` query string's `scenario`, `fault` (default
/// `none`), `algo` and `replicate` (default 0) into a cell.
fn query_cell(query: &str, shared: &Shared) -> Result<Cell, String> {
    let scenario = query_param(query, "scenario").ok_or("missing `scenario` parameter")?;
    let fault = query_param(query, "fault").unwrap_or_else(|| "none".to_string());
    let algo = query_param(query, "algo").ok_or("missing `algo` parameter")?;
    let replicate: usize = match query_param(query, "replicate") {
        None => 0,
        Some(r) => r
            .parse()
            .map_err(|_| "`replicate` must be a non-negative integer".to_string())?,
    };
    resolve_cell(
        &shared.spec,
        &shared.known,
        &scenario,
        &fault,
        &algo,
        replicate,
    )
}

/// Resolves a cell query (`GET /v1/cell` and `fxnet cell`): canonical
/// scenario spelling, parsed fault + algorithm, validity-checked
/// against the `accepts` matrix. Queries naming a cell of the spec's
/// own grid (`known`, from [`index_cells`]) reuse that expanded cell
/// (its grid overrides and seed); ad-hoc cells run under the first
/// grid's effective params with an identity-derived seed, just like a
/// campaign would derive it.
pub fn resolve_cell(
    spec: &CampaignSpec,
    known: &HashMap<String, Cell>,
    scenario: &str,
    fault: &str,
    algo: &str,
    replicate: usize,
) -> Result<Cell, String> {
    let scenario = fx_core::Scenario::from_spec(scenario).map_err(|e| format!("scenario: {e}"))?;
    let fault = crate::spec::FaultSpec::parse(fault).map_err(|e| format!("fault: {e}"))?;
    let algo = Algo::parse(algo)?;
    algo.accepts(&fault, &scenario)?;
    let canonical = scenario.to_string();
    let key = format!("{canonical}|{fault}|{algo}|r{replicate}");
    if let Some(cell) = known.get(&key) {
        return Ok(cell.clone());
    }
    let mut cell = Cell {
        graph: canonical,
        fault,
        algo,
        replicate,
        seed: 0,
        grid: 0,
    };
    cell.seed = cell_seed(spec.seed, &cell.key());
    Ok(cell)
}

/// The deterministic `/v1/cell` response body: cell identity +
/// metrics, no wall-clock or cache fields — so hot, cold, and
/// chaos-degraded answers for the same cell are byte-identical.
pub fn cell_body(cell: &Cell, result: &CellResult) -> String {
    use fx_json::Json;
    let canonical = fx_core::Scenario::from_spec(&cell.graph)
        .map(|s| s.to_string())
        .unwrap_or_else(|_| cell.graph.clone());
    let metrics = Json::Arr(
        result
            .metrics
            .iter()
            .map(|(name, value)| Json::Arr(vec![Json::Str(name.clone()), Json::Num(*value)]))
            .collect(),
    );
    let body = Json::Obj(vec![
        ("scenario".to_string(), Json::Str(canonical)),
        ("fault".to_string(), Json::Str(cell.fault.to_string())),
        ("algo".to_string(), Json::Str(cell.algo.to_string())),
        ("replicate".to_string(), Json::UInt(cell.replicate as u64)),
        ("seed".to_string(), Json::UInt(cell.seed)),
        ("metrics".to_string(), metrics),
    ]);
    fx_json::to_string(&body)
}

fn cell_response(query: &str, shared: &Shared) -> Response {
    let cell = match query_cell(query, shared) {
        Ok(cell) => cell,
        Err(e) => return Response::error(400, "Bad Request", &e),
    };
    let key = crate::store_key::store_key(&shared.spec, &cell);
    // Warm path: the store answers without touching the queue.
    if let Some(store) = &shared.store {
        if let Some(result) = store_lookup(store, &cell, key) {
            shared.stats.hits.fetch_add(1, Ordering::Relaxed);
            TRACE_HITS.incr();
            let mut resp = Response::new(200, "OK", cell_body(&cell, &result));
            resp.extra_headers.push("X-Cache: hit".to_string());
            return resp;
        }
    }
    shared.stats.misses.fetch_add(1, Ordering::Relaxed);
    TRACE_MISSES.incr();
    // Cold path: single-flight schedule, then wait.
    let job = {
        let mut queue = shared.queue.lock().unwrap();
        if let Some(job) = queue.jobs.get(&key).cloned() {
            // Coalesce onto the in-flight computation; the extra
            // waiter bumps the job's queue priority (lazy re-push —
            // stale entries are skipped at pop time).
            let waiters = job.waiters.fetch_add(1, Ordering::Relaxed) + 1;
            shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            TRACE_COALESCED.incr();
            if job.queued.load(Ordering::Relaxed) {
                queue.seq += 1;
                let seq = queue.seq;
                queue.heap.push(QueueEntry {
                    prio: waiters,
                    seq,
                    key,
                });
            }
            job
        } else {
            if queue.queued >= shared.opts.queue_cap {
                drop(queue);
                shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                TRACE_REJECTED.incr();
                let mut resp = Response::error(
                    429,
                    "Too Many Requests",
                    "compute queue is full; retry shortly",
                );
                resp.extra_headers
                    .push(format!("Retry-After: {RETRY_AFTER_SECS}"));
                return resp;
            }
            let job = Arc::new(Job {
                cell: cell.clone(),
                key,
                done: Mutex::new(None),
                cv: Condvar::new(),
                waiters: AtomicU64::new(1),
                queued: AtomicBool::new(true),
            });
            queue.jobs.insert(key, job.clone());
            queue.queued += 1;
            queue.seq += 1;
            let seq = queue.seq;
            queue.heap.push(QueueEntry { prio: 1, seq, key });
            drop(queue);
            shared.queue_cv.notify_one();
            job
        }
    };
    // Wait for the compute pool. The job object outlives the queue
    // entry, so a response is delivered even to waiters that coalesced
    // in after computation started.
    let deadline = Duration::from_millis(shared.opts.request_timeout_ms.max(1));
    let guard = job.done.lock().unwrap();
    let (done, _timed_out) = job
        .cv
        .wait_timeout_while(guard, deadline, |d| {
            d.is_none() && !shared.stop.load(Ordering::SeqCst)
        })
        .unwrap();
    if done.is_none() {
        job.waiters.fetch_sub(1, Ordering::Relaxed);
        return if shared.stop.load(Ordering::SeqCst) {
            Response::error(503, "Service Unavailable", "server is shutting down")
        } else {
            Response::error(
                504,
                "Gateway Timeout",
                "cell is still computing; retry to pick it up from the store",
            )
        };
    }
    match done.as_ref().unwrap() {
        Ok(result) => {
            let mut resp = Response::new(200, "OK", cell_body(&cell, result));
            resp.extra_headers.push("X-Cache: miss".to_string());
            resp
        }
        Err(message) => Response::error(500, "Internal Server Error", message),
    }
}

// ---------------------------------------------------------------------------
// Compute pool
// ---------------------------------------------------------------------------

fn compute_worker(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                match queue.heap.pop() {
                    Some(entry) => {
                        let Some(job) = queue.jobs.get(&entry.key).cloned() else {
                            continue; // finished; stale lazy entry
                        };
                        if !job.queued.swap(false, Ordering::Relaxed) {
                            continue; // duplicate entry; already claimed
                        }
                        queue.queued -= 1;
                        break job;
                    }
                    None => queue = shared.queue_cv.wait(queue).unwrap(),
                }
            }
        };
        shared.stats.inflight.fetch_add(1, Ordering::Relaxed);
        let result = compute_cell(&shared.spec, &job.cell, &shared.cancel);
        shared.stats.computed.fetch_add(1, Ordering::Relaxed);
        TRACE_COMPUTED.incr();
        // Publish *before* signaling waiters: a waiter that timed out
        // and retries must find the store already warm.
        if let (Some(store), Ok(r)) = (&shared.store, &result) {
            let _ = store.put(job.key, &fx_json::to_string(r));
        }
        shared.queue.lock().unwrap().jobs.remove(&job.key);
        *job.done.lock().unwrap() = Some(result);
        job.cv.notify_all();
        shared.stats.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs one cold cell (a daemon miss, or `fxnet cell`) under the
/// spec's effective `timeout_ms` if set, else under `cancel` (the
/// daemon's shutdown token). Quarantine semantics match the engine: a
/// panicking, failed or timed-out cell is an error, never a
/// publishable result.
pub fn compute_cell(
    spec: &CampaignSpec,
    cell: &Cell,
    cancel: &CancelToken,
) -> Result<CellResult, String> {
    let token = match cell_params(spec, cell).timeout_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => cancel.clone(),
    };
    let result = crate::exec::run_cell_isolated(spec, cell, &token)?;
    if result.failed != 0 {
        return Err(result.error);
    }
    if result.metric("timed_out").is_some() {
        return Err("cell timed out".to_string());
    }
    Ok(result)
}
