//! `fxnet serve` protocol-conformance and equivalence battery, spoken
//! over raw `TcpStream`s against an ephemeral-port daemon — no HTTP
//! client library, so every byte on the wire is the test's own.
//!
//! The centerpiece guarantee under test: **the serve path can never
//! return a result that differs from a fresh campaign run.** Both the
//! warm path (store hit) and the cold path (queue → compute) are
//! compared bit-for-bit against in-process [`run_cell`] executions of
//! the same cells.
//!
//! The battery also proves the daemon is un-wedgeable: malformed
//! request lines, oversized headers, unknown paths, non-GET methods,
//! early client disconnects mid-exchange, and pipelined requests all
//! produce correct status codes on *this* connection and leave the
//! worker pool serving the next one. Identical concurrent misses
//! coalesce into one computation (single-flight), asserted through
//! `/v1/stats`; waiting
//! cells compute in arrival order, however many requests wait on each;
//! a full compute queue answers `429` + `Retry-After` without dropping
//! any request it already accepted; a cell slower than the request
//! timeout answers `504` and is still published, so a retry hits.

use fx_campaign::{expand, run, run_cell, serve, CampaignSpec, RunOptions, ServeOptions};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serve tests time cells and requests against deadlines, so they run
/// one at a time rather than compete for the CPU.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fxnet-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 2 scenarios × 2 faults × expansion-cert × 2 replicates = 8 quick
/// cells — the same matrix the engine tests run.
fn mini_spec(store: Option<&Path>) -> CampaignSpec {
    let store_line = match store {
        Some(dir) => format!("[params]\nstore = \"{}\"\n", dir.display()),
        None => String::new(),
    };
    CampaignSpec::parse(&format!(
        "name = \"serve-it\"\nreplicates = 2\nseed = 5\n\
         graphs = [\"cycle:16\", \"torus:5,5\"]\n\
         faults = [\"none\", \"random-exact:3\"]\n\
         algorithms = [\"expansion-cert\"]\n{store_line}"
    ))
    .unwrap()
}

/// One quick cell plus one cell that reliably occupies a compute
/// worker for ~3 s: a large percolation sweep cancelled by its own
/// grid's `timeout_ms` deadline (so the occupancy window is bounded
/// by the token, not by luck).
fn slow_spec() -> CampaignSpec {
    // trials/grid size the percolation sweep to >10 s of work even in
    // release, so the 3 s deadline *always* fires first (the
    // bit-parallel MC engine makes smaller sweeps finish early and
    // the occupancy window would vanish). The window must also cover
    // the scheduling tests' probe round-trips when the whole suite
    // runs in parallel and every poll loop crawls — 700 ms was flaky
    // under full-suite contention. expansion-cert ignores both knobs,
    // so the fast cell stays fast.
    CampaignSpec::parse(
        "name = \"serve-slow\"\nreplicates = 1\nseed = 3\n\
         [params]\ntrials = 40000\ngrid = 1200\n\
         [grid-fast]\ngraphs = [\"cycle:16\"]\nfaults = [\"none\"]\n\
         algorithms = [\"expansion-cert\"]\n\
         [grid-slow]\ngraphs = [\"torus:64,64\"]\nfaults = [\"none\"]\n\
         algorithms = [\"percolation\"]\ntimeout_ms = 3000\n",
    )
    .unwrap()
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn parse_reply(raw: &str) -> Reply {
    let (head, body) = raw.split_once("\r\n\r\n").expect("complete response");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

/// Sends raw bytes, reads until EOF, parses the (single) response.
fn raw_request(addr: SocketAddr, payload: &[u8], read_timeout: Duration) -> Reply {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(read_timeout)).unwrap();
    stream.write_all(payload).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    parse_reply(&raw)
}

fn get(addr: SocketAddr, path: &str) -> Reply {
    get_with_timeout(addr, path, Duration::from_secs(30))
}

fn get_with_timeout(addr: SocketAddr, path: &str, read_timeout: Duration) -> Reply {
    raw_request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        read_timeout,
    )
}

fn cell_path(cell: &fx_campaign::Cell) -> String {
    format!(
        "/v1/cell?scenario={}&fault={}&algo={}&replicate={}",
        cell.graph, cell.fault, cell.algo, cell.replicate
    )
}

fn stat(addr: SocketAddr, name: &str) -> u64 {
    let reply = get(addr, "/v1/stats");
    assert_eq!(reply.status, 200);
    let json = fx_json::Json::parse(&reply.body).unwrap();
    json.get(name)
        .and_then(fx_json::Json::as_u64)
        .unwrap_or_else(|| panic!("stats field {name} in {}", reply.body))
}

fn wait_for_stat(addr: SocketAddr, name: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if stat(addr, name) == want {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting {name}={want}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The deterministic response body's metrics, as (name, bits) pairs —
/// fx-json round-trips f64 exactly, so bit equality is the honest
/// comparison.
fn body_metrics(body: &str) -> Vec<(String, u64)> {
    let json = fx_json::Json::parse(body).unwrap();
    match json.get("metrics").expect("metrics array") {
        fx_json::Json::Arr(pairs) => pairs
            .iter()
            .map(|pair| match pair {
                fx_json::Json::Arr(kv) => {
                    let name = match &kv[0] {
                        fx_json::Json::Str(s) => s.clone(),
                        other => panic!("metric name, got {other:?}"),
                    };
                    let value = kv[1].as_f64().expect("metric value");
                    (name, value.to_bits())
                }
                other => panic!("metric pair, got {other:?}"),
            })
            .collect(),
        other => panic!("metrics array, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Equivalence: serve output ≡ fresh campaign execution
// ---------------------------------------------------------------------------

#[test]
fn served_cells_are_bit_identical_to_fresh_runs_warm_and_cold() {
    let _guard = serial();
    let store_dir = temp_dir("equiv-store");
    let out_dir = temp_dir("equiv-out");
    let spec = mini_spec(Some(&store_dir));

    // Populate the store with a real campaign run, then serve from it.
    let opts = RunOptions {
        quiet: true,
        output: Some(out_dir.clone()),
        ..RunOptions::default()
    };
    let summary = run(&spec, &opts).unwrap();
    assert!(summary.complete);
    assert_eq!(summary.cache_hits, 0, "cold run computes everything");

    let server = serve(
        &spec,
        &ServeOptions {
            addr: "127.0.0.1:0".into(),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Every grid cell: the warm answer must be bit-identical to an
    // in-process fresh execution of the same cell.
    let cells = expand(&spec).unwrap();
    assert_eq!(cells.len(), 8);
    for cell in &cells {
        let reply = get(addr, &cell_path(cell));
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(
            reply.header("X-Cache"),
            Some("hit"),
            "campaign-published cell must be served warm"
        );
        let fresh = run_cell(&spec, cell);
        let fresh_metrics: Vec<(String, u64)> = fresh
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect();
        assert_eq!(
            body_metrics(&reply.body),
            fresh_metrics,
            "serve differs from a fresh run for {}",
            cell.key()
        );
    }
    assert_eq!(stat(addr, "hits"), 8);
    assert_eq!(stat(addr, "misses"), 0);
    server.shutdown();

    // Cold path: an empty store forces queue → compute; the bytes of
    // every answer must equal the warm answers above (and therefore
    // the fresh runs).
    let cold_store = temp_dir("equiv-cold");
    let cold_spec = mini_spec(Some(&cold_store));
    let cold = serve(
        &cold_spec,
        &ServeOptions {
            addr: "127.0.0.1:0".into(),
            compute_threads: 2,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    for cell in &cells {
        let reply = get(cold.addr(), &cell_path(cell));
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(reply.header("X-Cache"), Some("miss"));
        let fresh = run_cell(&cold_spec, cell);
        let fresh_metrics: Vec<(String, u64)> = fresh
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect();
        assert_eq!(body_metrics(&reply.body), fresh_metrics);
        // ... and the cold computation published, so a repeat is a
        // warm hit with the exact same bytes.
        let again = get(cold.addr(), &cell_path(cell));
        assert_eq!(again.header("X-Cache"), Some("hit"));
        assert_eq!(again.body, reply.body, "hot and cold bytes differ");
    }
    cold.shutdown();
    for dir in [store_dir, out_dir, cold_store] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn ad_hoc_cells_outside_the_spec_grid_are_computed_and_memoized() {
    let _guard = serial();
    let store_dir = temp_dir("adhoc-store");
    let spec = mini_spec(Some(&store_dir));
    let server = serve(
        &spec,
        &ServeOptions {
            addr: "127.0.0.1:0".into(),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    // replicate 7 is outside the spec's replicates = 2.
    let path = "/v1/cell?scenario=cycle:16&fault=none&algo=expansion-cert&replicate=7";
    let cold = get(server.addr(), path);
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("X-Cache"), Some("miss"));
    let warm = get(server.addr(), path);
    assert_eq!(warm.header("X-Cache"), Some("hit"));
    assert_eq!(warm.body, cold.body);
    server.shutdown();
    let _ = std::fs::remove_dir_all(store_dir);
}

// ---------------------------------------------------------------------------
// Protocol conformance
// ---------------------------------------------------------------------------

#[test]
fn protocol_violations_yield_correct_statuses_and_never_wedge_a_worker() {
    let _guard = serial();
    let spec = mini_spec(None);
    let server = serve(
        &spec,
        &ServeOptions {
            addr: "127.0.0.1:0".into(),
            http_threads: 2,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let quick = Duration::from_secs(10);

    assert_eq!(get(addr, "/v1/health").status, 200);
    assert_eq!(get(addr, "/v1/health").body, "ok\n");

    // Malformed request lines.
    assert_eq!(raw_request(addr, b"GARBAGE\r\n\r\n", quick).status, 400);
    assert_eq!(
        raw_request(addr, b"GET /v1/health HTTP/1.1 EXTRA\r\n\r\n", quick).status,
        400
    );
    assert_eq!(
        raw_request(addr, b"GET /v1/health SPDY/3\r\n\r\n", quick).status,
        400
    );
    // Non-GET methods.
    assert_eq!(
        raw_request(addr, b"POST /v1/cell HTTP/1.1\r\n\r\n", quick).status,
        405
    );
    assert_eq!(
        raw_request(addr, b"DELETE /v1/cell HTTP/1.1\r\n\r\n", quick).status,
        405
    );
    // Unknown paths.
    assert_eq!(get(addr, "/").status, 404);
    assert_eq!(get(addr, "/v2/cell").status, 404);
    // Oversized request line and oversized header block.
    let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(9000));
    assert_eq!(raw_request(addr, long_path.as_bytes(), quick).status, 431);
    let many_headers = format!(
        "GET /v1/health HTTP/1.1\r\n{}\r\n",
        "X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n".repeat(300)
    );
    assert_eq!(
        raw_request(addr, many_headers.as_bytes(), quick).status,
        431
    );
    // Query-level mistakes are 400s with an explanation.
    assert_eq!(get(addr, "/v1/cell").status, 400);
    assert_eq!(get(addr, "/v1/cell?scenario=cycle:16").status, 400);
    assert_eq!(
        get(addr, "/v1/cell?scenario=nosuch:9&fault=none&algo=prune").status,
        400
    );
    assert_eq!(
        get(addr, "/v1/cell?scenario=cycle:16&fault=none&algo=nosuch").status,
        400
    );
    // accepts-matrix violation: span under a fault model.
    assert_eq!(
        get(
            addr,
            "/v1/cell?scenario=cycle:16&fault=random:0.1&algo=span"
        )
        .status,
        400
    );
    assert_eq!(
        get(
            addr,
            "/v1/cell?scenario=cycle:16&fault=none&algo=expansion-cert&replicate=minus"
        )
        .status,
        400
    );

    // After all of that abuse, the pool still answers.
    assert_eq!(get(addr, "/v1/health").status, 200);
    server.shutdown();
}

#[test]
fn pipelined_requests_and_percent_encoding_work_on_one_connection() {
    let _guard = serial();
    let spec = mini_spec(None);
    let server = serve(
        &spec,
        &ServeOptions {
            addr: "127.0.0.1:0".into(),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Three pipelined requests in one write; the last closes. The
    // percent-encoded scenario (%3A = ':', %2C = ',') must resolve to
    // the same 400-free parse a literal spelling gets.
    stream
        .write_all(
            b"GET /v1/health HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /v1/cell?scenario=torus%3A5%2C5&fault=none&algo=span HTTP/1.1\r\n\
              Host: t\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    // Responses have no trailing newline, so a body can butt directly
    // against the next status line — count matches, not lines.
    assert_eq!(
        raw.matches("HTTP/1.1 200 OK").count(),
        3,
        "raw exchange:\n{raw}"
    );
    assert!(
        raw.contains("\"scenario\":\"torus:5,5\""),
        "percent-encoded scenario must decode: {raw}"
    );
    server.shutdown();
}

#[test]
fn early_client_disconnects_leave_the_pool_serving() {
    let _guard = serial();
    let spec = mini_spec(None);
    let server = serve(
        &spec,
        &ServeOptions {
            addr: "127.0.0.1:0".into(),
            http_threads: 2,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    // More abandoned connections than HTTP workers, in every rude
    // shape: connect-and-close, partial request line then close, and
    // full request closed before reading the response.
    for _ in 0..3 {
        drop(TcpStream::connect(addr).unwrap());
        let mut partial = TcpStream::connect(addr).unwrap();
        partial.write_all(b"GET /v1/hea").unwrap();
        drop(partial);
        let mut unread = TcpStream::connect(addr).unwrap();
        unread
            .write_all(b"GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        drop(unread);
    }
    // Both workers must still be alive to answer these.
    assert_eq!(get(addr, "/v1/health").status, 200);
    assert_eq!(get(addr, "/v1/stats").status, 200);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Scheduling: single-flight coalescing, FIFO order, bounded-queue
// backpressure and the request timeout
// ---------------------------------------------------------------------------

/// An exact-span cell that takes ~0.3 s in release: slow enough to
/// outlast a short request timeout or to trail a fast cell by a wide
/// margin, quick enough to finish well inside the polling deadlines.
const SPAN_CELL: &str = "/v1/cell?scenario=torus:3,6&fault=none&algo=span";

#[test]
fn concurrent_identical_misses_coalesce_into_one_computation() {
    let _guard = serial();
    let spec = slow_spec();
    let server = serve(
        &spec,
        &ServeOptions {
            addr: "127.0.0.1:0".into(),
            http_threads: 8,
            compute_threads: 1,
            queue_cap: 16,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Occupy the single compute worker with the deadline-bounded slow
    // cell (it answers 500 "timed out" after ~3 s — by design, so
    // it can never be memoized).
    let slow = std::thread::spawn(move || {
        get(
            addr,
            "/v1/cell?scenario=torus:64,64&fault=none&algo=percolation",
        )
    });
    wait_for_stat(addr, "inflight", 1);

    // Four identical misses arrive while the worker is busy: the
    // first creates the job, the rest coalesce onto it.
    let fast = "/v1/cell?scenario=cycle:16&fault=none&algo=expansion-cert";
    let waiters: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || get(addr, fast)))
        .collect();
    wait_for_stat(addr, "coalesced", 3);

    let bodies: Vec<Reply> = waiters.into_iter().map(|t| t.join().unwrap()).collect();
    for reply in &bodies {
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(reply.body, bodies[0].body, "coalesced answers must agree");
    }
    let slow_reply = slow.join().unwrap();
    assert_eq!(slow_reply.status, 500, "{}", slow_reply.body);

    // Exactly two computations total: the slow occupier and ONE run
    // of the coalesced fast cell.
    assert_eq!(stat(addr, "computed"), 2);
    assert_eq!(stat(addr, "coalesced"), 3);
    assert_eq!(stat(addr, "misses"), 5);
    server.shutdown();
}

#[test]
fn full_queue_answers_429_without_dropping_accepted_requests() {
    let _guard = serial();
    let spec = slow_spec();
    let server = serve(
        &spec,
        &ServeOptions {
            addr: "127.0.0.1:0".into(),
            http_threads: 8,
            compute_threads: 1,
            queue_cap: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Occupy the worker; the queue itself stays empty (the job is
    // claimed, not queued).
    let slow = std::thread::spawn(move || {
        get(
            addr,
            "/v1/cell?scenario=torus:64,64&fault=none&algo=percolation",
        )
    });
    wait_for_stat(addr, "inflight", 1);

    // Fill the queue (capacity 1) with an accepted cold request...
    let accepted = std::thread::spawn(move || {
        get(
            addr,
            "/v1/cell?scenario=cycle:16&fault=none&algo=expansion-cert",
        )
    });
    wait_for_stat(addr, "queue_depth", 1);

    // ...then a *distinct* cold cell must bounce with 429 +
    // Retry-After while an identical one still coalesces (it joins
    // the queued job instead of needing a slot).
    let rejected = get(
        addr,
        "/v1/cell?scenario=cycle:16&fault=none&algo=expansion-cert&replicate=9",
    );
    assert_eq!(rejected.status, 429, "{}", rejected.body);
    assert_eq!(rejected.header("Retry-After"), Some("1"));
    assert_eq!(stat(addr, "rejected"), 1);
    let coalesced = std::thread::spawn(move || {
        get(
            addr,
            "/v1/cell?scenario=cycle:16&fault=none&algo=expansion-cert",
        )
    });

    // Every accepted request completes: the queued job and its
    // coalesced twin answer 200 once the worker frees up.
    let accepted_reply = accepted.join().unwrap();
    assert_eq!(accepted_reply.status, 200, "{}", accepted_reply.body);
    let coalesced_reply = coalesced.join().unwrap();
    assert_eq!(coalesced_reply.status, 200);
    assert_eq!(coalesced_reply.body, accepted_reply.body);
    assert_eq!(slow.join().unwrap().status, 500);
    server.shutdown();
}

#[test]
fn queued_cells_compute_in_arrival_order_whatever_their_waiter_counts() {
    let _guard = serial();
    let spec = slow_spec();
    let server = serve(
        &spec,
        &ServeOptions {
            addr: "127.0.0.1:0".into(),
            http_threads: 8,
            compute_threads: 1,
            queue_cap: 16,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Occupy the single compute worker so both jobs below queue up.
    let slow = std::thread::spawn(move || {
        get(
            addr,
            "/v1/cell?scenario=torus:64,64&fault=none&algo=percolation",
        )
    });
    wait_for_stat(addr, "inflight", 1);

    // Job A (a fast cell) is requested once, then job B (the ~0.3 s
    // span cell) three times. Each client notes when its answer
    // arrives.
    let finished = Arc::new(Mutex::new(Vec::new()));
    let request = |name: &'static str, path: &'static str| {
        let finished = finished.clone();
        std::thread::spawn(move || {
            let reply = get(addr, path);
            finished.lock().unwrap().push(name);
            reply
        })
    };
    let a = request(
        "A",
        "/v1/cell?scenario=cycle:16&fault=none&algo=expansion-cert",
    );
    wait_for_stat(addr, "queue_depth", 1);
    let b: Vec<_> = (0..3).map(|_| request("B", SPAN_CELL)).collect();
    wait_for_stat(addr, "coalesced", 2);
    assert_eq!(stat(addr, "queue_depth"), 2);

    // Once the worker frees up, A (queued first) computes before B,
    // although three requests wait on B and one on A.
    assert_eq!(a.join().unwrap().status, 200);
    for reply in b {
        assert_eq!(reply.join().unwrap().status, 200);
    }
    assert_eq!(*finished.lock().unwrap(), ["A", "B", "B", "B"]);
    assert_eq!(slow.join().unwrap().status, 500);
    assert_eq!(stat(addr, "computed"), 3);
    server.shutdown();
}

#[test]
fn a_cell_slower_than_the_request_timeout_answers_504_and_a_retry_hits() {
    let _guard = serial();
    let store_dir = temp_dir("timeout-store");
    let spec = mini_spec(Some(&store_dir));
    let server = serve(
        &spec,
        &ServeOptions {
            addr: "127.0.0.1:0".into(),
            request_timeout_ms: 30,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let first = get(addr, SPAN_CELL);
    assert_eq!(first.status, 504, "{}", first.body);
    assert_eq!(first.header("X-Cache"), None);

    // The cell keeps computing after the 504 and is published, so a
    // retry once it has finished answers from the store.
    wait_for_stat(addr, "store_entries", 1);
    let retry = get(addr, SPAN_CELL);
    assert_eq!(retry.status, 200, "{}", retry.body);
    assert_eq!(retry.header("X-Cache"), Some("hit"));
    assert_eq!(stat(addr, "computed"), 1);
    assert_eq!(stat(addr, "misses"), 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(store_dir);
}
