//! The `serve_mixed` workload: `fx_campaign::serve` in-process over a
//! fresh store, driven by two keep-alive client connections in a
//! closed loop (each client sends its next request when the previous
//! reply has arrived).
//!
//! * Cold phase: every cell of a seeded list is queried once. Each
//!   query is a miss: the daemon computes the cell and publishes it
//!   to the store.
//! * Warm phase: seeded picks from the same list until the run's time
//!   is used up; each is a store hit.
//!
//! Checks: every response is `200` (a `429` is retried), every warm
//! body equals its key's cold body, and every cold body equals the
//! body of `run_cell`'s result for that cell.

use crate::stats::quantile;
use crate::trace::{self, timed};
use crate::{clear_dir, Metrics};
use fx_campaign::{expand, run_cell, store_key, CampaignSpec, Cell, ServeOptions};
use fx_json::Json;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections (the benchmark host has two cores).
pub const CLIENTS: usize = 2;

/// The committed spec the key list comes from.
pub const SPEC: &str = "quick";

/// Replicates of every `quick.toml` grid point: 12 points × 12 = 144
/// distinct cold keys, enough for a p90 with ten samples above it.
pub const REPLICATES: usize = 12;

/// Pause before retrying a `429`.
const RETRY_PAUSE: Duration = Duration::from_millis(5);

/// The `serve_mixed` spec: `quick.toml` with the workload seed,
/// [`REPLICATES`] replicates and its store at `store`.
pub fn spec(root: &Path, seed: u64, store: &Path) -> Result<CampaignSpec, String> {
    let mut spec = crate::catalog::load_spec(root, SPEC, seed)?;
    spec.name = "serve-mixed".to_string();
    spec.replicates = REPLICATES;
    spec.params.store = Some(store.to_path_buf());
    Ok(spec)
}

/// The daemon configuration: two HTTP and two compute threads.
pub fn options() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        http_threads: CLIENTS,
        compute_threads: 2,
        queue_cap: 64,
        request_timeout_ms: 60_000,
    }
}

/// The seeded key list: every cell of the spec, shuffled.
pub fn key_list(spec: &CampaignSpec, seed: u64) -> Result<Vec<Cell>, String> {
    let mut cells = expand(spec)?;
    cells.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x5E12_7E5E_ED11_57AA));
    Ok(cells)
}

/// Starts the daemon on a fresh store and waits until `/v1/health`
/// answers. Returns the server (the caller shuts it down) and the
/// set-up time `setup_s` counts: from the `serve` call to the health
/// answer.
pub fn start(spec: &CampaignSpec) -> Result<(fx_campaign::Server, f64), String> {
    if let Some(store) = &spec.params.store {
        clear_dir(store)?;
    }
    let started = Instant::now();
    let server = timed("serve.start", || fx_campaign::serve(spec, &options()))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let (status, _) = client
        .get("/v1/health")
        .map_err(|e| format!("health: {e}"))?;
    if status != 200 {
        return Err(format!("health probe answered {status}"));
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// One keep-alive HTTP/1.1 connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Sends `GET path` in one write and reads the response: status
    /// and body.
    fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.writer.write_all(request.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// Percent-encodes a query value (everything but unreserved bytes).
fn encode(value: &str) -> String {
    value
        .bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                (b as char).to_string()
            }
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// The `/v1/cell` query naming `cell`.
pub fn query_path(cell: &Cell) -> String {
    format!(
        "/v1/cell?scenario={}&fault={}&algo={}&replicate={}",
        encode(&cell.graph),
        encode(&cell.fault.to_string()),
        encode(&cell.algo.to_string()),
        cell.replicate
    )
}

/// The `/v1/cell` body the daemon must send for `cell` given its
/// computed metrics: identity plus metrics, no timing fields.
pub fn expected_body(cell: &Cell, metrics: &[(String, f64)]) -> String {
    let canonical = fx_core::Scenario::from_spec(&cell.graph)
        .map(|s| s.to_string())
        .unwrap_or_else(|_| cell.graph.clone());
    let metrics = metrics
        .iter()
        .map(|(name, value)| Json::Arr(vec![Json::Str(name.clone()), Json::Num(*value)]))
        .collect();
    fx_json::to_string(&Json::Obj(vec![
        ("scenario".to_string(), Json::Str(canonical)),
        ("fault".to_string(), Json::Str(cell.fault.to_string())),
        ("algo".to_string(), Json::Str(cell.algo.to_string())),
        ("replicate".to_string(), Json::UInt(cell.replicate as u64)),
        ("seed".to_string(), Json::UInt(cell.seed)),
        ("metrics".to_string(), Json::Arr(metrics)),
    ]))
}

/// What one serve session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Cold-phase latencies, ms.
    pub cold_ms: Vec<f64>,
    /// Warm-phase latencies, ms.
    pub warm_ms: Vec<f64>,
    /// Cold phase wall time, s.
    pub cold_wall_s: f64,
    /// Warm phase wall time, s.
    pub warm_wall_s: f64,
    /// Requests sent (429 retries included).
    pub requests: usize,
    /// Mismatches: non-200/429 answers, transport errors, warm bodies
    /// unlike their cold body, cold bodies unlike `run_cell`'s.
    pub errors: Vec<String>,
    /// `/v1/stats` after the warm phase.
    pub stats: Option<Json>,
    /// The cold answer for each key of the list (`None` when it
    /// failed).
    pub cold_bodies: Vec<Option<String>>,
}

/// Sends `path` until it is not answered `429`; records the final
/// latency (from the first send) and counts.
fn query(client: &mut Client, path: &str, session: &Mutex<Session>) -> Option<(f64, String)> {
    let started = Instant::now();
    loop {
        let answer = client.get(path);
        let mut s = session
            .lock()
            .expect("session poisoned by a panicking client");
        s.requests += 1;
        match answer {
            Ok((429, _)) => {
                drop(s);
                std::thread::sleep(RETRY_PAUSE);
            }
            Ok((200, body)) => return Some((started.elapsed().as_secs_f64() * 1e3, body)),
            Ok((status, body)) => {
                s.errors.push(format!("{path}: HTTP {status}: {body}"));
                return None;
            }
            Err(e) => {
                s.errors.push(format!("{path}: {e}"));
                return None;
            }
        }
    }
}

/// Runs the cold and warm phases against a started daemon. The warm
/// phase stops at `deadline`, but runs for at least `min_warm`.
pub fn run_session(
    server: &fx_campaign::Server,
    keys: &[Cell],
    seed: u64,
    deadline: Instant,
    min_warm: Duration,
) -> Session {
    let addr = server.addr();
    let session = Mutex::new(Session::default());
    let cold_bodies: Mutex<Vec<Option<String>>> = Mutex::new(vec![None; keys.len()]);
    let paths: Vec<String> = keys.iter().map(query_path).collect();
    let parent = trace::current();
    let connect = |session: &Mutex<Session>| match Client::connect(addr) {
        Ok(c) => Some(c),
        Err(e) => {
            let mut s = session
                .lock()
                .expect("session poisoned by a panicking client");
            s.errors.push(format!("connect: {e}"));
            None
        }
    };

    let started = Instant::now();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let _phase = trace::span_under("serve.cold_client", parent);
                let Some(mut client) = connect(&session) else {
                    return;
                };
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(path) = paths.get(i) else { break };
                    let answer = timed("serve.request_cold", || query(&mut client, path, &session));
                    if let Some((ms, body)) = answer {
                        session.lock().expect("session poisoned").cold_ms.push(ms);
                        cold_bodies.lock().expect("bodies poisoned")[i] = Some(body);
                    }
                }
            });
        }
    });
    let cold_wall_s = started.elapsed().as_secs_f64();
    let cold_bodies = cold_bodies.into_inner().expect("bodies poisoned");

    let started = Instant::now();
    let warm_until = deadline.max(started + min_warm);
    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let (session, cold_bodies, paths) = (&session, &cold_bodies, &paths);
            scope.spawn(move || {
                let _phase = trace::span_under("serve.warm_client", parent);
                let Some(mut client) = connect(session) else {
                    return;
                };
                let mut rng = SmallRng::seed_from_u64(seed ^ (0x3A7E_0000 + client_id as u64));
                // no span per warm request: their number grows with the
                // daemon's speed; the latencies are kept instead
                while Instant::now() < warm_until {
                    let i = rng.gen_range(0..paths.len());
                    let Some((ms, body)) = query(&mut client, &paths[i], session) else {
                        continue;
                    };
                    let mut s = session.lock().expect("session poisoned");
                    s.warm_ms.push(ms);
                    if cold_bodies[i].as_deref() != Some(body.as_str()) {
                        s.errors
                            .push(format!("{}: warm body differs from cold body", paths[i]));
                    }
                }
            });
        }
    });
    let warm_wall_s = started.elapsed().as_secs_f64();

    let mut session = session.into_inner().expect("session poisoned");
    session.cold_wall_s = cold_wall_s;
    session.warm_wall_s = warm_wall_s;
    match Client::connect(addr).and_then(|mut c| c.get("/v1/stats")) {
        Ok((200, body)) => session.stats = Json::parse(&body).ok(),
        Ok((status, _)) => session.errors.push(format!("/v1/stats answered {status}")),
        Err(e) => session.errors.push(format!("/v1/stats: {e}")),
    }
    session.cold_bodies = cold_bodies;
    session
}

/// Recomputes every key with `run_cell` (the `serve.compute` layer)
/// and checks each cold body against the result's body. Returns the
/// results' journal payloads, the values the daemon published.
pub fn check_cold_bodies(spec: &CampaignSpec, keys: &[Cell], session: &mut Session) -> Vec<String> {
    let mut payloads = Vec::with_capacity(keys.len());
    for (cell, body) in keys.iter().zip(&session.cold_bodies) {
        let result = timed("serve.compute", || run_cell(spec, cell));
        if body.as_deref() != Some(expected_body(cell, &result.metrics).as_str()) {
            session.errors.push(format!(
                "{}: cold body differs from run_cell's",
                query_path(cell)
            ));
        }
        payloads.push(fx_json::to_string(&result));
    }
    payloads
}

/// Times `fx_store::Store::{get, put}` directly: `get` over the
/// session's store (every key, `passes` times), `put` of `payloads`
/// into a fresh store at `put_dir`. Each batch is one span; the
/// per-call cost is the batch time over its calls.
pub fn store_layer(
    spec: &CampaignSpec,
    keys: &[Cell],
    payloads: &[String],
    put_dir: &Path,
    passes: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let dir = spec
        .params
        .store
        .as_ref()
        .ok_or("serve spec without a store")?;
    let store = timed("store.open", || fx_store::Store::open(dir))
        .map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    let ids: Vec<u64> = keys.iter().map(|c| store_key(spec, c)).collect();
    let started = Instant::now();
    let mut hits = 0usize;
    for _ in 0..passes {
        let _batch = trace::span("store.get");
        hits += ids.iter().filter(|&&k| store.get(k).is_some()).count();
    }
    let get_s = started.elapsed().as_secs_f64();
    if hits != passes * ids.len() {
        return Err(format!(
            "store served {hits} of {} reads",
            passes * ids.len()
        ));
    }
    clear_dir(put_dir)?;
    let fresh = fx_store::Store::open(put_dir)
        .map_err(|e| format!("cannot open {}: {e}", put_dir.display()))?;
    let started = Instant::now();
    {
        let _batch = trace::span("store.put");
        for (k, payload) in ids.iter().zip(payloads) {
            fresh
                .put(*k, payload)
                .map_err(|e| format!("store put: {e}"))?;
        }
    }
    let put_s = started.elapsed().as_secs_f64();
    m.set(
        "store.get_us",
        get_s * 1e6 / (passes * ids.len()) as f64,
        "us",
    );
    m.set("store.put_us", put_s * 1e6 / ids.len() as f64, "us");
    Ok(())
}

/// Latency and `/v1/stats` metrics of a session.
pub fn session_metrics(session: &Session, m: &mut Metrics) {
    m.set("serve.warm_p50_ms", quantile(&session.warm_ms, 0.5), "ms");
    m.set("serve.warm_p99_ms", quantile(&session.warm_ms, 0.99), "ms");
    m.set("serve.warm_samples", session.warm_ms.len() as f64, "count");
    m.set(
        "serve.warm_qps",
        session.warm_ms.len() as f64 / session.warm_wall_s.max(1e-9),
        "1/s",
    );
    m.set("serve.cold_p50_ms", quantile(&session.cold_ms, 0.5), "ms");
    m.set("serve.cold_p90_ms", quantile(&session.cold_ms, 0.9), "ms");
    m.set("serve.cold_samples", session.cold_ms.len() as f64, "count");
    let stat = |name: &str| {
        session
            .stats
            .as_ref()
            .and_then(|s| s.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    for (metric, field) in [
        ("serve.hits", "hits"),
        ("serve.misses", "misses"),
        ("serve.coalesced", "coalesced"),
        ("serve.rejected", "rejected"),
    ] {
        m.set(metric, stat(field), "count");
    }
}
