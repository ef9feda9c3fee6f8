//! Set-up and the closed-loop load: an in-process server on loopback,
//! two blocking clients on two connections, every answer checked.
//!
//! Closed loop because that is what the client API is: `Client::query`
//! blocks, an application thread waits for its reply, and the server
//! pins a connection to a worker. With `nproc = 2`, two clients and two
//! workers keep at most two threads runnable (a connection's client and
//! worker alternate).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sqlpp::{DurabilityConfig, Engine, SessionConfig, SyncMode};
use sqlpp_formats::wire::Response;
use sqlpp_server::{Client, Server, ServerConfig};
use sqlpp_value::Value;

use crate::check;
use crate::gen::{self, DurableClient, Request, Workload, CLIENTS};

/// `ev.log` is checkpointed whenever the WAL reaches this size — the
/// fixed flush policy of `durable-writes` (with `SyncMode::Always`).
pub const CHECKPOINT_WAL_BYTES: u64 = 64 * 1024 * 1024;

/// How big and how long.
#[derive(Debug, Clone)]
pub struct Scale {
    pub emp_rows: i64,
    pub warmup: Duration,
    pub window: Duration,
    /// Set-up is repeated at least this often, and until this much time
    /// has been spent on it (or 300 times); the median is reported.
    pub min_setups: usize,
    pub setup_budget: Duration,
    /// `--smoke`: a quick check that everything runs, not a measurement.
    pub smoke: bool,
    /// Where durability directories and trace files go.
    pub out_dir: PathBuf,
}

/// A loaded engine behind a running server, with connected clients.
pub struct Loaded {
    pub engine: Engine,
    pub server: Server,
    pub clients: Vec<Client>,
    /// The durability directory (`durable-writes` only).
    pub dir: Option<PathBuf>,
}

impl Loaded {
    /// Stops the server and removes the durability directory.
    pub fn close(self) {
        drop(self.clients);
        self.server.shutdown();
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: CLIENTS,
        ..ServerConfig::default()
    }
}

pub fn durable_session(dir: &Path) -> SessionConfig {
    SessionConfig {
        durability: Some(DurabilityConfig::new(dir).with_sync(SyncMode::Always)),
        ..SessionConfig::default()
    }
}

/// A fresh, empty scratch directory under `out_dir`.
pub fn scratch_dir(out_dir: &Path, tag: &str) -> std::io::Result<PathBuf> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = out_dir.join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Everything `setup_s` covers: generate the data, load it, start the
/// server, connect `clients` sessions.
pub fn setup(w: Workload, seed: u64, scale: &Scale, clients: usize) -> Result<Loaded, String> {
    let (engine, dir) = match w {
        Workload::ShortCached | Workload::AdhocPlan => {
            let engine = Engine::new();
            engine.register("hr.dept", Value::Bag(gen::depts(seed)));
            engine.register("hr.emp_small", Value::Bag(gen::emps(seed, gen::EMP_SMALL)));
            (engine, None)
        }
        Workload::AnalyticScan => {
            let engine = Engine::new();
            engine.register("hr.dept", Value::Bag(gen::depts(seed)));
            engine.register("hr.emp", Value::Bag(gen::emps(seed, scale.emp_rows)));
            (engine, None)
        }
        Workload::DurableWrites => {
            let dir = scratch_dir(&scale.out_dir, "wal").map_err(|e| e.to_string())?;
            let engine = Engine::open(durable_session(&dir)).map_err(|e| e.to_string())?;
            // `register` is not logged; the checkpoint makes the base
            // rows durable before the first request.
            engine.register("ev.log", Value::Bag(gen::events(seed)));
            engine.checkpoint().map_err(|e| e.to_string())?;
            (engine, Some(dir))
        }
    };
    let server = Server::start(engine.clone(), server_config()).map_err(|e| e.to_string())?;
    let clients = (0..clients)
        .map(|_| Client::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Loaded {
        engine,
        server,
        clients,
        dir,
    })
}

/// Runs [`setup`] repeatedly — at least `scale.min_setups` times, and
/// for cheap set-ups until `scale.setup_budget` has been spent — and
/// returns the last one loaded, the median set-up time in seconds, and
/// how many set-ups that is the median of.
pub fn timed_setup(w: Workload, seed: u64, scale: &Scale) -> Result<(Loaded, f64, usize), String> {
    let mut times = Vec::new();
    let mut spent = Duration::ZERO;
    loop {
        let t = Instant::now();
        let loaded = setup(w, seed, scale, CLIENTS)?;
        let took = t.elapsed();
        times.push(took.as_secs_f64());
        spent += took;
        let enough =
            times.len() >= scale.min_setups && (spent >= scale.setup_budget || times.len() >= 300);
        if enough {
            let median = crate::stats::median(&times).expect("at least one set-up");
            return Ok((loaded, median, times.len()));
        }
        loaded.close();
    }
}

/// The fixed per-client request streams of a read-only workload.
pub fn read_streams(w: Workload, seed: u64, scale: &Scale) -> Vec<Vec<Request>> {
    let depts = gen::depts(seed);
    match w {
        Workload::ShortCached => {
            let emps = gen::emps(seed, gen::EMP_SMALL);
            (0..CLIENTS)
                .map(|c| gen::short_stream(seed, c, &emps, &depts))
                .collect()
        }
        Workload::AdhocPlan => {
            let emps = gen::emps(seed, gen::EMP_SMALL);
            let pool = gen::adhoc_pool(seed, &emps, &depts);
            // Each client walks its own half, so no text is ever shared.
            pool.chunks(gen::POOL / CLIENTS)
                .map(<[_]>::to_vec)
                .collect()
        }
        Workload::AnalyticScan => {
            let emps = gen::emps(seed, scale.emp_rows);
            let shapes = gen::analytic_requests(seed, &emps, &depts);
            // Same round-robin, started half a cycle apart so the two
            // clients do not run the same shape in lockstep.
            (0..CLIENTS)
                .map(|c| {
                    let mut s = shapes.clone();
                    s.rotate_left(c * shapes.len() / CLIENTS);
                    s
                })
                .collect()
        }
        Workload::DurableWrites => unreachable!("durable-writes streams are stateful"),
    }
}

pub fn shape_labels(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::ShortCached => &gen::SHORT_SHAPES,
        Workload::AdhocPlan => &gen::ADHOC_SHAPES,
        Workload::AnalyticScan => &gen::ANALYTIC_SHAPES,
        Workload::DurableWrites => &gen::DURABLE_SHAPES,
    }
}

/// What one client saw inside the measured window.
#[derive(Default)]
pub struct ClientTally {
    /// `(shape, latency_ns)` of every request that started and finished
    /// inside the window.
    pub latencies: Vec<(usize, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the report.
    pub failures: Vec<String>,
    /// `Engine::checkpoint` calls made by this client: `(count, total)`.
    pub checkpoints: (u64, Duration),
    /// The latest response to every position of a fixed stream, kept for
    /// the full check after the window ([`verify_latest`]).
    pub latest: Vec<Option<Value>>,
}

impl ClientTally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

/// The phases of one run, as instants shared by every client thread.
#[derive(Clone, Copy)]
pub struct Phases {
    pub measure_from: Instant,
    pub end: Instant,
}

impl Phases {
    pub fn starting_now(scale: &Scale) -> Phases {
        let measure_from = Instant::now() + scale.warmup;
        Phases {
            measure_from,
            end: measure_from + scale.window,
        }
    }
}

/// Sends one request and times it. `Err` is an I/O failure.
pub fn send(client: &mut Client, req: &Request) -> (std::io::Result<Response>, Instant, Instant) {
    let start = Instant::now();
    let resp = client.query_with_params(&req.text, req.params.clone());
    (resp, start, Instant::now())
}

/// One client of a read-only workload: walks `stream` cyclically until
/// the window ends, checking kind and cardinality in-line and keeping
/// the latest response of every stream position for the full check
/// after the window.
fn read_client(client: &mut Client, stream: &[Request], phases: Phases) -> ClientTally {
    let mut tally = ClientTally {
        latest: vec![None; stream.len()],
        ..ClientTally::default()
    };
    for slot in (0..stream.len()).cycle() {
        let req = &stream[slot];
        let (resp, start, done) = send(client, req);
        if done > phases.end {
            break;
        }
        if start < phases.measure_from {
            continue;
        }
        tally.attempted += 1;
        match resp {
            Ok(resp) if check::quick(&resp, &req.expect) => {
                tally
                    .latencies
                    .push((req.shape, (done - start).as_nanos() as u64));
                if let Response::Rows(value) = resp {
                    tally.latest[slot] = Some(value);
                }
            }
            Ok(resp) => tally.fail(format!("{}: unexpected {}", req.text, brief(&resp))),
            Err(e) => {
                tally.fail(format!("{}: io error {e}", req.text));
                break;
            }
        }
    }
    tally
}

/// The full check after the window: the latest response kept for every
/// stream position must equal the model's answer.
pub fn verify_latest(tally: &mut ClientTally, stream: &[Request]) {
    for (req, value) in stream.iter().zip(std::mem::take(&mut tally.latest)) {
        if value.is_some_and(|v| !check::full(&v, &req.expect)) {
            tally.fail(format!("{}: wrong answer", req.text));
        }
    }
}

/// Plan-cache lookups of the live server between two instants.
#[derive(Debug, Clone, Copy)]
pub struct CacheDelta {
    pub hits: u64,
    pub misses: u64,
}

/// Runs `wait` (which returns once the interval of interest is over)
/// and reports the server's cache lookups from `from` until then.
fn cache_over(server: &Server, from: Instant, wait: impl FnOnce()) -> CacheDelta {
    std::thread::sleep(from.saturating_duration_since(Instant::now()));
    let before = server.cache_stats();
    wait();
    let after = server.cache_stats();
    CacheDelta {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
    }
}

fn brief(resp: &Response) -> String {
    let text = format!("{resp:?}");
    if text.chars().count() <= 200 {
        return text;
    }
    text.chars().take(200).chain(['…']).collect()
}

/// Warm-up plus measured window of a read-only workload: the clients'
/// tallies and the server's cache lookups over the window.
pub fn run_reads(
    loaded: &mut Loaded,
    streams: &[Vec<Request>],
    scale: &Scale,
) -> (Vec<ClientTally>, CacheDelta) {
    let phases = Phases::starting_now(scale);
    let Loaded {
        clients, server, ..
    } = loaded;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, stream)| scope.spawn(move || read_client(client, stream, phases)))
            .collect();
        let mut runs = Vec::new();
        let cache = cache_over(server, phases.measure_from, || {
            runs = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
        });
        (runs, cache)
    })
}

/// Takes a checkpoint if the WAL has reached the trigger; returns how
/// long it took.
pub fn checkpoint_if_due(engine: &Engine) -> Result<Option<Duration>, String> {
    let status = engine.wal_status().ok_or("engine is not durable")?;
    if status.wal_bytes < CHECKPOINT_WAL_BYTES {
        return Ok(None);
    }
    let t = Instant::now();
    engine.checkpoint().map_err(|e| e.to_string())?;
    Ok(Some(t.elapsed()))
}

/// Sends one `durable-writes` request and applies it to the model when
/// it is acknowledged with the right answer. Answers are small, so the
/// full check runs in-line.
pub fn durable_step(
    client: &mut Client,
    model: &mut DurableClient,
) -> (Request, Result<(), String>, Instant, Instant) {
    let (req, effect) = model.next();
    let (resp, start, done) = send(client, &req);
    let outcome = match resp {
        Ok(Response::Rows(value)) if check::full(&value, &req.expect) => {
            model.ack(effect);
            Ok(())
        }
        Ok(resp) => Err(format!("{}: unexpected {}", req.text, brief(&resp))),
        Err(e) => Err(format!("{}: io error {e}", req.text)),
    };
    (req, outcome, start, done)
}

/// Warm-up plus measured window of `durable-writes`. Client 0 applies
/// the checkpoint policy between its requests — inside the window,
/// because operators pay for checkpoints. Returns the tallies, the
/// clients' models of every acknowledged write, and the server's cache
/// lookups over the window.
pub fn run_durable(
    loaded: &mut Loaded,
    seed: u64,
    scale: &Scale,
) -> (Vec<ClientTally>, Vec<DurableClient>, CacheDelta) {
    let base = gen::events(seed);
    let phases = Phases::starting_now(scale);
    let Loaded {
        clients,
        server,
        engine,
        ..
    } = loaded;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mut model = DurableClient::new(seed, c, &base);
                let engine = engine.clone();
                scope.spawn(move || {
                    let mut tally = ClientTally::default();
                    loop {
                        if c == 0 {
                            match checkpoint_if_due(&engine) {
                                Ok(Some(took)) if Instant::now() >= phases.measure_from => {
                                    tally.checkpoints.0 += 1;
                                    tally.checkpoints.1 += took;
                                }
                                Ok(_) => {}
                                Err(e) => tally.fail(format!("checkpoint: {e}")),
                            }
                        }
                        let (req, outcome, start, done) = durable_step(client, &mut model);
                        if done > phases.end {
                            break;
                        }
                        if start < phases.measure_from {
                            continue;
                        }
                        tally.attempted += 1;
                        match outcome {
                            Ok(()) => tally
                                .latencies
                                .push((req.shape, (done - start).as_nanos() as u64)),
                            Err(e) => tally.fail(e),
                        }
                    }
                    (tally, model)
                })
            })
            .collect();
        let (mut tallies, mut models) = (Vec::new(), Vec::new());
        let cache = cache_over(server, phases.measure_from, || {
            (tallies, models) = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .unzip();
        });
        (tallies, models, cache)
    })
}

/// Copies a durability directory as it is on disk right now — the image
/// a killed process would leave behind (the server is still up; nothing
/// has been checkpointed or closed on its behalf).
pub fn crash_image(dir: &Path, out_dir: &Path) -> std::io::Result<PathBuf> {
    let copy = scratch_dir(out_dir, "crash")?;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), copy.join(entry.file_name()))?;
        }
    }
    Ok(copy)
}

/// Recovers an engine from `image` and compares `ev.log`, row by row,
/// with the models of every acknowledged write. Returns the number of
/// rows that are missing, extra or different, and the recovery time.
pub fn restart_check(image: &Path, models: &[&DurableClient]) -> Result<(u64, Duration), String> {
    let t = Instant::now();
    let (engine, _recovered) =
        Engine::open_with_recovery(durable_session(image)).map_err(|e| e.to_string())?;
    let took = t.elapsed();
    let log = engine
        .catalog()
        .get_str("ev.log")
        .map_err(|e| e.to_string())?;
    fn by_id<'a>(rows: impl Iterator<Item = &'a Value>) -> BTreeMap<i64, &'a Value> {
        rows.map(|r| (r.path("id").as_int().unwrap_or(i64::MIN), r))
            .collect()
    }
    let recovered = by_id(log.as_elements().unwrap_or(&[]).iter());
    let expected = by_id(models.iter().flat_map(|m| m.rows()));
    let mut wrong = recovered
        .keys()
        .filter(|id| !expected.contains_key(id))
        .count() as u64;
    for (id, row) in &expected {
        if !recovered.get(id).is_some_and(|got| check::same(got, row)) {
            wrong += 1;
        }
    }
    // A duplicated id would collapse in the maps above.
    if log.as_elements().map_or(0, <[Value]>::len) != recovered.len() {
        wrong += 1;
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(image);
    Ok((wrong, took))
}

/// `VmHWM` of this process in MiB (Linux), or `None` where unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
