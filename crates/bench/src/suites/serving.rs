//! **B16** — the serving layer: throughput, tail latency, and fairness
//! under N concurrent sessions; plan-cache amortization; graceful
//! shedding.
//!
//! Workloads:
//!
//! * `request_cold` / `request_cached` — the same wide query (a
//!   generated shape with ~120 projections and conjuncts over a
//!   one-row collection, so parse/lower/optimize costs hundreds of
//!   microseconds while execution costs tens) through a cache-disabled
//!   vs cache-enabled server. Asserted: the cached median is below the
//!   cold median — the shared plan cache measurably amortizes planning,
//!   with a margin far above wire-latency noise.
//! * `mixed_8_clients` — N ≥ 8 client threads over persistent
//!   connections, each driving a mix of parameterized reads (from a
//!   pool of shapes) and INSERT DML. Reports QPS, p50/p95 latency, and
//!   a fairness ratio (slowest client's mean latency over fastest).
//!   Asserted: every request succeeds, every client's parameter echo
//!   comes back with its *own* session id (zero cross-session result
//!   bleed), the cache served hits, and fairness stays above a loose
//!   floor.
//! * shedding (not timed) — a zero-admission server refuses extra
//!   connections with a structured `Overloaded` frame, and a
//!   budget-limited server sheds an over-budget request the same way,
//!   leaving the session usable for the next (cheap) query.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sqlpp::{Engine, Limits, SessionConfig};
use sqlpp_server::{wire::Response, Client, Server, ServerConfig};
use sqlpp_testkit::bench::Harness;
use sqlpp_value::{Tuple, Value};

use super::scaled;

fn dataset(engine: &Engine, n: usize) {
    let rows = |k: usize, f: &dyn Fn(i64) -> Value| Value::Bag((0..k as i64).map(f).collect());
    engine.register(
        "s.emp",
        rows(n, &|i| {
            let mut t = Tuple::with_capacity(3);
            t.insert("id", Value::Int(i));
            t.insert("dept", Value::Int(i % 8));
            t.insert("sal", Value::Int(1000 + 7 * i));
            Value::Tuple(t)
        }),
    );
    engine.register(
        "s.dept",
        rows(8, &|i| {
            let mut t = Tuple::with_capacity(2);
            t.insert("dno", Value::Int(i));
            t.insert("dname", Value::Str(format!("d{i}")));
            Value::Tuple(t)
        }),
    );
    engine.register(
        "s.region",
        rows(4, &|i| {
            let mut t = Tuple::with_capacity(2);
            t.insert("rno", Value::Int(i));
            t.insert("dno", Value::Int(i * 2));
            Value::Tuple(t)
        }),
    );
    engine.register("s.events", Value::Bag(Vec::new()));
    engine.register("s.one", Value::Bag(vec![Value::Int(0)]));
}

/// Long query text + tiny data: planning dominates, which is exactly
/// what the cache amortizes.
const COMPLEX: &str = "SELECT d.dname AS dname, r.rno AS rno, COUNT(*) AS n, \
     SUM(e.sal) AS payroll, AVG(e.sal) AS avg_sal \
     FROM s.emp AS e, s.dept AS d, s.region AS r \
     WHERE e.dept = d.dno AND d.dno = r.dno AND e.sal >= 0 \
     GROUP BY d.dname, r.rno ORDER BY payroll DESC, dname";

/// Read shapes for the mixed workload (all parameter-free except the
/// echo, which carries the session id).
const SHAPES: [&str; 4] = [
    COMPLEX,
    "SELECT VALUE e.sal FROM s.emp AS e WHERE e.dept = 3 ORDER BY e.sal DESC",
    "SELECT e.dept AS dept, COUNT(*) AS n FROM s.emp AS e GROUP BY e.dept",
    "SELECT VALUE d.dname FROM s.dept AS d WHERE d.dno < 4",
];

const ECHO: &str = "SELECT VALUE ? + x FROM s.one AS x";

/// A deliberately wide query for the cold-vs-cached comparison: ~120
/// projected expressions and as many WHERE conjuncts over a one-row
/// collection. Planning it costs hundreds of microseconds (measured
/// ~650µs at this width), executing it tens — so the cache's saving
/// dwarfs wire-latency noise instead of hiding inside it.
fn wide_query() -> String {
    let n = 120;
    let projs: Vec<String> = (0..n).map(|i| format!("x * {i} + {i} AS p{i}")).collect();
    let conjs: Vec<String> = (0..n)
        .map(|i| format!("x + {i} >= {i} AND x * 2 - {i} < 1000000"))
        .collect();
    format!(
        "SELECT {} FROM s.one AS x WHERE {}",
        projs.join(", "),
        conjs.join(" AND ")
    )
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx]
}

/// Runs the suite.
pub fn run(h: &mut Harness) {
    let n = scaled(h, 2_000).max(200);

    // --- cold vs cached single-request latency -------------------------
    // A wide generated query on purpose: its planning cost (~650µs) is
    // an order of magnitude above both its execution cost and loopback
    // round-trip noise, so the cached-beats-cold assertion is robust
    // at any scale factor and under CI load.
    let wide = wide_query();
    let engine = Engine::new();
    dataset(&engine, 64);
    let cold_server = Server::start(
        engine.clone(),
        ServerConfig {
            cache_capacity: 0,
            ..ServerConfig::default()
        },
    )
    .expect("start cold server");
    let mut c = Client::connect(cold_server.addr()).unwrap();
    h.bench("serving/request_cold", || match c.query(&wide).unwrap() {
        Response::Rows(v) => v,
        other => panic!("cold request failed: {other:?}"),
    });
    let cold_ns = h.results().last().unwrap().median_ns;
    cold_server.shutdown();

    let cached_server =
        Server::start(engine.clone(), ServerConfig::default()).expect("start cached server");
    let mut c = Client::connect(cached_server.addr()).unwrap();
    c.query(&wide).unwrap(); // warm the cache
    h.bench("serving/request_cached", || match c.query(&wide).unwrap() {
        Response::Rows(v) => v,
        other => panic!("cached request failed: {other:?}"),
    });
    let cached_ns = h.results().last().unwrap().median_ns;
    assert!(
        cached_ns < cold_ns,
        "plan cache must beat cold prepares: cached {cached_ns:.0}ns vs cold {cold_ns:.0}ns"
    );
    let cs = cached_server.cache_stats();
    assert!(cs.hits > 0, "cached run never hit the cache: {cs:?}");
    cached_server.shutdown();

    // --- N-client mixed read/DML throughput ---------------------------
    let clients = 8usize;
    let per_client = scaled(h, 150).max(20);
    let engine = Engine::new();
    dataset(&engine, n);
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            workers: clients, // one worker per persistent session
            ..ServerConfig::default()
        },
    )
    .expect("start mixed server");
    let addr = server.addr();

    let lat = Arc::new(Mutex::new(Vec::<Vec<u64>>::new()));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|id| {
            let lat = Arc::clone(&lat);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut mine = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let t0 = Instant::now();
                    let resp = match i % 8 {
                        // One in eight requests is DML.
                        7 => client
                            .query(&format!(
                                "INSERT INTO s.events VALUE {{'c': {id}, 'i': {i}}}"
                            ))
                            .expect("dml"),
                        // One in eight echoes the session id through a
                        // parameter — the bleed canary.
                        3 => client
                            .query_with_params(ECHO, vec![Value::Int(id as i64)])
                            .expect("echo"),
                        k => client.query(SHAPES[k % SHAPES.len()]).expect("read"),
                    };
                    mine.push(t0.elapsed().as_nanos() as u64);
                    match (i % 8, resp) {
                        (3, Response::Rows(v)) => {
                            // Zero bleed: my echo must carry MY id.
                            assert_eq!(
                                v.to_string(),
                                format!("{{{{{id}}}}}"),
                                "client {id} saw another session's result"
                            );
                        }
                        (_, Response::Rows(_)) => {}
                        (_, other) => panic!("client {id} request {i} failed: {other:?}"),
                    }
                }
                lat.lock().unwrap().push(mine);
            })
        })
        .collect();
    for hdl in handles {
        hdl.join().expect("client thread panicked");
    }
    let wall = started.elapsed();
    let per_client_lat = Arc::try_unwrap(lat).unwrap().into_inner().unwrap();
    assert_eq!(per_client_lat.len(), clients, "every client finished");

    let mut merged: Vec<u64> = per_client_lat.iter().flatten().copied().collect();
    merged.sort_unstable();
    let total = merged.len() as u64;
    let qps = total as f64 / wall.as_secs_f64();
    let p50 = percentile(&merged, 0.50);
    let p95 = percentile(&merged, 0.95);
    let means: Vec<f64> = per_client_lat
        .iter()
        .map(|l| l.iter().sum::<u64>() as f64 / l.len() as f64)
        .collect();
    let fastest = means.iter().cloned().fold(f64::INFINITY, f64::min);
    let slowest = means.iter().cloned().fold(0.0, f64::max);
    let fairness = fastest / slowest; // 1.0 = perfectly fair
    assert!(
        fairness > 0.05,
        "one session starved: per-client mean latencies spread {fairness:.3}"
    );
    let stats = server.stats();
    assert_eq!(stats.served, total, "server answered every request");
    assert_eq!(stats.errors, 0, "mixed workload had errors");
    assert_eq!(stats.panics, 0);
    let cs = server.cache_stats();
    assert!(cs.hits > 0, "shared cache never hit under the mixed load");
    // The DML actually landed: 1 in 8 requests per client inserted.
    let events = engine
        .query("SELECT VALUE COUNT(*) FROM s.events AS e")
        .unwrap();
    assert_eq!(
        events.canonical().to_string(),
        format!("{{{{{}}}}}", clients * (per_client / 8)),
    );
    h.attach_counters([
        ("clients".to_string(), clients as u64),
        ("requests".to_string(), total),
        ("qps".to_string(), qps as u64),
        ("p50_us".to_string(), p50 / 1_000),
        ("p95_us".to_string(), p95 / 1_000),
        ("fairness_x1000".to_string(), (fairness * 1000.0) as u64),
        ("cache_hits".to_string(), cs.hits),
        ("cache_misses".to_string(), cs.misses),
    ]);
    // A visible timing entry for the report: one mid-burst request.
    let mut c = Client::connect(addr).unwrap();
    h.bench(format!("serving/mixed/{clients}x{per_client}"), || {
        c.query(SHAPES[1]).unwrap()
    });
    server.shutdown();

    // --- graceful shedding --------------------------------------------
    // Admission: a zero-queue server refuses every connection with a
    // structured Overloaded frame instead of hanging it.
    let engine = Engine::new();
    dataset(&engine, n);
    let shedding = Server::start(
        engine.clone(),
        ServerConfig {
            workers: 1,
            max_pending: 0,
            ..ServerConfig::default()
        },
    )
    .expect("start shedding server");
    for _ in 0..4 {
        let mut c = Client::connect(shedding.addr()).unwrap();
        match c.query("SELECT VALUE x FROM s.one AS x") {
            Ok(Response::Overloaded { .. }) => {}
            other => panic!("expected admission shed, got {other:?}"),
        }
    }
    assert!(shedding.stats().shed_connections >= 4);
    shedding.shutdown();

    // Budget: a session-limited server sheds the over-budget request
    // (structured Overloaded, not an error) and keeps serving.
    let budgeted = Server::start(
        engine,
        ServerConfig {
            session: SessionConfig {
                limits: Limits::none().with_memory_bytes(256),
                ..SessionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("start budgeted server");
    let mut c = Client::connect(budgeted.addr()).unwrap();
    match c.query("SELECT VALUE e.sal FROM s.emp AS e ORDER BY e.sal") {
        Ok(Response::Overloaded { message }) => {
            assert!(message.contains("memory budget"), "unexpected: {message}")
        }
        other => panic!("expected budget shed, got {other:?}"),
    }
    // The session survives the refusal.
    match c.query("SELECT VALUE x FROM s.one AS x") {
        Ok(Response::Rows(_)) => {}
        other => panic!("session unusable after shed: {other:?}"),
    }
    assert!(budgeted.stats().shed_requests >= 1);
    budgeted.shutdown();
}
