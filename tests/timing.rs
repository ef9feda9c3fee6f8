//! The checks that compare wall times, release builds only. Each side is
//! the median of [`SAMPLES`] timed runs after one warm-up run, at fixed
//! small sizes. Run the tests one at a time, so that no test times
//! another's work:
//!
//! ```text
//! cargo test --release --test timing -- --test-threads=1
//! ```
//!
//! * the resource governor: generous limits cost at most 1.5× no limits,
//!   and a budget refusal is faster than completing the query;
//! * out-of-core: a sort spilled at a tenth of its working set costs at
//!   most 40× the in-memory sort, and the top-k heap at most 1.2× the
//!   sort-then-limit it replaces;
//! * serving: a cached request beats a cold prepare, and under a mixed
//!   eight-session load no session's mean latency is more than 20× the
//!   fastest's;
//! * vectorized execution: at 100 000 rows, the batched engine is at least
//!   twice as fast as the same engine pulling one-row batches.

#![cfg(not(debug_assertions))]

use std::hint::black_box;
use std::time::{Duration, Instant};

use sqlpp::{Engine, Limits, SessionConfig, SpillConfig};
use sqlpp_eval::{EvalConfig, Evaluator};
use sqlpp_server::{wire::Response, Client, Server, ServerConfig};
use sqlpp_value::{tuple, Tuple, Value};

const SAMPLES: usize = 7;

/// The median of `SAMPLES` values of `sample`, after one warm-up call.
fn median(mut sample: impl FnMut() -> f64) -> f64 {
    black_box(sample());
    let mut xs: Vec<f64> = (0..SAMPLES).map(|_| sample()).collect();
    xs.sort_by(f64::total_cmp);
    xs[SAMPLES / 2]
}

/// The median wall time of `f`, in nanoseconds.
fn median_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    median(|| {
        let start = Instant::now();
        black_box(f());
        start.elapsed().as_nanos() as f64
    })
}

/// `n` tuples, the `i`-th built by `row(i)`.
fn bag(n: i64, row: impl Fn(i64) -> Tuple) -> Value {
    Value::Bag((0..n).map(|i| Value::Tuple(row(i))).collect())
}

#[test]
fn the_governor_costs_little_and_refuses_fast() {
    let n = 5_000;
    let engine = Engine::new();
    engine.register(
        "g.data",
        bag(n, |i| tuple! { "k" => i, "v" => 7 * i, "grp" => i % 64 }),
    );
    let query = "SELECT g.grp AS grp, COUNT(*) AS n, SUM(g.v) AS total \
                 FROM g.data AS g GROUP BY g.grp ORDER BY total DESC";
    let plan = engine.prepare(query).unwrap();
    let off_ns = median_ns(|| plan.execute(&engine).unwrap());

    let governed = engine.with_config(SessionConfig {
        limits: Limits::none()
            .with_memory_bytes(2_000 * n as u64)
            .with_time(Duration::from_secs(60)),
        ..SessionConfig::default()
    });
    let plan = governed.prepare(query).unwrap();
    let on_ns = median_ns(|| plan.execute(&governed).unwrap());
    assert!(
        on_ns <= off_ns * 1.5,
        "governed run is catastrophically slower: {on_ns:.0}ns vs {off_ns:.0}ns off"
    );

    let sort_all = engine
        .prepare("SELECT VALUE g.v FROM g.data AS g ORDER BY g.v DESC")
        .unwrap();
    let failfast_ns = median_ns(|| {
        let config = EvalConfig {
            limits: Limits::none().with_memory_bytes(18_000),
            ..EvalConfig::default()
        };
        Evaluator::new(engine.catalog(), config)
            .run(sort_all.plan())
            .unwrap_err()
    });
    assert!(
        failfast_ns <= off_ns,
        "budget refusal ({failfast_ns:.0}ns) is slower than completing the query ({off_ns:.0}ns)"
    );
}

#[test]
fn spilling_degrades_gracefully_and_top_k_keeps_up() {
    let n = 2_000;
    let engine = Engine::new();
    let rows = bag(n, |i| {
        tuple! {
            "id" => i,
            "k" => (i * 67) % (n / 4),
            "pad" => format!("payload-{}", i % 97),
        }
    });
    engine.register("ooc.data", rows);
    let sort_q = "SELECT VALUE d.id FROM ooc.data AS d ORDER BY d.k, d.id";
    let tracked = engine.with_config(SessionConfig {
        limits: Limits::none().with_memory_bytes(u64::MAX / 2),
        ..SessionConfig::default()
    });
    let run = tracked.query_with_stats(sort_q).unwrap();
    let working_set = run.stats().unwrap().peak_budget_bytes;
    let plan = tracked.prepare(sort_q).unwrap();
    let in_memory_ns = median_ns(|| plan.execute(&tracked).unwrap());

    let spilling = engine.with_config(SessionConfig {
        limits: Limits::none().with_memory_bytes((working_set / 10).max(1_500)),
        spill: Some(SpillConfig::default()),
        ..SessionConfig::default()
    });
    let plan = spilling.prepare(sort_q).unwrap();
    let spilled_ns = median_ns(|| plan.execute(&spilling).unwrap());
    assert!(
        spilled_ns <= in_memory_ns * 40.0,
        "spilling fell off a cliff: {spilled_ns:.0}ns vs {in_memory_ns:.0}ns in memory"
    );

    let topk_q = format!("{sort_q} LIMIT 10 OFFSET 5");
    let plan = spilling.prepare(&topk_q).unwrap();
    let topk_ns = median_ns(|| plan.execute(&spilling).unwrap());
    let unfused = engine.with_config(SessionConfig {
        optimize: false,
        ..SessionConfig::default()
    });
    let plan = unfused.prepare(&topk_q).unwrap();
    let unfused_ns = median_ns(|| plan.execute(&unfused).unwrap());
    assert!(
        topk_ns <= unfused_ns * 1.2,
        "the top-k rewrite ({topk_ns:.0}ns) lost to the full sort ({unfused_ns:.0}ns)"
    );
}

/// Tables for the serving checks: `s.emp` (`n` rows over 8 departments),
/// `s.dept`, `s.region`, an empty `s.events` and the one-row `s.one`.
fn serving_engine(n: i64) -> Engine {
    let engine = Engine::new();
    engine.register(
        "s.emp",
        bag(
            n,
            |i| tuple! { "id" => i, "dept" => i % 8, "sal" => 1000 + 7 * i },
        ),
    );
    engine.register(
        "s.dept",
        bag(8, |i| tuple! { "dno" => i, "dname" => format!("d{i}") }),
    );
    engine.register(
        "s.region",
        bag(4, |i| tuple! { "rno" => i, "dno" => i * 2 }),
    );
    engine.register("s.events", Value::Bag(Vec::new()));
    engine.register("s.one", Value::Bag(vec![Value::Int(0)]));
    engine
}

/// A request that must come back as rows.
fn rows(client: &mut Client, query: &str) -> Value {
    match client.query(query).unwrap() {
        Response::Rows(v) => v,
        other => panic!("request failed: {other:?}"),
    }
}

/// A wide query over a one-row collection: 120 projections and as many
/// conjuncts, so planning it costs far more than running it or the
/// loopback round trip.
#[test]
fn a_cached_plan_beats_a_cold_prepare() {
    let projs: Vec<String> = (0..120).map(|i| format!("x * {i} + {i} AS p{i}")).collect();
    let conjs: Vec<String> = (0..120)
        .map(|i| format!("x + {i} >= {i} AND x * 2 - {i} < 1000000"))
        .collect();
    let wide = format!(
        "SELECT {} FROM s.one AS x WHERE {}",
        projs.join(", "),
        conjs.join(" AND ")
    );
    let engine = serving_engine(64);
    let cold = Server::start(
        engine.clone(),
        ServerConfig {
            cache_capacity: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(cold.addr()).unwrap();
    let cold_ns = median_ns(|| rows(&mut c, &wide));
    cold.shutdown();

    let cached = Server::start(engine, ServerConfig::default()).unwrap();
    let mut c = Client::connect(cached.addr()).unwrap();
    let cached_ns = median_ns(|| rows(&mut c, &wide));
    cached.shutdown();
    assert!(
        cached_ns < cold_ns,
        "plan cache must beat cold prepares: cached {cached_ns:.0}ns vs cold {cold_ns:.0}ns"
    );
}

/// Eight sessions, 20 requests each, of reads, echoes and INSERTs: the
/// fastest session's mean latency over the slowest's stays above 0.05.
#[test]
fn no_session_starves_under_mixed_load() {
    const CLIENTS: i64 = 8;
    const PER_CLIENT: i64 = 20;
    const SHAPES: [&str; 4] = [
        "SELECT d.dname AS dname, r.rno AS rno, COUNT(*) AS n, \
         SUM(e.sal) AS payroll, AVG(e.sal) AS avg_sal \
         FROM s.emp AS e, s.dept AS d, s.region AS r \
         WHERE e.dept = d.dno AND d.dno = r.dno AND e.sal >= 0 \
         GROUP BY d.dname, r.rno ORDER BY payroll DESC, dname",
        "SELECT VALUE e.sal FROM s.emp AS e WHERE e.dept = 3 ORDER BY e.sal DESC",
        "SELECT e.dept AS dept, COUNT(*) AS n FROM s.emp AS e GROUP BY e.dept",
        "SELECT VALUE d.dname FROM s.dept AS d WHERE d.dno < 4",
    ];
    let engine = serving_engine(200);
    let server = Server::start(
        engine,
        ServerConfig {
            workers: CLIENTS as usize,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let fairness = median(|| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|id| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let start = Instant::now();
                    for i in 0..PER_CLIENT {
                        let resp = match i % 8 {
                            7 => client.query(&format!(
                                "INSERT INTO s.events VALUE {{'c': {id}, 'i': {i}}}"
                            )),
                            3 => client.query_with_params(
                                "SELECT VALUE ? + x FROM s.one AS x",
                                vec![Value::Int(id)],
                            ),
                            k => client.query(SHAPES[k as usize % SHAPES.len()]),
                        };
                        assert!(matches!(resp, Ok(Response::Rows(_))), "{resp:?}");
                    }
                    start.elapsed().as_nanos() as f64 / PER_CLIENT as f64
                })
            })
            .collect();
        let means: Vec<f64> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let fastest = means.iter().copied().fold(f64::INFINITY, f64::min);
        let slowest = means.iter().copied().fold(0.0, f64::max);
        fastest / slowest
    });
    server.shutdown();
    assert!(
        fairness > 0.05,
        "one session starved: per-client mean latencies spread {fairness:.3}"
    );
}

/// A shape knocked off the fused, batched path runs about as fast as the
/// row path, so 2× separates the two with room for host noise (measured
/// 3–5×). At 100 000 rows the source is still cache-resident, so the ratio
/// measures engine overhead, not memory bandwidth. A gated shape below the
/// bound is measured again, up to three times, before it fails.
#[test]
fn batched_shapes_are_twice_the_row_path() {
    const MIN_SPEEDUP: f64 = 2.0;
    let base = Engine::new();
    base.register(
        "s.big",
        bag(
            100_000,
            |i| tuple! { "k" => i, "v" => 7 * i, "even" => i % 2 == 0 },
        ),
    );
    let batched = base.with_config(SessionConfig::default());
    let row = base.with_config(SessionConfig {
        batch_size: 1,
        ..SessionConfig::default()
    });
    for query in [
        "SELECT VALUE x.v + x.k FROM s.big AS x",
        "SELECT VALUE x.v FROM s.big AS x WHERE x.even AND x.v >= 0",
        "SELECT VALUE COLL_SUM(SELECT VALUE x.v FROM s.big AS x)",
    ] {
        let (row_plan, batched_plan) =
            (row.prepare(query).unwrap(), batched.prepare(query).unwrap());
        let mut speedup = 0.0;
        for _ in 0..3 {
            let row_ns = median_ns(|| row_plan.execute(&row).unwrap());
            let batched_ns = median_ns(|| batched_plan.execute(&batched).unwrap());
            speedup = row_ns / batched_ns.max(1.0);
            if speedup >= MIN_SPEEDUP {
                break;
            }
        }
        assert!(
            speedup >= MIN_SPEEDUP,
            "{query}: batched path is only {speedup:.2}x the row path, want >= {MIN_SPEEDUP}x"
        );
    }
}
