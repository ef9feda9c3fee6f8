//! The streaming executor's observable guarantees: LIMIT/EXISTS/IN
//! short-circuits actually stop the upstream pull (asserted through
//! `rows_scanned`), pipeline breakers are the only buffering points
//! (`peak_live_bindings`), and the lazy pipeline agrees with the
//! materialized Pseudocode 1–2 reference in both typing modes.

use sqlpp::{CompatMode, Engine, SessionConfig, TypingMode};
use sqlpp_eval::reference::{eval_sfw_config, ReferenceError};
use sqlpp_eval::{EvalConfig, Evaluator};
use sqlpp_plan::{CoreOp, CoreQuery};
use sqlpp_syntax::parse_query;
use sqlpp_testkit::prop::values::small_scalar;
use sqlpp_testkit::{gen, prop_assert, sqlpp_prop, Gen};
use sqlpp_value::{Tuple, Value};

fn ints(n: i64) -> Value {
    Value::Bag((0..n).map(Value::Int).collect())
}

fn engine_with(name: &str, data: Value) -> Engine {
    let engine = Engine::new();
    engine.register(name, data);
    engine
}

/// `LIMIT 0` must not construct its input at all: zero rows pulled.
#[test]
fn limit_zero_pulls_zero_rows() {
    let engine = engine_with("big", ints(1_000));
    let run = engine
        .query_with_stats("SELECT VALUE x FROM big AS x LIMIT 0")
        .unwrap();
    assert_eq!(run.len(), 0);
    let stats = run.stats().expect("stats collection was on");
    assert_eq!(stats.rows_scanned, 0, "LIMIT 0 pulled from its input");
    assert_eq!(stats.peak_live_bindings, 0);
}

/// `LIMIT k` stops the scan after exactly k pulls, without buffering —
/// whatever the unit of pull.
#[test]
fn limit_k_scans_exactly_k_rows() {
    for batch_size in [1, 2, 1024] {
        let engine = sized_engine(ints(1_000), TypingMode::Permissive, batch_size);
        let run = engine
            .query_with_stats("SELECT VALUE x FROM t AS x LIMIT 3")
            .unwrap();
        assert_eq!(run.len(), 3);
        let stats = run.stats().expect("stats collection was on");
        assert_eq!(stats.rows_scanned, 3, "LIMIT 3 over-pulled the scan");
        assert_eq!(stats.peak_live_bindings, 0, "streaming LIMIT buffered rows");
    }
}

/// OFFSET past the end: an empty result after one full scan — the stream
/// is exhausted looking for row offset+1, never found, and nothing leaks.
#[test]
fn offset_past_end_yields_empty_after_full_scan() {
    let engine = engine_with("small", ints(10));
    let run = engine
        .query_with_stats("SELECT VALUE x FROM small AS x LIMIT 5 OFFSET 100")
        .unwrap();
    assert_eq!(run.len(), 0);
    let stats = run.stats().expect("stats collection was on");
    assert_eq!(stats.rows_scanned, 10, "offset skip must consume the scan");
}

/// `n` tuples `{k: i, v: 7i, even: i % 2 = 0}` with unique keys.
fn keyed(n: i64) -> Value {
    let rows = (0..n).map(|i| {
        let mut t = Tuple::with_capacity(3);
        t.insert("k", Value::Int(i));
        t.insert("v", Value::Int(7 * i));
        t.insert("even", Value::Bool(i % 2 == 0));
        Value::Tuple(t)
    });
    Value::Bag(rows.collect())
}

/// Over a 5 000-row scan, with `K` = 10 and one row of look-ahead slack:
/// OFFSET and a WHERE stop the scan once their quota is met; a hash join
/// under LIMIT builds its whole 1 000-row right side but probes only O(k)
/// left rows; a bare ORDER BY consumes and holds every row, while the
/// top-k it fuses into with LIMIT consumes every row but holds O(k).
#[test]
fn limits_pull_o_k_rows_and_only_breakers_hold_them() {
    const K: u64 = 10;
    const SLACK: u64 = 2;
    let (n, m) = (5_000, 1_000);
    let engine = engine_with("s.big", keyed(n));
    engine.register("s.l", keyed(m));
    engine.register("s.r", keyed(m));
    let stats = |q: &str| engine.query_with_stats(q).unwrap().stats().unwrap().clone();

    let s = stats("SELECT VALUE x.v FROM s.big AS x LIMIT 10 OFFSET 100");
    assert!(s.rows_scanned <= 100 + K + SLACK, "{}", s.rows_scanned);
    assert!(
        s.peak_live_bindings <= K + SLACK,
        "{}",
        s.peak_live_bindings
    );

    // Every other row passes, so about 2k pulls.
    let s = stats("SELECT VALUE x.v FROM s.big AS x WHERE x.even LIMIT 10");
    assert!(s.rows_scanned <= 2 * K + SLACK, "{}", s.rows_scanned);
    assert!(
        s.peak_live_bindings <= K + SLACK,
        "{}",
        s.peak_live_bindings
    );

    let join = "SELECT VALUE [x.v, y.v] FROM s.l AS x JOIN s.r AS y ON x.k = y.k LIMIT 10";
    let plan = engine.explain(join).unwrap();
    assert!(plan.contains("hash join"), "{plan}");
    let s = stats(join);
    assert_eq!(s.join_build_rows, m as u64, "the build side sees every row");
    assert!(s.join_probes <= K + SLACK, "{}", s.join_probes);
    assert!(s.rows_scanned <= m as u64 + K + SLACK, "{}", s.rows_scanned);

    let s = stats("SELECT VALUE x.v FROM s.big AS x ORDER BY x.v DESC");
    assert_eq!(s.rows_scanned, n as u64);
    assert!(s.peak_live_bindings >= n as u64, "{}", s.peak_live_bindings);

    let s = stats("SELECT VALUE x.v FROM s.big AS x ORDER BY x.v DESC LIMIT 10");
    assert_eq!(s.rows_scanned, n as u64);
    assert!(
        s.peak_live_bindings <= 2 * K + SLACK,
        "{}",
        s.peak_live_bindings
    );
}

/// EXISTS pulls exactly one row from its subquery, however big the input
/// and whatever the unit of pull.
#[test]
fn exists_pulls_one_row() {
    for batch_size in [1, 2, 1024] {
        let engine = sized_engine(ints(1_000), TypingMode::Permissive, batch_size);
        let run = engine
            .query_with_stats("SELECT VALUE EXISTS (SELECT VALUE x FROM t AS x) FROM [1] AS one")
            .unwrap();
        let stats = run.stats().expect("stats collection was on");
        assert_eq!(
            stats.rows_scanned, 2,
            "the outer singleton plus one row of the subquery"
        );
        assert_eq!(stats.subquery_invocations, 1);
    }
}

/// A dominated operand is never evaluated: `FALSE AND …` / `TRUE OR …`
/// jump over the call instruction, so the subquery is never invoked —
/// for a literal left operand and for one decided per row.
#[test]
fn short_circuit_skips_subquery_calls() {
    let engine = engine_with("big", ints(50));
    for q in [
        "SELECT VALUE FALSE AND EXISTS (SELECT VALUE y FROM big AS y) FROM big AS x",
        "SELECT VALUE TRUE OR (SELECT y FROM big AS y WHERE y = x) FROM big AS x",
        "SELECT VALUE x < 0 AND EXISTS (SELECT VALUE y FROM big AS y) FROM big AS x",
        "SELECT VALUE x >= 0 OR x IN (SELECT y FROM big AS y) FROM big AS x",
        "SELECT VALUE CASE WHEN x >= 0 THEN 1 ELSE COLL_COUNT(SELECT VALUE y FROM big AS y) END \
         FROM big AS x",
    ] {
        let run = engine.query_with_stats(q).unwrap();
        assert_eq!(run.len(), 50, "{q}");
        let stats = run.stats().expect("stats collection was on");
        assert_eq!(stats.subquery_invocations, 0, "{q}");
        assert_eq!(stats.rows_scanned, 50, "only the outer scan ran: {q}");
    }
}

/// `x BETWEEN a AND b` evaluates `x` once: a correlated scalar subquery
/// as the subject runs once per row, not twice.
#[test]
fn between_evaluates_its_subject_once() {
    let engine = engine_with("t", ints(20));
    let run = engine
        .query_with_stats(
            "SELECT VALUE (SELECT y FROM t AS y WHERE y = x) BETWEEN 1 AND 5 FROM t AS x",
        )
        .unwrap();
    let hits = run
        .rows()
        .iter()
        .filter(|v| ***v == Value::Bool(true))
        .count();
    assert_eq!(hits, 5);
    let stats = run.stats().expect("stats collection was on");
    assert_eq!(stats.subquery_invocations, 20, "one invocation per row");
}

/// `COLL_*` streams its subquery through the entry `EXISTS`/`IN`/the
/// scalar probe share, so a correlated aggregate counts one invocation
/// per outer row like they do.
#[test]
fn coll_agg_counts_one_invocation_per_row() {
    let engine = engine_with("t", ints(20));
    let run = engine
        .query_with_stats(
            "SELECT VALUE COLL_COUNT(SELECT VALUE y FROM t AS y WHERE y = x) FROM t AS x",
        )
        .unwrap();
    assert_eq!(run.len(), 20);
    assert!(
        run.rows().iter().all(|v| **v == Value::Int(1)),
        "{}",
        run.value()
    );
    let stats = run.stats().expect("stats collection was on");
    assert_eq!(stats.subquery_invocations, 20, "one invocation per row");
}

/// `{'a': 1, 'b': 2}` as PIVOT input rows.
fn pivot_input() -> Engine {
    let engine = Engine::new();
    engine
        .load_pnotation("kv", "{{ {'k': 'a', 'v': 1}, {'k': 'b', 'v': 2} }}")
        .unwrap();
    engine
}

/// A PIVOT subquery's one element is its tuple — which exists even when
/// the PIVOT ran over nothing.
#[test]
fn exists_over_a_pivot_subquery_is_true() {
    let engine = pivot_input();
    for src in ["kv", "[]"] {
        let q = format!("SELECT VALUE EXISTS (PIVOT r.v AT r.k FROM {src} AS r) FROM [1] AS one");
        let run = engine.query_with_stats(&q).unwrap();
        assert!(run.matches(&Value::Bag(vec![Value::Bool(true)])), "{q}");
        assert_eq!(run.stats().unwrap().subquery_invocations, 1, "{q}");
        let plain = engine.query(&q).unwrap();
        assert!(plain.matches(&Value::Bag(vec![Value::Bool(true)])), "{q}");
    }
}

/// A WITH whose body is a PIVOT yields the tuple, not a one-element bag —
/// at top level and as a subquery.
#[test]
fn with_over_pivot_yields_a_tuple() {
    let engine = pivot_input();
    let mut want = Tuple::new();
    want.insert("a", Value::Int(1));
    want.insert("b", Value::Int(2));
    let want = Value::Tuple(want);
    let with_pivot = "WITH s AS (SELECT VALUE r FROM kv AS r) PIVOT x.v AT x.k FROM s AS x";
    for batch_size in [1, 1024] {
        let session = engine.with_config(SessionConfig {
            batch_size,
            ..SessionConfig::default()
        });
        let top = session.query(with_pivot).unwrap();
        assert_eq!(top.value(), &want, "top-level, batch={batch_size}");
        let nested = session
            .query(&format!("SELECT VALUE ({with_pivot}) FROM [1] AS one"))
            .unwrap();
        assert!(
            nested.matches(&Value::Bag(vec![want.clone()])),
            "subquery, batch={batch_size}: {}",
            nested.value()
        );
    }
}

/// IN over a SQL-compat sugar subquery stops scanning at the first
/// match. (A `SELECT VALUE` rhs lowers with bag coercion and stays on
/// the materialized path — only the sugar form streams.)
#[test]
fn in_predicate_stops_at_first_match() {
    let engine = engine_with("big", ints(1_000));
    let run = engine
        .query_with_stats("SELECT VALUE 5 IN (SELECT x FROM big AS x) FROM [1] AS one")
        .unwrap();
    assert!(run.matches(&Value::Bag(vec![Value::Bool(true)])));
    let stats = run.stats().expect("stats collection was on");
    assert!(
        stats.rows_scanned <= 7,
        "IN scanned {} rows past its match at position 6",
        stats.rows_scanned
    );
}

/// Error-position determinism: stop-on-error surfaces the first error in
/// pull order, so a LIMIT that ends the stream *before* the bad row means
/// no error — and a bad row before the quota still fails.
#[test]
fn strict_error_position_is_pull_order_deterministic() {
    let bad_last = Value::Bag(vec![
        Value::Int(1),
        Value::Int(2),
        Value::Str("boom".into()),
    ]);
    let bad_first = Value::Bag(vec![
        Value::Str("boom".into()),
        Value::Int(1),
        Value::Int(2),
    ]);
    let strict = SessionConfig {
        typing: TypingMode::StrictError,
        ..SessionConfig::default()
    };
    let q2 = "SELECT VALUE x + 1 FROM t AS x LIMIT 2";
    let q3 = "SELECT VALUE x + 1 FROM t AS x";

    // Bad row beyond the quota: the stream ends first, so strict succeeds.
    let engine = engine_with("t", bad_last.clone()).with_config(strict.clone());
    assert!(
        engine.query(q2).is_ok(),
        "LIMIT 2 must end before the error"
    );
    // Without the limit the same engine hits the bad row and stops.
    assert!(engine.query(q3).is_err(), "strict mode must surface row 3");

    // Bad row inside the quota: strict fails, permissive keeps flowing.
    let engine = engine_with("t", bad_first.clone()).with_config(strict);
    assert!(engine.query(q2).is_err(), "strict mode must surface row 1");
    let permissive = engine_with("t", bad_first);
    let got = permissive.query(q2).unwrap();
    assert!(
        got.matches(&Value::Bag(vec![Value::Missing, Value::Int(2)])),
        "permissive mode must keep healthy rows flowing: {}",
        got.value()
    );
}

/// Random documents whose `id` is *sometimes a string*, so arithmetic on
/// it errors in strict mode — exercising both the healthy and the
/// error-carrying paths of the stream.
fn arb_doc() -> Gen<Value> {
    gen::triple(
        gen::any_i64(),
        gen::any_bool(),
        gen::option_of(gen::vec_of(small_scalar(), 0..=3).map(Value::Array)),
    )
    .map(|(id, poison, projects)| {
        let mut t = Tuple::new();
        if poison {
            t.insert("id", Value::Str("not a number".into()));
        } else {
            t.insert("id", Value::Int(id % 50));
        }
        if let Some(projects) = projects {
            t.insert("projects", projects);
        }
        Value::Tuple(t)
    })
}

fn arb_collection() -> Gen<Value> {
    gen::vec_of(arb_doc(), 0..=11).map(Value::Bag)
}

/// SFW-fragment queries the reference supports, chosen so strict mode
/// has real errors to surface (arithmetic over the poisoned `id`).
fn queries() -> Vec<&'static str> {
    vec![
        "SELECT VALUE e FROM t AS e",
        "SELECT VALUE e.id + 1 FROM t AS e",
        "SELECT VALUE e.id FROM t AS e WHERE e.id > 10",
        "SELECT e.id + 0 AS id, p AS p FROM t AS e, e.projects AS p",
        "SELECT VALUE {'i': e.id, 'p': p} FROM t AS e, e.projects AS p WHERE e.id > 5",
    ]
}

/// Boolean expressions over the outer row `e` (and collection `t`) built
/// from every plan-valued form — scalar subquery, `EXISTS`, `IN (SELECT
/// …)` in both its streaming (SQL sugar) and materialized (`SELECT
/// VALUE`) shapes, pipelined and `DISTINCT` `COLL_*` — nested under
/// `AND`/`OR`/`NOT`/`CASE`, so call instructions sit behind every kind of
/// jump. The poisoned string ids give strict mode real errors to agree
/// on.
fn arb_pred(depth: u32) -> Gen<String> {
    let n = || gen::i64_range(0..8);
    let mut alts = vec![
        n().map(|n| format!("e.id > {n}")),
        gen::just("e.projects IS MISSING".to_string()),
        gen::just("EXISTS (SELECT VALUE p FROM e.projects AS p)".to_string()),
        n().map(|n| format!("EXISTS (SELECT VALUE o FROM t AS o WHERE o.id = e.id + {n})")),
        n().map(|n| format!("e.id IN (SELECT o.id FROM t AS o WHERE o.id < {n})")),
        n().map(|n| format!("{n} NOT IN (SELECT VALUE o.id FROM t AS o)")),
        // (No alternative starts with a parenthesis: `((SELECT …) = …)`
        // reads as a parenthesized query.)
        gen::just("e.id = (SELECT o.id FROM t AS o WHERE o.id = e.id)".to_string()),
        n().map(|n| {
            let hi = n + 3;
            format!("0 + (SELECT o.id FROM t AS o WHERE o.id = e.id) BETWEEN {n} AND {hi}")
        }),
        n().map(|n| format!("COLL_COUNT(SELECT VALUE o.id FROM t AS o WHERE o.id <= e.id) > {n}")),
        n().map(|n| format!("COLL_SUM(DISTINCT (SELECT VALUE o.id FROM t AS o)) > e.id + {n}")),
    ];
    if depth > 0 {
        let sub = move || gen::lazy(move || arb_pred(depth - 1));
        alts.extend([
            gen::pair(sub(), sub()).map(|(a, b)| format!("({a} AND {b})")),
            gen::pair(sub(), sub()).map(|(a, b)| format!("({a} OR {b})")),
            sub().map(|a| format!("NOT ({a})")),
            gen::triple(sub(), sub(), sub())
                .map(|(c, a, b)| format!("CASE WHEN {c} THEN {a} ELSE {b} END")),
        ]);
    }
    gen::one_of(alts)
}

/// A session over `t` with an explicit unit of pull. `batch_size: 1` is
/// the row-at-a-time baseline the batched engine is measured against.
fn sized_engine(data: Value, typing: TypingMode, batch_size: usize) -> Engine {
    let engine = engine_with("t", data);
    engine.with_config(SessionConfig {
        typing,
        batch_size,
        ..SessionConfig::default()
    })
}

/// LIMIT/OFFSET quotas that land mid-batch, exactly on a batch edge, one
/// past it, and beyond the input — every off-by-one a batched `Limited`
/// could get wrong. Checked at batch sizes bracketing the default against
/// batch size 1 (the degenerate single-row batch).
#[test]
fn limit_offset_batch_boundaries_agree_with_row_path() {
    const QUERIES: &[&str] = &[
        "SELECT VALUE x FROM t AS x LIMIT 1024 OFFSET 1023",
        "SELECT VALUE x FROM t AS x LIMIT 5 OFFSET 1022",
        "SELECT VALUE x FROM t AS x LIMIT 1025",
        "SELECT VALUE x FROM t AS x LIMIT 1 OFFSET 2999",
        "SELECT VALUE x FROM t AS x LIMIT 10 OFFSET 3000",
        "SELECT VALUE x FROM t AS x WHERE x % 7 = 0 LIMIT 100 OFFSET 99",
        "SELECT VALUE x FROM t AS x LIMIT 0 OFFSET 1024",
    ];
    let data = ints(3_000);
    for q in QUERIES {
        let baseline = sized_engine(data.clone(), TypingMode::Permissive, 1)
            .query(q)
            .unwrap_or_else(|e| panic!("row path failed on {q}: {e}"))
            .into_value();
        for batch_size in [2usize, 3, 1023, 1024, 1025] {
            let got = sized_engine(data.clone(), TypingMode::Permissive, batch_size)
                .query(q)
                .unwrap_or_else(|e| panic!("batch={batch_size} failed on {q}: {e}"))
                .into_value();
            assert!(
                sqlpp_value::cmp::deep_eq(&got, &baseline),
                "batch={batch_size} diverged on {q}\n  row path: {baseline}\n  batched:  {got}"
            );
        }
    }
}

/// Exhaustion edge cases: an empty input collection and a filter that
/// rejects every row both produce clean empty results through the batch
/// protocol (an empty append means "done", not an error or a hang).
#[test]
fn empty_batches_are_exhaustion_not_errors() {
    let empty = sized_engine(ints(0), TypingMode::Permissive, 1024);
    let r = empty.query("SELECT VALUE x + 1 FROM t AS x").unwrap();
    assert_eq!(r.len(), 0);

    let filtered = sized_engine(ints(5_000), TypingMode::Permissive, 1024);
    let r = filtered
        .query("SELECT VALUE x FROM t AS x WHERE x < 0 LIMIT 10")
        .unwrap();
    assert_eq!(r.len(), 0);
}

/// `{v: i}` for i in 0..1000, except row 500, whose `v` is a string that
/// breaks `x.v >= 0` and `x.v + 1` in strict mode.
fn poisoned() -> Value {
    let rows = (0..1_000)
        .map(|i| {
            let mut t = Tuple::new();
            match i {
                500 => t.insert("v", Value::Str("boom".into())),
                _ => t.insert("v", Value::Int(i)),
            }
            Value::Tuple(t)
        })
        .collect();
    Value::Bag(rows)
}

/// Every strict session the poison tests run: batch sizes 1 (no fused
/// spine) / 2 / 1024 × optimizer on/off.
fn strict_lattice(data: Value) -> Vec<(String, Engine)> {
    let engine = engine_with("t", data);
    let mut out = Vec::new();
    for batch_size in [1, 2, 1024] {
        for optimize in [true, false] {
            let config = SessionConfig {
                typing: TypingMode::StrictError,
                batch_size,
                optimize,
                ..SessionConfig::default()
            };
            let label = format!("batch={batch_size} optimize={optimize}");
            out.push((label, engine.with_config(config)));
        }
    }
    out
}

/// Bounded consumers stop the (fused) scan before the poison row, so
/// strict mode succeeds behind each of them; the unbounded twin reaches
/// the row and raises one and the same error in every configuration.
#[test]
fn bounded_consumers_stop_the_fused_scan_before_the_poison_row() {
    let filtered = "SELECT VALUE x.v + 1 FROM t AS x WHERE x.v >= 0";
    let bounded = [
        format!("{filtered} LIMIT 3"),
        format!("SELECT VALUE EXISTS ({filtered}) FROM [1] AS one"),
        "SELECT VALUE 1 IN (SELECT x.v + 0 AS v FROM t AS x WHERE x.v >= 0) FROM [1] AS one"
            .to_string(),
        "SELECT VALUE (SELECT x.v + 1 AS v FROM t AS x WHERE x.v >= 0 LIMIT 1) FROM [1] AS one"
            .to_string(),
        format!("{filtered} UNION ALL SELECT VALUE y.v FROM t AS y LIMIT 3"),
    ];
    let mut unbounded_errors = Vec::new();
    for (label, session) in strict_lattice(poisoned()) {
        for q in &bounded {
            let got = session
                .query(q)
                .unwrap_or_else(|e| panic!("{label}: {q} reached the poison row: {e}"));
            assert!(!got.is_empty(), "{label}: {q}");
        }
        let err = session
            .query(filtered)
            .expect_err("strict mode must reach row 500");
        unbounded_errors.push((label, err.to_string()));
    }
    let (_, first) = &unbounded_errors[0];
    for (label, err) in &unbounded_errors {
        assert_eq!(err, first, "{label}: a different strict error");
    }
}

/// The deleted materialize-then-aggregate form survives as an oracle:
/// `COLL_*` over a subquery (streamed) must equal the same aggregate over
/// the subquery's bag bound by LET (materialized), answer or error, on
/// empty, all-NULL, MISSING-mixed and heterogeneous inputs.
#[test]
fn streamed_coll_aggregates_match_a_materialized_bag() {
    let doc = |v: Option<Value>| {
        let mut t = Tuple::new();
        t.insert("id", Value::Int(0));
        if let Some(v) = v {
            t.insert("v", v);
        }
        Value::Tuple(t)
    };
    let inputs = [
        ("empty", vec![]),
        (
            "all-null",
            vec![doc(Some(Value::Null)), doc(Some(Value::Null))],
        ),
        (
            "missing-mixed",
            vec![
                doc(Some(Value::Int(3))),
                doc(None),
                doc(Some(Value::Null)),
                doc(Some(Value::Float(4.5))),
            ],
        ),
        (
            "heterogeneous",
            vec![
                doc(Some(Value::Int(1))),
                doc(Some(Value::Str("a".into()))),
                doc(Some(Value::Bool(true))),
                doc(Some(Value::Array(vec![Value::Int(1)]))),
            ],
        ),
    ];
    let subqueries = [
        "SELECT VALUE x.v FROM t AS x",
        "SELECT VALUE x.v FROM t AS x WHERE x.id = 0",
        "SELECT VALUE x.v FROM t AS x LIMIT 3",
    ];
    for (name, rows) in inputs {
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            for batch_size in [1, 1024] {
                let engine = sized_engine(Value::Bag(rows.clone()), typing, batch_size);
                for func in ["COUNT", "SUM", "AVG", "MIN", "MAX"] {
                    for sub in subqueries {
                        let streamed = format!("SELECT VALUE COLL_{func}({sub})");
                        let materialized =
                            format!("FROM [1] AS one LET b = ({sub}) SELECT VALUE COLL_{func}(b)");
                        let got = engine.query(&streamed).map(|r| r.into_value());
                        let want = engine.query(&materialized).map(|r| r.into_value());
                        let ctx = format!("{name} {typing:?} batch={batch_size}: {streamed}");
                        match (&got, &want) {
                            (Ok(got), Ok(want)) => {
                                assert!(
                                    sqlpp_value::cmp::deep_eq(got, want),
                                    "{ctx}: {got} vs {want}"
                                )
                            }
                            (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{ctx}"),
                            _ => panic!("{ctx}: streamed {got:?} vs materialized {want:?}"),
                        }
                    }
                }
            }
        }
    }
}

/// Breakers (sort, group, window, DISTINCT, top-k, the hash-join build)
/// do their work while their stream is built, and `EXPLAIN ANALYZE` times
/// are inclusive: every operator's time must cover each direct child's.
#[test]
fn operator_time_covers_its_children() {
    let rows = |n: i64, key: i64| {
        let rows = (0..n)
            .map(|i| {
                let mut t = Tuple::new();
                t.insert("k", Value::Int(i % key));
                t.insert("s", Value::Str(format!("s{}", (i * 7_919) % n)));
                t.insert("v", Value::Int(i));
                Value::Tuple(t)
            })
            .collect();
        Value::Bag(rows)
    };
    let engine = Engine::new();
    engine.register("t", rows(4_000, 50));
    engine.register("u", rows(50, 50));
    for q in [
        "SELECT x.k AS k FROM t AS x ORDER BY x.s",
        "SELECT x.k AS k, COUNT(*) AS n FROM t AS x GROUP BY x.k",
        "SELECT x.v AS v, ROW_NUMBER() OVER (PARTITION BY x.k ORDER BY x.s) AS r FROM t AS x",
        "SELECT DISTINCT VALUE x.k FROM t AS x",
        "SELECT x.k AS k FROM t AS x ORDER BY x.s LIMIT 5",
        "SELECT x.v AS v, y.v AS w FROM t AS x JOIN u AS y ON x.k = y.k",
    ] {
        let prepared = engine.prepare(q).unwrap();
        let plan = prepared.plan();
        let config = EvalConfig {
            collect_stats: true,
            ..EvalConfig::default()
        };
        let ev = Evaluator::new(engine.catalog(), config);
        ev.run(plan).unwrap();
        let stats = ev.stats_snapshot().expect("collect_stats was on");
        // Pre-order indices: a node's children start right after it, each
        // spanning its own subtree.
        let ops = plan.preorder_ops();
        let span = |op: &CoreOp| CoreQuery { op: op.clone() }.preorder_ops().len();
        let mut compared = 0;
        for (i, op) in ops.iter().enumerate() {
            let Some(parent) = stats.op_at(i as u32) else {
                continue;
            };
            let mut c = i + 1;
            while c < i + span(op) {
                if let Some(child) = stats.op_at(c as u32) {
                    assert!(
                        parent.ns >= child.ns,
                        "{q}\n{}: node {i} took {}ns < child {c}'s {}ns",
                        plan.explain(),
                        parent.ns,
                        child.ns
                    );
                    compared += 1;
                }
                c += span(ops[c]);
            }
        }
        assert!(compared > 0, "{q}: no parent/child pair ran");
    }
}

sqlpp_prop! {
    #![config(cases = 64)]

    // The tentpole gate: the streaming pipeline against the materialized
    // nested-loop oracle. Permissive runs must produce identical bags;
    // stop-on-error runs must fail on exactly the same inputs.
    fn streaming_agrees_with_materialized_reference(data in arb_collection()) {
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            let catalog = sqlpp::Catalog::new();
            catalog.set("t", data.clone());
            let engine = engine_with("t", data.clone()).with_config(SessionConfig {
                typing,
                ..SessionConfig::default()
            });
            let config = EvalConfig {
                typing,
                ..EvalConfig::default()
            };
            for q in queries() {
                let ast = parse_query(q).expect("query parses");
                let expected = eval_sfw_config(&ast, &catalog, config.clone());
                let got = engine.query(q);
                match (expected, got) {
                    (Ok(want), Ok(got)) => prop_assert!(
                        got.matches(&want),
                        "{typing:?} {q}\n  reference: {want}\n  streaming: {}",
                        got.value()
                    ),
                    (Err(ReferenceError::Eval(_)), Err(_)) => {}
                    (Err(ReferenceError::Unsupported(what)), _) => prop_assert!(
                        false, "oracle lost coverage of {q}: unsupported {what}"
                    ),
                    (want, got) => prop_assert!(
                        false,
                        "{typing:?} error behavior diverged on {q}\n  data {data}\n  \
                         reference: {want:?}\n  streaming: {:?}",
                        got.map(|r| r.into_value())
                    ),
                }
            }
        }
    }

    // The one-evaluator gate: generated expressions full of call
    // instructions, as a projection and as a predicate, must give the same
    // answer (or fail alike) at every batch size, in both typing modes and
    // both compat modes — and, where the oracle lowers the same way (SQL
    // compat), the Pseudocode 1–2 reference's answer.
    fn plan_valued_expressions_agree_across_the_config_lattice(
        data in arb_collection(), pred in arb_pred(2),
    ) {
        let queries = [
            format!("SELECT VALUE {pred} FROM t AS e"),
            format!("SELECT VALUE e.id FROM t AS e WHERE {pred}"),
        ];
        let catalog = sqlpp::Catalog::new();
        catalog.set("t", data.clone());
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            for compat in [CompatMode::SqlCompat, CompatMode::Composable] {
                let run = |q: &str, batch_size: usize| {
                    engine_with("t", data.clone())
                        .with_config(SessionConfig {
                            typing,
                            compat,
                            batch_size,
                            ..SessionConfig::default()
                        })
                        .query_with_stats(q)
                };
                for q in &queries {
                    let row = run(q, 1);
                    if let Ok(r) = &row {
                        prop_assert!(r.stats().unwrap().exprs_fallback == 0, "{q}");
                    }
                    let row = row.map(|r| r.into_value());
                    for batch_size in [2usize, 1024] {
                        let got = run(q, batch_size).map(|r| r.into_value());
                        match (&row, &got) {
                            (Ok(want), Ok(got)) => prop_assert!(
                                sqlpp_value::cmp::deep_eq(got, want),
                                "{typing:?} {compat:?} batch={batch_size} diverged on {q}\n  \
                                 data {data}\n  row:     {want}\n  batched: {got}"
                            ),
                            (Err(_), Err(_)) => {}
                            (want, got) => prop_assert!(
                                false,
                                "{typing:?} {compat:?} batch={batch_size} error behavior \
                                 diverged on {q}\n  data {data}\n  row: {want:?}\n  batched: {got:?}"
                            ),
                        }
                    }
                    if compat != CompatMode::SqlCompat {
                        continue;
                    }
                    let ast = parse_query(q).expect("query parses");
                    let config = EvalConfig { typing, compat, ..EvalConfig::default() };
                    match (eval_sfw_config(&ast, &catalog, config), &row) {
                        (Ok(want), Ok(got)) => prop_assert!(
                            sqlpp_value::cmp::deep_eq(got, &want),
                            "{typing:?} diverged from reference on {q}\n  data {data}\n  \
                             reference: {want}\n  engine:    {got}"
                        ),
                        (Err(ReferenceError::Eval(_)), Err(_)) => {}
                        (Err(ReferenceError::Unsupported(what)), _) => prop_assert!(
                            false, "oracle lost coverage of {q}: unsupported {what}"
                        ),
                        (want, got) => prop_assert!(
                            false,
                            "{typing:?} error behavior diverged from reference on {q}\n  \
                             data {data}\n  reference: {want:?}\n  engine: {got:?}"
                        ),
                    }
                }
            }
        }
    }

    // The vectorized gate: the batched engine against both the
    // row-at-a-time baseline (batch size 1) and the Pseudocode 1–2
    // reference, in both typing modes — at batch sizes 2 (every boundary
    // hit) and the 1024 default.
    fn batched_agrees_with_row_path_and_reference(data in arb_collection()) {
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            let catalog = sqlpp::Catalog::new();
            catalog.set("t", data.clone());
            let config = EvalConfig { typing, ..EvalConfig::default() };
            let row_path = sized_engine(data.clone(), typing, 1);
            for q in queries() {
                let ast = parse_query(q).expect("query parses");
                let reference = eval_sfw_config(&ast, &catalog, config.clone());
                let row = row_path.query(q).map(|r| r.into_value());
                for batch_size in [2usize, 1024] {
                    let batched = sized_engine(data.clone(), typing, batch_size);
                    let got = batched.query(q).map(|r| r.into_value());
                    match (&row, &got) {
                        (Ok(want), Ok(got)) => prop_assert!(
                            sqlpp_value::cmp::deep_eq(got, want),
                            "{typing:?} batch={batch_size} diverged from row path on {q}\n  \
                             row:     {want}\n  batched: {got}"
                        ),
                        (Err(_), Err(_)) => {}
                        (want, got) => prop_assert!(
                            false,
                            "{typing:?} batch={batch_size} error behavior diverged on {q}\n  \
                             data {data}\n  row: {want:?}\n  batched: {got:?}"
                        ),
                    }
                    match (&reference, &got) {
                        (Ok(want), Ok(got)) => prop_assert!(
                            sqlpp_value::cmp::deep_eq(got, want),
                            "{typing:?} batch={batch_size} diverged from reference on {q}\n  \
                             reference: {want}\n  batched:   {got}"
                        ),
                        (Err(ReferenceError::Eval(_)), Err(_)) => {}
                        (Err(ReferenceError::Unsupported(what)), _) => prop_assert!(
                            false, "oracle lost coverage of {q}: unsupported {what}"
                        ),
                        (want, got) => prop_assert!(
                            false,
                            "{typing:?} batch={batch_size} error behavior diverged from \
                             reference on {q}\n  data {data}\n  reference: {want:?}\n  \
                             batched: {got:?}"
                        ),
                    }
                }
            }
        }
    }
}
