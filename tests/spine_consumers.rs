//! Late materialization on the fused spine: a top-k in binding form over
//! `Filter* → Scan`, and an inner hash join whose probe side is a bare
//! scan, evaluate their keys and filters on borrowed rows and clone only
//! the rows they keep. Both must answer exactly like the binding stream
//! (batch 1, where the spine never runs), and like the paper-literal plan
//! (`optimize: false`) wherever both answer.
//!
//! * a seeded differential property over ORDER BY … LIMIT/OFFSET and
//!   INNER comma/JOIN equi-joins — probe filters, build filters,
//!   residuals, two-key joins whose second key can raise, `?`
//!   parameters (sometimes never supplied), LIMIT above a join, a
//!   folded GROUP BY over a join, outer-correlated subqueries, and a
//!   LEFT join as the control — over rows whose key and filter
//!   attributes are ints, strings, floats, NULL, MISSING or absent, with
//!   duplicate sort keys; optimize on and off, batch 1/2/1024, both
//!   typing modes: the identical answer or error at every batch size;
//! * pinned cases where a naive late materialization changes an answer
//!   or an error: an empty build side, a probe filter that rejects every
//!   left row, an empty left side, the `UnknownName` fallback, LIMIT 0,
//!   a memory budget and a tiny spill budget.
//!
//! `tests/chaos.rs` checks that a deadline or cancel token stops both
//! consumers mid-scan.

use sqlpp::{Engine, Limits, SessionConfig, SpillConfig, TypingMode};
use sqlpp_testkit::prop::{self, Gen, Source};
use sqlpp_testkit::{prop_assert, sqlpp_prop};
use sqlpp_value::{Tuple, Value};

fn pick<T: Clone>(src: &mut Source, choices: &[T]) -> T {
    choices[src.draw_below(choices.len() as u64) as usize].clone()
}

fn tuple(pairs: Vec<(&str, Value)>) -> Value {
    let mut t = Tuple::new();
    for (name, v) in pairs {
        t.insert(name, v);
    }
    Value::Tuple(t)
}

/// A key or filter attribute: `None` leaves it absent. The small domain
/// makes duplicate sort keys and repeated join keys common.
fn attr(src: &mut Source) -> Option<Value> {
    pick(
        src,
        &[
            Some(Value::Int(1)),
            Some(Value::Int(2)),
            Some(Value::Int(2)),
            Some(Value::Int(3)),
            Some(Value::Float(0.5)),
            Some(Value::Float(2.0)),
            Some(Value::Str("a".into())),
            Some(Value::Str("b".into())),
            Some(Value::Null),
            Some(Value::Missing),
            None,
        ],
    )
}

/// 0–`max` rows `{id, k, f, t}`: `k` and `f` from [`attr`], `t` a 0/1
/// flag for build filters.
fn table(src: &mut Source, max: usize) -> Value {
    let n = src.draw_len(0, max);
    let mut out = Vec::with_capacity(n);
    for id in 0..n {
        let mut t = Tuple::new();
        t.insert("id", Value::Int(id as i64));
        for name in ["k", "f"] {
            if let Some(v) = attr(src) {
                t.insert(name, v);
            }
        }
        t.insert("t", Value::Int(src.draw_range_i64(0, 1)));
        out.push(Value::Tuple(t));
    }
    Value::Bag(out)
}

/// The probe table `u` and the build table `w`.
#[derive(Debug, Clone)]
struct Data {
    u: Value,
    w: Value,
}

fn data() -> Gen<Data> {
    Gen::new(|src| Data {
        u: table(src, 12),
        w: table(src, 6),
    })
}

const FILTERS: &[&str] = &[
    "e.f > 0.5",
    "e.k <> 'a'",
    "e.k = ?",
    "e.id < ?",
    "e.k IS NOT NULL",
    "e.k < 3",
];
const SORT_KEYS: &[&str] = &[
    "e.k",
    "e.k DESC",
    "e.f",
    "e.f DESC NULLS LAST",
    "e.k NULLS FIRST",
    "e.k + 1",
    "e.id DESC",
];
const LIMITS: &[&str] = &["0", "1", "2", "3", "5", "?"];
const KEYS: &[&str] = &["e.k = d.k", "e.k = d.k AND e.f + 1 = d.f + 1", "e.f = d.k"];
const PROBE: &[&str] = &["e.f > 0.5", "e.k = ?", "e.id < ?", "e.f IS NOT NULL"];
const RESIDUAL: &[&str] = &["e.id <> d.id", "e.f < d.f", "e.id + d.id > 3", "d.f = ?"];

/// A generated query and the parameters it runs with.
#[derive(Debug, Clone)]
struct Query {
    text: String,
    params: Vec<Value>,
}

/// ` WHERE c` for one filter, half of the time.
fn filter(src: &mut Source) -> String {
    match src.draw_below(2) {
        0 => String::new(),
        _ => format!(" WHERE {}", pick(src, FILTERS)),
    }
}

/// `ORDER BY` 1–2 keys `LIMIT n`, with an OFFSET now and then.
fn order_limit(src: &mut Source) -> String {
    let keys: Vec<&str> = (0..src.draw_len(1, 2))
        .map(|_| pick(src, SORT_KEYS))
        .collect();
    let offset = match src.draw_below(3) {
        0 => format!(" OFFSET {}", src.draw_range_i64(0, 3)),
        _ => String::new(),
    };
    format!(
        " ORDER BY {} LIMIT {}{offset}",
        keys.join(", "),
        pick(src, LIMITS)
    )
}

/// The equi-key, then any of a probe filter, a build filter and a
/// residual, in random order.
fn join_condition(src: &mut Source) -> String {
    let mut out = vec![pick(src, KEYS)];
    if src.draw_below(2) == 0 {
        out.push(pick(src, PROBE));
    }
    if src.draw_below(3) == 0 {
        out.push("d.t = 1");
    }
    if src.draw_below(2) == 0 {
        out.push(pick(src, RESIDUAL));
    }
    for i in (1..out.len()).rev() {
        out.swap(i, src.draw_below(i as u64 + 1) as usize);
    }
    out.join(" AND ")
}

fn queries() -> Gen<Query> {
    Gen::new(|src| {
        let text = match src.draw_below(10) {
            0 | 1 => format!(
                "SELECT VALUE [e.id, e.k, e.f] FROM u AS e{}{}",
                filter(src),
                order_limit(src)
            ),
            2 => format!(
                "SELECT e.id AS id, e.k AS k FROM u AS e{}{}",
                filter(src),
                order_limit(src)
            ),
            // The spine reads the outer `o` from its environment.
            3 => format!(
                "SELECT o.f AS f, (SELECT VALUE e.id FROM u AS e WHERE e.k <> o.f{}) AS s \
                 FROM outer_rows AS o",
                order_limit(src)
            ),
            4 | 5 => format!(
                "SELECT VALUE [e.id, d.id] FROM u AS e, w AS d WHERE {}",
                join_condition(src)
            ),
            6 => format!(
                "SELECT VALUE [e.id, d.id] FROM u AS e {} w AS d ON {}",
                pick(src, &["JOIN", "INNER JOIN"]),
                join_condition(src)
            ),
            // A LIMIT above the join stops its probe side early.
            7 => format!(
                "SELECT VALUE [e.id, d.id] FROM u AS e, w AS d WHERE {} LIMIT {}",
                join_condition(src),
                src.draw_range_i64(1, 3)
            ),
            8 => format!(
                "SELECT d.t AS t, COUNT(*) AS n, SUM(e.id) AS s FROM u AS e, w AS d \
                 WHERE {} GROUP BY d.t",
                join_condition(src)
            ),
            // The control: a LEFT join keeps the binding stream.
            _ => format!(
                "SELECT VALUE [e.id, d.id] FROM u AS e LEFT JOIN w AS d ON {}",
                join_condition(src)
            ),
        };
        // Now and then a `?` is never supplied.
        let params = if src.draw_below(4) == 0 {
            Vec::new()
        } else {
            (0..text.matches('?').count())
                .map(|_| {
                    pick(
                        src,
                        &[
                            Value::Int(1),
                            Value::Int(2),
                            Value::Str("a".into()),
                            Value::Float(0.5),
                        ],
                    )
                })
                .collect()
        };
        Query { text, params }
    })
}

fn engine(u: &Value, w: &Value) -> Engine {
    let engine = Engine::new();
    engine.register("u", u.clone());
    engine.register("w", w.clone());
    engine.register(
        "outer_rows",
        Value::Bag(
            [Value::Int(1), Value::Str("a".into()), Value::Null]
                .map(|f| tuple(vec![("f", f)]))
                .to_vec(),
        ),
    );
    engine
}

fn config(typing: TypingMode, optimize: bool, batch_size: usize) -> SessionConfig {
    SessionConfig {
        typing,
        optimize,
        batch_size,
        ..SessionConfig::default()
    }
}

/// The outcome of one run, as compared: the canonical answer or the
/// error string.
type Outcome = Result<Value, String>;

fn outcome(r: sqlpp::Result<sqlpp::QueryResult>) -> Outcome {
    r.map(|r| r.canonical()).map_err(|e| e.to_string())
}

/// Runs `q` under `base` in every arm — batch 1, 2 and 1024 with optimize
/// on and off — and returns each setting's batch-1 outcome, `(on, off)`,
/// once every other arm has been checked against them. Batch 1 is the
/// binding stream, where the spine never runs; batch 2 and 1024 run the
/// spine, and must give the identical answer or error. Across settings
/// only answers are compared: a hash join evaluates its conjuncts in
/// another order than the literal WHERE, so where one plan raises the
/// other may not, with or without the spine.
fn arms(
    engine: &Engine,
    base: &SessionConfig,
    q: &str,
    params: &[Value],
) -> Result<(Outcome, Outcome), String> {
    let run = |optimize, batch_size| {
        let session = engine.with_config(SessionConfig {
            optimize,
            batch_size,
            ..base.clone()
        });
        outcome(session.query_with_params(q, params.to_vec()))
    };
    let batch_one = |optimize| {
        let reference = run(optimize, 1);
        for batch_size in [2, 1024] {
            let got = run(optimize, batch_size);
            if got != reference {
                return Err(format!(
                    "{:?}, optimize {optimize}, batch {batch_size}: {q} {params:?}: \
                     got {got:?}, batch 1 gave {reference:?}",
                    base.typing
                ));
            }
        }
        Ok(reference)
    };
    let (on, off) = (batch_one(true)?, batch_one(false)?);
    if let (Ok(a), Ok(b)) = (&on, &off) {
        if a != b {
            return Err(format!(
                "{:?}: {q} {params:?}: optimize on gave {a}, the literal plan {b}",
                base.typing
            ));
        }
    }
    Ok((on, off))
}

// The CI spine differential gate scales the sweep through
// `SQLPP_PROP_CASES`.
sqlpp_prop! {
    #![config(cases = prop::cases(600))]

    fn spine_consumers_match_the_binding_stream_and_the_literal_plan(d in data(), q in queries()) {
        let engine = engine(&d.u, &d.w);
        for base in both_typings() {
            let checked = arms(&engine, &base, &q.text, &q.params);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}

/// [`arms`], panicking on a disagreement; returns the optimized plan's
/// outcome.
fn every_arm(engine: &Engine, base: &SessionConfig, q: &str, params: &[Value]) -> Outcome {
    match arms(engine, base, q, params) {
        Ok((on, _)) => on,
        Err(e) => panic!("{e}"),
    }
}

fn both_typings() -> [SessionConfig; 2] {
    [TypingMode::Permissive, TypingMode::StrictError].map(|typing| config(typing, true, 1024))
}

fn rows(n: i64, f: impl Fn(i64) -> Vec<(&'static str, Value)>) -> Value {
    Value::Bag((0..n).map(|i| tuple(f(i))).collect())
}

/// An empty build side matches nothing, and the probe filter — which
/// raises on every row (an unsupplied `?`) — is never evaluated: no left
/// predicate or key runs against an empty build.
#[test]
fn a_raising_probe_filter_over_an_empty_build_side_answers_empty() {
    let u = rows(100, |i| {
        vec![("id", Value::Int(i)), ("k", Value::Int(i % 3))]
    });
    let engine = engine(&u, &Value::Bag(Vec::new()));
    for q in [
        "SELECT VALUE [e.id, d.id] FROM u AS e, w AS d WHERE e.k = d.k AND e.id = ?",
        "SELECT VALUE [e.id, d.id] FROM u AS e JOIN w AS d ON e.k = d.k AND e.id = ?",
    ] {
        assert!(engine
            .with_config(config(TypingMode::Permissive, true, 1024))
            .explain(q)
            .unwrap()
            .contains("probe-filter"));
        for base in both_typings() {
            assert_eq!(
                every_arm(&engine, &base, q, &[]),
                Ok(Value::Bag(Vec::new()))
            );
        }
    }
}

/// A probe filter that rejects every left row does not skip the build:
/// a raising build side raises exactly as it does on the binding stream.
/// With an empty left side nothing is built, so the same build side
/// cannot raise.
#[test]
fn the_build_runs_when_every_left_row_is_rejected_and_not_when_the_left_is_empty() {
    let u = rows(50, |i| vec![("id", Value::Int(i)), ("k", Value::Int(i))]);
    // Strict typing raises on `d.k + 'x'` for the first build row.
    let w = rows(3, |i| vec![("id", Value::Int(i)), ("k", Value::Int(i))]);
    let q = "SELECT VALUE [e.id, d.id] FROM u AS e, w AS d WHERE e.k = d.k + 'x' AND e.id < 0";
    let strict = config(TypingMode::StrictError, true, 1024);
    let err = every_arm(&engine(&u, &w), &strict, q, &[]).expect_err("the build raises");
    assert!(err.contains("string"), "{err}");
    // Permissive typing builds nothing that matches: every key is MISSING.
    let permissive = config(TypingMode::Permissive, true, 1024);
    assert_eq!(
        every_arm(&engine(&u, &w), &permissive, q, &[]),
        Ok(Value::Bag(Vec::new()))
    );
    for base in both_typings() {
        assert_eq!(
            every_arm(&engine(&Value::Bag(Vec::new()), &w), &base, q, &[]),
            Ok(Value::Bag(Vec::new()))
        );
    }
}

/// The `UnknownName ⇒ NestedLoop` fallback: `tags` is an attribute of
/// each left row, not a catalog name, so the build cannot resolve it and
/// the join runs as the nested loop it was derived from — over the
/// spine's already-opened left source, every row of it.
#[test]
fn the_unknown_name_fallback_answers_from_the_spine_source() {
    let u = rows(6, |i| {
        vec![
            ("k", Value::Int(i % 3)),
            ("tags", Value::Array(vec![Value::Int(i % 3), Value::Int(1)])),
        ]
    });
    let engine = engine(&u, &Value::Bag(Vec::new()));
    let q = "SELECT VALUE [x.k, b] FROM u AS x, tags AS b WHERE x.k = b";
    let session = engine.with_config(config(TypingMode::Permissive, true, 1024));
    assert!(session.explain(q).unwrap().contains("hash join"));
    for base in both_typings() {
        let got = every_arm(&engine, &base, q, &[]).unwrap();
        assert_eq!(got.as_elements().map(<[Value]>::len), Some(8), "{got}");
    }
}

/// LIMIT 0 evaluates nothing — not the source, not a key that raises in
/// strict mode (`e.k + 1` on a string).
#[test]
fn limit_zero_evaluates_no_key() {
    let u = rows(10, |i| {
        vec![("id", Value::Int(i)), ("k", Value::Str("s".into()))]
    });
    let engine = engine(&u, &Value::Bag(Vec::new()));
    let q = "SELECT VALUE e.id FROM u AS e ORDER BY e.k + 1 LIMIT 0";
    assert!(engine
        .with_config(config(TypingMode::StrictError, true, 1024))
        .explain(q)
        .unwrap()
        .contains("top-k"));
    for base in both_typings() {
        let got = every_arm(&engine, &base, q, &[]).unwrap();
        assert_eq!(got.as_elements().map(<[Value]>::len), Some(0), "{got}");
    }
    // The same key raises as soon as one row is wanted.
    let strict = config(TypingMode::StrictError, true, 1024);
    let q = "SELECT VALUE e.id FROM u AS e ORDER BY e.k + 1 LIMIT 1";
    assert!(every_arm(&engine, &strict, q, &[]).is_err());
}

/// A top-k under a memory budget, with stats off: the spine charges each
/// row what its binding would weigh, so the budget admits and refuses at
/// the same row as the binding stream (batch 1), with the same figures
/// in the error.
#[test]
fn a_budgeted_top_k_admits_and_refuses_at_the_same_row_as_batch_one() {
    let u = rows(200, |i| {
        vec![
            ("id", Value::Int(i)),
            ("k", Value::Int(i % 17)),
            ("pad", Value::Str("x".repeat((i % 7) as usize * 10))),
        ]
    });
    let engine = engine(&u, &Value::Bag(Vec::new()));
    let q = "SELECT VALUE e.id FROM u AS e WHERE e.id >= 3 ORDER BY e.k DESC, e.id LIMIT 40";
    let mut outcomes = Vec::new();
    for bytes in [1_000, 4_000, 8_000, 100_000] {
        for base in both_typings() {
            let base = SessionConfig {
                limits: Limits::none().with_memory_bytes(bytes),
                ..base
            };
            outcomes.push(every_arm(&engine, &base, q, &[]));
        }
    }
    // The sweep straddles the budget: some budgets refuse, some answer.
    assert!(outcomes.iter().any(Result::is_ok), "{outcomes:?}");
    assert!(
        outcomes
            .iter()
            .any(|r| r.as_ref().is_err_and(|e| e.contains("memory"))),
        "{outcomes:?}"
    );
}

/// A tiny spill budget sends the join Grace-style to disk: the spilled
/// probe, fed off the spine, gives the in-memory answer as a multiset.
#[test]
fn a_grace_spilled_spine_probe_gives_the_in_memory_answer() {
    let u = rows(300, |i| {
        vec![
            ("id", Value::Int(i)),
            ("k", Value::Int(i % 23)),
            ("f", Value::Float((i % 5) as f64)),
        ]
    });
    let w = rows(120, |i| {
        vec![
            ("id", Value::Int(i)),
            ("k", Value::Int(i % 29)),
            ("f", Value::Float((i % 3) as f64)),
        ]
    });
    let engine = engine(&u, &w);
    for q in [
        "SELECT VALUE [e.id, d.id] FROM u AS e, w AS d WHERE e.k = d.k AND e.f > 1",
        "SELECT VALUE [e.id, d.id] FROM u AS e JOIN w AS d ON e.k = d.k AND e.f < d.f",
    ] {
        for base in both_typings() {
            let in_memory = every_arm(&engine, &base, q, &[]).unwrap();
            let budgeted = SessionConfig {
                limits: Limits::none().with_memory_bytes(2_000),
                ..base
            };
            // The build does not fit the budget…
            let refused = every_arm(&engine, &budgeted, q, &[]).unwrap_err();
            assert!(refused.contains("memory"), "{refused}");
            // …so with spilling on, the join runs on disk.
            let spilled = SessionConfig {
                spill: Some(SpillConfig::default()),
                ..budgeted
            };
            assert_eq!(every_arm(&engine, &spilled, q, &[]), Ok(in_memory));
        }
    }
}
