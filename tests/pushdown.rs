//! Selection pushdown below UNNEST: a correlate's leading left-only WHERE
//! conjuncts filter its left rows before their right side opens, and
//! must answer exactly like the paper-literal plan (`optimize: false`).
//!
//! * a seeded differential property over comma, UNNEST and UNPIVOT
//!   queries with left-only, right-only, mixed, outer-correlated, `?` and
//!   schemaless-subquery conjuncts — 3-item FROMs, a correlate under a hash join, a correlate
//!   inside a subquery, `JOIN … ON … WHERE` in both join kinds, LIMIT and
//!   EXISTS consumers — over rows whose
//!   unnested attribute is absent, MISSING, NULL, empty, a scalar, an
//!   array or a bag, and whose filtered attribute is an int, a string,
//!   NULL or MISSING; optimize on and off, batch 1/2/1024, both typing
//!   modes: equal answers or the identical error — for a keys-only
//!   INNER `JOIN … ON`, whose hash join reorders the WHERE's conjuncts,
//!   the identical answer or error at every batch size, and the same
//!   answer from both plans wherever both answer;
//! * pinned cases a naive pushdown breaks: a parameter that is never
//!   supplied, a strict-mode scan of a non-collection on a row the WHERE
//!   rejects, a subquery whose unqualified name is ambiguous only once
//!   the right side is bound, and a strict-mode ON residual that a
//!   pushed WHERE filter would overtake;
//! * optimizing a generated query's optimized plan again changes
//!   nothing: the optimizer runs each pass once.
//!
//! `tests/engine_api.rs` pins the pushdown's scan counter and its EXPLAIN.

use sqlpp::{Engine, SessionConfig, TypingMode};
use sqlpp_testkit::prop::{self, Gen, Source};
use sqlpp_testkit::{prop_assert, prop_assert_eq, sqlpp_prop};
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

/// One element of an unnested collection: mostly `{j}` tuples with a
/// mixed-type (or absent) `j`, now and then a bare scalar or a tuple with
/// a `tags` attribute of its own, which makes an unqualified `tags`
/// ambiguous once it is bound.
fn element(src: &mut Source) -> Value {
    match src.draw_below(8) {
        0 => Value::Int(7),
        1 => tuple(vec![]),
        2 => tuple(vec![("j", Value::Str("a".into()))]),
        3 => tuple(vec![("j", Value::Null)]),
        4 => tuple(vec![
            ("j", Value::Int(1)),
            ("tags", Value::Array(vec![Value::Int(1)])),
        ]),
        _ => tuple(vec![("j", Value::Int(src.draw_range_i64(0, 3)))]),
    }
}

/// An unnested attribute: `None` leaves it absent.
fn collection(src: &mut Source) -> Option<Value> {
    let items = |src: &mut Source| (0..src.draw_len(1, 3)).map(|_| element(src)).collect();
    match src.draw_below(9) {
        0 => None,
        1 => Some(Value::Missing),
        2 => Some(Value::Null),
        3 => Some(Value::Array(Vec::new())),
        4 => Some(Value::Int(5)),
        5 | 6 => Some(Value::Array(items(src))),
        _ => Some(Value::Bag(items(src))),
    }
}

/// 0–10 rows `{id, k, xs, zs, o, tags}` of the unnested table `u`.
fn rows() -> Gen<Value> {
    Gen::new(|src| {
        let n = src.draw_len(0, 10);
        let mut out = Vec::with_capacity(n);
        for id in 0..n {
            let mut t = Tuple::new();
            t.insert("id", Value::Int(id as i64));
            let k = pick(
                src,
                &[
                    Some(Value::Int(1)),
                    Some(Value::Int(2)),
                    Some(Value::Int(3)),
                    Some(Value::Str("a".into())),
                    Some(Value::Null),
                    Some(Value::Missing),
                    None,
                ],
            );
            if let Some(k) = k {
                t.insert("k", k);
            }
            for name in ["xs", "zs"] {
                if let Some(c) = collection(src) {
                    t.insert(name, c);
                }
            }
            if src.draw_below(2) == 0 {
                let tag = Value::Int(src.draw_range_i64(1, 3));
                t.insert("tags", Value::Array(vec![tag]));
            }
            match src.draw_below(4) {
                0 => {}
                1 => t.insert("o", Value::Int(4)),
                _ => t.insert(
                    "o",
                    tuple(vec![("a", Value::Int(1)), ("b", Value::Str("x".into()))]),
                ),
            }
            out.push(Value::Tuple(t));
        }
        Value::Bag(out)
    })
}

const LEFT: &[&str] = &[
    "e.k = 1",
    "e.k < 3",
    "e.k = ?",
    "e.k IS NOT NULL",
    "e.k <> 'a'",
    "e.id >= 2",
    // Schemaless: `tags` resolves at run time against the visible tuples.
    "EXISTS (SELECT VALUE 1 FROM tags AS g WHERE g = e.k)",
];
const RIGHT: &[&str] = &["p.j = 1", "p.j > 0", "p.j = ?", "p IS NOT MISSING"];
const MIXED: &[&str] = &["p.j = e.k", "p.j < e.k"];
const UNPIVOT_RIGHT: &[&str] = &["v = 1", "n = 'a'", "v > 0", "v = e.k"];
const THIRD: &[&str] = &["q.j = 2", "q.j >= p.j", "q.j = e.k"];
const OUTER: &[&str] = &["e.k = o.f", "o.f > 1"];
const JOINED: &[&str] = &["d.t = 1", "d.t = e.k", "d.t < e.k", "d.id = e.k", "d.t = ?"];
const ON: &[&str] = &[
    "e.id = d.id",
    "e.k < 3",
    "d.t = 1",
    "e.id = d.id AND d.t <= e.k",
];

/// A generated query and the parameters it runs with.
#[derive(Debug, Clone)]
struct Query {
    text: String,
    params: Vec<Value>,
    /// A `JOIN … ON` query whose WHERE moves into its hash join, as a
    /// comma join's does: the join runs the WHERE's conjuncts in another
    /// order than the literal plan, so where one plan raises the other
    /// may not, and across the two plans only answers compare.
    reordered: bool,
}

/// 1–3 conjuncts drawn from `pools`, in random order.
fn conjuncts(src: &mut Source, pools: &[&[&str]]) -> String {
    let all: Vec<&str> = pools.iter().flat_map(|p| p.iter().copied()).collect();
    let mut out: Vec<&str> = Vec::new();
    for _ in 0..src.draw_len(1, 3) {
        // Left-only conjuncts lead half of the time: the shape pushdown
        // reads.
        let c = if out.is_empty() && src.draw_below(2) == 0 {
            pick(src, LEFT)
        } else {
            pick(src, &all)
        };
        out.push(c);
    }
    out.join(" AND ")
}

fn queries() -> Gen<Query> {
    Gen::new(|src| {
        let base: &[&[&str]] = &[LEFT, RIGHT, MIXED];
        let text = match src.draw_below(13) {
            0 | 1 => format!(
                "SELECT VALUE [e.id, p] FROM u AS e, e.xs AS p WHERE {}",
                conjuncts(src, base)
            ),
            2 => format!(
                "SELECT VALUE [e.id, v, n] FROM u AS e, UNPIVOT e.o AS v AT n WHERE {}",
                conjuncts(src, &[LEFT, UNPIVOT_RIGHT])
            ),
            3 => format!(
                "SELECT VALUE [e.id, p, q] FROM u AS e, e.xs AS p, e.zs AS q WHERE {}",
                conjuncts(src, &[LEFT, RIGHT, MIXED, THIRD])
            ),
            // The hash join's key matches exactly one `w` row per left
            // row, so the join evaluates what the nested loop does.
            4 => format!(
                "SELECT VALUE [e.id, p, d.t] FROM u AS e, e.xs AS p, w AS d \
                 WHERE e.id = d.id AND {}",
                conjuncts(src, base)
            ),
            // The same join spelled with JOIN … ON: an inner join's WHERE
            // splits into its sides as the comma form's does.
            11 => format!(
                "SELECT VALUE [e.id, d.t] FROM u AS e JOIN w AS d ON e.id = d.id WHERE {}",
                conjuncts(src, &[LEFT, JOINED])
            ),
            // Keys from the ON, the WHERE or neither; a LEFT join's WHERE
            // stays above it.
            12 => format!(
                "SELECT VALUE [e.id, d] FROM u AS e {}JOIN w AS d ON {} WHERE {}",
                pick(src, &["", "LEFT "]),
                pick(src, ON),
                conjuncts(src, &[LEFT, JOINED])
            ),
            5 => format!(
                "SELECT o.f AS f, (SELECT VALUE [e.id, p] FROM u AS e, e.xs AS p WHERE {}) AS s \
                 FROM outer_rows AS o",
                conjuncts(src, &[LEFT, RIGHT, MIXED, OUTER])
            ),
            6 => format!(
                "SELECT VALUE o.f FROM outer_rows AS o \
                 WHERE EXISTS (SELECT VALUE p FROM u AS e, e.xs AS p WHERE {})",
                conjuncts(src, &[LEFT, RIGHT, MIXED, OUTER])
            ),
            7 => format!(
                "SELECT VALUE [e.id, p] FROM u AS e, e.xs AS p WHERE {} LIMIT 2",
                conjuncts(src, base)
            ),
            8 => format!(
                "SELECT p.j AS j, COUNT(*) AS n FROM u AS e, e.xs AS p WHERE {} GROUP BY p.j",
                conjuncts(src, base)
            ),
            // A right side that can raise (an unsupplied `?`) must open
            // for every left row: nothing is pushed past it.
            9 => format!(
                "SELECT VALUE [e.id, p, d] FROM u AS e, e.xs AS p, \
                 (SELECT VALUE x.t FROM w AS x WHERE x.id = ?) AS d WHERE {}",
                conjuncts(src, base)
            ),
            _ => format!(
                "SELECT e.id AS id, p AS p FROM u AS e, e.xs AS p, e.zs AS q WHERE {}",
                conjuncts(src, &[LEFT, RIGHT, THIRD])
            ),
        };
        // Now and then a `?` is never supplied.
        let params = if src.draw_below(3) == 0 {
            Vec::new()
        } else {
            (0..text.matches('?').count())
                .map(|_| pick(src, &[Value::Int(1), Value::Int(2), Value::Str("a".into())]))
                .collect()
        };
        // An INNER join whose ON is keys alone: its WHERE moves into the
        // hash join.
        let reordered = text.contains("u AS e JOIN w AS d ON e.id = d.id WHERE");
        Query {
            text,
            params,
            reordered,
        }
    })
}

fn session(u: &Value, typing: TypingMode, optimize: bool, batch_size: usize) -> Engine {
    let engine = Engine::new();
    engine.register("u", u.clone());
    let n = u.as_elements().map_or(0, <[Value]>::len) as i64;
    engine.register(
        "w",
        Value::Bag(
            (0..n)
                .map(|i| tuple(vec![("id", Value::Int(i)), ("t", Value::Int(i % 2))]))
                .collect(),
        ),
    );
    engine.register(
        "outer_rows",
        Value::Bag([1, 2].map(|f| tuple(vec![("f", Value::Int(f))])).to_vec()),
    );
    engine.with_config(SessionConfig {
        typing,
        optimize,
        batch_size,
        ..SessionConfig::default()
    })
}

// The CI spine differential gate scales the sweep through
// `SQLPP_PROP_CASES`.
sqlpp_prop! {
    #![config(cases = prop::cases(600))]

    fn pushdown_matches_the_paper_literal_plan(data in rows(), q in queries()) {
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            let run = |optimize, batch_size| {
                session(&data, typing, optimize, batch_size)
                    .query_with_params(&q.text, q.params.clone())
            };
            let reference = run(false, 1024);
            let optimized = run(true, 1024);
            if let (true, Ok(want), Ok(got)) = (q.reordered, &reference, &optimized) {
                let (want, got) = (want.canonical(), got.canonical());
                prop_assert_eq!(got, want, "{} {:?}: got {}, want {}", q.text, q.params, got, want)
            }
            for batch_size in [1, 2, 1024] {
                for optimize in [true, false] {
                    let arm = format!(
                        "{typing:?}, batch {batch_size}, optimize {optimize}: {} {:?}",
                        q.text, q.params
                    );
                    let reference = match q.reordered && optimize {
                        true => &optimized,
                        false => &reference,
                    };
                    match (reference, run(optimize, batch_size)) {
                        (Ok(want), Ok(got)) => {
                            let (want, got) = (want.canonical(), got.canonical());
                            prop_assert_eq!(got, want, "{}: got {}, want {}", arm, got, want)
                        }
                        (Err(want), Err(got)) => {
                            let (want, got) = (want.to_string(), got.to_string());
                            prop_assert_eq!(got, want, "{}: got {}, want {}", arm, got, want)
                        }
                        (want, got) => prop_assert!(
                            false,
                            "{}: reference {:?}, got {:?}",
                            arm,
                            want.as_ref().map(|r| r.canonical()),
                            got.map(|r| r.canonical())
                        ),
                    }
                }
            }
        }
    }
}

sqlpp_prop! {
    #![config(cases = prop::cases(600))]

    /// The optimizer runs each pass once: optimizing an optimized plan
    /// changes nothing (Debug text compares NaN constants as equal).
    fn optimizing_a_generated_plan_twice_changes_nothing(q in queries()) {
        let literal = session(&Value::Bag(Vec::new()), TypingMode::Permissive, false, 1024);
        let once = sqlpp_plan::optimize(literal.prepare(&q.text).unwrap().plan().clone());
        let twice = sqlpp_plan::optimize(once.clone());
        prop_assert_eq!(format!("{twice:?}"), format!("{once:?}"), "{}", q.text);
    }
}

/// Runs `q` in every arm and returns the results, asserting that
/// optimize on and off agree in each.
fn every_arm(u: &Value, q: &str, typing: TypingMode) -> Vec<Result<Value, String>> {
    let mut out = Vec::new();
    for batch_size in [1, 2, 1024] {
        let run = |optimize| {
            session(u, typing, optimize, batch_size)
                .query(q)
                .map(|r| r.canonical())
                .map_err(|e| e.to_string())
        };
        let (literal, pushed) = (run(false), run(true));
        assert_eq!(pushed, literal, "{typing:?}, batch {batch_size}: {q}");
        out.push(pushed);
    }
    out
}

/// `e.k = ?` with no parameter raises on every evaluation, but the WHERE
/// only runs on a right binding and every `xs` is empty: the literal plan
/// answers `{{}}`. The pushed copy's error is parked, not raised.
#[test]
fn an_unsupplied_parameter_in_a_pushed_conjunct_raises_only_where_the_where_runs() {
    let u = Value::Bag(
        (0..5)
            .map(|i| tuple(vec![("k", Value::Int(i)), ("xs", Value::Array(Vec::new()))]))
            .collect(),
    );
    let q = "SELECT VALUE p FROM u AS e, e.xs AS p WHERE e.k = ?";
    assert!(session(&u, TypingMode::Permissive, true, 1024)
        .explain(q)
        .unwrap()
        .contains("correlate left-filter CASE WHEN (e.k = $0) THEN true ELSE false END"));
    for typing in [TypingMode::Permissive, TypingMode::StrictError] {
        for r in every_arm(&u, q, typing) {
            assert_eq!(r, Ok(Value::Bag(Vec::new())), "{typing:?}");
        }
    }
    // One non-empty `xs` reaches the WHERE, which raises in both plans.
    let u = Value::Bag(vec![
        tuple(vec![("k", Value::Int(1)), ("xs", Value::Array(Vec::new()))]),
        tuple(vec![
            ("k", Value::Int(2)),
            ("xs", Value::Array(vec![Value::Int(1)])),
        ]),
    ]);
    for r in every_arm(&u, q, TypingMode::Permissive) {
        assert!(r.is_err(), "{r:?}");
    }
    // An unknown verdict is no rejection: `e.k = 1` is NULL on the one
    // row, so the WHERE goes on to the unsupplied parameter and raises.
    let u = Value::Bag(vec![tuple(vec![
        ("k", Value::Null),
        ("xs", Value::Array(vec![Value::Int(1)])),
    ])]);
    let q = "SELECT VALUE p FROM u AS e, e.xs AS p WHERE e.k = 1 AND p = ?";
    for r in every_arm(&u, q, TypingMode::Permissive) {
        assert!(r.is_err(), "{r:?}");
    }
}

/// Strict typing scans `xs: 5` and raises, even though that row fails
/// `e.k = 3`: the pushdown must not skip opening its right side.
#[test]
fn strict_typing_opens_the_right_side_of_a_row_the_where_rejects() {
    let u = Value::Bag(vec![
        tuple(vec![("k", Value::Int(1)), ("xs", Value::Int(5))]),
        tuple(vec![
            ("k", Value::Int(3)),
            ("xs", Value::Array(vec![Value::Int(1)])),
        ]),
    ]);
    let q = "SELECT VALUE p FROM u AS e, e.xs AS p WHERE e.k = 3";
    for r in every_arm(&u, q, TypingMode::StrictError) {
        let err = r.expect_err("strict scan of an integer");
        assert!(
            err.contains("FROM source must be a collection, found integer"),
            "{err}"
        );
    }
    // Permissive typing scans the integer as a singleton; the WHERE drops it.
    for r in every_arm(&u, q, TypingMode::Permissive) {
        assert_eq!(r, Ok(Value::Bag(vec![Value::Int(1)])));
    }
}

/// Nothing is pushed past a right side that can raise: the subquery with
/// an unsupplied `?` opens for the one left row even though the WHERE
/// rejects it, so both plans raise.
#[test]
fn a_right_side_that_can_raise_opens_for_every_left_row() {
    let u = Value::Bag(vec![tuple(vec![
        ("id", Value::Int(0)),
        ("k", Value::Int(2)),
        ("xs", Value::Array(vec![Value::Int(1)])),
    ])]);
    let q = "SELECT VALUE [e.id, p, d] FROM u AS e, e.xs AS p, \
             (SELECT VALUE x.t FROM w AS x WHERE x.id = ?) AS d WHERE e.k = 1";
    assert!(!session(&u, TypingMode::Permissive, true, 1024)
        .explain(q)
        .unwrap()
        .contains("left-filter"));
    for r in every_arm(&u, q, TypingMode::Permissive) {
        assert!(r.is_err(), "{r:?}");
    }
}

/// A conjunct with a nested plan is never pushed. An unqualified name in
/// a schemaless subquery (`FROM tags`) resolves at run time against the
/// visible tuples: a left filter would see only `e`, where the literal
/// WHERE sees `e` and `p` — both with a `tags` attribute, so the name is
/// ambiguous and both plans must raise.
#[test]
fn a_subquery_conjunct_stays_in_the_where() {
    let u = Value::Bag(vec![tuple(vec![
        ("k", Value::Int(1)),
        ("tags", Value::Array(vec![Value::Int(5)])),
        (
            "xs",
            Value::Array(vec![tuple(vec![(
                "tags",
                Value::Array(vec![Value::Int(6)]),
            )])]),
        ),
    ])]);
    let q = "SELECT VALUE p FROM u AS e, e.xs AS p \
             WHERE EXISTS (SELECT VALUE 1 FROM tags AS g WHERE g = e.k)";
    assert!(!session(&u, TypingMode::Permissive, true, 1024)
        .explain(q)
        .unwrap()
        .contains("left-filter"));
    for typing in [TypingMode::Permissive, TypingMode::StrictError] {
        for r in every_arm(&u, q, typing) {
            assert!(r.is_err(), "{typing:?}: {r:?}");
        }
    }
}

/// A WHERE moves into an INNER `JOIN … ON` only when the ON is keys
/// alone. With `d.t <= e.k` beside the key, strict typing raises on the
/// string-`k` row in both plans' ON, although the WHERE's `e.k = 1`
/// rejects that row: pushed as a probe filter, it would drop the row
/// before the residual runs, and the optimized plan would answer.
#[test]
fn an_on_conjunct_beside_the_keys_keeps_the_where_above_the_join() {
    let u = Value::Bag(vec![
        tuple(vec![("id", Value::Int(0)), ("k", Value::Str("a".into()))]),
        tuple(vec![("id", Value::Int(1)), ("k", Value::Int(1))]),
    ]);
    let explain = |q| {
        session(&u, TypingMode::Permissive, true, 1024)
            .explain(q)
            .unwrap()
    };
    let q = "SELECT VALUE [e.id, d.t] FROM u AS e JOIN w AS d \
             ON e.id = d.id AND d.t <= e.k WHERE e.k = 1";
    let plan = explain(q);
    assert!(plan.contains("filter (e.k = 1)"), "{plan}");
    assert!(!plan.contains("probe-filter"), "{plan}");
    for r in every_arm(&u, q, TypingMode::StrictError) {
        let err = r.expect_err("strict comparison of an integer with a string");
        assert!(err.contains("cannot compare integer with string"), "{err}");
    }
    let q = "SELECT VALUE [e.id, d.t] FROM u AS e JOIN w AS d ON e.id = d.id WHERE e.k = 1";
    assert!(explain(q).contains("probe-filter (e.k = 1)"));
    for typing in [TypingMode::Permissive, TypingMode::StrictError] {
        for r in every_arm(&u, q, typing) {
            assert_eq!(r.unwrap().to_string(), "{{[1, 1]}}", "{typing:?}");
        }
    }
}
