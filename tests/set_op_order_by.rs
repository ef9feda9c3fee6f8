//! ORDER BY above a set operation, pinned: each case's answer — in order —
//! or error, under both typing modes, optimize on and off, and batch 1, 2
//! and 1024. The ORDER BY sorts the bindings of the block over the set
//! operation's elements (`SELECT VALUE $out FROM (set-op) AS $out ORDER BY
//! …`); a name its keys leave free resolves at run time, against the
//! element's attributes. These answers and errors were recorded before
//! that block replaced a dedicated value sort, and must not move.

use sqlpp::{Engine, Limits, SessionConfig, SpillConfig, TypingMode};
use sqlpp_value::{Tuple, Value};

fn row(pairs: &[(&str, i64)]) -> Value {
    let mut t = Tuple::new();
    for &(name, v) in pairs {
        t.insert(name, Value::Int(v));
    }
    Value::Tuple(t)
}

/// `v` and `w` overlap on `a` = 2 and 3; `o` holds the outer rows of the
/// correlated case; `big` is 200 rows for the spilled sort.
fn engine() -> Engine {
    let engine = Engine::new();
    engine.register(
        "v",
        Value::Bag(
            [(1, 5), (3, 1), (2, 4), (4, 2), (2, 3)]
                .map(|(a, k)| row(&[("a", a), ("k", k)]))
                .to_vec(),
        ),
    );
    engine.register(
        "w",
        Value::Bag(
            [(3, 9), (5, 0), (2, 7)]
                .map(|(a, b)| row(&[("a", a), ("b", b)]))
                .to_vec(),
        ),
    );
    engine.register("o", Value::Bag([1, 4].map(|p| row(&[("p", p)])).to_vec()));
    engine.register(
        "big",
        Value::Bag(
            (0..200)
                .map(|i| row(&[("id", i), ("g", (i * 37) % 11)]))
                .collect(),
        ),
    );
    engine
}

/// The answer as displayed, in its order, or the error's message.
fn run(engine: &Engine, base: &SessionConfig, q: &str) -> String {
    let mut outcome = None;
    for optimize in [true, false] {
        for batch_size in [1, 2, 1024] {
            let session = engine.with_config(SessionConfig {
                optimize,
                batch_size,
                ..base.clone()
            });
            let got = match session.query(q) {
                Ok(r) => r.value().to_string(),
                Err(e) => format!("error: {e}"),
            };
            match &outcome {
                None => outcome = Some(got),
                Some(first) => assert_eq!(
                    &got, first,
                    "{:?}, optimize {optimize}, batch {batch_size}: {q}",
                    base.typing
                ),
            }
        }
    }
    outcome.expect("at least one run")
}

fn configs() -> [SessionConfig; 2] {
    [TypingMode::Permissive, TypingMode::StrictError].map(|typing| SessionConfig {
        typing,
        ..SessionConfig::default()
    })
}

/// `(query, answer or error)`, the same under both typing modes.
const CASES: &[(&str, &str)] = &[
    // An output attribute as the key, ties broken by a second one.
    (
        "SELECT VALUE {'a': x.a, 'k': x.k} FROM v AS x WHERE x.a < 4 \
         UNION ALL SELECT VALUE {'a': y.a, 'k': y.b} FROM w AS y \
         ORDER BY a DESC, k",
        "{{{'a': 5, 'k': 0}, {'a': 3, 'k': 1}, {'a': 3, 'k': 9}, {'a': 2, 'k': 3}, \
         {'a': 2, 'k': 4}, {'a': 2, 'k': 7}, {'a': 1, 'k': 5}}}",
    ),
    (
        "(SELECT VALUE {'a': x.a} FROM v AS x) UNION (SELECT VALUE {'a': y.a} FROM w AS y) \
         ORDER BY a DESC LIMIT 2 OFFSET 1",
        "{{{'a': 4}, {'a': 3}}}",
    ),
    (
        "SELECT VALUE {'a': x.a} FROM v AS x EXCEPT SELECT VALUE {'a': y.a} FROM w AS y \
         ORDER BY a LIMIT 2",
        "{{{'a': 1}, {'a': 2}}}",
    ),
    // A key whose nested subquery reads an output attribute…
    (
        "SELECT VALUE {'a': x.a} FROM v AS x INTERSECT ALL SELECT VALUE {'a': y.a} FROM w AS y \
         ORDER BY COLL_COUNT(SELECT VALUE 1 FROM o AS z WHERE z.p < a - 1) DESC, a",
        "{{{'a': 3}, {'a': 2}}}",
    ),
    // …which is ambiguous where the subquery's own row has the attribute.
    (
        "SELECT VALUE {'a': x.a} FROM v AS x INTERSECT ALL SELECT VALUE {'a': y.a} FROM w AS y \
         ORDER BY COLL_COUNT(SELECT VALUE 1 FROM v AS z WHERE z.k < a) DESC, a",
        "error: unknown name: a",
    ),
    // A set operation in a correlated subquery whose key reads the outer
    // variable.
    (
        "SELECT VALUE [o.p, (SELECT VALUE {'a': x.a} FROM v AS x \
         UNION ALL SELECT VALUE {'a': y.a} FROM w AS y \
         ORDER BY (a - o.p) * (a - o.p), a LIMIT 3)] FROM o AS o ORDER BY o.p",
        "{{[1, {{{'a': 1}, {'a': 2}, {'a': 2}}}], [4, {{{'a': 4}, {'a': 3}, {'a': 3}}}]}}",
    ),
    (
        "WITH lo AS (SELECT VALUE x FROM v AS x WHERE x.a < 3) \
         SELECT VALUE {'a': l.a, 'k': l.k} FROM lo AS l \
         UNION ALL SELECT VALUE {'a': y.a, 'k': y.b} FROM w AS y ORDER BY k DESC",
        "{{{'a': 3, 'k': 9}, {'a': 2, 'k': 7}, {'a': 1, 'k': 5}, {'a': 2, 'k': 4}, \
         {'a': 2, 'k': 3}, {'a': 5, 'k': 0}}}",
    ),
    // …nor a LIMIT that reads it, which sorts every element.
    (
        "SELECT VALUE [o.p, (SELECT VALUE {'a': x.a} FROM v AS x \
         UNION ALL SELECT VALUE {'a': y.a} FROM w AS y ORDER BY a DESC LIMIT o.p)] \
         FROM o AS o ORDER BY o.p",
        "{{[1, {{{'a': 5}}}], [4, {{{'a': 5}, {'a': 4}, {'a': 3}, {'a': 3}}}]}}",
    ),
    // Scalar elements have no attribute `a`: the key does not resolve.
    (
        "SELECT VALUE x.a FROM v AS x UNION ALL SELECT VALUE y.a FROM w AS y ORDER BY a",
        "error: unknown name: a",
    ),
    // The first element's key fails before a later element's own error
    // (strict `y.a + 'x'`) is made.
    (
        "SELECT VALUE x.a FROM v AS x UNION ALL SELECT VALUE y.a + 'x' FROM w AS y ORDER BY a",
        "error: unknown name: a",
    ),
    // `k` is an attribute of `v`'s elements only.
    (
        "SELECT VALUE {'a': x.a, 'k': x.k} FROM v AS x \
         UNION ALL SELECT VALUE {'a': y.a} FROM w AS y ORDER BY k",
        "error: unknown name: k",
    ),
];

#[test]
fn set_op_order_by_answers_and_errors_are_pinned() {
    let engine = engine();
    for base in configs() {
        for (q, want) in CASES {
            assert_eq!(run(&engine, &base, q), *want, "{:?}: {q}", base.typing);
        }
    }
}

/// A spill budget too small for the sort's rows makes it an external
/// sort, with the in-memory answer, whose tracked bytes stay inside the
/// budget.
#[test]
fn a_spilled_set_op_order_by_gives_the_in_memory_answer() {
    let engine = engine();
    let q = "SELECT VALUE {'id': x.id, 'g': x.g} FROM big AS x WHERE x.id < 150 \
             UNION ALL SELECT VALUE {'id': y.id, 'g': y.g} FROM big AS y WHERE y.id >= 150 \
             ORDER BY g DESC, id";
    for base in configs() {
        let in_memory = run(&engine, &base, q);
        let budgeted = SessionConfig {
            limits: Limits::none().with_memory_bytes(4_000),
            ..base
        };
        let refused = run(&engine, &budgeted, q);
        assert!(refused.contains("memory budget"), "{refused}");
        let spilled = SessionConfig {
            spill: Some(SpillConfig::default()),
            ..budgeted
        };
        assert_eq!(run(&engine, &spilled, q), in_memory);
        for batch_size in [1, 2, 1024] {
            let session = engine.with_config(SessionConfig {
                batch_size,
                ..spilled.clone()
            });
            let stats = session
                .query_with_stats(q)
                .unwrap()
                .stats()
                .unwrap()
                .clone();
            assert!(stats.spill_partitions > 0, "batch {batch_size}: no spill");
            assert!(
                stats.peak_budget_bytes <= 4_000,
                "batch {batch_size}: peak {} over the budget",
                stats.peak_budget_bytes
            );
        }
    }
}
