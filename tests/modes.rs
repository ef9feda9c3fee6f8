//! The two mode dials across the same queries: permissive vs stop-on-error
//! typing (§IV) and SQL-compat vs composability (§I, §V-A).

use sqlpp::{CompatMode, Engine, Error, SessionConfig, TypingMode};
use sqlpp_value::Value;

fn dirty_engine(typing: TypingMode) -> Engine {
    let engine = Engine::new().with_config(SessionConfig {
        typing,
        ..SessionConfig::default()
    });
    engine
        .load_pnotation(
            "d",
            "{{ {'id': 1, 'x': 10}, {'id': 2, 'x': 'oops'}, {'id': 3, 'x': 30} }}",
        )
        .unwrap();
    engine
}

#[test]
fn permissive_mode_excludes_unhealthy_data() {
    let engine = dirty_engine(TypingMode::Permissive);
    // §IV: "the processing of 'healthy' data can proceed, while a
    // convenient signal, which most often leads to data exclusion,
    // happens for the data that led to typing errors."
    let r = engine
        .query("SELECT VALUE d.x * 2 FROM d AS d WHERE d.x * 2 > 0")
        .unwrap();
    assert_eq!(r.canonical().to_string(), "{{20, 60}}");
}

#[test]
fn permissive_mode_keeps_missing_in_projection() {
    let engine = dirty_engine(TypingMode::Permissive);
    let r = engine
        .query("SELECT d.id, d.x * 2 AS double_x FROM d AS d")
        .unwrap();
    // Row 2's double_x is MISSING → the attribute is simply absent.
    let rows = r.rows();
    let absent = rows
        .iter()
        .filter(|t| !t.as_tuple().unwrap().contains("double_x"))
        .count();
    assert_eq!(absent, 1);
}

#[test]
fn strict_mode_stops_on_the_first_type_error() {
    let engine = dirty_engine(TypingMode::StrictError);
    let err = engine
        .query("SELECT VALUE d.x * 2 FROM d AS d")
        .unwrap_err();
    assert!(matches!(err, Error::Eval(_)), "{err}");
    assert!(err.to_string().contains("type error"), "{err}");
}

#[test]
fn strict_mode_still_runs_clean_queries() {
    let engine = dirty_engine(TypingMode::StrictError);
    let r = engine
        .query("SELECT VALUE d.id FROM d AS d WHERE d.id > 1")
        .unwrap();
    assert_eq!(r.len(), 2);
}

#[test]
fn strict_mode_rejects_division_by_zero() {
    let engine = dirty_engine(TypingMode::StrictError);
    let err = engine.query("SELECT VALUE 1 / 0 FROM d AS d").unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    // Permissive mode: MISSING flows instead.
    let permissive = dirty_engine(TypingMode::Permissive);
    let r = permissive
        .query("SELECT VALUE (1 / 0) IS MISSING FROM d AS d LIMIT 1")
        .unwrap();
    assert_eq!(r.canonical().to_string(), "{{true}}");
}

#[test]
fn compat_flag_gates_scalar_coercion_not_select_value() {
    let engine = Engine::new();
    engine.load_pnotation("t", "{{ {'v': 7} }}").unwrap();
    // A SELECT VALUE subquery is identical under both modes (§V-A: "None
    // of this implicit 'magic' applies to SELECT VALUE").
    for compat in [CompatMode::SqlCompat, CompatMode::Composable] {
        let session = engine.with_config(SessionConfig {
            compat,
            ..SessionConfig::default()
        });
        let v = session.eval_expr("(SELECT VALUE t.v FROM t AS t)").unwrap();
        assert_eq!(v, sqlpp_value::bag![7i64], "{compat:?}");
    }
    // A sugar SELECT subquery in scalar position coerces only in compat.
    let compat = engine.with_config(SessionConfig::default());
    let composable = engine.with_config(SessionConfig {
        compat: CompatMode::Composable,
        ..SessionConfig::default()
    });
    assert_eq!(
        compat
            .eval_expr("(SELECT t.v AS v FROM t AS t) = 7")
            .unwrap(),
        Value::Bool(true)
    );
    assert_eq!(
        composable
            .eval_expr("(SELECT t.v AS v FROM t AS t) = 7")
            .unwrap(),
        Value::Bool(false),
        "a bag of tuples is not 7"
    );
}

#[test]
fn scalar_coercion_cardinality_by_typing_mode() {
    let engine = Engine::new();
    engine
        .load_pnotation("t", "{{ {'v': 1}, {'v': 2} }}")
        .unwrap();
    // Two rows in scalar position: MISSING when permissive, error when
    // strict.
    let r = engine
        .eval_expr("(SELECT t.v AS v FROM t AS t) IS MISSING")
        .unwrap();
    assert_eq!(r, Value::Bool(true));
    let strict = engine.with_config(SessionConfig {
        typing: TypingMode::StrictError,
        ..SessionConfig::default()
    });
    let err = strict
        .eval_expr("(SELECT t.v AS v FROM t AS t) = 1")
        .unwrap_err();
    assert!(err.to_string().contains("cardinality"), "{err}");
}

#[test]
fn pure_sql_agrees_across_all_four_mode_combinations() {
    for (q, rows) in [
        ("SELECT e.g AS g, COUNT(*) AS n FROM t AS e GROUP BY e.g", 3),
        (
            "SELECT e.g, COUNT(*) AS n, AVG(e.s) AS avg_s FROM t AS e WHERE e.s > 10 \
             GROUP BY e.g HAVING COUNT(*) > 1 ORDER BY avg_s DESC LIMIT 10",
            2,
        ),
    ] {
        let mut results = Vec::new();
        for compat in [CompatMode::SqlCompat, CompatMode::Composable] {
            for typing in [TypingMode::Permissive, TypingMode::StrictError] {
                let engine = Engine::new().with_config(SessionConfig {
                    compat,
                    typing,
                    ..SessionConfig::default()
                });
                engine
                    .load_pnotation(
                        "t",
                        "{{ {'g': 1, 's': 20}, {'g': 1, 's': 30}, {'g': 2, 's': 5}, \
                            {'g': 2, 's': 40}, {'g': 2, 's': 50}, {'g': 3, 's': 60} }}",
                    )
                    .unwrap();
                let r = engine.query(q).unwrap();
                assert_eq!(r.len(), rows, "{compat:?} {typing:?}: {q}");
                results.push(r.canonical());
            }
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]), "{q}");
    }
}

#[test]
fn an_aggregate_argument_reads_captured_variables_inside_an_index() {
    // `e.i` sits in a path's `[index]`: the aggregate's rewrite onto the
    // group's members must reach it as well as `e.arr`.
    for typing in [TypingMode::Permissive, TypingMode::StrictError] {
        let engine = Engine::new().with_config(SessionConfig {
            typing,
            ..SessionConfig::default()
        });
        let r = engine
            .query(
                "SELECT k, SUM(e.arr[e.i]) AS s \
                 FROM [{'k': 1, 'arr': [10, 20], 'i': 1}, {'k': 1, 'arr': [5, 6], 'i': 0}] AS e \
                 GROUP BY e.k AS k",
            )
            .unwrap_or_else(|e| panic!("{typing:?}: {e}"));
        assert_eq!(
            r.canonical().to_string(),
            "{{{'k': 1, 's': 25}}}",
            "{typing:?}"
        );
    }
}
