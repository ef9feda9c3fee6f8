//! Eager aggregation: SQL aggregates folded into the GROUP BY table must
//! answer exactly like the paper-literal plan that materializes each
//! group's bag and re-scans it per aggregate (`optimize: false`).
//!
//! * a seeded differential property over heterogeneous rows (ints,
//!   decimals, strings, booleans, NULL, MISSING, absent keys, empty
//!   input) and generated GROUP BY / HAVING / ORDER BY queries over every
//!   aggregate — run row-at-a-time and batched, unlimited and spilling at
//!   a tiny budget, in both typing modes: equal answers, and in strict
//!   mode the identical error;
//! * one poison row raises the same error folded or not, and only where
//!   the plan reads the aggregate — also when the build spills under a
//!   spill-write cap that fits one pass over the input.
//!
//! `tests/out_of_core.rs` pins the fold's memory (flat in the input
//! size) and `tests/engine_api.rs` its counters.

use sqlpp::{Engine, Limits, SessionConfig, SpillConfig, TypingMode};
use sqlpp_testkit::prop::{Gen, Source};
use sqlpp_testkit::{prop_assert, prop_assert_eq, sqlpp_prop};
use sqlpp_value::{Tuple, Value};

/// One generated field value; `None` leaves the attribute absent.
fn field(src: &mut Source, choices: &[Option<Value>]) -> Option<Value> {
    choices[src.draw_below(choices.len() as u64) as usize].clone()
}

/// 0–24 rows `{k, v, b}`, any attribute possibly absent: `k` is a small
/// mixed-type group key, `v` a mostly numeric aggregate input (with the
/// odd string, boolean and overflow-bait), `b` a mostly boolean one.
fn rows() -> Gen<Value> {
    Gen::new(|src| {
        let dec = |s: &str| Value::Decimal(s.parse().unwrap());
        let keys = [
            Some(Value::Int(0)),
            Some(Value::Int(1)),
            Some(Value::Int(2)),
            Some(Value::Str("x".into())),
            Some(Value::Bool(true)),
            Some(Value::Null),
            Some(Value::Missing),
            None,
        ];
        let vals = [
            Some(Value::Int(-3)),
            Some(Value::Int(1)),
            Some(Value::Int(2)),
            Some(Value::Int(7)),
            Some(dec("1.5")),
            Some(dec("-0.25")),
            Some(Value::Int(i64::MAX)),
            Some(Value::Str("s".into())),
            Some(Value::Bool(false)),
            Some(Value::Null),
            None,
        ];
        let bools = [
            Some(Value::Bool(true)),
            Some(Value::Bool(true)),
            Some(Value::Bool(false)),
            Some(Value::Null),
            Some(Value::Int(1)),
            None,
        ];
        let n = src.draw_len(0, 24);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut t = Tuple::new();
            for (name, choices) in [("k", &keys[..]), ("v", &vals[..]), ("b", &bools[..])] {
                if let Some(v) = field(src, choices) {
                    t.insert(name, v);
                }
            }
            out.push(Value::Tuple(t));
        }
        Value::Bag(out)
    })
}

/// SQL aggregates over the generated rows; `o.f` is the outer row's
/// factor in the correlated shape.
const AGGS: &[&str] = &[
    "COUNT(*)",
    "COUNT(t.v)",
    "SUM(t.v)",
    "AVG(t.v)",
    "MIN(t.v)",
    "MAX(t.v)",
    "EVERY(t.b)",
    "SOME(t.b)",
    "SUM(t.v + 1)",
    "MAX(t.k)",
    "MIN(t.v * 2)",
];

/// A generated query text.
#[derive(Debug, Clone)]
struct Query(String);

fn queries() -> Gen<Query> {
    Gen::new(|src| {
        let pick = |src: &mut Source| AGGS[src.draw_below(AGGS.len() as u64) as usize];
        let shape = src.draw_below(12);
        let aggs: Vec<&str> = (0..1 + src.draw_below(3)).map(|_| pick(src)).collect();
        let select: Vec<String> = aggs
            .iter()
            .enumerate()
            .map(|(i, a)| format!("{a} AS a{i}"))
            .collect();
        let text = match shape {
            // Scalar aggregate: one group, even over empty input.
            0 | 1 => format!("SELECT {} FROM c AS t", select.join(", ")),
            // The same aggregate in SELECT and HAVING, ordered by it.
            2 | 3 => format!(
                "SELECT t.k AS k, {} FROM c AS t GROUP BY t.k HAVING {} > 0 ORDER BY a0",
                select.join(", "),
                aggs[0]
            ),
            4 => format!(
                "SELECT t.k AS k, {} FROM c AS t WHERE t.b IS NOT MISSING GROUP BY t.k \
                 ORDER BY {} DESC",
                select.join(", "),
                aggs[aggs.len() - 1]
            ),
            // A body with an outer-correlated reference.
            5 => format!(
                "SELECT o.f AS f, g AS g FROM outer_rows AS o, \
                 (SELECT t.k AS k, SUM(t.v * o.f) AS s, {} FROM c AS t GROUP BY t.k) AS g",
                select.join(", ")
            ),
            // One non-aggregate use of the group blocks the fold.
            6 => format!(
                "SELECT kk AS kk, {}, (SELECT VALUE x.t.v FROM grp AS x) AS vs \
                 FROM c AS t GROUP BY t.k AS kk GROUP AS grp",
                select.join(", ")
            ),
            // HAVING short-circuits: the SELECT aggregate of a rejected
            // group is never read.
            7 => format!(
                "SELECT t.k AS k, {} FROM c AS t GROUP BY t.k HAVING COUNT(*) > 2",
                select.join(", ")
            ),
            // A bare attribute of the schemaless rows: resolved at run
            // time against the tuples in scope, which differ between the
            // group's environment and an input row's.
            8 => format!(
                "SELECT t.k AS k, SUM(v) AS s, {} FROM c AS t GROUP BY t.k",
                select.join(", ")
            ),
            // The same with an outer tuple that also has a `v`.
            9 => format!(
                "SELECT o.f AS f, g AS g FROM outer_rows AS o, \
                 (SELECT t.k AS k, SUM(v) AS s, COUNT(v) AS n, {} FROM c AS t GROUP BY t.k) AS g",
                select.join(", ")
            ),
            _ => format!(
                "SELECT t.k AS k, {} FROM c AS t GROUP BY t.k",
                select.join(", ")
            ),
        };
        Query(text)
    })
}

fn session(
    rows: &Value,
    typing: TypingMode,
    optimize: bool,
    batch_size: usize,
    budget: Option<u64>,
) -> Engine {
    let engine = Engine::new();
    engine.register("c", rows.clone());
    engine.register(
        "outer_rows",
        Value::Bag(
            [1, 2]
                .map(|f| {
                    let mut t = Tuple::new();
                    t.insert("f", Value::Int(f));
                    t.insert("v", Value::Int(10 * f));
                    Value::Tuple(t)
                })
                .to_vec(),
        ),
    );
    engine.with_config(SessionConfig {
        typing,
        optimize,
        batch_size,
        limits: budget.map_or_else(Limits::none, |b| Limits::none().with_memory_bytes(b)),
        spill: budget.map(|_| SpillConfig::default()),
        ..SessionConfig::default()
    })
}

/// The tiny spilling budget: one folded group's states always fit.
const TINY: u64 = 1_200;

sqlpp_prop! {
    #![config(cases = 96)]

    fn folded_aggregation_matches_the_paper_literal_plan(data in rows(), q in queries()) {
        let q = &q.0;
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            for batch_size in [1, 1024] {
                let reference = session(&data, typing, false, batch_size, None).query(q);
                for (optimize, budget) in [(true, None), (true, Some(TINY)), (false, Some(TINY))] {
                    let got = session(&data, typing, optimize, batch_size, budget).query(q);
                    let arm = format!(
                        "{typing:?}, batch {batch_size}, optimize {optimize}, budget {budget:?}: {q}"
                    );
                    match (&reference, got) {
                        // The paper-literal plan may be refused a group
                        // bag bigger than the whole budget; a fold never is.
                        (_, Err(got))
                            if !optimize && got.to_string().contains("memory budget") => {}
                        (Ok(want), Ok(got)) => {
                            let (want, got) = (want.canonical(), got.canonical());
                            prop_assert_eq!(got, want, "{}: got {}, want {}", arm, got, want)
                        }
                        (Err(want), Err(got)) if budget.is_none() => {
                            let (want, got) = (want.to_string(), got.to_string());
                            prop_assert_eq!(got, want, "{}: got {}, want {}", arm, got, want)
                        }
                        // Spilled groups emit in partition order, so with
                        // several failing groups which one raises first
                        // is as unspecified as the bag's order: the run
                        // must fail, with whichever group's error.
                        (Err(_), Err(_)) => {}
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

/// One poison row raises the same error, with the same message, whether
/// the aggregate folds or re-scans its group — and only where the plan
/// reads the aggregate.
#[test]
fn a_poison_row_raises_the_same_error_folded_or_not() {
    let rows = Value::Bag(
        (0..40)
            .map(|i| {
                let mut t = Tuple::new();
                t.insert("k", Value::Int(i % 4));
                t.insert(
                    "v",
                    if i == 17 {
                        Value::Str("poison".into())
                    } else {
                        Value::Int(i)
                    },
                );
                Value::Tuple(t)
            })
            .collect(),
    );
    for (q, raises) in [
        ("SELECT SUM(t.v) AS s FROM c AS t", true),
        (
            "SELECT t.k AS k, SUM(t.v + 1) AS s FROM c AS t GROUP BY t.k",
            true,
        ),
        // Group 1 (the poison row's) is rejected before SELECT reads it.
        (
            "SELECT t.k AS k, SUM(t.v + 1) AS s FROM c AS t GROUP BY t.k HAVING t.k <> 1",
            false,
        ),
        (
            "SELECT t.k AS k, MAX(t.v) AS m FROM c AS t GROUP BY t.k \
             HAVING COUNT(*) > 100 OR SUM(t.v) > 0",
            true,
        ),
    ] {
        for batch_size in [1, 1024] {
            let run = |optimize| {
                session(&rows, TypingMode::StrictError, optimize, batch_size, None).query(q)
            };
            match (run(false), run(true)) {
                (Err(want), Err(got)) => {
                    assert!(raises, "{q}: unexpected error {got}");
                    assert_eq!(got.to_string(), want.to_string(), "{q}");
                }
                (Ok(want), Ok(got)) => {
                    assert!(!raises, "{q}: no error");
                    assert_eq!(got.canonical(), want.canonical(), "{q}");
                }
                (want, got) => panic!("{q}: literal {want:?}, folded {got:?}"),
            }
        }
    }
}

/// A strict-mode poison row at the end of an input that spills: the
/// folded build parks the body's error as it goes, like the binding
/// stream does, so it writes its spill once. Under a spill-write cap that
/// fits one pass of the plan, both plans answer (the poisoned group
/// rejected by HAVING) or raise the same parked error (the group read) —
/// never the spill budget's refusal.
#[test]
fn a_poison_row_in_a_spilling_build_is_parked_not_rerun() {
    let rows = Value::Bag(
        (0..400)
            .map(|i| {
                let mut t = Tuple::new();
                t.insert("k", Value::Int(i % 40));
                t.insert(
                    "v",
                    if i == 399 {
                        Value::Str("poison".into())
                    } else {
                        Value::Int(i)
                    },
                );
                Value::Tuple(t)
            })
            .collect(),
    );
    let engine = Engine::new();
    engine.register("c", rows);
    let config = |optimize, limits: Limits| SessionConfig {
        typing: TypingMode::StrictError,
        optimize,
        limits,
        spill: Some(SpillConfig::default()),
        ..SessionConfig::default()
    };
    let answering = "SELECT t.k AS k, SUM(t.v + 1) AS s FROM c AS t GROUP BY t.k HAVING t.k <> 39";
    let raising = "SELECT t.k AS k, SUM(t.v + 1) AS s FROM c AS t GROUP BY t.k";
    let want = engine.query(answering).unwrap().canonical().to_string();
    let want_err = engine
        .with_config(config(false, Limits::none()))
        .query(raising)
        .unwrap_err()
        .to_string();
    for optimize in [false, true] {
        let budget = Limits::none().with_memory_bytes(TINY);
        // What one pass of the plan writes (stats keep the binding
        // stream, which writes the same records as the fused one).
        let once = engine
            .with_config(config(optimize, budget.clone()))
            .query_with_stats(answering)
            .unwrap();
        let once = once.stats().unwrap();
        assert!(once.spill_partitions > 0, "optimize {optimize}: must spill");
        let cap = budget.with_spill_bytes(once.spill_bytes_written);
        for batch_size in [1, 1024] {
            let session = engine.with_config(SessionConfig {
                batch_size,
                ..config(optimize, cap.clone())
            });
            let arm = format!("optimize {optimize}, batch {batch_size}");
            let got = session
                .query(answering)
                .unwrap_or_else(|e| panic!("{arm}: {e}"));
            assert_eq!(got.canonical().to_string(), want, "{arm}");
            let err = session.query(raising).unwrap_err().to_string();
            assert_eq!(err, want_err, "{arm}");
        }
    }
}
