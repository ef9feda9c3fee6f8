//! Cross-crate algebraic properties: comparison laws, serialization round
//! trips, and parser/printer inverses on generated inputs.

use sqlpp::{Engine, SessionConfig, TypingMode};
use sqlpp_syntax::{parse_expr, parse_query, print_expr, print_query};
use sqlpp_testkit::prop::gen::{i64_range, just, one_of, vec_of};
use sqlpp_testkit::prop::values::{any_value, rows_of, small_scalar};
use sqlpp_testkit::prop::Gen;
use sqlpp_testkit::{prop_assert, prop_assert_eq, prop_assert_ne, sqlpp_prop};
use sqlpp_value::cmp::{deep_eq, total_cmp};
use sqlpp_value::{canonicalize, Tuple, Value};

sqlpp_prop! {
    #![config(cases = 128)]

    fn total_order_is_total_and_antisymmetric(a in any_value(), b in any_value()) {
        let ab = total_cmp(&a, &b);
        let ba = total_cmp(&b, &a);
        prop_assert_eq!(ab, ba.reverse());
        prop_assert_eq!(ab == std::cmp::Ordering::Equal, deep_eq(&a, &b));
    }

    fn total_order_is_transitive(a in any_value(), b in any_value(), c in any_value()) {
        use std::cmp::Ordering::*;
        let (ab, bc, ac) = (total_cmp(&a, &b), total_cmp(&b, &c), total_cmp(&a, &c));
        if ab != Greater && bc != Greater {
            prop_assert_ne!(ac, Greater, "{:?} <= {:?} <= {:?}", a, b, c);
        }
    }

    fn hash_is_consistent_with_deep_eq(a in any_value(), b in any_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            sqlpp_value::hash::hash_value(v, &mut s);
            s.finish()
        };
        if deep_eq(&a, &b) {
            prop_assert_eq!(h(&a), h(&b), "equal values must hash equal");
        }
    }

    fn canonicalize_is_idempotent_and_equality_preserving(v in any_value()) {
        let c1 = canonicalize(&v);
        let c2 = canonicalize(&c1);
        prop_assert_eq!(&c1, &c2);
        prop_assert!(deep_eq(&v, &c1));
    }

    fn ion_lite_round_trips_every_value(v in any_value()) {
        let bytes = sqlpp_formats::ion_lite::to_ion_lite(&v);
        let back = sqlpp_formats::ion_lite::from_ion_lite(&bytes).unwrap();
        // Exact (structural) equality — ion-lite is lossless, including
        // NaN canonicalization handled by deep_eq for floats.
        prop_assert!(deep_eq(&back, &v), "{} != {}", back, v);
    }

    fn pnotation_round_trips_up_to_numeric_widening(v in any_value()) {
        let text = v.to_string();
        let back = sqlpp_formats::pnotation::from_pnotation(&text)
            .unwrap_or_else(|e| panic!("reparse of {text:?} failed: {e}"));
        prop_assert!(deep_eq(&back, &v), "{} != {}", back, v);
    }

    // The evaluator's hash-based DISTINCT must agree with the obvious
    // quadratic deep_eq scan on duplicate-heavy inputs (small_scalar has
    // a narrow domain, so collisions are common).
    fn distinct_agrees_with_naive_deep_eq_dedupe(items in vec_of(small_scalar(), 0..=24)) {
        let engine = Engine::new();
        engine.register("c", Value::Bag(items.clone()));
        let got = engine.query("SELECT DISTINCT VALUE x FROM c AS x").unwrap();
        prop_assert!(
            got.matches(&Value::Bag(naive_distinct(&items))),
            "distinct diverged on {:?}: got {}", items, got.value()
        );
    }

    // Hash-bucketed INTERSECT ALL / EXCEPT ALL must agree with a naive
    // multiset reference that consumes right elements by deep_eq scan.
    fn set_ops_agree_with_naive_multiset_reference(
        left in vec_of(small_scalar(), 0..=20),
        right in vec_of(small_scalar(), 0..=20),
    ) {
        let engine = Engine::new();
        engine.register("l", Value::Bag(left.clone()));
        engine.register("r", Value::Bag(right.clone()));
        for (op, expected) in [
            ("INTERSECT", naive_multiset_op(&left, &right, true)),
            ("EXCEPT", naive_multiset_op(&left, &right, false)),
        ] {
            let q = format!(
                "SELECT VALUE x FROM l AS x {op} ALL SELECT VALUE y FROM r AS y"
            );
            let got = engine.query(&q).unwrap();
            prop_assert!(
                got.matches(&Value::Bag(expected.clone())),
                "{} ALL diverged on {:?} / {:?}: got {}, want {:?}",
                op, left, right, got.value(), expected
            );
        }
    }

    // Pathological float keys — NaN (any bit pattern), -0.0 vs 0.0, and
    // int/float numeric twins like 2 vs 2.0 — through every hash-keyed
    // path. The data model's bag equality (`deep_eq`) makes NaN equal to
    // NaN and -0.0 equal to 0.0, and `hash_value` canonicalizes both, so
    // the hash join, hash DISTINCT, and hash GROUP BY must each agree
    // with an oracle that never hashes: the nested-loop plan (optimizer
    // off), the Pseudocode 1–2 reference evaluator, and a quadratic
    // deep_eq scan, in both typing modes.
    fn pathological_float_keys_join_all_strategies_agree(
        left in float_key_rows(), right in float_key_rows(),
    ) {
        let q = "SELECT VALUE [x.v, y.v] FROM l AS x, r AS y WHERE x.k = y.k";
        let ast = parse_query(q).unwrap();
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            let hash = join_prop_engine(&left, &right, typing, true);
            let nested = join_prop_engine(&left, &right, typing, false);
            let catalog = sqlpp::Catalog::new();
            catalog.set("l", left.clone());
            catalog.set("r", right.clone());
            let reference = sqlpp_eval::reference::eval_sfw_config(
                &ast,
                &catalog,
                sqlpp_eval::EvalConfig { typing, ..sqlpp_eval::EvalConfig::default() },
            );
            match (hash.query(q), nested.query(q), reference) {
                (Ok(a), Ok(b), Ok(c)) => {
                    prop_assert!(
                        a.matches(b.value()),
                        "hash vs nested-loop diverged ({typing:?})\n\
                         left {left}\nright {right}\nhash {}\nnested {}",
                        a.value(), b.value()
                    );
                    prop_assert!(
                        a.matches(&c),
                        "hash vs reference diverged ({typing:?})\n\
                         left {left}\nright {right}\nhash {}\nreference {c}",
                        a.value()
                    );
                }
                (Err(_), Err(_), Err(_)) => {}
                (a, b, c) => prop_assert!(
                    false,
                    "error behavior diverged ({typing:?})\nleft {left}\nright {right}\n\
                     hash {:?}\nnested {:?}\nreference {:?}",
                    a.map(|r| r.value().clone()), b.map(|r| r.value().clone()), c
                ),
            }
        }
    }

    fn pathological_float_keys_distinct_matches_quadratic_oracle(
        items in vec_of(float_key(), 0..=24),
    ) {
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            let engine = Engine::new().with_config(SessionConfig {
                typing,
                ..SessionConfig::default()
            });
            engine.register("c", Value::Bag(items.clone()));
            let got = engine.query("SELECT DISTINCT VALUE x FROM c AS x").unwrap();
            prop_assert!(
                got.matches(&Value::Bag(naive_distinct(&items))),
                "DISTINCT diverged ({typing:?}) on {:?}: got {}",
                items, got.value()
            );
        }
    }

    fn pathological_float_keys_group_by_matches_quadratic_oracle(
        items in vec_of(float_key(), 0..=24),
    ) {
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            let engine = Engine::new().with_config(SessionConfig {
                typing,
                ..SessionConfig::default()
            });
            engine.register(
                "c",
                Value::Bag(items.iter().map(|k| {
                    let mut t = Tuple::with_capacity(1);
                    t.insert("k", k.clone());
                    Value::Tuple(t)
                }).collect()),
            );
            let got = engine
                .query("SELECT VALUE [x.k, COUNT(*)] FROM c AS x GROUP BY x.k")
                .unwrap();
            let expected = Value::Bag(
                naive_group_counts(&items)
                    .into_iter()
                    .map(|(k, n)| Value::Array(vec![k, Value::Int(n)]))
                    .collect(),
            );
            prop_assert!(
                got.matches(&expected),
                "GROUP BY diverged ({typing:?}) on {:?}: got {}, want {expected}",
                items, got.value()
            );
        }
    }

    // The optimizer's hash equi-join must agree with the nested-loop
    // plan (optimizer off) on every join shape, in both typing modes —
    // including NULL and MISSING keys (which never hash-match, exactly
    // as `=` never yields TRUE on them) and residual conjuncts checked
    // after the key probe.
    fn hash_join_agrees_with_nested_loop_oracle(
        left in join_rows(), right in join_rows(),
    ) {
        const QUERIES: &[&str] = &[
            // INNER with a residual conjunct on both sides of the key.
            "SELECT VALUE [x.v, y.v] FROM l AS x JOIN r AS y \
             ON x.k = y.k AND x.v <= y.v",
            // LEFT with a build-side filter and a mixed residual; NULL
            // padding must survive the hash path.
            "SELECT VALUE [x.v, y.v] FROM l AS x LEFT JOIN r AS y \
             ON x.k = y.k AND y.v >= 0 AND x.v + y.v < 12",
            // Comma join + WHERE: the Filter-over-Correlate extraction.
            "SELECT VALUE [x.v, y.v] FROM l AS x, r AS y \
             WHERE x.k = y.k AND x.v <= y.v AND y.v >= -1",
        ];
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            for q in QUERIES {
                let opt = join_prop_engine(&left, &right, typing, true);
                let raw = join_prop_engine(&left, &right, typing, false);
                match (opt.query(q), raw.query(q)) {
                    (Ok(a), Ok(b)) => prop_assert!(
                        a.matches(b.value()),
                        "join strategies diverged ({typing:?}) on {q}\n\
                         left {left}\nright {right}\nhash {}\nnested {}",
                        a.value(), b.value()
                    ),
                    (Err(_), Err(_)) => {}
                    (a, b) => prop_assert!(
                        false,
                        "error behavior diverged ({typing:?}) on {q}\n\
                         left {left}\nright {right}\nhash {:?}\nnested {:?}",
                        a.map(|r| r.value().clone()), b.map(|r| r.value().clone())
                    ),
                }
            }
        }
    }

    // The batched engine must be indistinguishable from the same engine
    // pulling one-row batches (`batch_size: 1`, the row-at-a-time
    // baseline) on join/group/sort shapes — the operators whose consume
    // loops and probe sides cross batch boundaries — in both typing modes.
    fn batched_agrees_with_row_at_a_time_on_joins_and_groups(
        left in join_rows(), right in join_rows(),
    ) {
        const QUERIES: &[&str] = &[
            "SELECT VALUE [x.v, y.v] FROM l AS x JOIN r AS y \
             ON x.k = y.k AND x.v <= y.v",
            "SELECT VALUE [x.v, y.v] FROM l AS x LEFT JOIN r AS y \
             ON x.k = y.k ORDER BY x.v LIMIT 7",
            "SELECT VALUE [x.k, COUNT(*)] FROM l AS x GROUP BY x.k",
            "SELECT DISTINCT VALUE x.v FROM l AS x WHERE x.v >= 0",
            "SELECT VALUE x.v FROM l AS x INTERSECT ALL SELECT VALUE y.v FROM r AS y",
        ];
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            let batched = join_prop_engine(&left, &right, typing, true);
            let row = join_prop_engine(&left, &right, typing, true).with_config(SessionConfig {
                typing,
                batch_size: 1,
                ..SessionConfig::default()
            });
            for q in QUERIES {
                match (batched.query(q), row.query(q)) {
                    (Ok(a), Ok(b)) => prop_assert!(
                        a.matches(b.value()),
                        "batched vs row path diverged ({typing:?}) on {q}\n\
                         left {left}\nright {right}\nbatched {}\nrow {}",
                        a.value(), b.value()
                    ),
                    (Err(_), Err(_)) => {}
                    (a, b) => prop_assert!(
                        false,
                        "error behavior diverged ({typing:?}) on {q}\n\
                         left {left}\nright {right}\nbatched {:?}\nrow {:?}",
                        a.map(|r| r.value().clone()), b.map(|r| r.value().clone())
                    ),
                }
            }
        }
    }
}

/// Every float a hash key can choke on: NaN under two bit patterns
/// (quiet and negative — `deep_eq` makes all NaNs one equivalence
/// class), the two zero signs, int/float numeric twins (2 vs 2.0 must
/// land in one bucket), and infinities.
fn float_key() -> Gen<Value> {
    one_of(vec![
        just(Value::Float(f64::NAN)),
        just(Value::Float(f64::from_bits(0xFFF8_0000_0000_0001))),
        just(Value::Float(-0.0)),
        just(Value::Float(0.0)),
        just(Value::Float(2.0)),
        just(Value::Int(2)),
        just(Value::Int(0)),
        just(Value::Float(f64::INFINITY)),
        just(Value::Float(f64::NEG_INFINITY)),
        i64_range(-2..3).map(|i| Value::Float(i as f64 + 0.5)),
    ])
}

/// Rows `{k, v}` with pathological float keys.
fn float_key_rows() -> Gen<Value> {
    rows_of(
        vec![("k", float_key()), ("v", i64_range(-3..10).map(Value::Int))],
        0..=8,
    )
}

/// GROUP BY oracle: first-occurrence key classes by pairwise `deep_eq`,
/// with per-class counts — O(n²), no hashing anywhere.
fn naive_group_counts(items: &[Value]) -> Vec<(Value, i64)> {
    let mut out: Vec<(Value, i64)> = Vec::new();
    for item in items {
        match out.iter_mut().find(|(k, _)| deep_eq(k, item)) {
            Some((_, n)) => *n += 1,
            None => out.push((item.clone(), 1)),
        }
    }
    out
}

/// Rows `{k, v}` whose keys collide often and include NULL and MISSING.
fn join_rows() -> Gen<Value> {
    let key = one_of(vec![
        i64_range(0..4).map(Value::Int),
        just(Value::Null),
        just(Value::Missing),
    ]);
    let val = i64_range(-3..10).map(Value::Int);
    rows_of(vec![("k", key), ("v", val)], 0..=10)
}

/// An engine with `l`/`r` registered and the given typing/optimizer
/// configuration.
fn join_prop_engine(left: &Value, right: &Value, typing: TypingMode, optimize: bool) -> Engine {
    let engine = Engine::new();
    engine.register("l", left.clone());
    engine.register("r", right.clone());
    engine.with_config(SessionConfig {
        typing,
        optimize,
        ..SessionConfig::default()
    })
}

/// First-occurrence DISTINCT by pairwise deep_eq — the O(n²) oracle.
fn naive_distinct(items: &[Value]) -> Vec<Value> {
    let mut out: Vec<Value> = Vec::new();
    for item in items {
        if !out.iter().any(|seen| deep_eq(seen, item)) {
            out.push(item.clone());
        }
    }
    out
}

/// Multiset INTERSECT ALL (`keep_matched`) / EXCEPT ALL (`!keep_matched`)
/// oracle: each left element consumes at most one deep_eq-equal right
/// element.
fn naive_multiset_op(left: &[Value], right: &[Value], keep_matched: bool) -> Vec<Value> {
    let mut pool: Vec<Option<Value>> = right.iter().cloned().map(Some).collect();
    let mut out = Vec::new();
    for l in left {
        let matched = pool
            .iter_mut()
            .find(|slot| slot.as_ref().is_some_and(|r| deep_eq(r, l)))
            .map(Option::take)
            .is_some();
        if matched == keep_matched {
            out.push(l.clone());
        }
    }
    out
}

/// Formerly `tests/properties.proptest-regressions` — the shrunk
/// counterexample `{'a': -922134.9894780187}` exercised float printing
/// precision through the text round trips.
#[test]
fn regression_float_attribute_survives_both_round_trips() {
    let mut t = Tuple::new();
    t.insert("a", Value::Float(-922134.9894780187));
    let v = Value::Tuple(t);

    let text = v.to_string();
    let back = sqlpp_formats::pnotation::from_pnotation(&text).unwrap();
    assert!(deep_eq(&back, &v), "pnotation: {back} != {v}");

    let bytes = sqlpp_formats::ion_lite::to_ion_lite(&v);
    let back = sqlpp_formats::ion_lite::from_ion_lite(&bytes).unwrap();
    assert!(deep_eq(&back, &v), "ion-lite: {back} != {v}");

    let c1 = canonicalize(&v);
    assert_eq!(c1, canonicalize(&c1));
}

/// Expression sources for the parse∘print = id property: built from
/// templates so they are always valid.
fn expr_corpus() -> Vec<String> {
    let atoms = ["1", "x.a", "'s'", "NULL", "MISSING", "[1, 2]", "{'k': v}"];
    let mut out: Vec<String> = Vec::new();
    for a in atoms {
        for b in atoms {
            out.push(format!("{a} + {b}"));
            out.push(format!("{a} = {b} AND NOT ({b} < {a})"));
            out.push(format!("CASE WHEN {a} = {b} THEN {a} ELSE {b} END"));
            out.push(format!("{a} IN ({b}, {a})"));
        }
    }
    out.push("COLL_AVG(SELECT VALUE t.x FROM c AS t WHERE t.y BETWEEN 1 AND 9)".into());
    out.push("EXISTS (FROM c AS t SELECT VALUE t)".into());
    out
}

#[test]
fn print_parse_is_identity_on_expressions() {
    for src in expr_corpus() {
        let e1 = parse_expr(&src).unwrap_or_else(|err| panic!("{src}: {err}"));
        let printed = print_expr(&e1);
        let e2 = parse_expr(&printed).unwrap_or_else(|err| panic!("reparse of {printed}: {err}"));
        assert_eq!(e1, e2, "round trip changed {src} (printed {printed})");
    }
}

#[test]
fn print_parse_is_identity_on_the_corpus_queries() {
    for case in sqlpp_compat_kit::corpus() {
        let Ok(q1) = parse_query(case.query) else {
            continue; // expression-form cases (L16)
        };
        let printed = print_query(&q1);
        let q2 = parse_query(&printed)
            .unwrap_or_else(|e| panic!("case {}: reparse of {printed}: {e}", case.id));
        assert_eq!(q1, q2, "case {} changed under print∘parse", case.id);
    }
}
