//! INSERT / DELETE / UPDATE over named collections, including schema
//! enforcement on writes and SQL++ three-valued predicate semantics, and a
//! generated differential of DELETE and UPDATE against the query engine.

use sqlpp::{Engine, ExecOutcome, SessionConfig, TypingMode};
use sqlpp_testkit::prop::{self, Gen, Source};
use sqlpp_testkit::{prop_assert_eq, sqlpp_prop};
use sqlpp_value::{Tuple, Value};

fn engine() -> Engine {
    let engine = Engine::new();
    engine
        .load_pnotation(
            "emp",
            "{{ {'id': 1, 'name': 'Ann', 'sal': 90},
                {'id': 2, 'name': 'Bo', 'sal': 70},
                {'id': 3, 'name': 'Cy'} }}",
        )
        .unwrap();
    engine
}

fn count(engine: &Engine, name: &str) -> usize {
    engine
        .query(&format!(
            "SELECT VALUE COLL_COUNT(SELECT VALUE x FROM {name} AS x)"
        ))
        .unwrap()
        .rows()[0]
        .as_int()
        .unwrap() as usize
}

#[test]
fn insert_value_appends_one_element() {
    let engine = engine();
    let outcome = engine
        .execute("INSERT INTO emp VALUE {'id': 4, 'name': 'Di', 'sal': 100}")
        .unwrap();
    assert!(matches!(outcome, ExecOutcome::Inserted { count: 1 }));
    assert_eq!(count(&engine, "emp"), 4);
    let r = engine
        .query("SELECT VALUE e.name FROM emp AS e WHERE e.id = 4")
        .unwrap();
    assert_eq!(r.canonical().to_string(), "{{'Di'}}");
}

#[test]
fn insert_query_appends_many() {
    let engine = engine();
    let outcome = engine
        .execute(
            "INSERT INTO arch SELECT VALUE {'id': e.id, 'was': e.sal} \
             FROM emp AS e WHERE e.sal >= 70",
        )
        .unwrap();
    assert!(matches!(outcome, ExecOutcome::Inserted { count: 2 }));
    // Target did not exist: created as a bag.
    assert_eq!(count(&engine, "arch"), 2);
}

/// INSERT hands its source AST straight to the planner. The sources
/// here are the ones a print → re-parse hop between the two would be
/// most likely to bend: float spellings, decimals, quote/backslash
/// strings, delimited identifiers, nested subqueries, MISSING.
#[test]
fn insert_sources_evaluate_like_the_bare_expression_or_query() {
    // Debug form: bit-exact (`-0.0` vs `0.0`) and NaN-comparable.
    let stored = |engine: &Engine| format!("{:?}", *engine.catalog().get_str("sink").unwrap());
    for src in [
        "1e300",
        "2.5E-3",
        "-0.0",
        "`nan`",
        "`-inf`",
        "0.0 / 0.0",
        "1.10",
        "12345678901234567890.123456789",
        "'it''s'",
        r"'back\\slash'",
        r"'a\\'",
        r#"(SELECT VALUE e."name" FROM emp AS e WHERE e."id" = 1)"#,
        "{'ids': (SELECT VALUE e.id FROM emp AS e WHERE e.sal >= 70), \
          'n': COLL_COUNT(SELECT VALUE e FROM emp AS e)}",
        "MISSING",
        "[MISSING, 1, NULL]",
        "{'a': MISSING, 'b': {{ }}}",
    ] {
        let engine = engine();
        let expected = engine.eval_expr(src).unwrap();
        let outcome = engine
            .execute(&format!("INSERT INTO sink VALUE {src}"))
            .unwrap();
        assert!(
            matches!(outcome, ExecOutcome::Inserted { count: 1 }),
            "{src}"
        );
        let want = format!("{:?}", Value::Bag(vec![expected]));
        assert_eq!(stored(&engine), want, "{src}");
    }
    for query in [
        "SELECT VALUE e.sal * 1e-3 FROM emp AS e",
        r#"SELECT e."name" AS "n", -0.0 AS z, `nan` AS q FROM emp AS e"#,
        "SELECT VALUE {'n': e.name || '''s', 'peers': (SELECT VALUE p.id FROM emp AS p \
          WHERE p.id != e.id)} FROM emp AS e ORDER BY e.id",
        "SELECT VALUE 1.10 FROM emp AS e LIMIT 2",
    ] {
        let engine = engine();
        let expected = engine.query(query).unwrap().into_value();
        let rows = expected.as_elements().unwrap().to_vec();
        let outcome = engine
            .execute(&format!("INSERT INTO sink {query}"))
            .unwrap();
        assert!(
            matches!(outcome, ExecOutcome::Inserted { count } if count == rows.len()),
            "{query}"
        );
        let want = format!("{:?}", Value::Bag(rows));
        assert_eq!(stored(&engine), want, "{query}");
    }
}

#[test]
fn delete_respects_three_valued_logic() {
    let engine = engine();
    // Cy has no sal: predicate is MISSING → NOT deleted.
    let outcome = engine
        .execute("DELETE FROM emp AS e WHERE e.sal < 80")
        .unwrap();
    assert!(
        matches!(outcome, ExecOutcome::Deleted { count: 1 }),
        "{outcome:?}"
    );
    let left = engine.query("SELECT VALUE e.name FROM emp AS e").unwrap();
    assert_eq!(left.canonical().to_string(), "{{'Ann', 'Cy'}}");
}

#[test]
fn delete_without_where_empties_the_collection() {
    let engine = engine();
    let outcome = engine.execute("DELETE FROM emp").unwrap();
    assert!(matches!(outcome, ExecOutcome::Deleted { count: 3 }));
    assert_eq!(count(&engine, "emp"), 0);
}

#[test]
fn update_sets_and_creates_attributes() {
    let engine = engine();
    let outcome = engine
        .execute(
            "UPDATE emp AS e SET e.sal = e.sal + 10, e.band = 'senior' \
             WHERE e.sal >= 80",
        )
        .unwrap();
    assert!(matches!(outcome, ExecOutcome::Updated { count: 1 }));
    let r = engine
        .query("SELECT e.sal AS sal, e.band AS band FROM emp AS e WHERE e.id = 1")
        .unwrap();
    assert_eq!(
        r.canonical().to_string(),
        "{{{'sal': 100, 'band': 'senior'}}}"
    );
    // Untouched rows keep their shape (Cy still has no sal).
    let cy = engine
        .query("SELECT VALUE e.sal IS MISSING FROM emp AS e WHERE e.id = 3")
        .unwrap();
    assert_eq!(cy.canonical().to_string(), "{{true}}");
}

#[test]
fn update_rhs_sees_the_old_row() {
    let engine = Engine::new();
    engine
        .load_pnotation("t", "{{ {'a': 1, 'b': 10} }}")
        .unwrap();
    // Swap via old values, SQL-style: both RHS evaluate before writes.
    engine.execute("UPDATE t SET t.a = t.b, t.b = t.a").unwrap();
    let r = engine.query("SELECT VALUE t FROM t AS t").unwrap();
    assert_eq!(r.canonical().to_string(), "{{{'a': 10, 'b': 1}}}");
}

#[test]
fn update_missing_removes_the_attribute() {
    let engine = engine();
    engine
        .execute("UPDATE emp AS e SET e.sal = MISSING WHERE e.id = 1")
        .unwrap();
    let r = engine
        .query("SELECT VALUE e.sal IS MISSING FROM emp AS e WHERE e.id = 1")
        .unwrap();
    assert_eq!(r.canonical().to_string(), "{{true}}");
}

#[test]
fn update_nested_path_creates_intermediate_tuples() {
    let engine = engine();
    engine
        .execute("UPDATE emp AS e SET e.contact.city = 'Oslo' WHERE e.id = 2")
        .unwrap();
    let r = engine
        .query("SELECT VALUE e.contact.city FROM emp AS e WHERE e.id = 2")
        .unwrap();
    assert_eq!(r.canonical().to_string(), "{{'Oslo'}}");
}

/// A SET rewrites its attribute where it stands, nested or flat; only an
/// absent attribute is appended. Compared as printed text, which keeps the
/// stored pair order.
#[test]
fn update_keeps_each_attribute_in_its_position() {
    let engine = Engine::new();
    engine
        .load_pnotation("t", "{{ {'a': {'b': 1, 'c': 2}, 'z': 3} }}")
        .unwrap();
    for (set, stored) in [
        ("x.a.b = 5", "{'a': {'b': 5, 'c': 2}, 'z': 3}"),
        ("x.a = 7", "{'a': 7, 'z': 3}"),
        ("x.m.n = 1", "{'a': 7, 'z': 3, 'm': {'n': 1}}"),
        ("x.m.p = 2", "{'a': 7, 'z': 3, 'm': {'n': 1, 'p': 2}}"),
    ] {
        engine.execute(&format!("UPDATE t AS x SET {set}")).unwrap();
        let r = engine.query("SELECT VALUE x FROM t AS x").unwrap();
        assert_eq!(
            r.into_value().to_string(),
            format!("{{{{{stored}}}}}"),
            "{set}"
        );
    }
}

#[test]
fn schema_is_enforced_on_writes() {
    let engine = Engine::new();
    engine
        .execute("CREATE TABLE typed (id INT, label STRING)")
        .unwrap();
    // Conforming insert works (columns are nullable per SQL).
    engine
        .execute("INSERT INTO typed VALUE {'id': 1, 'label': 'ok'}")
        .unwrap();
    // Extra attribute → closed-tuple violation.
    let err = engine
        .execute("INSERT INTO typed VALUE {'id': 2, 'label': 'x', 'oops': true}")
        .unwrap_err();
    assert!(err.to_string().contains("schema"), "{err}");
    // Wrong type through UPDATE is rejected too, atomically.
    let err = engine
        .execute("UPDATE typed SET typed.id = 'not an int'")
        .unwrap_err();
    assert!(err.to_string().contains("schema"), "{err}");
    // The collection is unchanged after the failed update.
    let r = engine.query("SELECT VALUE t.id FROM typed AS t").unwrap();
    assert_eq!(r.canonical().to_string(), "{{1}}");
}

#[test]
fn dml_errors_are_clear() {
    let engine = engine();
    engine.register("scalar", Value::Int(7));
    assert!(engine
        .execute("INSERT INTO scalar VALUE 1")
        .unwrap_err()
        .to_string()
        .contains("not a collection"));
    assert!(engine
        .execute("DELETE FROM nowhere")
        .unwrap_err()
        .to_string()
        .contains("not bound"));
    assert!(engine
        .execute("UPDATE emp AS e SET e = 1")
        .unwrap_err()
        .to_string()
        .contains("attribute"));
}

#[test]
fn dml_statements_round_trip_through_the_printer() {
    for src in [
        "INSERT INTO hr.emp VALUE {'id': 9}",
        "INSERT INTO hr.emp SELECT VALUE x FROM other AS x",
        "DELETE FROM hr.emp AS e WHERE e.id = 1",
        "UPDATE hr.emp AS e SET e.sal = 0, e.flag = TRUE WHERE e.id = 2",
    ] {
        let s1 = sqlpp_syntax::parse_statement(src).unwrap();
        let printed = sqlpp_syntax::print_statement(&s1);
        let s2 =
            sqlpp_syntax::parse_statement(&printed).unwrap_or_else(|e| panic!("{printed}: {e}"));
        assert_eq!(s1, s2, "{printed}");
    }
}

// ======================================================================
// Atomicity under mid-statement failure (ISSUE 5 satellite): every DML
// statement computes its complete replacement value before the single
// `commit_collection` publish point, so a failure part-way through —
// strict-mode type error, governed budget refusal, injected fault —
// must leave the target collection exactly as it was.
// ======================================================================

/// The collection rendered for byte-compare (raw stored order, no
/// canonicalization: atomicity means the *stored* value is untouched).
fn stored(engine: &Engine, name: &str) -> String {
    engine.catalog().get_str(name).unwrap().to_string()
}

fn strict(engine: &Engine) -> Engine {
    engine.with_config(sqlpp::SessionConfig {
        typing: sqlpp::TypingMode::StrictError,
        ..sqlpp::SessionConfig::default()
    })
}

/// A fixture where the *last* row poisons arithmetic/comparisons, so a
/// strict-mode statement fails only after earlier rows were processed.
fn poisoned() -> Engine {
    let engine = Engine::new();
    engine
        .load_pnotation(
            "acct",
            "{{ {'id': 1, 'bal': 100}, {'id': 2, 'bal': 50}, {'id': 3, 'bal': 'frozen'} }}",
        )
        .unwrap();
    engine
}

#[test]
fn failed_update_is_atomic_under_strict_error() {
    let engine = poisoned();
    let before = stored(&engine, "acct");
    // Rows 1 and 2 update fine; row 3 ('frozen' * 2) errors in strict mode.
    let err = strict(&engine)
        .execute("UPDATE acct AS a SET a.bal = a.bal * 2")
        .unwrap_err();
    assert!(err.to_string().contains("type error"), "{err}");
    assert_eq!(stored(&engine, "acct"), before, "partial update leaked");
}

#[test]
fn failed_delete_is_atomic_under_strict_error() {
    let engine = poisoned();
    let before = stored(&engine, "acct");
    // The predicate errors on row 3 after row 1 already matched.
    let err = strict(&engine)
        .execute("DELETE FROM acct AS a WHERE a.bal > 60")
        .unwrap_err();
    assert!(err.to_string().contains("type error"), "{err}");
    assert_eq!(stored(&engine, "acct"), before, "partial delete leaked");
}

#[test]
fn failed_insert_is_atomic_under_strict_error() {
    let engine = poisoned();
    let before = stored(&engine, "acct");
    let err = strict(&engine)
        .execute("INSERT INTO acct SELECT VALUE {'id': a.id + 10, 'bal': a.bal + 1} FROM acct AS a")
        .unwrap_err();
    assert!(err.to_string().contains("type error"), "{err}");
    assert_eq!(stored(&engine, "acct"), before, "partial insert leaked");
}

#[test]
fn failed_insert_is_atomic_under_budget_denial() {
    let engine = engine();
    let before = stored(&engine, "emp");
    // An ORDER BY pipeline breaker over 3 rows with a 32-byte budget: the
    // source query is refused mid-materialization, before any append.
    let session = engine.with_config(sqlpp::SessionConfig {
        limits: sqlpp::Limits::none().with_memory_bytes(32),
        ..sqlpp::SessionConfig::default()
    });
    let err = session
        .execute(
            "INSERT INTO emp SELECT VALUE {'id': e.id + 10, 'name': e.name} \
             FROM emp AS e ORDER BY e.id",
        )
        .unwrap_err();
    assert!(err.to_string().contains("resource exhausted"), "{err}");
    assert_eq!(
        stored(&engine, "emp"),
        before,
        "budget-denied insert leaked"
    );
}

#[test]
fn failed_dml_is_atomic_under_injected_faults() {
    use sqlpp_testkit::fault::FaultPlan;
    use std::sync::Arc;

    // Sweep the k-th operator-site fault across each statement kind:
    // wherever the statement dies, the collection must be untouched.
    for stmt in [
        "INSERT INTO emp SELECT VALUE {'id': e.id + 10, 'sal': e.sal} FROM emp AS e",
        "DELETE FROM emp AS e WHERE e.sal > 50",
        "UPDATE emp AS e SET e.sal = e.sal + 1 WHERE e.sal >= 70",
    ] {
        for k in 1..=8u64 {
            let engine = engine();
            let before = stored(&engine, "emp");
            let plan = Arc::new(FaultPlan::fail_kth("operator", k));
            let hook = Arc::clone(&plan);
            let session = engine.with_config(sqlpp::SessionConfig {
                fault: Some(sqlpp::FaultInjector::new(move |site| {
                    hook.should_fail(site.name()).then(|| {
                        sqlpp_eval::EvalError::Resource(format!(
                            "injected fault at {}",
                            site.name()
                        ))
                    })
                })),
                ..sqlpp::SessionConfig::default()
            });
            match session.execute(stmt) {
                Ok(_) => assert!(!plan.fired(), "{stmt} k={k}: fired but succeeded"),
                Err(e) => {
                    assert!(
                        e.to_string().contains("injected fault"),
                        "{stmt} k={k}: {e}"
                    );
                    assert_eq!(stored(&engine, "emp"), before, "{stmt} k={k}: leaked");
                }
            }
        }
    }
}

// ======================================================================
// Generated differential: DELETE and UPDATE read their target through the
// query engine's row loop, so each must act on exactly the rows
// `SELECT VALUE x FROM t AS x WHERE p` keeps, in order — at batch 1 (the
// binding stream), 2 and 1024 (the borrowed slice, for root-safe
// programs), under both typing modes, with the same error wherever one
// is raised.
// ======================================================================

fn pick<T: Clone>(src: &mut Source, choices: &[T]) -> T {
    choices[src.draw_below(choices.len() as u64) as usize].clone()
}

/// 0–`max` rows `{id, k, f, t}`: a unique `id`; `k` and `f` an int, a
/// float, a string, NULL, MISSING or absent, from the spine generator's
/// small domain; `t` a 0/1 flag.
fn table(src: &mut Source, max: usize) -> Value {
    let attrs = [
        Some(Value::Int(1)),
        Some(Value::Int(2)),
        Some(Value::Int(3)),
        Some(Value::Float(0.5)),
        Some(Value::Float(2.0)),
        Some(Value::Str("a".into())),
        Some(Value::Null),
        Some(Value::Missing),
        None,
    ];
    let rows = (0..src.draw_len(0, max)).map(|id| {
        let mut t = Tuple::new();
        t.insert("id", Value::Int(id as i64));
        for name in ["k", "f"] {
            if let Some(v) = pick(src, &attrs) {
                t.insert(name, v);
            }
        }
        t.insert("t", Value::Int(src.draw_range_i64(0, 1)));
        Value::Tuple(t)
    });
    Value::Bag(rows.collect())
}

/// The target `u` and the subqueries' table `w`.
#[derive(Debug, Clone)]
struct Data {
    u: Value,
    w: Value,
}

fn data() -> Gen<Data> {
    Gen::new(|src| Data {
        u: table(src, 10),
        w: table(src, 4),
    })
}

/// Leaf predicates — the spine generator's filters, less its `?`
/// parameters — and predicates through an `IN (SELECT …)` or `EXISTS`
/// subquery. `None` is a statement without a WHERE.
const PREDICATES: &[Option<&str>] = &[
    None,
    Some("x.f > 0.5"),
    Some("x.k <> 'a'"),
    Some("x.k IS NOT NULL"),
    Some("x.k < 3"),
    Some("x.id < 4"),
    Some("x.t = 1 AND x.f <= 2"),
    Some("x.k = 2 OR x.f IS MISSING"),
    Some("NOT (x.k = 1)"),
    Some("x.k IN [1, 'a', NULL]"),
    Some("x.k IN (SELECT VALUE d.k FROM w AS d)"),
    Some("EXISTS (SELECT VALUE d FROM w AS d WHERE d.k = x.k)"),
    Some("NOT EXISTS (SELECT VALUE d FROM w AS d WHERE d.f = x.f AND d.t = 1)"),
    Some("x.id IN (SELECT VALUE d.id FROM w AS d WHERE d.t = x.t)"),
];

/// SET right-hand sides, each reading the old row.
const SETS: &[&str] = &[
    "x.k + 1",
    "x.f * 2",
    "x.id",
    "[x.k, x.f]",
    "x.k || 'z'",
    "COALESCE(x.f, x.k)",
    "x.nope",
    "(SELECT VALUE d.id FROM w AS d WHERE d.k = x.k)",
];

/// A generated statement pair: `DELETE FROM u AS x <where>` and
/// `UPDATE u AS x SET x.k = <set> <where>`.
#[derive(Debug, Clone)]
struct Stmt {
    pred: Option<&'static str>,
    set: &'static str,
}

fn stmts() -> Gen<Stmt> {
    Gen::new(|src| Stmt {
        pred: pick(src, PREDICATES),
        set: pick(src, SETS),
    })
}

/// A fresh engine holding `d`, and a session over it.
fn arm(d: &Data, typing: TypingMode, batch_size: usize) -> (Engine, Engine) {
    let engine = Engine::new();
    engine.register("u", d.u.clone());
    engine.register("w", d.w.clone());
    let session = engine.with_config(SessionConfig {
        typing,
        batch_size,
        ..SessionConfig::default()
    });
    (engine, session)
}

/// What a statement leaves: its outcome and the stored target, in
/// stored order, or its error — after which the target must be as it
/// was.
fn run_dml(d: &Data, typing: TypingMode, batch_size: usize, stmt: &str) -> Result<String, String> {
    let (engine, session) = arm(d, typing, batch_size);
    match session.execute(stmt) {
        Ok(outcome) => Ok(format!("{outcome:?} {}", stored(&engine, "u"))),
        Err(e) => {
            assert_eq!(stored(&engine, "u"), d.u.to_string(), "{stmt}: leaked");
            Err(e.to_string())
        }
    }
}

/// The rows of `u` the query `SELECT VALUE <proj> FROM u AS x <where>`
/// keeps, in order.
fn kept(d: &Data, typing: TypingMode, proj: &str, filter: &str) -> Result<Vec<Value>, String> {
    let (_, session) = arm(d, typing, 1024);
    let q = format!("SELECT VALUE {proj} FROM u AS x{filter}");
    let rows = session.query(&q).map_err(|e| e.to_string())?;
    Ok(rows.into_value().as_elements().unwrap().to_vec())
}

/// The DELETE and the UPDATE of `s` as the query engine answers them: the
/// outcome and stored target each must leave, or the error each must
/// raise.
fn expected(d: &Data, typing: TypingMode, s: &Stmt, filter: &str) -> [Result<String, String>; 2] {
    let rows = d.u.as_elements().unwrap();
    let id = |row: &Value| row.path("id");
    let deleted = kept(d, typing, "x.id", filter).map(|ids| {
        let left: Vec<Value> = (rows.iter())
            .filter(|r| !ids.contains(&id(r)))
            .cloned()
            .collect();
        let outcome = ExecOutcome::Deleted { count: ids.len() };
        format!("{outcome:?} {}", Value::Bag(left))
    });
    let updated = kept(
        d,
        typing,
        &format!("{{'id': x.id, 'v': {}}}", s.set),
        filter,
    )
    .map(|new| {
        let rewritten = rows.iter().map(|row| {
            let Some(new) = new.iter().find(|n| n.path("id") == id(row)) else {
                return row.clone();
            };
            let mut t = row.as_tuple().unwrap().clone();
            match new.path("v") {
                Value::Missing => drop(t.remove("k")),
                v => t.upsert("k", v),
            }
            Value::Tuple(t)
        });
        let outcome = ExecOutcome::Updated { count: new.len() };
        format!("{outcome:?} {}", Value::Bag(rewritten.collect()))
    });
    [deleted, updated]
}

// The row loop reads the slice at batch 2 and 1024 where every program is
// root-safe (leaf predicates and SET right-hand sides) and the binding
// stream otherwise (the subqueries) and at batch 1.
sqlpp_prop! {
    #![config(cases = prop::cases(150))]

    fn dml_acts_on_exactly_the_rows_its_where_keeps(d in data(), s in stmts()) {
        let filter = s.pred.map_or(String::new(), |p| format!(" WHERE {p}"));
        let delete = format!("DELETE FROM u AS x{filter}");
        let update = format!("UPDATE u AS x SET x.k = {}{filter}", s.set);
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            let want = expected(&d, typing, &s, &filter);
            for batch_size in [1, 2, 1024] {
                for (stmt, want) in [&delete, &update].into_iter().zip(&want) {
                    let got = run_dml(&d, typing, batch_size, stmt);
                    prop_assert_eq!(&got, want, "{:?}, batch {}: {}", typing, batch_size, stmt);
                }
            }
        }
    }
}
