//! The public API surface a downstream user exercises: data loading,
//! prepared statements, parameters, EXPLAIN, CREATE TABLE execution,
//! relational views, error reporting, and session sharing.

use sqlpp::{Engine, Error, ExecOutcome, SessionConfig, TypingMode};
use sqlpp_value::{Tuple, Value};

#[test]
fn loading_all_formats_through_the_engine() {
    let engine = Engine::new();
    engine.load_json("j", r#"[{"a": 1}, {"a": 2}]"#).unwrap();
    engine.load_json("jl", "{\"a\": 3}\n{\"a\": 4}\n").unwrap();
    engine.load_csv("c", "a,b\n5,x\n6,y\n").unwrap();
    engine.load_pnotation("p", "{{ {'a': 7} }}").unwrap();
    let bytes = sqlpp_formats::ion_lite::to_ion_lite(&sqlpp_value::rows![{"a" => 8i64}]);
    engine.load_ion_lite("i", &bytes).unwrap();
    for (name, expected) in [("j", 2), ("jl", 2), ("c", 2), ("p", 1), ("i", 1)] {
        let r = engine
            .query(&format!("SELECT VALUE t.a FROM {name} AS t"))
            .unwrap();
        assert_eq!(r.len(), expected, "{name}");
    }
}

#[test]
fn prepared_statements_are_reusable_and_parameterized() {
    let engine = Engine::new();
    engine
        .load_pnotation("t", "{{ {'x': 1}, {'x': 2}, {'x': 3} }}")
        .unwrap();
    let plan = engine
        .prepare("SELECT VALUE t.x FROM t AS t WHERE t.x >= ? AND t.x <= ?")
        .unwrap();
    let r1 = plan
        .execute_with_params(&engine, vec![Value::Int(2), Value::Int(3)])
        .unwrap();
    assert_eq!(r1.canonical().to_string(), "{{2, 3}}");
    let r2 = plan
        .execute_with_params(&engine, vec![Value::Int(1), Value::Int(1)])
        .unwrap();
    assert_eq!(r2.canonical().to_string(), "{{1}}");
    // Missing parameters are a clear error.
    let err = plan.execute(&engine).unwrap_err();
    assert!(err.to_string().contains("parameter"), "{err}");
}

/// The stale-`Prepared`-plan regression (PR 7's headline bugfix):
/// a plan lowered against one schema snapshot must not run after the
/// catalog's schemas change — prepare → alter schema → execute has to
/// observe the *new* schema's disambiguation, not the old one's.
#[test]
fn prepared_plans_relower_after_schema_changes() {
    use sqlpp_schema::infer_collection;

    let engine = Engine::new();
    let emps = sqlpp_formats::pnotation::from_pnotation("{{ {'name': 'Ann'} }}").unwrap();
    let depts = sqlpp_formats::pnotation::from_pnotation("{{ {'dname': 'Eng'} }}").unwrap();
    let emp_ty = infer_collection(&emps).unwrap();
    let dept_ty = infer_collection(&depts).unwrap();
    engine.register_with_schema("emp", emps, &emp_ty).unwrap();
    engine
        .register_with_schema("dept", depts, &dept_ty)
        .unwrap();

    // With the schemas above, bare `name` statically resolves to `e.name`
    // (§III disambiguation): only `emp` elements carry the attribute.
    let plan = engine
        .prepare("SELECT VALUE name FROM emp AS e, dept AS d")
        .unwrap();
    assert_eq!(
        plan.execute(&engine).unwrap().canonical().to_string(),
        "{{'Ann'}}"
    );

    // Swap the attribute between the collections: now only `dept`
    // elements carry `name`, so a correct lowering resolves bare `name`
    // to `d.name`. The old plan would keep projecting `e.name` (MISSING
    // on every row) — silently wrong results.
    let emps2 = sqlpp_formats::pnotation::from_pnotation("{{ {'ename': 'X'} }}").unwrap();
    let depts2 = sqlpp_formats::pnotation::from_pnotation("{{ {'name': 'Bob'} }}").unwrap();
    let emp_ty2 = infer_collection(&emps2).unwrap();
    let dept_ty2 = infer_collection(&depts2).unwrap();
    engine.register_with_schema("emp", emps2, &emp_ty2).unwrap();
    engine
        .register_with_schema("dept", depts2, &dept_ty2)
        .unwrap();

    assert_eq!(
        plan.execute(&engine).unwrap().canonical().to_string(),
        "{{'Bob'}}",
        "prepared plan executed against a stale schema snapshot"
    );
    // The stamp reflects prepare time; the catalog has moved past it.
    assert!(engine.catalog().schema_epoch() > plan.schema_epoch());

    // Re-lowering can also surface *errors* the new schemas imply — e.g.
    // both collections now claiming the attribute makes bare `name`
    // ambiguous — rather than silently running the stale resolution.
    engine
        .register_with_schema(
            "emp",
            sqlpp_formats::pnotation::from_pnotation("{{ {'name': 'Y'} }}").unwrap(),
            &dept_ty2,
        )
        .unwrap();
    let err = plan.execute(&engine).unwrap_err();
    assert!(err.to_string().contains("ambiguous"), "{err}");
}

#[test]
fn create_table_registers_an_empty_typed_collection() {
    let engine = Engine::new();
    let outcome = engine
        .execute(
            "CREATE TABLE emp_mixed (id INT, name STRING, \
             projects UNIONTYPE<STRING, ARRAY<STRING>>)",
        )
        .unwrap();
    match outcome {
        ExecOutcome::Created { name, row_type } => {
            assert_eq!(name, "emp_mixed");
            assert!(row_type.to_string().contains("union<"), "{row_type}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // The (empty) collection is queryable immediately.
    let r = engine.query("SELECT VALUE e FROM emp_mixed AS e").unwrap();
    assert!(r.is_empty());
}

#[test]
fn explain_shows_the_lowered_pipeline() {
    let q = "SELECT AVG(e.x) AS a FROM t AS e GROUP BY e.g";
    // The paper-literal plan: §V-C's COLL_AVG over the group bag.
    let literal = Engine::new().with_config(SessionConfig {
        optimize: false,
        ..SessionConfig::default()
    });
    let plan = literal.explain(q).unwrap();
    assert!(plan.contains("COLL_AVG"), "{plan}");
    assert!(plan.contains("group by"), "{plan}");
    assert!(plan.contains("select value"), "{plan}");
    // Optimized, the aggregate folds into the group.
    let plan = Engine::new().explain(q).unwrap();
    assert!(
        plan.contains("group by e.g AS g folding [$agg0 = AVG(e.x)]"),
        "{plan}"
    );
    assert!(plan.contains("select value {'a': $agg0}"), "{plan}");
}

#[test]
fn explain_accepts_the_bare_expressions_run_str_answers() {
    // Paper listing L16 and kit case K-agg-null are top-level expressions:
    // both EXPLAINs show the FROM-less `SELECT VALUE` plan `run_str` runs.
    let cases = sqlpp_compat_kit::corpus();
    let cases: Vec<_> = cases
        .iter()
        .filter(|c| matches!(c.id, "L16" | "K-agg-null"))
        .collect();
    assert_eq!(cases.len(), 2);
    for case in cases {
        let engine = sqlpp_compat_kit::fixture_engine(
            SessionConfig::default().compat,
            TypingMode::Permissive,
        );
        for (name, text) in case.setup {
            engine.load_pnotation(name, text).unwrap();
        }
        let plan = engine.explain(case.query).unwrap();
        assert!(plan.contains("select value"), "{}: {plan}", case.id);
        assert!(plan.contains("COLL_"), "{}: {plan}", case.id);
        let analyzed = engine.explain_analyze(case.query).unwrap();
        assert!(analyzed.contains("select value"), "{}: {analyzed}", case.id);
        assert!(!analyzed.contains("error:"), "{}: {analyzed}", case.id);
        engine.run_str(case.query).unwrap();
    }
    // Neither a query nor an expression: the query's syntax error stands.
    let err = Engine::new().explain("SELECT FROM WHERE").unwrap_err();
    assert!(matches!(err, Error::Syntax(_)), "{err}");
}

#[test]
fn explain_renders_folded_and_materializing_groups() {
    let engine = Engine::new();
    let plan = engine
        .explain(
            "SELECT e.deptno AS deptno, COUNT(*) AS n, SUM(e.sal) AS total \
             FROM hr.emp AS e GROUP BY e.deptno HAVING COUNT(*) > 1",
        )
        .unwrap();
    // One fold per distinct aggregate: HAVING's COUNT(*) reuses $agg0.
    assert!(
        plan.contains("group by e.deptno AS deptno folding [$agg0 = COUNT(*), $agg1 = SUM(e.sal)]"),
        "{plan}"
    );
    assert!(plan.contains("filter ($agg0 > 1)"), "{plan}");
    assert!(!plan.contains("COLL_"), "{plan}");
    // A GROUP AS bag the query reads, and a DISTINCT aggregate, keep the
    // materializing group exactly as lowering wrote it.
    for q in [
        "SELECT d AS d, (SELECT VALUE x.e.sal FROM g AS x) AS sals \
         FROM hr.emp AS e GROUP BY e.deptno AS d GROUP AS g",
        "SELECT e.deptno AS d, COUNT(DISTINCT e.sal) AS n FROM hr.emp AS e GROUP BY e.deptno",
    ] {
        let plan = engine.explain(q).unwrap();
        assert!(plan.contains("capturing [e]"), "{plan}");
        assert!(!plan.contains("folding"), "{plan}");
    }
}

#[test]
fn unknown_names_are_reported_with_the_dotted_path() {
    let engine = Engine::new();
    let err = engine
        .query("SELECT VALUE x FROM hr.nowhere AS x")
        .unwrap_err();
    assert!(matches!(err, Error::Eval(_)));
    assert!(err.to_string().contains("hr.nowhere"), "{err}");
}

#[test]
fn syntax_errors_carry_positions() {
    let engine = Engine::new();
    let err = engine.query("SELECT FROM WHERE").unwrap_err();
    assert!(matches!(err, Error::Syntax(_)));
    assert!(err.to_string().contains("line 1"), "{err}");
}

#[test]
fn sessions_share_the_catalog_but_not_the_config() {
    let base = Engine::new();
    base.load_pnotation("t", "{{ {'x': 'not a number'} }}")
        .unwrap();
    let strict = base.with_config(SessionConfig {
        typing: TypingMode::StrictError,
        ..SessionConfig::default()
    });
    // Same data visible to both…
    assert_eq!(base.query("SELECT VALUE t FROM t AS t").unwrap().len(), 1);
    // …different behavior per session.
    assert!(base.query("SELECT VALUE t.x + 1 FROM t AS t").is_ok());
    assert!(strict.query("SELECT VALUE t.x + 1 FROM t AS t").is_err());
    // Writes through one session are visible to the other.
    strict.register("u", sqlpp_value::bag![1i64]);
    assert_eq!(base.query("SELECT VALUE u FROM u AS u").unwrap().len(), 1);
}

#[test]
fn concurrent_dml_loses_no_updates() {
    // Every DML statement is snapshot-and-replace; without the catalog's
    // writer serialization two concurrent INSERTs clone the same
    // snapshot and the second commit drops the first's row. Eight
    // threads hammering one collection must land every single insert.
    let engine = Engine::new();
    engine.register("log", sqlpp_value::bag![]);
    const THREADS: usize = 8;
    const PER_THREAD: usize = 50;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let session = engine.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let outcome = session
                        .execute(&format!("INSERT INTO log VALUE {{'t': {t}, 'i': {i}}}"))
                        .unwrap();
                    assert!(matches!(outcome, ExecOutcome::Inserted { count: 1 }));
                }
            });
        }
    });
    let n = engine.query("SELECT VALUE COUNT(*) FROM log AS l").unwrap();
    assert_eq!(
        n.canonical().to_string(),
        format!("{{{{{}}}}}", THREADS * PER_THREAD)
    );
    // Mixed writers too: DELETE and INSERT race, and the final state is
    // exactly the set algebra of what succeeded — deletes remove only
    // their own thread's rows, concurrent inserts survive.
    std::thread::scope(|s| {
        for t in 0..THREADS / 2 {
            let session = engine.clone();
            s.spawn(move || {
                session
                    .execute(&format!("DELETE FROM log AS l WHERE l.t = {t}"))
                    .unwrap();
            });
        }
        for t in THREADS..THREADS + 2 {
            let session = engine.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    session
                        .execute(&format!("INSERT INTO log VALUE {{'t': {t}, 'i': {i}}}"))
                        .unwrap();
                }
            });
        }
    });
    let n = engine.query("SELECT VALUE COUNT(*) FROM log AS l").unwrap();
    let expect = (THREADS / 2) * PER_THREAD + 2 * PER_THREAD;
    assert_eq!(n.canonical().to_string(), format!("{{{{{expect}}}}}"));
}

/// Checks that `rows` is what some serial order of a register/INSERT
/// storm leaves: the whole value of the *last* register of one
/// registering thread, then, for each inserting thread, a suffix of its
/// inserts in its own order (the ones serialized after that register).
fn assert_serializable(rows: &[Value], registers: usize, per_register: i64, inserts: i64) {
    let field = |row: &Value, name: &str| match row.as_tuple().and_then(|t| t.get(name)) {
        Some(Value::Int(i)) => Some(*i),
        _ => None,
    };
    let base = field(&rows[0], "r").expect("a registered value comes first");
    assert!(
        (0..registers as i64).any(|t| base == t * 100 + 9),
        "the surviving base {base} is not the last register of a thread"
    );
    for (j, row) in rows[..per_register as usize].iter().enumerate() {
        assert_eq!(field(row, "r"), Some(base), "register row {j}");
        assert_eq!(field(row, "j"), Some(j as i64));
    }
    let mut next: std::collections::HashMap<i64, i64> = Default::default();
    for row in &rows[per_register as usize..] {
        let (t, i) = (field(row, "t").unwrap(), field(row, "i").unwrap());
        if let Some(&want) = next.get(&t) {
            assert_eq!(i, want, "thread {t}: inserts out of order or lost");
        }
        next.insert(t, i + 1);
    }
    assert!(
        next.values().all(|&end| end == inserts),
        "every thread's surviving inserts run to its last one: {next:?}"
    );
}

/// `register` publishes under the DML guard: a storm of registers and
/// single-row INSERTs on one name ends in a state some serial order of
/// the acknowledged statements produces, in memory and durably — and a
/// durable engine recovers exactly that state (the DML after a
/// register logs a full image, so replay never patches a stale base).
#[test]
fn register_and_insert_storm_is_serializable() {
    const REGISTERERS: usize = 2;
    const PER_REGISTER: i64 = 3;
    const INSERTERS: i64 = 3;
    const INSERTS: i64 = 40;
    let dir = std::env::temp_dir().join(format!("sqlpp-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for durable in [false, true] {
        let engine = if durable {
            Engine::open_durable(&dir).unwrap()
        } else {
            Engine::new()
        };
        std::thread::scope(|s| {
            for t in 0..REGISTERERS as i64 {
                let session = engine.clone();
                s.spawn(move || {
                    for k in 0..10 {
                        let rows = (0..PER_REGISTER).map(|j| {
                            Value::Tuple(sqlpp_value::tuple! { "r" => t * 100 + k, "j" => j })
                        });
                        session.register("log", Value::Bag(rows.collect()));
                        std::thread::yield_now();
                    }
                });
            }
            for t in 0..INSERTERS {
                let session = engine.clone();
                s.spawn(move || {
                    for i in 0..INSERTS {
                        session
                            .execute(&format!("INSERT INTO log VALUE {{'t': {t}, 'i': {i}}}"))
                            .unwrap();
                    }
                });
            }
        });
        // One more acknowledged insert, serialized after everything.
        engine
            .execute(&format!(
                "INSERT INTO log VALUE {{'t': {INSERTERS}, 'i': 0}}"
            ))
            .unwrap();
        let live = engine.catalog().get_str("log").unwrap();
        let rows = live.as_elements().unwrap();
        let (last, rest) = rows.split_last().unwrap();
        assert_eq!(last.to_string(), format!("{{'t': {INSERTERS}, 'i': 0}}"));
        assert_serializable(rest, REGISTERERS, PER_REGISTER, INSERTS);
        if durable {
            drop(engine);
            let recovered = Engine::open_durable(&dir).expect("no corruption after the storm");
            let back = recovered.catalog().get_str("log").unwrap();
            assert_eq!(back.to_string(), live.to_string());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A statement patches the stored collection in place when no reader
/// holds it (the statement releases its own snapshot before it
/// commits), and into a copy — leaving the reader's snapshot alone —
/// when one does.
#[test]
fn dml_patches_in_place_unless_a_reader_holds_the_value() {
    let dir = std::env::temp_dir().join(format!("sqlpp-in-place-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for engine in [Engine::new(), Engine::open_durable(&dir).unwrap()] {
        engine.execute("INSERT INTO t VALUE {'a': 1}").unwrap();
        let stored = || std::sync::Arc::as_ptr(&engine.catalog().get_str("t").unwrap());
        let before = stored();
        for stmt in [
            "INSERT INTO t VALUE {'a': 2}",
            "UPDATE t AS x SET x.a = x.a * 10 WHERE x.a = 2",
            "DELETE FROM t AS x WHERE x.a = 1",
        ] {
            engine.execute(stmt).unwrap();
            assert_eq!(stored(), before, "{stmt} copied an unshared collection");
        }
        let reader = engine.catalog().get_str("t").unwrap();
        engine.execute("INSERT INTO t VALUE {'a': 3}").unwrap();
        assert_eq!(reader.to_string(), "{{{'a': 20}}}");
        assert_ne!(stored(), before);
        assert_eq!(
            engine.catalog().get_str("t").unwrap().to_string(),
            "{{{'a': 20}, {'a': 3}}}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn relational_view_for_jdbc_style_clients() {
    let engine = Engine::new();
    engine
        .load_pnotation("t", "{{ {'id': 1, 'note': 'hi'}, {'id': 2} }}")
        .unwrap();
    let r = engine
        .query("SELECT t.id, t.note AS note FROM t AS t")
        .unwrap();
    let (cols, rows) = r.as_relational();
    assert_eq!(cols, vec!["id", "note"]);
    assert_eq!(rows[1][1], Value::Null, "MISSING surfaced as NULL (§IV-B)");
}

#[test]
fn pivot_results_are_tuples_not_bags() {
    let engine = Engine::new();
    engine
        .load_pnotation("prices", "{{ {'s': 'a', 'p': 1}, {'s': 'b', 'p': 2} }}")
        .unwrap();
    let r = engine.query("PIVOT x.p AT x.s FROM prices AS x").unwrap();
    assert!(matches!(r.value(), Value::Tuple(_)));
    assert_eq!(r.value().path("b"), Value::Int(2));
}

#[test]
fn run_str_handles_both_queries_and_expressions() {
    let engine = Engine::new();
    assert_eq!(engine.run_str("1 + 2 * 3").unwrap(), Value::Int(7));
    engine.load_pnotation("t", "{{1, 2}}").unwrap();
    assert_eq!(
        engine
            .run_str("SELECT VALUE x FROM t AS x")
            .unwrap()
            .to_string(),
        "{{1, 2}}"
    );
    // Garbage reports the *query* parse error (more useful than the
    // expression one).
    assert!(engine.run_str("SELECT $$$$").is_err());
}

/// A stats-collecting run keeps its stats whichever way it ends:
/// `Prepared::execute_with_stats` takes `?` parameters and hands back a
/// failed run's stats beside its error, counted as far as the run got,
/// and `EXPLAIN ANALYZE` of a failing query renders those counts, then an
/// `error: …` line. Strict typing raises on the second row's `'x'`.
#[test]
fn a_failed_run_keeps_the_stats_it_reached() {
    for batch_size in [1, 1024] {
        let engine = Engine::new().with_config(SessionConfig {
            typing: TypingMode::StrictError,
            batch_size,
            ..SessionConfig::default()
        });
        engine
            .load_pnotation(
                "t",
                "{{ {'id': 1, 'v': 10}, {'id': 2, 'v': 'x'}, {'id': 3, 'v': 30} }}",
            )
            .unwrap();
        let prepared = engine
            .prepare("SELECT VALUE x.v + ? FROM t AS x WHERE x.id >= ?")
            .unwrap();
        let (answer, stats) =
            prepared.execute_with_stats(&engine, vec![Value::Int(1), Value::Int(3)]);
        assert_eq!(
            answer.unwrap().canonical(),
            Value::Bag(vec![Value::Int(31)])
        );
        assert_eq!(stats.unwrap().rows_scanned, 3, "batch {batch_size}");
        let (failed, stats) =
            prepared.execute_with_stats(&engine, vec![Value::Int(1), Value::Int(1)]);
        assert!(failed
            .unwrap_err()
            .to_string()
            .contains("expected a number"));
        let stats = stats.unwrap();
        assert_eq!(
            (stats.rows_scanned, stats.bindings_produced),
            (2, 2),
            "batch {batch_size}"
        );
        // A projection that fails on the second row, which the filter
        // let through; a predicate that fails on it, which lets none.
        for (failing, filter_rows, error) in [
            (
                "SELECT VALUE x.v + 1 FROM t AS x WHERE x.id >= 1",
                2,
                "error: type error: expected a number, found string",
            ),
            (
                "SELECT VALUE x.id FROM t AS x WHERE x.v > 15",
                0,
                "error: type error: cannot compare string with integer",
            ),
        ] {
            let statement = match engine
                .execute(&format!("EXPLAIN ANALYZE {failing}"))
                .unwrap()
            {
                ExecOutcome::Explained { text } => text,
                other => panic!("{other:?}"),
            };
            for report in [engine.explain_analyze(failing).unwrap(), statement] {
                let lines: Vec<&str> = report.lines().collect();
                let filter = format!(" rows={filter_rows} ");
                assert!(
                    lines[1].starts_with("  filter") && lines[1].contains(&filter),
                    "{report}"
                );
                assert!(
                    lines[2].starts_with("    from") && lines[2].contains(" rows=2 "),
                    "{report}"
                );
                assert!(report.contains("rows_scanned=2 "), "{report}");
                assert_eq!(lines.last(), Some(&error), "{report}");
            }
        }
    }
}

/// `execute` and `execute_with_stats` are one dispatcher: for one
/// statement of every kind they produce the same outcome (and leave the
/// same catalog behind), and DML stats still carry an eval phase.
#[test]
fn execute_and_execute_with_stats_agree_for_every_statement_kind() {
    let fixture = || {
        let engine = Engine::new();
        engine
            .load_pnotation("t", "{{ {'id': 1, 'v': 10}, {'id': 2, 'v': 20} }}")
            .unwrap();
        engine
    };
    let (plain, collecting) = (fixture(), fixture());
    for (stmt, has_stats) in [
        ("SELECT VALUE x.v FROM t AS x WHERE x.id = 2", true),
        ("CREATE TABLE made (id INT, label STRING)", false),
        ("INSERT INTO t VALUE {'id': 3, 'v': 30}", true),
        (
            "INSERT INTO t SELECT VALUE {'id': x.id + 10, 'v': x.v} FROM t AS x",
            true,
        ),
        ("UPDATE t AS x SET x.v = x.v + 1 WHERE x.id >= 2", true),
        ("DELETE FROM t AS x WHERE x.id = 1", true),
        ("EXPLAIN SELECT VALUE x FROM t AS x", false),
    ] {
        let a = plain.execute(stmt).unwrap();
        let (b, stats) = collecting.execute_with_stats(stmt).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{stmt}");
        assert_eq!(stats.is_some(), has_stats, "{stmt}");
        if let Some(st) = stats {
            assert!(st.eval_ns > 0 && st.parse_ns > 0, "{stmt}: {st:?}");
        }
        assert_eq!(
            plain.catalog().get_str("t").unwrap().to_string(),
            collecting.catalog().get_str("t").unwrap().to_string(),
            "{stmt}"
        );
    }
    // EXPLAIN ANALYZE embeds wall times in its text: same kind, same
    // operator tree, no stats of its own.
    let stmt = "EXPLAIN ANALYZE SELECT VALUE x FROM t AS x";
    let tree = |outcome: ExecOutcome| match outcome {
        ExecOutcome::Explained { text } => text
            .lines()
            .filter_map(|l| l.split(" [").next().filter(|_| l.contains(" [")))
            .collect::<Vec<_>>()
            .join("\n"),
        other => panic!("{other:?}"),
    };
    let (b, stats) = collecting.execute_with_stats(stmt).unwrap();
    assert!(stats.is_none());
    assert_eq!(tree(plain.execute(stmt).unwrap()), tree(b));
}

/// DELETE and UPDATE scan their target through the row loop, which
/// counts what it reads: `rows_scanned` is the target's length, on the
/// slice (batch 1024) and on the binding stream (batch 1) alike.
#[test]
fn dml_stats_count_the_rows_scanned() {
    let rows: Vec<String> = (0..100).map(|i| format!("{{'id': {i}}}")).collect();
    for batch_size in [1, 1024] {
        let engine = Engine::new().with_config(SessionConfig {
            batch_size,
            ..SessionConfig::default()
        });
        engine
            .load_pnotation("t", &format!("{{{{ {} }}}}", rows.join(", ")))
            .unwrap();
        for (stmt, len) in [
            ("UPDATE t AS x SET x.v = x.id WHERE x.id % 2 = 0", 100),
            ("DELETE FROM t AS x WHERE x.v IS NOT MISSING", 100),
            ("DELETE FROM t AS x WHERE x.id < 10", 50),
        ] {
            let (_, stats) = engine.execute_with_stats(stmt).unwrap();
            let stats = stats.unwrap();
            assert_eq!(stats.rows_scanned, len, "batch {batch_size}: {stmt}");
        }
    }
}

/// The REPL's statement-or-expression decision (`examples/repl.rs`,
/// compiled into this suite): the bare-expression fallback is for input
/// that is *not a statement* — a statement that parsed and then failed
/// reports its own error instead of a misleading `E_EXPECTED`.
#[path = "../examples/repl.rs"]
#[allow(dead_code)]
mod repl;

#[test]
fn repl_reports_a_failed_statements_own_error() {
    let engine = Engine::new();
    assert_eq!(repl::evaluate(&engine, "1 + 2 * 3", false).unwrap(), "7\n");
    repl::evaluate(&engine, "CREATE TABLE t (a INT)", false).unwrap();
    let strict = engine.with_config(SessionConfig {
        typing: TypingMode::StrictError,
        ..SessionConfig::default()
    });
    let schema = repl::evaluate(&engine, "INSERT INTO t VALUE {'a': 'x'}", false).unwrap_err();
    assert!(matches!(schema, Error::Schema(_)), "{schema}");
    let catalog =
        repl::evaluate(&engine, "DELETE FROM nosuch AS n WHERE n.a = 1", true).unwrap_err();
    assert!(matches!(catalog, Error::Catalog(_)), "{catalog}");
    repl::evaluate(&engine, "INSERT INTO t VALUE {'a': 1}", false).unwrap();
    let eval = repl::evaluate(&strict, "SELECT VALUE x.a + 'a' FROM t AS x", false).unwrap_err();
    assert!(matches!(eval, Error::Eval(_)), "{eval}");
    for (line, err) in [
        ("INSERT INTO t VALUE {'a': 'x'}", &schema),
        ("DELETE FROM nosuch AS n WHERE n.a = 1", &catalog),
        ("SELECT VALUE x.a + 'a' FROM t AS x", &eval),
    ] {
        let report = sqlpp::render_error_report(line, err);
        assert!(!report.contains("E_EXPECTED"), "{report}");
    }
    // Input that is neither keeps the statement's syntax error.
    let garbage = repl::evaluate(&engine, "SELECT FROM WHERE", false).unwrap_err();
    assert!(matches!(garbage, Error::Syntax(_)), "{garbage}");
}

#[test]
fn values_rows_are_queryable() {
    let engine = Engine::new();
    let r = engine.query("VALUES (1, 'a'), (2, 'b')").unwrap();
    assert_eq!(r.len(), 2);
    let r2 = engine
        .query("SELECT VALUE v[1] FROM (VALUES (1, 'a'), (2, 'b')) AS v")
        .unwrap();
    assert_eq!(r2.canonical().to_string(), "{{'a', 'b'}}");
}

#[test]
fn deeply_nested_construction_round_trips() {
    let engine = Engine::new();
    let v = engine
        .eval_expr("{'a': [{'b': <<1, {'c': null}>>}], 'd': [[]]}")
        .unwrap();
    let text = v.to_string();
    let back = sqlpp_formats::pnotation::from_pnotation(&text).unwrap();
    assert!(sqlpp_value::cmp::deep_eq(&v, &back));
}

// ======================================================================
// Resource governance at the API surface (ISSUE 5): structured errors
// for budget/deadline/cancellation, and an engine that remains fully
// usable after every kind of governed failure.
// ======================================================================

mod governance {
    use std::time::Duration;

    use sqlpp::{CancelToken, Engine, Error, EvalError, Limits, SessionConfig};

    fn fixture() -> Engine {
        let engine = Engine::new();
        let rows: Vec<String> = (0..100)
            .map(|i| format!("{{'id': {i}, 'grp': {}}}", i % 7))
            .collect();
        engine
            .load_pnotation("nums", &format!("{{{{ {} }}}}", rows.join(", ")))
            .unwrap();
        engine
    }

    fn limited(engine: &Engine, limits: Limits) -> Engine {
        engine.with_config(SessionConfig {
            limits,
            ..SessionConfig::default()
        })
    }

    #[test]
    fn budget_denial_is_structured_and_engine_survives() {
        let engine = fixture();
        let session = limited(&engine, Limits::none().with_memory_bytes(800));
        // ORDER BY is a pipeline breaker: 100 rows (78 estimated bytes
        // each) against an 800-byte budget must be refused with the
        // structured error, fast.
        let err = session
            .query("SELECT VALUE n.id FROM nums AS n ORDER BY n.id DESC")
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("resource exhausted"), "{msg}");
        assert!(msg.contains("memory budget"), "{msg}");
        assert!(msg.contains("limit 800"), "{msg}");
        // The same session still runs streaming queries (no breaker
        // materializes more than the budget)...
        let r = session
            .query("SELECT VALUE n.id FROM nums AS n WHERE n.id < 3")
            .unwrap();
        assert_eq!(r.len(), 3);
        // ...and a breaker that fits the budget works too.
        let r = session
            .query("SELECT VALUE n.id FROM nums AS n WHERE n.id < 5 ORDER BY n.id DESC")
            .unwrap();
        assert_eq!(r.rows()[0].as_int().unwrap(), 4);
    }

    /// The breakers that never spill — DISTINCT, de-duplicating UNION, the
    /// INTERSECT/EXCEPT build side, window partitions — size every row
    /// they buffer, so a byte budget refuses them (even with spilling
    /// enabled: they have no out-of-core plan) instead of letting them
    /// grow without limit.
    #[test]
    fn non_spilling_breakers_are_metered_and_refuse() {
        use sqlpp_eval::{EvalConfig, EvalError, Evaluator};
        const BUDGET: u64 = 200;
        let engine = fixture();
        let config = SessionConfig {
            limits: Limits::none().with_memory_bytes(BUDGET),
            spill: Some(sqlpp::SpillConfig::default()),
            ..SessionConfig::default()
        };
        let session = engine.with_config(config.clone());
        let next = engine
            .prepare("SELECT VALUE n.id FROM nums AS n WHERE n.id < 3")
            .unwrap();
        for q in [
            "SELECT DISTINCT VALUE n.id FROM nums AS n",
            "SELECT VALUE n.id FROM nums AS n UNION SELECT VALUE n.grp FROM nums AS n",
            "SELECT VALUE n.id FROM nums AS n INTERSECT SELECT VALUE n.id FROM nums AS n",
            "SELECT VALUE n.grp FROM nums AS n EXCEPT ALL SELECT VALUE n.id FROM nums AS n",
            "SELECT n.id AS id, ROW_NUMBER() OVER (PARTITION BY n.grp ORDER BY n.id) AS rn \
             FROM nums AS n",
        ] {
            let msg = session.query(q).unwrap_err().to_string();
            assert!(msg.contains("memory budget"), "{q}: {msg}");
            assert_eq!(
                session
                    .query("SELECT VALUE 1 FROM nums AS n")
                    .unwrap()
                    .len(),
                100
            );

            let plan = engine.prepare(q).unwrap();
            let ev = Evaluator::new(
                engine.catalog(),
                EvalConfig {
                    limits: config.limits.clone(),
                    spill: config.spill.clone(),
                    ..EvalConfig::default()
                },
            );
            let err = ev.run(plan.plan()).unwrap_err();
            assert!(
                matches!(err, EvalError::ResourceExhausted { limit: BUDGET, .. }),
                "{q}: {err:?}"
            );
            let g = ev.governor();
            assert!(g.peak_buffer_bytes() <= BUDGET, "{q}");
            assert!(g.peak_buffer_bytes() > BUDGET / 2, "{q}: barely metered");
            assert_eq!((g.budget_denials(), g.spill_partitions()), (1, 0), "{q}");
            assert_eq!(ev.run(next.plan()).unwrap().to_string(), "{{0, 1, 2}}");
        }
    }

    /// A budgeted ORDER BY over 5 000 rows dies at its first over-budget
    /// admission, with the structured refusal naming the memory budget,
    /// and the governor's peak never passed the budget: a row is admitted
    /// before it is stored.
    #[test]
    fn a_budgeted_sort_fails_at_its_first_over_budget_admission() {
        use sqlpp::value::{Tuple, Value};
        use sqlpp_eval::govern::MEMORY_BUDGET;
        use sqlpp_eval::{EvalConfig, Evaluator};
        const BUDGET: u64 = 18_000;
        let engine = Engine::new();
        let rows = (0..5_000).map(|i| {
            let mut t = Tuple::with_capacity(3);
            t.insert("k", Value::Int(i));
            t.insert("v", Value::Int(7 * i));
            t.insert("grp", Value::Int(i % 64));
            Value::Tuple(t)
        });
        engine.register("g.data", Value::Bag(rows.collect()));
        let plan = engine
            .prepare("SELECT VALUE g.v FROM g.data AS g ORDER BY g.v DESC")
            .unwrap();
        let ev = Evaluator::new(
            engine.catalog(),
            EvalConfig {
                limits: Limits::none().with_memory_bytes(BUDGET),
                ..EvalConfig::default()
            },
        );
        match ev.run(plan.plan()).unwrap_err() {
            EvalError::ResourceExhausted {
                resource,
                limit,
                used,
            } => {
                assert_eq!(resource, MEMORY_BUDGET);
                assert_eq!(limit, BUDGET);
                assert!(
                    used > limit,
                    "{used} is not the first admission past {limit}"
                );
            }
            other => panic!("budgeted ORDER BY failed with the wrong error: {other}"),
        }
        let g = ev.governor();
        assert!(g.peak_buffer_bytes() <= BUDGET, "{}", g.peak_buffer_bytes());
        assert_eq!(g.budget_denials(), 1, "one refusal, then unwind");
    }

    #[test]
    fn governor_counters_reset_between_queries() {
        let engine = fixture();
        let session = limited(&engine, Limits::none().with_memory_bytes(4000));
        let q = "SELECT VALUE n.id FROM nums AS n WHERE n.id < 20 ORDER BY n.id";
        let first = session.query_with_stats(q).unwrap();
        let second = session.query_with_stats(q).unwrap();
        let (a, b) = (first.stats().unwrap(), second.stats().unwrap());
        assert_eq!(a.peak_live_bindings, 20, "{a:?}");
        assert_eq!(a.peak_budget_bytes, 20 * 78, "{a:?}");
        assert_eq!(
            a.peak_budget_bytes, b.peak_budget_bytes,
            "governor state leaked across queries"
        );
        assert_eq!(b.budget_denials, 0);
        assert_eq!(a.mem_bytes_budget, Some(4000));
    }

    #[test]
    fn deadline_expiry_cancels_and_engine_survives() {
        let engine = fixture();
        // A zero deadline has already expired at the first pull.
        let session = limited(&engine, Limits::none().with_time(Duration::ZERO));
        let err = session
            .query("SELECT VALUE n.id FROM nums AS n")
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("query cancelled"), "{msg}");
        assert!(msg.contains("deadline"), "{msg}");
        // The deadline clock is per-query: a generous one succeeds on the
        // same catalog.
        let ok = limited(&engine, Limits::none().with_time(Duration::from_secs(60)));
        assert_eq!(
            ok.query("SELECT VALUE n.id FROM nums AS n").unwrap().len(),
            100
        );
    }

    #[test]
    fn cancellation_token_stops_the_query() {
        let engine = fixture();
        let token = CancelToken::new();
        let session = limited(&engine, Limits::none().with_cancel(token.clone()));
        // Not cancelled: runs normally.
        assert_eq!(
            session
                .query("SELECT VALUE n.id FROM nums AS n")
                .unwrap()
                .len(),
            100
        );
        // Tripped (as a controller thread would): the next query dies
        // with the structured cancellation error.
        token.cancel();
        let err = session
            .query("SELECT VALUE n.id FROM nums AS n")
            .unwrap_err();
        assert!(err.to_string().contains("cancellation requested"), "{err}");
        // A fresh token over the same catalog is unaffected.
        let fresh = limited(&engine, Limits::none().with_cancel(CancelToken::new()));
        assert_eq!(
            fresh
                .query("SELECT VALUE n.id FROM nums AS n")
                .unwrap()
                .len(),
            100
        );
    }

    /// DELETE and UPDATE read their target through the row loop, so a
    /// cancelled token or an expired deadline stops them with the
    /// structured error before their commit, at every batch size: the
    /// catalog is left byte-identical and the engine answers the next
    /// statement.
    #[test]
    fn cancelled_or_expired_dml_commits_nothing() {
        let engine = fixture();
        let token = CancelToken::new();
        token.cancel();
        for limits in [
            Limits::none().with_cancel(token),
            Limits::none().with_time(Duration::ZERO),
        ] {
            for batch_size in [1, 1024] {
                let session = engine.with_config(SessionConfig {
                    limits: limits.clone(),
                    batch_size,
                    ..SessionConfig::default()
                });
                for stmt in [
                    "DELETE FROM nums AS n WHERE n.id < 50",
                    "UPDATE nums AS n SET n.grp = n.grp + 1 WHERE n.id < 50",
                ] {
                    let arm = format!("batch {batch_size}, {limits:?}: {stmt}");
                    let before = engine.catalog().get_str("nums").unwrap().to_string();
                    let err = session.execute(stmt).unwrap_err();
                    assert!(
                        matches!(err, Error::Eval(EvalError::Cancelled { .. })),
                        "{arm}: {err}"
                    );
                    let after = engine.catalog().get_str("nums").unwrap().to_string();
                    assert_eq!(after, before, "{arm}");
                    let next = engine.query("SELECT VALUE n.id FROM nums AS n").unwrap();
                    assert_eq!(next.len(), 100, "{arm}");
                }
            }
        }
    }

    #[test]
    fn strict_mode_error_leaves_session_usable() {
        let engine = fixture();
        engine
            .load_pnotation("dirty", "{{ {'v': 1}, {'v': 'oops'} }}")
            .unwrap();
        let strict = engine.with_config(SessionConfig {
            typing: sqlpp::TypingMode::StrictError,
            ..SessionConfig::default()
        });
        let err = strict
            .query("SELECT VALUE d.v + 1 FROM dirty AS d")
            .unwrap_err();
        assert!(err.to_string().contains("type error"), "{err}");
        // Same strict session, clean data: works.
        assert_eq!(
            strict
                .query("SELECT VALUE n.id FROM nums AS n")
                .unwrap()
                .len(),
            100
        );
    }

    #[test]
    fn eval_nesting_depth_is_limited() {
        let engine = fixture();
        engine.load_pnotation("one", "{{ {'v': 1} }}").unwrap();
        // Twelve nested scalar subqueries (each level is one evaluator
        // re-entry) against a depth budget of 8: the guard trips with the
        // structured error instead of marching toward stack exhaustion.
        let mut deep = String::from("u0.v");
        for i in 0..12 {
            deep = format!("(SELECT VALUE {deep} FROM one AS u{i})");
        }
        let deep = format!("SELECT VALUE {deep} FROM one AS u0");
        let session = limited(&engine, Limits::none().with_eval_depth(8));
        let err = session.query(&deep).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("resource exhausted"), "{msg}");
        assert!(msg.contains("nesting depth"), "{msg}");
        // The default (generous) allowance evaluates the same query fine.
        assert_eq!(engine.query(&deep).unwrap().len(), 1);
    }

    #[test]
    fn explain_analyze_reports_the_budget_line() {
        let engine = fixture();
        let session = limited(
            &engine,
            Limits::none()
                .with_memory_bytes(100_000)
                .with_time(Duration::from_secs(30)),
        );
        let report = session
            .explain_analyze("SELECT VALUE n.id FROM nums AS n ORDER BY n.id")
            .unwrap();
        assert!(report.contains("budget: mem"), "{report}");
        assert!(report.contains("/100000 bytes (denials 0)"), "{report}");
        assert!(report.contains("deadline 30000ms"), "{report}");
        // Without limits the line is absent.
        let plain = engine
            .explain_analyze("SELECT VALUE n.id FROM nums AS n ORDER BY n.id")
            .unwrap();
        assert!(!plain.contains("budget:"), "{plain}");
    }
}

/// `groups_built` counts groups whatever the plan; a folded scalar
/// aggregate scans each input row once and runs no per-group subquery,
/// where the paper-literal plan re-scans its one group per aggregate.
#[test]
fn folding_keeps_group_counts_and_drops_the_rescans() {
    let engine = Engine::new();
    engine.register(
        "c",
        Value::Bag(
            (0..2_000)
                .map(|i| {
                    let mut t = Tuple::new();
                    t.insert("k", Value::Int(i % 16));
                    t.insert("v", Value::Int(i));
                    Value::Tuple(t)
                })
                .collect(),
        ),
    );
    let stats = |optimize: bool, q: &str| {
        let session = engine.with_config(SessionConfig {
            optimize,
            ..SessionConfig::default()
        });
        session
            .query_with_stats(q)
            .unwrap()
            .stats()
            .unwrap()
            .clone()
    };
    let grouped = "SELECT t.k AS k, COUNT(*) AS n, SUM(t.v) AS s FROM c AS t GROUP BY t.k";
    for optimize in [true, false] {
        assert_eq!(
            stats(optimize, grouped).groups_built,
            16,
            "optimize {optimize}"
        );
    }
    let scalar = "SELECT COUNT(*) AS n, SUM(t.v) AS s, MIN(t.v) AS lo, MAX(t.v) AS hi \
                  FROM c AS t WHERE t.v >= 1000";
    let folded = stats(true, scalar);
    assert_eq!(folded.rows_scanned, 2_000);
    assert_eq!(folded.subquery_invocations, 0);
    let literal = stats(false, scalar);
    assert_eq!(literal.rows_scanned, 2_000 + 3 * 1_000);
    assert_eq!(literal.subquery_invocations, 3);
}

/// A hash join over an empty left side builds nothing: the nested loop it
/// was derived from never opens its right side without a left row, so a
/// right-side error (strict `b.z > 'str'`) must not surface either — in
/// the comma, `JOIN … ON` and `LEFT JOIN … ON` forms, both typing modes.
#[test]
fn a_hash_join_over_an_empty_left_side_builds_nothing() {
    let engine = Engine::new();
    engine
        .load_pnotation("t", "{{ {'y': 1, 'z': 1}, {'y': 2, 'z': 2} }}")
        .unwrap();
    for q in [
        "SELECT a.x AS x, b.y AS y FROM [] AS a, t AS b WHERE a.x = b.y AND b.z > 'str'",
        "SELECT a.x AS x, b.y AS y FROM [] AS a JOIN t AS b ON a.x = b.y AND b.z > 'str'",
        "SELECT a.x AS x, b.y AS y FROM [] AS a LEFT JOIN t AS b ON a.x = b.y AND b.z > 'str'",
    ] {
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            for optimize in [true, false] {
                let session = engine.with_config(SessionConfig {
                    typing,
                    optimize,
                    ..SessionConfig::default()
                });
                let arm = format!("{typing:?}, optimize {optimize}: {q}");
                assert_eq!(
                    session.explain(q).unwrap().contains("hash join"),
                    optimize,
                    "{arm}"
                );
                let r = session.query(q).unwrap_or_else(|e| panic!("{arm}: {e}"));
                assert_eq!(r.canonical(), Value::Bag(Vec::new()), "{arm}");
                let stats = session.query_with_stats(q).unwrap();
                assert_eq!(
                    stats.stats().unwrap().rows_scanned,
                    0,
                    "{arm}: the build side was scanned"
                );
            }
        }
    }
}

/// A hash join whose right side cannot resolve in the outer environment
/// (`tags` is an attribute of each left row, not a catalog name) falls
/// back to the nested loop it was derived from, over the left rows the
/// build left unread: the left side opens once, and the scan counter
/// matches the literal plan's.
#[test]
fn a_hash_join_fallback_opens_its_left_side_once() {
    let engine = Engine::new();
    engine
        .load_pnotation("u", "{{ {'k': 1, 'tags': [1, 2]}, {'k': 2, 'tags': [3]} }}")
        .unwrap();
    let q = "SELECT VALUE b FROM u AS x, tags AS b WHERE x.k = b";
    let run = |optimize| {
        let session = engine.with_config(SessionConfig {
            optimize,
            ..SessionConfig::default()
        });
        assert_eq!(session.explain(q).unwrap().contains("hash join"), optimize);
        session.query_with_stats(q).unwrap()
    };
    let (hashed, literal) = (run(true), run(false));
    assert_eq!(hashed.canonical().to_string(), "{{1}}");
    assert_eq!(hashed.canonical(), literal.canonical());
    // Two left rows and their three tags.
    assert_eq!(literal.stats().unwrap().rows_scanned, 2 + 3);
    assert_eq!(hashed.stats().unwrap().rows_scanned, 2 + 3);
}

/// Runs `q` with stats on at `batch_size` and returns its canonical
/// answer or error with the rows it scanned — which a failed run keeps.
fn scanned(
    engine: &Engine,
    q: &str,
    typing: TypingMode,
    batch_size: usize,
) -> (Result<Value, String>, u64) {
    let session = engine.with_config(SessionConfig {
        typing,
        batch_size,
        ..SessionConfig::default()
    });
    let (answer, stats) = session
        .prepare(q)
        .unwrap()
        .execute_with_stats(&session, Vec::new());
    let answer = answer.map(|r| r.canonical()).map_err(|e| e.to_string());
    (answer, stats.unwrap().rows_scanned)
}

/// The edges of the one FROM-source policy, at batch 1 and 1024: strict
/// AT over a bag raises at the first pull, once it has counted that
/// row, stored or computed; over an empty bag there is no pull to raise
/// at; a permissive scalar with AT binds once, its position MISSING.
#[test]
fn the_from_source_policy_holds_at_its_edges() {
    let engine = Engine::new();
    engine.load_pnotation("b", "{{ 1, 2, 3 }}").unwrap();
    engine.load_pnotation("none", "{{ }}").unwrap();
    engine.register("sc", Value::Int(7));
    for batch_size in [1, 1024] {
        for q in [
            "SELECT VALUE x FROM b AS x AT i",
            "SELECT VALUE x FROM <<1, 2, 3>> AS x AT i",
        ] {
            let (answer, rows) = scanned(&engine, q, TypingMode::StrictError, batch_size);
            let err = answer.unwrap_err();
            assert!(
                err.contains("AT position variable over an unordered bag"),
                "{err}"
            );
            assert_eq!(rows, 1, "{q} at batch {batch_size}");
        }
        let (answer, rows) = scanned(
            &engine,
            "SELECT VALUE x FROM none AS x AT i",
            TypingMode::StrictError,
            batch_size,
        );
        assert_eq!(answer.unwrap().to_string(), "{{}}");
        assert_eq!(rows, 0);
        let (answer, rows) = scanned(
            &engine,
            "SELECT VALUE [x, i IS MISSING] FROM sc AS x AT i",
            TypingMode::Permissive,
            batch_size,
        );
        assert_eq!(answer.unwrap().to_string(), "{{[7, true]}}");
        assert_eq!(rows, 1);
    }
}

/// `LIMIT 3` over a computed source — one the scan owns, not a stored
/// collection — stops the scan at the third row at every batch size.
#[test]
fn a_limit_over_a_computed_source_scans_only_the_rows_it_keeps() {
    let engine = Engine::new();
    let q = "SELECT VALUE x FROM [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] AS x LIMIT 3";
    for batch_size in [1, 1024] {
        let (answer, rows) = scanned(&engine, q, TypingMode::Permissive, batch_size);
        assert_eq!(answer.unwrap().to_string(), "{{1, 2, 3}}");
        assert_eq!(rows, 3, "batch {batch_size}");
    }
}

/// Ten employees `{deptno: i % 4, projects}` with `i % 3` projects each.
fn unnest_fixture() -> Engine {
    let engine = Engine::new();
    engine.register(
        "emp",
        Value::Bag(
            (0..10)
                .map(|i| {
                    let mut t = Tuple::new();
                    t.insert("id", Value::Int(i));
                    t.insert("deptno", Value::Int(i % 4));
                    t.insert(
                        "projects",
                        Value::Array((0..i % 3).map(|j| Value::Int(10 * i + j)).collect()),
                    );
                    Value::Tuple(t)
                })
                .collect(),
        ),
    );
    engine
}

/// The pushed conjunct filters the left before the UNNEST opens: with
/// stats on (the binding-stream path) the scan counts every employee but
/// only the passing rows' projects; the literal plan unnests them all.
#[test]
fn pushdown_below_unnest_scans_only_the_passing_rows_projects() {
    let engine = unnest_fixture();
    let q = "SELECT VALUE p FROM emp AS e, e.projects AS p WHERE e.deptno = 1";
    let run = |optimize| {
        engine
            .with_config(SessionConfig {
                optimize,
                ..SessionConfig::default()
            })
            .query_with_stats(q)
            .unwrap()
    };
    let (pushed, literal) = (run(true), run(false));
    assert_eq!(pushed.canonical(), literal.canonical());
    // deptno 1: ids 1, 5, 9 with 1, 2, 0 projects. All ten hold 9.
    assert_eq!(pushed.canonical().to_string(), "{{10, 50, 51}}");
    assert_eq!(pushed.stats().unwrap().rows_scanned, 10 + 3);
    assert_eq!(literal.stats().unwrap().rows_scanned, 10 + 9);
}

/// The optimized plan carries the correlate's left filter; the
/// paper-literal plan is unchanged, byte for byte.
#[test]
fn explain_shows_the_left_filter_and_the_literal_plan_is_unchanged() {
    let engine = unnest_fixture();
    let q = "SELECT p AS p FROM emp AS e, e.projects AS p WHERE e.deptno = 1 AND p > 10";
    let optimized = engine.explain(q).unwrap();
    assert!(
        optimized.contains("correlate left-filter (e.deptno = 1)\n"),
        "{optimized}"
    );
    let literal = engine
        .with_config(SessionConfig {
            optimize: false,
            ..SessionConfig::default()
        })
        .explain(q)
        .unwrap();
    assert_eq!(
        literal,
        "select value {'p': p}\n  filter ((e.deptno = 1) AND (p > 10))\n    from\n      \
         correlate\n        scan @emp as e\n        scan e.projects as p\n"
    );
}

/// An inner hash join over an empty build reads no row of a bare-scan
/// probe side, on the binding stream (batch 1) as on the spine (batch
/// 1024) — with an AT variable, which keeps the scan off the spine, too.
#[test]
fn an_empty_build_reads_no_probe_row_at_any_batch_size() {
    let engine = Engine::new();
    engine
        .load_pnotation(
            "u",
            "[{'k': 1}, {'k': 2}, {'k': 3}, {'k': 4}, {'k': 5}, {'k': 6}, {'k': 7}, {'k': 8}]",
        )
        .unwrap();
    engine.load_pnotation("w", "{{}}").unwrap();
    for q in [
        "SELECT VALUE [e.k, d.k] FROM u AS e, w AS d WHERE e.k = d.k",
        "SELECT VALUE [e.k, d.k] FROM u AS e JOIN w AS d ON e.k = d.k",
        "SELECT VALUE [e.k, d.k, i] FROM u AS e AT i, w AS d WHERE e.k = d.k",
    ] {
        for typing in [TypingMode::Permissive, TypingMode::StrictError] {
            let at_one = scanned(&engine, q, typing, 1);
            assert_eq!(at_one, (Ok(Value::Bag(Vec::new())), 0), "{typing:?}: {q}");
            assert_eq!(scanned(&engine, q, typing, 1024), at_one, "{typing:?}: {q}");
        }
    }
}

/// `n` tuples `{k: i, v: 7i, ns: [7i, -1]}`: unique keys, so an equi-join
/// of two of them is 1:1 and the correlated unnest of `ns` matches once.
fn key_rows(n: i64) -> Value {
    let rows = (0..n).map(|i| {
        let mut t = Tuple::with_capacity(3);
        t.insert("k", Value::Int(i));
        t.insert("v", Value::Int(7 * i));
        t.insert("ns", Value::Array(vec![Value::Int(7 * i), Value::Int(-1)]));
        Value::Tuple(t)
    });
    Value::Bag(rows.collect())
}

/// An uncorrelated equi-join plans a hash join (the optimizer off keeps
/// the nested loop) that answers like the nested loop, builds its right
/// side once, never rescans it and probes once per left row. A correlated
/// join keeps the nested loop and re-evaluates its right side; a LEFT
/// equi-join hashes too and pads the left rows it cannot match.
#[test]
fn equi_joins_hash_and_correlated_joins_keep_the_nested_loop() {
    const EQUI: &str = "SELECT VALUE [x.v, y.v] FROM s.l AS x JOIN s.r AS y ON x.k = y.k";
    const CORRELATED: &str = "SELECT VALUE [x.k, y] FROM s.l AS x JOIN x.ns AS y ON x.v = y";
    const LEFT: &str = "SELECT VALUE [x.k, y.v] FROM s.l AS x LEFT JOIN s.half AS y ON x.k = y.k";
    for n in [100, 1_000] {
        let engine = Engine::new();
        engine.register("s.l", key_rows(n));
        engine.register("s.r", key_rows(n));
        engine.register("s.half", key_rows(n / 2));
        let raw = engine.with_config(SessionConfig {
            optimize: false,
            ..SessionConfig::default()
        });
        let plan = engine.explain(EQUI).unwrap();
        assert!(plan.contains("hash join"), "{plan}");
        let plan = raw.explain(EQUI).unwrap();
        assert!(!plan.contains("hash join"), "{plan}");

        let run = engine.query_with_stats(EQUI).unwrap();
        assert_eq!(run.len(), n as usize);
        assert_eq!(run.canonical(), raw.query(EQUI).unwrap().canonical());
        let stats = run.stats().unwrap();
        assert!(stats.join_probes <= 2 * n as u64, "{}", stats.join_probes);
        assert_eq!(stats.right_rescans, 0);
        assert_eq!(stats.join_build_rows, n as u64);

        if n == 100 {
            let plan = engine.explain(CORRELATED).unwrap();
            assert!(!plan.contains("hash join"), "{plan}");
            let run = engine.query_with_stats(CORRELATED).unwrap();
            assert_eq!(run.len(), n as usize);
            assert!(run.stats().unwrap().right_rescans > 0);

            let plan = engine.explain(LEFT).unwrap();
            assert!(plan.contains("left hash join"), "{plan}");
            let padded = engine.query(LEFT).unwrap();
            assert_eq!(padded.len(), n as usize);
            assert_eq!(padded.canonical(), raw.query(LEFT).unwrap().canonical());
        }
    }
}
