//! End-to-end serving tests: real TCP connections against [`Server`],
//! covering the wire round trip, parameters, DML visibility through the
//! shared catalog, the cache/epoch staleness invariant, structured
//! shedding, error diagnostics, and a threaded chaos storm (concurrent
//! readers + failing and succeeding DML + budget-tripped queries) after
//! which the schema-guarded collection must be byte-identical and the
//! server must have caught zero panics.

use std::time::Duration;

use sqlpp::{Engine, ExecOutcome, Limits, SessionConfig, SpillConfig};
use sqlpp_server::{wire::Response, Client, Server, ServerConfig};
use sqlpp_value::{tuple, Tuple, Value};

fn fixture() -> Engine {
    let engine = Engine::new();
    engine
        .load_pnotation(
            "emp",
            "{{ {'id': 1, 'name': 'Ann', 'sal': 90, 'dept': 'eng'},
                {'id': 2, 'name': 'Bo',  'sal': 70, 'dept': 'eng'},
                {'id': 3, 'name': 'Cy',  'sal': 40, 'dept': 'ops'} }}",
        )
        .unwrap();
    engine
}

fn rows(resp: Response) -> Value {
    match resp {
        Response::Rows(v) => v,
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn query_round_trip_over_tcp() {
    let server = Server::start(fixture(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let v = rows(
        client
            .query("SELECT VALUE e.name FROM emp AS e WHERE e.sal > 50 ORDER BY e.name")
            .unwrap(),
    );
    assert_eq!(v.to_string(), "{{'Ann', 'Bo'}}");
    assert_eq!(server.stats().served, 1);
    server.shutdown();
}

#[test]
fn positional_params_round_trip() {
    let server = Server::start(fixture(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let v = rows(
        client
            .query_with_params(
                "SELECT VALUE e.name FROM emp AS e WHERE e.sal > ? AND e.dept = ?",
                vec![Value::Int(50), Value::Str("eng".into())],
            )
            .unwrap(),
    );
    assert_eq!(v.to_string(), "{{'Ann', 'Bo'}}");
    // The same (cached) plan with different parameters.
    let v = rows(
        client
            .query_with_params(
                "SELECT VALUE e.name FROM emp AS e WHERE e.sal > ? AND e.dept = ?",
                vec![Value::Int(0), Value::Str("ops".into())],
            )
            .unwrap(),
    );
    assert_eq!(v.to_string(), "{{'Cy'}}");
    assert!(server.cache_stats().hits >= 1, "second request should hit");
    server.shutdown();
}

#[test]
fn dml_through_the_server_is_visible_to_the_shared_catalog() {
    let engine = fixture();
    let server = Server::start(engine.clone(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let v = rows(
        client
            .query("INSERT INTO emp VALUE {'id': 9, 'name': 'Zed', 'sal': 10, 'dept': 'hr'}")
            .unwrap(),
    );
    assert_eq!(v.to_string(), "{'inserted': 1}");
    // Visible on the caller's engine handle (one catalog, many views)…
    let local = engine.query("SELECT VALUE COUNT(*) FROM emp AS e").unwrap();
    assert_eq!(local.canonical().to_string(), "{{4}}");
    // …and to the next request on the wire.
    let v = rows(client.query("SELECT VALUE COUNT(*) FROM emp AS e").unwrap());
    assert_eq!(v.to_string(), "{{4}}");
    server.shutdown();
}

/// Every statement kind over the wire answers exactly like the same
/// call on a twin in-process engine — one pipeline behind both doors.
/// The query runs twice (cache miss, then hit) and must answer
/// byte-identically; EXPLAIN and params-on-DML cross the wire too.
#[test]
fn every_statement_kind_answers_like_the_in_process_engine() {
    let twin = fixture();
    let served = fixture();
    let server = Server::start(served.clone(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // The in-process answer in wire shape: rows, or the summary tuple.
    let local = |text: &str| -> Result<String, sqlpp::Error> {
        Ok(match twin.execute(text)? {
            ExecOutcome::Rows(r) => r.into_value().to_string(),
            ExecOutcome::Inserted { count } => format!("{{'inserted': {count}}}"),
            ExecOutcome::Updated { count } => format!("{{'updated': {count}}}"),
            ExecOutcome::Deleted { count } => format!("{{'deleted': {count}}}"),
            ExecOutcome::Created { name, .. } => format!("{{'created': '{name}'}}"),
            ExecOutcome::Explained { text } => text,
        })
    };
    // An operator tree without its per-run `[… time=…]` annotations.
    let tree = |plan: &str| -> String {
        let ops = plan.lines().take_while(|l| !l.starts_with("phases:"));
        ops.map(|l| l.split(" [").next().unwrap_or(l))
            .collect::<Vec<_>>()
            .join("\n")
    };

    let q = "SELECT VALUE e.name FROM emp AS e WHERE e.sal > 50 ORDER BY e.name";
    let miss = client.query(q).unwrap();
    let hit = client.query(q).unwrap();
    assert_eq!(
        sqlpp_server::wire::encode_response(&miss),
        sqlpp_server::wire::encode_response(&hit)
    );
    assert!(server.cache_stats().hits >= 1, "second request should hit");
    assert_eq!(rows(hit).to_string(), local(q).unwrap());

    for stmt in [
        "INSERT INTO emp VALUE {'id': 4, 'name': 'Di', 'sal': 55.5, 'dept': 'it''s'}",
        "INSERT INTO emp SELECT VALUE {'id': e.id + 10, 'name': e.name} FROM emp AS e",
        "UPDATE emp AS e SET e.sal = e.sal + 1 WHERE e.dept = 'eng'",
        "DELETE FROM emp AS e WHERE e.id = 3",
        "CREATE TABLE made (id INT, label STRING)",
        q,
    ] {
        let over_wire = rows(client.query(stmt).unwrap());
        assert_eq!(over_wire.to_string(), local(stmt).unwrap(), "{stmt}");
    }
    let explain = format!("EXPLAIN {q}");
    let plan = rows(client.query(&explain).unwrap()).path("plan");
    assert_eq!(plan, Value::Str(local(&explain).unwrap()));
    let analyze = format!("EXPLAIN ANALYZE {q}");
    match rows(client.query(&analyze).unwrap()).path("plan") {
        Value::Str(text) => {
            assert!(text.contains("phases: parse"), "{text}");
            assert_eq!(tree(&text), tree(&local(&analyze).unwrap()));
        }
        other => panic!("expected a plan, got {other}"),
    }

    // Errors carry the engine's own message under its class code.
    for (stmt, class) in [
        ("SELECT VALUE FROM WHERE", "syntax"),
        ("DELETE FROM nosuch AS n WHERE n.id = 1", "catalog"),
        ("INSERT INTO made VALUE {'id': 'x'}", "schema"),
    ] {
        match client.query(stmt).unwrap() {
            Response::Error { code, message, .. } => {
                assert_eq!(code, class, "{stmt}");
                assert_eq!(message, local(stmt).unwrap_err().to_string(), "{stmt}");
            }
            other => panic!("{stmt}: expected an error, got {other:?}"),
        }
    }
    // Parameters have no meaning on DML (the in-process API has no such
    // call): refused as a usage error before anything runs.
    let dml = "DELETE FROM emp AS e WHERE e.id = ?";
    match client.query_with_params(dml, vec![Value::Int(1)]).unwrap() {
        Response::Error { code, message, .. } => {
            assert_eq!(code, "usage");
            assert_eq!(
                message,
                "positional parameters are only supported on queries"
            );
        }
        other => panic!("expected a usage error, got {other:?}"),
    }
    // Both catalogs went through the same statements: same final state.
    let state = |e: &Engine| e.catalog().get_str("emp").unwrap().to_string();
    assert_eq!(state(&served), state(&twin));
    server.shutdown();
}

/// The headline regression writ large: a plan cached by the server must
/// not survive a schema change. The second request re-keys on the new
/// epoch, re-plans, and sees the new disambiguation — stale entries are
/// purged, never served.
#[test]
fn cached_plans_do_not_outlive_schema_changes() {
    let load = |engine: &Engine, name: &str, text: &str| {
        let v = sqlpp_formats::pnotation::from_pnotation(text).unwrap();
        let ty = sqlpp_schema::infer_collection(&v).unwrap();
        engine.register_with_schema(name, v, &ty).unwrap();
    };
    let engine = Engine::new();
    load(&engine, "a", "{{ {'name': 'from_a'} }}");
    load(&engine, "b", "{{ {'bname': 'from_b'} }}");

    let server = Server::start(engine.clone(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // §III schema-based disambiguation: only `a` has `name`, so the
    // unqualified reference resolves to it. Ask twice — the second
    // answer comes off the plan cache.
    let q = "SELECT VALUE name FROM a AS a, b AS b";
    assert_eq!(rows(client.query(q).unwrap()).to_string(), "{{'from_a'}}");
    assert_eq!(rows(client.query(q).unwrap()).to_string(), "{{'from_a'}}");
    assert!(server.cache_stats().hits >= 1);

    // The schema moves underneath the server: `b` renames its attribute
    // to `name`, `a` loses it.
    load(&engine, "a", "{{ {'aname': 'from_a'} }}");
    load(&engine, "b", "{{ {'name': 'from_b'} }}");

    // Same text, same connection: the cached plan is stale now, and the
    // epoch key forbids serving it.
    assert_eq!(rows(client.query(q).unwrap()).to_string(), "{{'from_b'}}");
    server.shutdown();
}

#[test]
fn admission_shedding_is_a_structured_response() {
    let server = Server::start(
        fixture(),
        ServerConfig {
            workers: 1,
            max_pending: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    for _ in 0..3 {
        let mut client = Client::connect(server.addr()).unwrap();
        match client.query("SELECT VALUE e.id FROM emp AS e") {
            Ok(Response::Overloaded { message }) => {
                assert!(message.contains("admission"), "{message}")
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
    }
    assert!(server.stats().shed_connections >= 3);
    server.shutdown();
}

#[test]
fn budget_trips_shed_the_request_but_not_the_session() {
    let server = Server::start(
        fixture(),
        ServerConfig {
            session: SessionConfig {
                limits: Limits::none().with_memory_bytes(64),
                ..SessionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.query("SELECT VALUE e.sal FROM emp AS e ORDER BY e.sal") {
        Ok(Response::Overloaded { message }) => {
            assert!(message.contains("memory budget"), "{message}")
        }
        other => panic!("expected budget shed, got {other:?}"),
    }
    // Same connection, cheap query: still served.
    let v = rows(
        client
            .query("SELECT VALUE e.id FROM emp AS e WHERE e.id = 1")
            .unwrap(),
    );
    assert_eq!(v.to_string(), "{{1}}");
    let stats = server.stats();
    assert_eq!(stats.shed_requests, 1);
    assert_eq!(stats.errors, 0, "a budget trip is shedding, not an error");
    server.shutdown();
}

/// A session whose byte budget is far too small for the sort still
/// completes when spilling is enabled — the breaker overflows to temp
/// files instead of shedding — and the answer is the same one an
/// unconstrained session gives.
#[test]
fn spilling_sessions_complete_over_budget_queries() {
    let engine = Engine::new();
    let rows_txt: Vec<String> = (0..200)
        .map(|i| format!("{{'id': {}, 'k': {}}}", i, (i * 67) % 200))
        .collect();
    engine
        .load_pnotation("big", &format!("{{{{ {} }}}}", rows_txt.join(", ")))
        .unwrap();
    let q = "SELECT VALUE b.id FROM big AS b ORDER BY b.k, b.id";
    let expected = engine.query(q).unwrap().into_value().to_string();

    let server = Server::start(
        engine,
        ServerConfig {
            session: SessionConfig {
                limits: Limits::none().with_memory_bytes(2_000),
                spill: Some(SpillConfig::default()),
                ..SessionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(rows(client.query(q).unwrap()).to_string(), expected);
    assert_eq!(server.stats().shed_requests, 0);
    server.shutdown();
}

/// The spill-bytes cap is the session's second line of defense: a query
/// that would write more temp-file bytes than the session allows sheds
/// with a structured `Overloaded`, and the connection stays usable.
#[test]
fn spill_budget_trips_shed_like_memory_budgets() {
    let engine = Engine::new();
    let rows_txt: Vec<String> = (0..200)
        .map(|i| format!("{{'id': {}, 'k': {}}}", i, (i * 67) % 200))
        .collect();
    engine
        .load_pnotation("big", &format!("{{{{ {} }}}}", rows_txt.join(", ")))
        .unwrap();
    let server = Server::start(
        engine,
        ServerConfig {
            session: SessionConfig {
                limits: Limits::none().with_memory_bytes(2_000).with_spill_bytes(64),
                spill: Some(SpillConfig::default()),
                ..SessionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.query("SELECT VALUE b.id FROM big AS b ORDER BY b.k, b.id") {
        Ok(Response::Overloaded { message }) => {
            assert!(message.contains("spill budget"), "{message}")
        }
        other => panic!("expected spill-budget shed, got {other:?}"),
    }
    // Same connection, cheap query: still served.
    let v = rows(
        client
            .query("SELECT VALUE b.id FROM big AS b WHERE b.id = 1")
            .unwrap(),
    );
    assert_eq!(v.to_string(), "{{1}}");
    assert_eq!(server.stats().errors, 0, "a spill cap trip is shedding");
    server.shutdown();
}

/// Eight persistent sessions, 20 requests each: reads over four cached
/// shapes, and in every eight requests one INSERT and one echo of the
/// session's own id through a parameter. Every request is answered with
/// rows, every echo carries its own session's id (no result bleeds across
/// sessions), the shared plan cache hits, and every INSERT lands once.
#[test]
fn mixed_sessions_each_see_only_their_own_results() {
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
    let bag =
        |n: i64, row: fn(i64) -> Tuple| Value::Bag((0..n).map(|i| Value::Tuple(row(i))).collect());
    let engine = Engine::new();
    engine.register(
        "s.emp",
        bag(
            200,
            |i| tuple! { "id" => i, "dept" => i % 8, "sal" => 1000 + 7 * i },
        ),
    );
    engine.register(
        "s.dept",
        bag(8, |i| tuple! { "dno" => i, "dname" => format!("d{i}") }),
    );
    engine.register(
        "s.region",
        bag(4, |i| tuple! { "rno" => i, "dno" => 2 * i }),
    );
    engine.register("s.events", Value::Bag(Vec::new()));
    engine.register("s.one", Value::Bag(vec![Value::Int(0)]));
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            workers: CLIENTS as usize,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|id| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
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
                    let v = rows(resp.unwrap());
                    if i % 8 == 3 {
                        assert_eq!(v.to_string(), format!("{{{{{id}}}}}"), "client {id}");
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("a client failed");
    }
    let stats = server.stats();
    assert_eq!(stats.served, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!((stats.errors, stats.panics), (0, 0));
    assert!(server.cache_stats().hits > 0, "the shared cache never hit");
    let events = engine
        .query("SELECT VALUE COUNT(*) FROM s.events AS e")
        .unwrap();
    assert_eq!(
        events.canonical().to_string(),
        format!("{{{{{}}}}}", CLIENTS * (PER_CLIENT / 8))
    );
    server.shutdown();
}

#[test]
fn errors_carry_code_and_diagnostics() {
    let server = Server::start(fixture(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.query("SELECT VALUE FROM WHERE").unwrap() {
        Response::Error {
            code, diagnostics, ..
        } => {
            assert_eq!(code, "syntax");
            assert!(!diagnostics.is_empty(), "syntax errors must carry spans");
            assert!(diagnostics[0].end >= diagnostics[0].start);
        }
        other => panic!("expected error, got {other:?}"),
    }
    // An expired deadline surfaces as shedding (the governor refused),
    // not as an error.
    let deadline = Server::start(
        fixture(),
        ServerConfig {
            session: SessionConfig {
                limits: Limits::none().with_time(Duration::ZERO),
                ..SessionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c2 = Client::connect(deadline.addr()).unwrap();
    match c2.query("SELECT VALUE e.id FROM emp AS e").unwrap() {
        Response::Overloaded { .. } => {}
        other => panic!("expected deadline shed, got {other:?}"),
    }
    deadline.shutdown();
    server.shutdown();
}

/// The threaded chaos storm. One engine, two servers over its catalog
/// (one unlimited, one with a 64-byte memory budget), and three kinds of client
/// hammering them concurrently:
///
/// * readers running joins/aggregates (some through the plan cache),
/// * writers — failing DML against a schema-guarded table and three
///   threads of succeeding DML racing on one open collection,
/// * budget clients whose sorts always trip the 64-byte budget.
///
/// Afterwards: the guarded table is byte-identical (every bad insert
/// refused atomically, under full concurrency), the open table holds
/// exactly the successful inserts (no lost updates between concurrent
/// writers), zero panics were caught, and both servers still answer.
#[test]
fn threaded_chaos_storm_preserves_catalog_integrity() {
    let engine = fixture();
    engine
        .execute("CREATE TABLE guarded (id INT, label STRING)")
        .unwrap();
    engine
        .execute("INSERT INTO guarded VALUE {'id': 1, 'label': 'seed'}")
        .unwrap();
    engine.register("events", Value::Bag(Vec::new()));
    let guarded_before = engine
        .query("SELECT VALUE g FROM guarded AS g")
        .unwrap()
        .canonical()
        .to_string();

    let main = Server::start(engine.clone(), ServerConfig::default()).unwrap();
    let budgeted = Server::start(
        engine.clone(),
        ServerConfig {
            session: SessionConfig {
                limits: Limits::none().with_memory_bytes(64),
                ..SessionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();

    const PER_THREAD: usize = 30;
    let main_addr = main.addr();
    let budget_addr = budgeted.addr();
    let mut handles = Vec::new();

    // Readers: mixed shapes, repeated, so the shared cache is hot while
    // DML churns the data underneath.
    for t in 0..3 {
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(main_addr).unwrap();
            for i in 0..PER_THREAD {
                let q = match (t + i) % 3 {
                    0 => "SELECT e.dept AS dept, COUNT(*) AS n FROM emp AS e GROUP BY e.dept",
                    1 => "SELECT VALUE e.name FROM emp AS e ORDER BY e.sal DESC",
                    _ => "SELECT DISTINCT VALUE e.dept FROM emp AS e",
                };
                match c.query(q).unwrap() {
                    Response::Rows(_) => {}
                    other => panic!("reader {t} failed: {other:?}"),
                }
            }
        }));
    }
    // Failing writers: schema violations, refused atomically every time.
    for t in 0..2 {
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(main_addr).unwrap();
            for i in 0..PER_THREAD {
                let q =
                    format!("INSERT INTO guarded VALUE {{'id': {i}, 'label': 'x', 'oops': {t}}}");
                match c.query(&q).unwrap() {
                    Response::Error { code, .. } => assert_eq!(code, "schema"),
                    other => panic!("bad insert was not refused: {other:?}"),
                }
            }
        }));
    }
    // Succeeding writers: open table, every insert lands. Three of
    // them racing on one collection is the lost-update canary — without
    // the catalog's DML guard, concurrent snapshot-and-replace commits
    // silently drop each other's rows.
    for t in 0..3 {
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(main_addr).unwrap();
            for i in 0..PER_THREAD {
                let q = format!("INSERT INTO events VALUE {{'w': {t}, 'seq': {i}}}");
                match c.query(&q).unwrap() {
                    Response::Rows(_) => {}
                    other => panic!("good insert failed: {other:?}"),
                }
            }
        }));
    }
    // Budget clients: every sort trips the 64-byte budget — shed, never an
    // error, and the session keeps being served.
    for _ in 0..2 {
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(budget_addr).unwrap();
            for _ in 0..PER_THREAD {
                match c
                    .query("SELECT VALUE e.sal FROM emp AS e ORDER BY e.sal")
                    .unwrap()
                {
                    Response::Overloaded { .. } => {}
                    other => panic!("budget query was not shed: {other:?}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("chaos client panicked");
    }

    // The guarded table survived every concurrent violation bytewise.
    let guarded_after = engine
        .query("SELECT VALUE g FROM guarded AS g")
        .unwrap()
        .canonical()
        .to_string();
    assert_eq!(guarded_before, guarded_after);
    // The open table holds exactly the successful inserts — none lost
    // to a concurrent writer's commit.
    let n = engine
        .query("SELECT VALUE COUNT(*) FROM events AS e")
        .unwrap();
    assert_eq!(
        n.canonical().to_string(),
        format!("{{{{{}}}}}", 3 * PER_THREAD)
    );
    // Nothing panicked, and refusals were classified as shedding.
    assert_eq!(main.stats().panics, 0);
    assert_eq!(budgeted.stats().panics, 0);
    assert_eq!(budgeted.stats().shed_requests, 2 * PER_THREAD as u64);
    // Both servers still answer.
    let mut c = Client::connect(main.addr()).unwrap();
    rows(
        c.query("SELECT VALUE e.id FROM emp AS e WHERE e.id = 1")
            .unwrap(),
    );
    let mut c = Client::connect(budgeted.addr()).unwrap();
    rows(c.query("SELECT VALUE g.id FROM guarded AS g").unwrap());
    budgeted.shutdown();
    main.shutdown();
}
