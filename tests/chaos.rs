//! Chaos suite: seeded, deterministic fault injection across queries
//! and DML (ISSUE 5 acceptance: ≥ 200 seeded runs, zero panics, and a
//! byte-identical catalog after every failed DML).
//!
//! Each run derives a [`FaultPlan`] from a printed seed — "fail the k-th
//! visit to the buffer / catalog / operator site" — wires it into the
//! engine through [`FaultInjector`], and asserts the three graceful-failure
//! invariants:
//!
//! 1. no panic crosses the public API boundary (every statement is run
//!    under `catch_unwind`; a panic fails the suite with its seed);
//! 2. the catalog is unchanged after any failed DML (snapshot compare of
//!    every stored collection's rendered value);
//! 3. the engine remains fully usable after a failed statement — the
//!    next query on the same session succeeds with correct results.
//!
//! A plan that never fires (the workload didn't reach the k-th visit) is
//! a boring pass: the statement must then succeed normally.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use sqlpp::{Engine, FaultInjector, SessionConfig};
use sqlpp_eval::EvalError;
use sqlpp_testkit::fault::FaultPlan;

/// The engine-side site names (`FaultSite::name()` values). Stable API:
/// `govern::tests::fault_site_names_are_stable` pins them.
const SITES: &[&str] = &["buffer", "catalog", "operator"];

/// Query shapes chosen to exercise every governed choke point: pipeline
/// breakers (ORDER BY, GROUP BY, DISTINCT, PIVOT, a window, join build),
/// catalog scans, and per-row operator evaluation — in the row loop (a
/// filtered projection, sort or DISTINCT, a standalone WHERE over an
/// UNNEST) and in the programs an operator fetches when it opens (a
/// window, a non-equi nested-loop join).
const SELECT_SHAPES: &[&str] = &[
    "SELECT VALUE e.name FROM emp AS e ORDER BY e.sal DESC",
    "SELECT e.dept AS dept, COUNT(*) AS n FROM emp AS e GROUP BY e.dept",
    "SELECT DISTINCT VALUE e.dept FROM emp AS e",
    "SELECT e.name AS name, d.loc AS loc FROM emp AS e JOIN dept AS d ON e.dept = d.dept",
    "SELECT VALUE e.sal + 1 FROM emp AS e WHERE e.sal > 10",
    "SELECT VALUE e.name FROM emp AS e WHERE e.sal > 30 ORDER BY e.sal DESC",
    "SELECT DISTINCT VALUE e.dept FROM emp AS e WHERE e.sal > 30",
    "PIVOT e.sal AT e.name FROM emp AS e",
    "SELECT VALUE [e.name, ROW_NUMBER() OVER (PARTITION BY e.dept ORDER BY e.sal)] FROM emp AS e",
    "SELECT VALUE [e.name, x] FROM emp AS e, [e.id, e.sal] AS x WHERE x > e.id + 10",
    "SELECT e.name AS name, d.loc AS loc FROM emp AS e JOIN dept AS d ON e.dept < d.dept",
];

/// How often each [`SELECT_SHAPES`] entry visits the buffer, catalog and
/// operator sites when no fault fires. A seeded plan fails the k-th
/// visit to one site, so these counts decide which plans fire.
const SELECT_VISITS: &[[u64; 3]] = &[
    [5, 1, 11],
    [3, 1, 14],
    [5, 1, 6],
    [3, 2, 14],
    [0, 1, 11],
    [4, 1, 14],
    [4, 1, 10],
    [0, 1, 11],
    [5, 1, 16],
    [0, 1, 21],
    [0, 6, 21],
];

const DML_SHAPES: &[&str] = &[
    "INSERT INTO emp SELECT VALUE {'id': e.id + 100, 'name': e.name, \
     'sal': e.sal + 1, 'dept': e.dept} FROM emp AS e WHERE e.sal > 10",
    "DELETE FROM emp AS e WHERE e.sal > 50",
    "UPDATE emp AS e SET e.sal = e.sal * 2 WHERE e.dept = 'eng'",
];

fn fixture() -> Engine {
    let engine = Engine::new();
    engine
        .load_pnotation(
            "emp",
            "{{ {'id': 1, 'name': 'Ann', 'sal': 90, 'dept': 'eng'},
                {'id': 2, 'name': 'Bo',  'sal': 70, 'dept': 'eng'},
                {'id': 3, 'name': 'Cy',  'sal': 40, 'dept': 'ops'},
                {'id': 4, 'name': 'Di',  'sal': 20, 'dept': 'ops'},
                {'id': 5, 'name': 'Ed',  'sal': 55, 'dept': 'hr'} }}",
        )
        .unwrap();
    engine
        .load_pnotation(
            "dept",
            "{{ {'dept': 'eng', 'loc': 'SFO'},
                {'dept': 'ops', 'loc': 'NYC'},
                {'dept': 'hr',  'loc': 'AUS'} }}",
        )
        .unwrap();
    engine
}

/// A byte-comparable rendering of every collection in the catalog.
fn catalog_snapshot(engine: &Engine) -> Vec<(String, String)> {
    let mut names = engine.catalog().names();
    names.sort_by_key(|n| n.to_string());
    names
        .into_iter()
        .map(|n| {
            let v = engine.catalog().get(&n).expect("listed name resolves");
            (n.to_string(), v.to_string())
        })
        .collect()
}

/// Derives a session over `engine`'s catalog with `plan` wired in as the
/// fault hook.
fn chaos_session(engine: &Engine, plan: &Arc<FaultPlan>) -> Engine {
    let plan = Arc::clone(plan);
    engine.with_config(SessionConfig {
        fault: Some(FaultInjector::new(move |site| {
            plan.should_fail(site.name())
                .then(|| EvalError::Resource(format!("injected fault at {}", site.name())))
        })),
        ..SessionConfig::default()
    })
}

/// The clean follow-up probe: must succeed on the same session after a
/// failure. Only called once the plan has fired — a plan fires at most
/// once, so nothing can re-trip it here. (Before the plan fires, the
/// probe itself could legitimately reach the k-th visit and fail, which
/// would test nothing.)
fn assert_engine_usable(session: &Engine, seed: u64) {
    let r = session
        .query("SELECT VALUE COLL_COUNT(SELECT VALUE e.id FROM emp AS e)")
        .unwrap_or_else(|e| panic!("seed {seed}: engine unusable after failure: {e}"));
    assert!(
        r.rows()[0].as_int().unwrap() >= 1,
        "seed {seed}: follow-up query returned nonsense"
    );
}

#[test]
fn chaos_select_no_panic_and_engine_survives() {
    let mut fired = 0u32;
    for seed in 0..128u64 {
        let engine = fixture();
        let plan = Arc::new(FaultPlan::seeded(seed, SITES, 12));
        let session = chaos_session(&engine, &plan);
        let shape = SELECT_SHAPES[(seed as usize) % SELECT_SHAPES.len()];

        let outcome = catch_unwind(AssertUnwindSafe(|| session.query(shape)));
        let result = outcome
            .unwrap_or_else(|_| panic!("seed {seed}: panic crossed the API boundary on {shape:?}"));
        match result {
            Ok(_) => assert!(
                !plan.fired(),
                "seed {seed}: fault fired but query succeeded ({shape:?})"
            ),
            Err(e) => {
                assert!(plan.fired(), "seed {seed}: spurious failure: {e}");
                assert!(
                    e.to_string().contains("injected fault"),
                    "seed {seed}: wrong error surfaced: {e}"
                );
                fired += 1;
                assert_engine_usable(&session, seed);
            }
        }
    }
    // The suite is only meaningful if a healthy fraction of plans fire.
    assert!(fired >= 32, "only {fired}/128 select plans fired");
}

#[test]
fn chaos_dml_failed_statements_leave_catalog_byte_identical() {
    let mut fired = 0u32;
    for seed in 0..128u64 {
        let engine = fixture();
        // The operator site is visited once per operator evaluation and
        // once per *compiled expression* evaluation (not per expression
        // node), so a five-row DML makes about ten visits: ordinals past
        // 8 would mostly never fire.
        let plan = Arc::new(FaultPlan::seeded(seed, SITES, 8));
        let session = chaos_session(&engine, &plan);
        let shape = DML_SHAPES[(seed as usize) % DML_SHAPES.len()];
        let before = catalog_snapshot(&engine);

        let outcome = catch_unwind(AssertUnwindSafe(|| session.execute(shape)));
        let result = outcome
            .unwrap_or_else(|_| panic!("seed {seed}: panic crossed the API boundary on {shape:?}"));
        match result {
            Ok(_) => assert!(
                !plan.fired(),
                "seed {seed}: fault fired but DML succeeded ({shape:?})"
            ),
            Err(e) => {
                assert!(plan.fired(), "seed {seed}: spurious failure: {e}");
                let after = catalog_snapshot(&engine);
                assert_eq!(
                    before, after,
                    "seed {seed}: catalog changed after failed DML ({shape:?})"
                );
                fired += 1;
                assert_engine_usable(&session, seed);
            }
        }
    }
    assert!(fired >= 32, "only {fired}/128 DML plans fired");
}

/// A fault that lands *inside* a call instruction: the correlated
/// subquery below runs once per outer row from within the projection's
/// bytecode program, so most operator-site visits happen while an outer
/// VM frame is live. Sweeping the failing ordinal over every visit the
/// statement makes fails each of them once — setup, outer rows, and every
/// nested evaluation — and each must surface the injected error (never a
/// panic or a poisoned evaluator) and leave the session answering.
#[test]
fn chaos_fault_inside_a_correlated_subquery_call_unwinds_cleanly() {
    const OUTER_ONLY: &str = "SELECT VALUE e.sal FROM emp AS e";
    const CORRELATED: &str = "SELECT VALUE {'name': e.name, 'peers': \
         (SELECT VALUE p.name FROM emp AS p WHERE p.dept = e.dept AND p.id != e.id)} \
         FROM emp AS e WHERE EXISTS (SELECT VALUE d FROM dept AS d WHERE d.dept = e.dept)";
    let visits = |shape: &str| {
        let plan = Arc::new(FaultPlan::fail_kth("operator", 0));
        chaos_session(&fixture(), &plan).query(shape).unwrap();
        plan.hits("operator")
    };
    let total = visits(CORRELATED);
    assert!(
        total > 4 * visits(OUTER_ONLY),
        "the subqueries' own evaluations must dominate the {total} visits"
    );
    for k in 1..=total {
        let engine = fixture();
        let plan = Arc::new(FaultPlan::fail_kth("operator", k));
        let session = chaos_session(&engine, &plan);
        let outcome = catch_unwind(AssertUnwindSafe(|| session.query(CORRELATED)));
        let err = outcome
            .unwrap_or_else(|_| panic!("k {k}: panic crossed the API boundary"))
            .expect_err("every ordinal up to the visit count must fire");
        assert!(plan.fired(), "k {k}: spurious failure: {err}");
        assert!(
            err.to_string().contains("injected fault"),
            "k {k}: wrong error surfaced: {err}"
        );
        assert_engine_usable(&session, k);
        let again = session.query(CORRELATED).unwrap();
        assert_eq!(again.len(), 5, "k {k}: retry after the fault lost rows");
    }
}

/// An UNNEST whose WHERE leads with a conjunct over the left side: the
/// correlate filters each employee before its skills are unnested — on
/// the fused spine, whose every program run is an operator fault site;
/// the employee without a `dept` passes it (an unknown verdict is
/// no rejection) and is unnested, for the WHERE to drop. Sweeping the
/// failing ordinal over every visit fails the left filter, the UNNEST and
/// the WHERE each in turn: the injected error is a resource error, which
/// the filter raises rather than parks, and it must surface every time.
#[test]
fn chaos_fault_in_a_pushed_left_filter_unwinds_cleanly() {
    const UNNEST: &str = "SELECT e.name AS name, s AS skill FROM emp AS e, e.skills AS s \
         WHERE e.dept = 'eng' AND s <> 'cobol'";
    let fixture = || {
        let engine = Engine::new();
        engine
            .load_pnotation(
                "emp",
                "{{ {'name': 'Ann', 'dept': 'eng', 'skills': ['rust', 'sql']},
                    {'name': 'Bo',  'dept': 'eng', 'skills': ['cobol']},
                    {'name': 'Cy',  'dept': 'ops', 'skills': ['bash', 'perl']},
                    {'name': 'Di',                 'skills': ['go']},
                    {'name': 'Ed',  'dept': 'eng', 'skills': []} }}",
            )
            .unwrap();
        engine
    };
    assert!(fixture()
        .explain(UNNEST)
        .unwrap()
        .contains("correlate left-filter (e.dept = 'eng')"));
    let visits = |optimize: bool| {
        let plan = Arc::new(FaultPlan::fail_kth("operator", 0));
        let session = chaos_session(&fixture(), &plan);
        let session = session.with_config(SessionConfig {
            optimize,
            ..session.config().clone()
        });
        assert_eq!(session.query(UNNEST).unwrap().len(), 2);
        plan.hits("operator")
    };
    // Operator visits: one for the plan, two projections, then per row.
    // The literal plan opens all five employees' skills and runs the
    // WHERE on all six skills: 1 + 2 + 5 + 6 = 14. The pushdown runs the
    // left filter on five employees, opens the skills of the four it
    // does not reject (Ann, Bo, Di, Ed) and runs the WHERE on their four
    // skills: 1 + 2 + 5 + 4 + 4 = 16 — so every ordinal past the plan's
    // own visit lands on a different evaluation than without it.
    let total = visits(true);
    assert_eq!((total, visits(false)), (16, 14));
    for k in 1..=total {
        let plan = Arc::new(FaultPlan::fail_kth("operator", k));
        let session = chaos_session(&fixture(), &plan);
        let outcome = catch_unwind(AssertUnwindSafe(|| session.query(UNNEST)));
        let err = outcome
            .unwrap_or_else(|_| panic!("k {k}: panic crossed the API boundary"))
            .expect_err("every ordinal up to the visit count must fire");
        assert!(
            err.to_string().contains("injected fault"),
            "k {k}: wrong error surfaced: {err}"
        );
        let again = session.query(UNNEST).unwrap();
        assert_eq!(again.len(), 2, "k {k}: retry after the fault lost rows");
    }
}

/// The fused spine under fault injection: every program it runs on a
/// borrowed row — a predicate, a projection, a grouping key, an
/// aggregate body — is an operator fault site, as each expression
/// evaluation is on the binding stream, so a spine shape visits the site
/// as often at batch 1024 as at batch 1, where the spine never runs.
/// Sweeping the failing ordinal over every visit of a scan → filter →
/// project shape and a folded GROUP BY fails each of them once: the
/// injected error surfaces every time, no panic crosses the API, and the
/// session answers afterwards.
#[test]
fn chaos_fault_on_the_fused_spine_unwinds_cleanly() {
    const SHAPES: &[(&str, usize)] = &[
        ("SELECT VALUE e.sal + 1 FROM emp AS e WHERE e.sal > 10", 5),
        (
            "SELECT e.dept AS dept, COUNT(*) AS n, SUM(e.sal) AS s \
             FROM emp AS e WHERE e.sal > 30 GROUP BY e.dept",
            3,
        ),
    ];
    let session = |plan: &Arc<FaultPlan>, batch_size: usize| {
        let session = chaos_session(&fixture(), plan);
        session.with_config(SessionConfig {
            batch_size,
            ..session.config().clone()
        })
    };
    for &(shape, rows) in SHAPES {
        let visits = |batch_size| {
            let plan = Arc::new(FaultPlan::fail_kth("operator", 0));
            let run = session(&plan, batch_size).query_with_stats(shape).unwrap();
            assert_eq!(run.len(), rows, "{shape}");
            let fused = run.stats().unwrap().ops.values().any(|op| op.fused);
            assert_eq!(fused, batch_size > 1, "batch {batch_size}: {shape}");
            plan.hits("operator")
        };
        let total = visits(1024);
        assert_eq!(
            total,
            visits(1),
            "{shape}: operator visits at batch 1024 and 1"
        );
        assert!(total > 2 * rows as u64, "{shape}: only {total} visits");
        for k in 1..=total {
            let plan = Arc::new(FaultPlan::fail_kth("operator", k));
            let session = session(&plan, 1024);
            let outcome = catch_unwind(AssertUnwindSafe(|| session.query(shape)));
            let err = outcome
                .unwrap_or_else(|_| panic!("k {k}: panic crossed the API boundary on {shape}"))
                .expect_err("every ordinal up to the visit count must fire");
            assert!(plan.fired(), "k {k}: spurious failure: {err}");
            assert!(
                err.to_string().contains("injected fault"),
                "k {k}: wrong error surfaced on {shape}: {err}"
            );
            assert_engine_usable(&session, k);
            assert_eq!(session.query(shape).unwrap().len(), rows, "k {k}: {shape}");
        }
    }
}

/// Regression for the batched governor audit: a governed batched scan
/// must observe the deadline/token at least once (a huge batch cannot
/// slip past unchecked — `Governed` ticks per batch and per 64 rows of
/// batch materialization) while the *real* clock inspections amortize to
/// no more than one per 512 rows.
#[test]
fn governed_batched_scan_checks_at_least_once_and_amortizes() {
    const ROWS: i64 = 10_000;
    let engine = Engine::new();
    engine.register(
        "big",
        sqlpp::value::Value::Bag((0..ROWS).map(sqlpp::value::Value::Int).collect()),
    );
    let session = engine.with_config(SessionConfig {
        limits: sqlpp::Limits::none().with_time(std::time::Duration::from_secs(3600)),
        ..SessionConfig::default()
    });
    let run = session
        .query_with_stats("SELECT VALUE x FROM big AS x WHERE x >= 0")
        .unwrap();
    assert_eq!(run.len(), ROWS as usize);
    let stats = run.stats().expect("stats collection was on");
    assert!(
        stats.cancel_checks >= 1,
        "a governed batched scan never checked its deadline"
    );
    assert!(
        stats.cancel_checks <= ROWS as u64 / 512,
        "{} real deadline checks for {ROWS} rows — batching failed to amortize",
        stats.cancel_checks
    );

    // And the check is not vacuous: a token cancelled up front aborts
    // the same batched scan instead of running it to completion.
    let token = sqlpp::CancelToken::new();
    token.cancel();
    let session = engine.with_config(SessionConfig {
        limits: sqlpp::Limits::none().with_cancel(token),
        ..SessionConfig::default()
    });
    let err = session
        .query("SELECT VALUE x FROM big AS x WHERE x >= 0")
        .expect_err("cancelled token must abort the batched scan");
    assert!(
        err.to_string().contains("cancel"),
        "wrong error for cancelled scan: {err}"
    );
}

/// The fused spine's late-materializing consumers — a top-k in binding
/// form and an inner hash join's probe side — tick the governor once per
/// 64 scanned rows, so a deadline or a cancelled token stops them
/// mid-scan with the governor's error instead of letting them finish.
/// Every row passes a costly filter (a `LIKE` over a 1 000-character
/// string) and the last row's key raises in strict mode, so a scan that
/// ran to its end would answer with that type error instead.
#[test]
fn governed_spine_consumers_stop_mid_scan() {
    const ROWS: i64 = 12_000;
    let row = |id: i64| {
        let mut t = sqlpp::Tuple::new();
        t.insert("id", Value::Int(id));
        let k = if id == ROWS - 1 {
            Value::Str("x".into())
        } else {
            Value::Int(id)
        };
        t.insert("k", k);
        t.insert("s", Value::Str("a".repeat(1_000)));
        Value::Tuple(t)
    };
    use sqlpp::value::Value;
    let engine = Engine::new();
    engine.register("big", Value::Bag((0..ROWS).map(row).collect()));
    engine.register("trap", Value::Bag(vec![row(ROWS - 1)]));
    let small = "{{ {'k': 0} }}";
    engine.load_pnotation("small", small).unwrap();
    let shapes = [
        "SELECT VALUE e.id FROM big AS e WHERE NOT (e.s LIKE '%aaaaaaaab') \
         ORDER BY e.k + 1 LIMIT 3",
        "SELECT VALUE e.id FROM big AS e, small AS d \
         WHERE NOT (e.s LIKE '%aaaaaaaab') AND e.k + 1 = d.k",
    ];
    let strict = |limits| {
        engine.with_config(SessionConfig {
            typing: sqlpp::TypingMode::StrictError,
            limits,
            ..SessionConfig::default()
        })
    };
    for q in shapes {
        // The trap: the last row's key raises once the scan reaches it.
        let trapped = strict(sqlpp::Limits::none())
            .query(&q.replace("big", "trap"))
            .expect_err("the last row's key raises");
        assert!(trapped.to_string().contains("type error"), "{trapped}");

        let err = strict(sqlpp::Limits::none().with_time(std::time::Duration::from_millis(5)))
            .query(q)
            .expect_err("the deadline stops the scan");
        assert!(err.to_string().contains("deadline"), "{q}: {err}");

        let token = sqlpp::CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                token.cancel();
            })
        };
        let err = strict(sqlpp::Limits::none().with_cancel(token))
            .query(q)
            .expect_err("the token stops the scan");
        canceller.join().unwrap();
        assert!(
            err.to_string().contains("cancellation requested"),
            "{q}: {err}"
        );
    }
}

/// The engine-side out-of-core site names (ISSUE 9). Stable API:
/// `govern::tests::fault_site_names_are_stable` pins them.
const SPILL_SITES: &[&str] = &["spill-write", "spill-read", "temp-file"];

/// Shapes whose pipeline breakers all overflow a ~1 KB byte budget:
/// external sort, Grace GROUP BY, Grace hash join — plus a top-k that
/// stays in memory (its seeds exercise the boring no-fire pass). The
/// GROUP BY folds `COUNT(*)` into one small state per group, so it groups
/// by the 64 distinct ids to overflow.
const SPILL_SHAPES: &[&str] = &[
    "SELECT VALUE b.id FROM big AS b ORDER BY b.k, b.id",
    "SELECT b.id AS k, COUNT(*) AS n FROM big AS b GROUP BY b.id",
    "SELECT a.id AS l, b.id AS r FROM big AS a JOIN big AS b ON a.k = b.k",
    "SELECT VALUE b.id FROM big AS b ORDER BY b.k, b.id LIMIT 5",
];

fn spill_fixture() -> Engine {
    let engine = Engine::new();
    let rows: Vec<String> = (0..64)
        .map(|i| format!("{{'id': {i}, 'k': {}}}", (i * 29) % 16))
        .collect();
    engine
        .load_pnotation("big", &format!("{{{{ {} }}}}", rows.join(", ")))
        .unwrap();
    engine
}

/// Spill-path chaos (ISSUE 9): inject failures at the three out-of-core
/// sites — temp-file creation, spill writes, spill reads — under a byte
/// budget small enough that every pipeline breaker spills. Invariants:
/// no panic crosses the API, only the injected error surfaces, no temp
/// file outlives its query (success or failure), and the session keeps
/// answering — including spilling again — after a mid-spill failure.
#[test]
fn chaos_spill_sites_fail_cleanly_and_leak_no_temp_files() {
    // Without faults, every breaker but the top-k does spill.
    let unfaulted = spill_fixture().with_config(SessionConfig {
        limits: sqlpp::Limits::none().with_memory_bytes(1_000),
        spill: Some(sqlpp::SpillConfig::default()),
        ..SessionConfig::default()
    });
    for shape in &SPILL_SHAPES[..3] {
        let run = unfaulted.query_with_stats(shape).unwrap();
        assert!(
            run.stats().unwrap().spill_partitions > 0,
            "did not spill: {shape}"
        );
    }
    let mut fired = 0u32;
    for seed in 0..96u64 {
        let dir =
            std::env::temp_dir().join(format!("sqlpp-chaos-spill-{}-{seed}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let engine = spill_fixture();
        let plan = Arc::new(FaultPlan::seeded(seed, SPILL_SITES, 24));
        let hook = Arc::clone(&plan);
        let session = engine.with_config(SessionConfig {
            limits: sqlpp::Limits::none().with_memory_bytes(1_000),
            spill: Some(sqlpp::SpillConfig {
                dir: Some(dir.clone()),
            }),
            fault: Some(FaultInjector::new(move |site| {
                hook.should_fail(site.name())
                    .then(|| EvalError::Resource(format!("injected fault at {}", site.name())))
            })),
            ..SessionConfig::default()
        });
        let shape = SPILL_SHAPES[(seed as usize) % SPILL_SHAPES.len()];

        let outcome = catch_unwind(AssertUnwindSafe(|| session.query(shape)));
        let result = outcome
            .unwrap_or_else(|_| panic!("seed {seed}: panic crossed the API boundary on {shape:?}"));
        match result {
            Ok(_) => assert!(
                !plan.fired(),
                "seed {seed}: fault fired but query succeeded ({shape:?})"
            ),
            Err(e) => {
                assert!(plan.fired(), "seed {seed}: spurious failure: {e}");
                assert!(
                    e.to_string().contains("injected fault"),
                    "seed {seed}: wrong error surfaced: {e}"
                );
                fired += 1;
                // A mid-spill failure must not leave the session broken:
                // the next query — which spills again — still answers.
                let r = session
                    .query("SELECT VALUE b.id FROM big AS b ORDER BY b.k, b.id")
                    .unwrap_or_else(|e| {
                        panic!("seed {seed}: engine unusable after mid-spill failure: {e}")
                    });
                assert_eq!(r.len(), 64, "seed {seed}: follow-up lost rows");
            }
        }
        // Success or failure: every spill temp file has been reclaimed.
        let leaked: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(
            leaked.is_empty(),
            "seed {seed}: {} temp files leaked in {dir:?}",
            leaked.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(fired >= 24, "only {fired}/96 spill plans fired");
}

#[test]
fn select_shapes_visit_each_site_as_often_as_pinned() {
    let visits: Vec<[u64; 3]> = SELECT_SHAPES
        .iter()
        .map(|shape| {
            let plan = Arc::new(FaultPlan::fail_kth("buffer", 0));
            chaos_session(&fixture(), &plan)
                .query(shape)
                .unwrap_or_else(|e| panic!("no-fault plan broke {shape:?}: {e}"));
            [0, 1, 2].map(|i| plan.hits(SITES[i]))
        })
        .collect();
    assert_eq!(
        visits, SELECT_VISITS,
        "(buffer, catalog, operator) visits per shape"
    );
}

#[test]
fn fault_free_session_is_unaffected_by_the_hook_machinery() {
    // A plan with k = 0 never fires; every shape must run normally.
    let engine = fixture();
    let plan = Arc::new(FaultPlan::fail_kth("buffer", 0));
    let session = chaos_session(&engine, &plan);
    for shape in SELECT_SHAPES {
        session
            .query(shape)
            .unwrap_or_else(|e| panic!("no-fault plan broke {shape:?}: {e}"));
    }
    assert!(plan.hits("operator") > 0, "operator site was never visited");
}
