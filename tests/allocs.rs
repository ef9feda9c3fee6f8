//! Allocation ledger for predicate scans, keyed breakers and DML: a
//! predicate that only reads attribute paths, parameters and constants
//! must allocate nothing per row; nor must a hash-join build row no probe
//! row matches, nor a GROUP BY row that folds into a group it finds, nor a
//! row the WHERE under a sort, a DISTINCT, a PIVOT, a GROUP AS, a window,
//! a DELETE or an UPDATE rejects. Each statement runs over 64 and over 256
//! rows and must make the same number of heap allocations at both sizes —
//! every allocation it makes belongs to the statement (plan, programs,
//! tables, result), none to a row.
//!
//! A loop re-opened per outer row — a WHERE over an UNNEST in a correlated
//! subquery — clones none of its programs.
//!
//! A set operation under an ORDER BY … LIMIT must hold no more of its
//! elements at once at 256 rows than at 64: its peak heap bytes stay
//! within a few bytes.
//!
//! The counting allocator keeps its counters per thread, so tests running
//! in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sqlpp::{Engine, Limits, Prepared, SessionConfig, SpillConfig};
use sqlpp_value::{Tuple, Value};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes this thread holds (allocated minus freed), and their
    /// high-water mark.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

fn hold(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        hold(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `t.rows` with `n` rows `{n, g, m, s, t: {u}}`. The first 64 rows are
/// the same at every size, and no predicate below keeps a row after
/// them: a scan's result does not depend on the size, so whatever the
/// larger scan allocates beyond the smaller one, it allocates per row.
/// `g` puts every row in one of 8 groups at every size. Beside it,
/// `t.probe` holds one row `{k: 5}`, which joins row 5 alone.
fn engine(rows: i64) -> Engine {
    let rows = (0..rows)
        .map(|i| {
            let early = i < 64;
            let mut t = Tuple::new();
            t.insert("n", Value::Int(i));
            t.insert("g", Value::Int(i % 8));
            t.insert("m", Value::Int(if early { i % 7 } else { 7 }));
            match (early, i % 5) {
                (true, 0) => {}
                (true, _) => t.insert("s", Value::Str(format!("s{}", i % 10))),
                (false, _) => t.insert("s", Value::Str(format!("late{i}"))),
            }
            let u = if early && i % 3 == 0 { "c" } else { "d" };
            t.insert(
                "t",
                Value::Tuple(Tuple::from_pairs([("u", Value::Str(u.into()))])),
            );
            Value::Tuple(t)
        })
        .collect();
    let engine = Engine::new();
    engine.register("t.rows", Value::Bag(rows));
    let probe = Tuple::from_pairs([("k", Value::Int(5))]);
    engine.register("t.probe", Value::Bag(vec![Value::Tuple(probe)]));
    engine
}

/// Allocations of one execution, after warm-up runs (the attribute-name
/// table is process-global, and first runs fill it).
fn allocs_per_run(engine: &Engine, plan: &Prepared, params: &[Value]) -> (u64, Value) {
    for _ in 0..3 {
        plan.execute_with_params(engine, params.to_vec()).unwrap();
    }
    let params = params.to_vec();
    let before = ALLOCS.with(Cell::get);
    let result = plan.execute_with_params(engine, params).unwrap();
    let after = ALLOCS.with(Cell::get);
    (after - before, result.into_value())
}

#[test]
fn predicate_scans_allocate_nothing_per_row() {
    let s = |v: &str| Value::Str(v.into());
    let scans: [(&str, Vec<Value>); 6] = [
        ("x.s = ?", vec![s("s3")]),
        ("x.s IS MISSING", vec![]),
        ("x.n >= ? AND x.m < ?", vec![Value::Int(10), Value::Int(3)]),
        ("x.t.u = 'c'", vec![]),
        ("x.n IN [1, 2, 3]", vec![]),
        ("x.s LIKE 's%'", vec![]),
    ];
    let (small, large) = (engine(64), engine(256));
    for (pred, params) in scans {
        let q = format!("SELECT VALUE x.n FROM t.rows AS x WHERE {pred}");
        let [(at_64, small_result), (at_256, large_result)] = [&small, &large].map(|engine| {
            let plan = engine.prepare(&q).unwrap();
            allocs_per_run(engine, &plan, &params)
        });
        assert_eq!(small_result, large_result, "{pred}: the kept rows differ");
        assert_eq!(
            at_64, at_256,
            "{pred}: allocations at 64 rows vs at 256 rows"
        );
    }
}

/// A hash join whose build side is a bare scan keeps each build row by
/// position: binding the 192 more rows no probe row matches costs
/// nothing, in the comma spelling and the `JOIN … ON` one.
#[test]
fn a_hash_join_build_allocates_nothing_per_unmatched_row() {
    let (small, large) = (engine(64), engine(256));
    for q in [
        "SELECT VALUE [p.k, x.s] FROM t.probe AS p, t.rows AS x WHERE p.k = x.n",
        "SELECT VALUE [p.k, x.s] FROM t.probe AS p JOIN t.rows AS x ON p.k = x.n",
    ] {
        let [(at_64, small_result), (at_256, large_result)] = [&small, &large].map(|engine| {
            let plan = engine.prepare(q).unwrap();
            assert!(engine.explain(q).unwrap().contains("hash join"), "{q}");
            allocs_per_run(engine, &plan, &[])
        });
        assert_eq!(small_result, large_result, "{q}: the joined rows differ");
        assert_eq!(at_64, at_256, "{q}: allocations at 64 rows vs at 256 rows");
    }
}

/// A build on the slice grows its table with the rows its filter keeps,
/// not with the collection it reads: over 1 024 or 4 096 rows, a build
/// filter that keeps one row requests the same heap bytes, with no limit
/// and under a 2 000-byte memory budget alike. (The row loop's buffers
/// are bounded by the 1 024-row batch.)
#[test]
fn a_filtered_build_allocates_for_the_rows_it_keeps() {
    let q = "SELECT VALUE [p.k, x.s] FROM t.probe AS p, t.rows AS x WHERE p.k = x.n AND x.n = 5";
    let (small, large) = (engine(1024), engine(4096));
    for limits in [Limits::none(), Limits::none().with_memory_bytes(2_000)] {
        let [(at_1k, small_result), (at_4k, large_result)] = [&small, &large].map(|engine| {
            let engine = engine.with_config(SessionConfig {
                limits: limits.clone(),
                ..SessionConfig::default()
            });
            assert!(engine.explain(q).unwrap().contains("build-filter"), "{q}");
            let plan = engine.prepare(q).unwrap();
            let before = BYTES.with(Cell::get);
            let (_, result) = allocs_per_run(&engine, &plan, &[]);
            // The warm-up runs allocate as the measured one does.
            (BYTES.with(Cell::get) - before, result)
        });
        assert_eq!(
            small_result, large_result,
            "{limits:?}: the joined rows differ"
        );
        assert_eq!(
            at_1k, at_4k,
            "{limits:?}: heap bytes at 1 024 rows vs at 4 096 rows"
        );
    }
}

/// A GROUP BY row with an Int key that folds into one of its 8 groups
/// allocates nothing: 64 and 256 rows make the same 8 groups. The
/// counts and sums grow with the input; the keys and minima do not.
#[test]
fn a_group_by_row_that_joins_its_group_allocates_nothing() {
    let q = "SELECT x.g AS g, COUNT(*) AS c, SUM(x.n) AS s, MIN(x.n) AS lo \
             FROM t.rows AS x GROUP BY x.g";
    let (small, large) = (engine(64), engine(256));
    let [(at_64, small_result), (at_256, large_result)] = [&small, &large].map(|engine| {
        let plan = engine.prepare(q).unwrap();
        allocs_per_run(engine, &plan, &[])
    });
    let keys_and_minima = |groups: &Value| {
        let mut out: Vec<(Value, Value)> = (groups.as_elements().unwrap().iter())
            .map(|g| (g.path("g"), g.path("lo")))
            .collect();
        out.sort_by_key(|(g, _)| g.to_string());
        out
    };
    assert_eq!(keys_and_minima(&small_result).len(), 8);
    assert_eq!(
        keys_and_minima(&small_result),
        keys_and_minima(&large_result)
    );
    assert_eq!(at_64, at_256, "allocations at 64 rows vs at 256 rows");
}

/// A sort, a DISTINCT, a PIVOT, a GROUP AS and a window over a bare scan
/// read it through the row loop on the slice: a row their WHERE rejects
/// is never bound, so the 192 more rows at 256 cost nothing.
#[test]
fn sort_distinct_and_pivot_allocate_nothing_per_rejected_row() {
    let (small, large) = (engine(64), engine(256));
    for q in [
        "SELECT VALUE x.n FROM t.rows AS x WHERE x.m < 3 ORDER BY x.g, x.n",
        "SELECT DISTINCT VALUE x.g FROM t.rows AS x WHERE x.m < 3",
        "PIVOT x.n AT x.s FROM t.rows AS x WHERE x.m < 3",
        "SELECT VALUE [g, grp] FROM t.rows AS x WHERE x.m < 3 GROUP BY x.g AS g GROUP AS grp",
        "SELECT VALUE [x.n, ROW_NUMBER() OVER (PARTITION BY x.g ORDER BY x.n)] \
         FROM t.rows AS x WHERE x.m < 3",
    ] {
        let [(at_64, small_result), (at_256, large_result)] = [&small, &large].map(|engine| {
            let plan = engine.prepare(q).unwrap();
            allocs_per_run(engine, &plan, &[])
        });
        assert_eq!(small_result, large_result, "{q}: the answers differ");
        assert_eq!(at_64, at_256, "{q}: allocations at 64 rows vs at 256 rows");
    }
}

/// GROUP AS and a spilled hash join over the same rows give the answers
/// they give in memory: the members are bound as before, and a build
/// that overflows a tiny budget binds its position rows as they spill.
#[test]
fn group_as_and_a_spilled_join_keep_their_answers() {
    let engine = engine(64);
    let grouped = engine
        .query(
            "SELECT x.m AS m, (SELECT VALUE y.x.n FROM grp AS y) AS ns \
             FROM t.rows AS x WHERE x.n < 10 GROUP BY x.m GROUP AS grp",
        )
        .unwrap();
    assert_eq!(
        grouped.canonical().to_string(),
        "{{{'m': 0, 'ns': {{0, 7}}}, {'m': 1, 'ns': {{1, 8}}}, {'m': 2, 'ns': {{2, 9}}}, \
         {'m': 3, 'ns': {{3}}}, {'m': 4, 'ns': {{4}}}, {'m': 5, 'ns': {{5}}}, \
         {'m': 6, 'ns': {{6}}}}}"
    );
    let q = "SELECT VALUE [a.n, b.n] FROM t.rows AS a JOIN t.rows AS b ON a.g = b.g AND a.n < b.n";
    let in_memory = engine.query(q).unwrap().canonical().to_string();
    for batch_size in [1, 1024] {
        let spilled = engine.with_config(SessionConfig {
            batch_size,
            limits: Limits::none().with_memory_bytes(2_000),
            spill: Some(SpillConfig::default()),
            ..SessionConfig::default()
        });
        let run = spilled.query_with_stats(q).unwrap();
        assert!(
            run.stats().unwrap().spill_partitions > 0,
            "batch {batch_size}: no spill"
        );
        assert_eq!(run.canonical().to_string(), in_memory, "batch {batch_size}");
    }
}

/// A set operation's elements stream into the top-k of its ORDER BY …
/// LIMIT: the heap holds 3 rows and the row loop a batch of elements, so
/// the most heap one execution holds at once is about the same over 64
/// rows and over 256 — at batch 1 and at batch 16.
#[test]
fn a_set_op_top_k_holds_no_more_elements_over_more_rows() {
    let q = "SELECT VALUE {'n': x.n} FROM t.rows AS x \
             UNION ALL SELECT VALUE {'n': y.n} FROM t.rows AS y \
             ORDER BY n DESC LIMIT 3";
    let (small, large) = (engine(64), engine(256));
    for batch_size in [1, 16] {
        let [(at_64, small_result), (at_256, large_result)] = [&small, &large].map(|engine| {
            let engine = engine.with_config(SessionConfig {
                batch_size,
                ..SessionConfig::default()
            });
            assert!(engine.explain(q).unwrap().contains("top-k"), "{q}");
            let plan = engine.prepare(q).unwrap();
            allocs_per_run(&engine, &plan, &[]);
            let start = LIVE.with(Cell::get);
            PEAK.with(|peak| peak.set(start));
            let result = plan.execute(&engine).unwrap().into_value();
            (PEAK.with(Cell::get) - start, result)
        });
        assert_eq!(small_result.as_elements().unwrap().len(), 3);
        assert_ne!(small_result, large_result, "the top rows are the last ones");
        // Holding the 384 more elements of the larger input would add
        // tens of kilobytes; the measured peaks differ by a few bytes.
        assert!(
            at_256 < at_64 + 256,
            "batch {batch_size}: peak heap bytes {at_64} at 64 rows vs {at_256} at 256 rows"
        );
    }
}

/// DELETE and UPDATE find their rows through the row loop on the slice
/// of the statement's snapshot: a row their WHERE rejects is neither
/// cloned nor bound, so the 192 more rows at 256 cost nothing. (The
/// former per-row DML loop bound a clone of every row: 7 allocations per
/// rejected row.)
#[test]
fn dml_allocates_nothing_per_rejected_row() {
    for stmt in [
        "DELETE FROM t.rows AS x WHERE x.n = 1000000",
        "DELETE FROM t.rows AS x WHERE x.s = 'nope'",
        "UPDATE t.rows AS x SET x.m = 9 WHERE x.n = 5",
    ] {
        let [(at_64, small), (at_256, large)] = [engine(64), engine(256)].map(|engine| {
            for _ in 0..3 {
                engine.execute(stmt).unwrap();
            }
            let before = ALLOCS.with(Cell::get);
            let outcome = engine.execute(stmt).unwrap();
            (ALLOCS.with(Cell::get) - before, format!("{outcome:?}"))
        });
        assert_eq!(small, large, "{stmt}: the outcomes differ");
        assert_eq!(
            at_64, at_256,
            "{stmt}: allocations at 64 rows vs at 256 rows"
        );
    }
}

/// A loop over a binding stream runs its programs as the evaluator
/// compiled them: re-opening it clones none. The WHERE over an UNNEST in
/// this EXISTS, and the projection above it, open such a loop once per
/// outer row; when each open cloned its program, an outer row cost 33
/// allocations, two of them those clones.
#[test]
fn a_loop_reopened_per_outer_row_clones_no_program() {
    let q = "SELECT VALUE x.n FROM t.rows AS x \
             WHERE EXISTS (SELECT VALUE b FROM [x.t] AS a, [a.u] AS b WHERE b = 'c')";
    let (small, large) = (engine(64), engine(256));
    let [(at_64, small_result), (at_256, large_result)] = [&small, &large].map(|engine| {
        let plan = engine.prepare(q).unwrap();
        allocs_per_run(engine, &plan, &[])
    });
    assert_eq!(small_result, large_result, "the kept rows differ");
    let per_row = (at_256 - at_64) / 192;
    assert!(per_row <= 33 - 2, "{per_row} allocations per outer row");
}
