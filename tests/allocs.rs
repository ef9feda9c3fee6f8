//! Allocation ledger for predicate scans: a predicate that only reads
//! attribute paths, parameters and constants must allocate nothing per
//! row. Each scan runs over 64 and over 256 rows and must make the same
//! number of heap allocations at both sizes — every allocation it makes
//! belongs to the query (plan, programs, result), none to a row.
//!
//! The counting allocator keeps its counters per thread, so tests running
//! in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sqlpp::{Engine, Prepared};
use sqlpp_value::{Tuple, Value};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `t.rows` with `n` rows `{n, m, s, t: {u}}`. The first 64 rows are
/// the same at every size, and no predicate below keeps a row after
/// them: a scan's result does not depend on the size, so whatever the
/// larger scan allocates beyond the smaller one, it allocates per row.
fn engine(rows: i64) -> Engine {
    let rows = (0..rows)
        .map(|i| {
            let early = i < 64;
            let mut t = Tuple::new();
            t.insert("n", Value::Int(i));
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
    let scans: [(&str, Vec<Value>); 5] = [
        ("x.s = ?", vec![s("s3")]),
        ("x.s IS MISSING", vec![]),
        ("x.n >= ? AND x.m < ?", vec![Value::Int(10), Value::Int(3)]),
        ("x.t.u = 'c'", vec![]),
        ("x.n IN [1, 2, 3]", vec![]),
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
