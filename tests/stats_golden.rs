//! Golden file for the execution counters: every engine-wide counter and
//! every operator's `(calls, rows_out, batches, peak_rows, fused,
//! spilled)` for a fixed set of queries, each run with stats on at batch
//! size 1 and at 1024. Times are left out, so the file is byte-stable.
//!
//! The set covers each place the evaluator counts: the fused scan spine
//! (scan → filter → project, scan → project, and a `COLL_*` over it),
//! inner and LEFT hash joins, a nested-loop join, a folded GROUP BY and a
//! GROUP AS, DISTINCT, the set operators, a window, a correlated
//! subquery, a permissive type error, an ORDER BY spilled at a tiny byte
//! budget and a top-k. A counting change that
//! moves any value shows up as a diff of `tests/golden/stats/counters.txt`.
//!
//! Regenerate after an intentional counting change with
//!
//! ```text
//! SQLPP_UPDATE_GOLDEN=1 cargo test --test stats_golden
//! ```
//!
//! and review the diff like any other code change.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use sqlpp::{Engine, Limits, SessionConfig, SpillConfig};

/// Queries over the in-memory fixture, by golden section name.
const QUERIES: &[(&str, &str)] = &[
    (
        "spine_scan_filter_project",
        "SELECT e.name AS name FROM emps AS e WHERE e.salary > 100",
    ),
    (
        "spine_scan_project",
        "SELECT VALUE e.id * 7 + e.id FROM emps AS e",
    ),
    (
        "coll_sum_over_spine",
        "SELECT VALUE COLL_SUM(SELECT VALUE e.id FROM emps AS e)",
    ),
    (
        "inner_hash_join",
        "SELECT e.name AS name, d.title AS title FROM emps AS e JOIN depts AS d ON e.dept = d.dno",
    ),
    (
        "left_hash_join",
        "SELECT e.name AS name, d.title AS title \
         FROM emps AS e LEFT JOIN depts AS d ON e.dept = d.dno",
    ),
    (
        "nested_loop_join",
        "SELECT e.name AS name, d.title AS title \
         FROM emps AS e JOIN depts AS d ON e.salary > d.floor",
    ),
    (
        "folded_group_by",
        "SELECT e.dept AS dept, COUNT(*) AS n, SUM(e.salary) AS total \
         FROM emps AS e GROUP BY e.dept",
    ),
    (
        "group_as",
        "SELECT dept, (SELECT VALUE g.e.name FROM grp AS g) AS names \
         FROM emps AS e GROUP BY e.dept AS dept GROUP AS grp",
    ),
    ("distinct", "SELECT DISTINCT VALUE e.dept FROM emps AS e"),
    (
        "union",
        "SELECT VALUE e.dept FROM emps AS e UNION SELECT VALUE d.dno FROM depts AS d",
    ),
    (
        "intersect",
        "SELECT VALUE e.dept FROM emps AS e INTERSECT SELECT VALUE d.dno FROM depts AS d",
    ),
    (
        "except_all",
        "SELECT VALUE e.dept FROM emps AS e EXCEPT ALL SELECT VALUE d.dno FROM depts AS d",
    ),
    (
        "window",
        "SELECT e.name AS name, \
         ROW_NUMBER() OVER (PARTITION BY e.dept ORDER BY e.salary DESC, e.name) AS rn \
         FROM emps AS e",
    ),
    (
        "correlated_subquery",
        "SELECT e.name AS name, \
         (SELECT VALUE d.title FROM depts AS d WHERE d.dno = e.dept) AS titles \
         FROM emps AS e",
    ),
    (
        "permissive_type_error",
        "SELECT VALUE e.salary * 2 FROM emps AS e",
    ),
    (
        "top_k",
        "SELECT VALUE e.name FROM emps AS e ORDER BY e.salary DESC, e.name LIMIT 3",
    ),
];

/// The query run under a tiny byte budget with spilling on.
const SPILLED_SORT: &str = "SELECT VALUE b.id FROM big AS b ORDER BY b.k, b.id";

/// Twelve employees (one salary a string, one without a department),
/// four departments (one with no employees) and 300 rows to sort.
fn fixture() -> Engine {
    let engine = Engine::new();
    let emps: Vec<String> = (0..12)
        .map(|i| {
            let salary = if i == 5 {
                "'n/a'".to_string()
            } else {
                format!("{}", 40 + (i * 37) % 150)
            };
            let dept = if i == 9 {
                String::new()
            } else {
                format!(", 'dept': {}", i % 3)
            };
            format!("{{'id': {i}, 'name': 'e{i:02}', 'salary': {salary}{dept}}}")
        })
        .collect();
    engine
        .load_pnotation("emps", &format!("{{{{ {} }}}}", emps.join(", ")))
        .unwrap();
    engine
        .load_pnotation(
            "depts",
            "{{ {'dno': 0, 'title': 'ops', 'floor': 50}, {'dno': 1, 'title': 'dev', 'floor': 120}, \
               {'dno': 2, 'title': 'hr', 'floor': 90}, {'dno': 7, 'title': 'lab', 'floor': 10} }}",
        )
        .unwrap();
    let big: Vec<String> = (0..300)
        .map(|i| {
            format!(
                "{{'id': {i}, 'k': {}, 'tag': 'row-{}'}}",
                (i * 67) % 75,
                i % 7
            )
        })
        .collect();
    engine
        .load_pnotation("big", &format!("{{{{ {} }}}}", big.join(", ")))
        .unwrap();
    engine
}

/// One run's counters and annotated operator tree.
fn render(engine: &Engine, src: &str) -> String {
    let prepared = engine.prepare(src).expect("query plans");
    let (result, stats) = prepared.execute_with_stats(engine, Vec::new());
    let stats = stats.expect("stats collected");
    let mut out = String::new();
    match result {
        Ok(r) => writeln!(out, "rows: {}", r.len()).unwrap(),
        Err(e) => writeln!(out, "error: {e}").unwrap(),
    }
    for (name, value) in stats.counters() {
        writeln!(out, "{name}={value}").unwrap();
    }
    let plan = prepared.plan();
    let index: std::collections::HashMap<*const _, u32> = plan
        .preorder_ops()
        .into_iter()
        .enumerate()
        .map(|(i, op)| (op as *const _, i as u32))
        .collect();
    out.push_str(&plan.explain_with(&mut |op| {
        let s = stats.op_at(index[&(op as *const _)])?;
        Some(format!(
            "  #(calls={} rows_out={} batches={} peak_rows={} fused={} spilled={})",
            s.calls, s.rows_out, s.batches, s.peak_rows, s.fused, s.spilled
        ))
    }));
    out
}

fn report() -> String {
    let base = fixture();
    let mut out = String::new();
    for batch_size in [1, 1024] {
        let engine = base.with_config(SessionConfig {
            batch_size,
            ..SessionConfig::default()
        });
        for (name, src) in QUERIES {
            writeln!(out, "=== {name} @ batch {batch_size}\n{src}").unwrap();
            out.push_str(&render(&engine, src));
        }
        let spilling = base.with_config(SessionConfig {
            batch_size,
            limits: Limits::none().with_memory_bytes(4096),
            spill: Some(SpillConfig::default()),
            ..SessionConfig::default()
        });
        writeln!(
            out,
            "=== spilled_order_by @ batch {batch_size}\n{SPILLED_SORT}"
        )
        .unwrap();
        out.push_str(&render(&spilling, SPILLED_SORT));
    }
    out
}

#[test]
fn counters_match_golden() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stats/counters.txt");
    let got = report();
    if std::env::var_os("SQLPP_UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} (SQLPP_UPDATE_GOLDEN=1 to create)",
            path.display()
        )
    });
    if want != got {
        let line = want
            .lines()
            .zip(got.lines())
            .position(|(w, g)| w != g)
            .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
        panic!(
            "counters drifted from golden at line {}\n--- want\n{}\n--- got\n{}",
            line + 1,
            want.lines().nth(line).unwrap_or("<eof>"),
            got.lines().nth(line).unwrap_or("<eof>")
        );
    }
}
