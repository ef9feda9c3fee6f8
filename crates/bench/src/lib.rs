//! # sqlpp-bench — workloads and harnesses for the paper's claims
//!
//! The paper has no numeric tables (it is a language-design paper), so the
//! benchmark suite targets every *performance claim or engine-optimization
//! license* in its prose — see DESIGN.md §5.2 for the claim ↔ bench map:
//!
//! | bench | claim |
//! |---|---|
//! | `group_as_vs_subquery` | §V-B: GROUP AS "is more efficient … than nested SELECT VALUE queries" |
//! | `unnest_vs_flat_join` | §III: unnesting composes like joins (no hash table needed) |
//! | `missing_propagation` | §IV: permissive mode keeps healthy data flowing |
//! | `compat_mode_overhead` | §I: the compatibility flag toggles rewritings |
//! | `pivot_unpivot` | §VI: names ⇄ data at scale |
//! | `format_parse` | §I tenet 5: one query over many formats |
//! | `e2e_paper_queries` | end-to-end throughput on scaled paper queries |
//! | `frontend` | error recovery is free on the happy path (strict ≡ recovering parse) |
//!
//! This library provides the deterministic workload generators those
//! benches (and the scaling tests) share.

#![warn(missing_docs)]

use sqlpp::{Engine, SessionConfig};
use sqlpp_testkit::rng::Rng;
use sqlpp_value::{Tuple, Value};

pub mod suites;

/// Deterministic RNG for reproducible workloads (xoshiro256** from
/// `sqlpp-testkit`, seeded via SplitMix64).
pub fn rng(seed: u64) -> Rng {
    Rng::new(seed)
}

const TITLES: &[&str] = &["Engineer", "Manager", "Analyst", "Director"];
const PROJECT_POOL: &[&str] = &[
    "Serverless Query",
    "OLAP Security",
    "OLTP Security",
    "Storage Engine",
    "Query Optimizer",
    "Replication",
    "Cost Model",
    "Vector Search",
];

/// Generates a nested employee collection in the shape of Listing 1:
/// `n` employees, each with up to `fanout` nested project tuples.
pub fn gen_emp_nested(n: usize, fanout: usize, seed: u64) -> Value {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(n);
    for id in 0..n {
        let k = if fanout == 0 {
            0
        } else {
            r.gen_range(0..=fanout)
        };
        let projects: Vec<Value> = (0..k)
            .map(|_| {
                let p = PROJECT_POOL[r.gen_range(0..PROJECT_POOL.len())];
                let mut t = Tuple::new();
                t.insert("name", Value::Str(p.to_string()));
                Value::Tuple(t)
            })
            .collect();
        let mut t = Tuple::with_capacity(6);
        t.insert("id", Value::Int(id as i64));
        t.insert("name", Value::Str(format!("Employee {id}")));
        t.insert(
            "title",
            Value::Str(TITLES[r.gen_range(0..TITLES.len())].to_string()),
        );
        t.insert("salary", Value::Int(50_000 + r.gen_range(0..100_000)));
        t.insert("deptno", Value::Int(r.gen_range(0..32)));
        t.insert("projects", Value::Array(projects));
        out.push(Value::Tuple(t));
    }
    Value::Bag(out)
}

/// The pre-flattened relational twin of [`gen_emp_nested`]: an employee
/// table (without projects) plus an assignment table with an `emp_id`
/// foreign key — the classical normalization a SQL engine would require.
pub fn gen_emp_flat(n: usize, fanout: usize, seed: u64) -> (Value, Value) {
    let nested = gen_emp_nested(n, fanout, seed);
    let mut emps = Vec::with_capacity(n);
    let mut assignments = Vec::new();
    for e in nested.as_elements().expect("bag") {
        let t = e.as_tuple().expect("tuple");
        let mut emp = Tuple::with_capacity(5);
        for attr in ["id", "name", "title", "salary", "deptno"] {
            emp.insert(attr, t.get(attr).cloned().unwrap_or(Value::Missing));
        }
        emps.push(Value::Tuple(emp));
        if let Some(Value::Array(projects)) = t.get("projects") {
            for p in projects {
                let mut a = Tuple::with_capacity(2);
                a.insert("emp_id", t.get("id").cloned().unwrap_or(Value::Missing));
                a.insert("pname", p.path("name"));
                assignments.push(Value::Tuple(a));
            }
        }
    }
    (Value::Bag(emps), Value::Bag(assignments))
}

/// A flat numeric collection where `dirty_permille`/1000 of the `x`
/// attributes hold a string instead of a number — exercising §IV's
/// permissive continuation over "unhealthy" data.
pub fn gen_dirty(n: usize, dirty_permille: u32, seed: u64) -> Value {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(n);
    for id in 0..n {
        let mut t = Tuple::with_capacity(2);
        t.insert("id", Value::Int(id as i64));
        if r.gen_range(0..1000) < dirty_permille {
            t.insert("x", Value::Str(format!("corrupt-{id}")));
        } else {
            t.insert("x", Value::Int(r.gen_range(0..1_000_000)));
        }
        out.push(Value::Tuple(t));
    }
    Value::Bag(out)
}

/// A collection of wide tuples (`width` price attributes plus a date),
/// the Listing 19 shape scaled up for the pivot/unpivot benches.
pub fn gen_wide_prices(rows: usize, width: usize, seed: u64) -> Value {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(rows);
    for day in 0..rows {
        let mut t = Tuple::with_capacity(width + 1);
        t.insert("date", Value::Str(format!("2019-04-{:02}", day + 1)));
        for s in 0..width {
            t.insert(format!("sym{s}"), Value::Int(r.gen_range(100..5000)));
        }
        out.push(Value::Tuple(t));
    }
    Value::Bag(out)
}

/// The tall (already unpivoted) twin of [`gen_wide_prices`].
pub fn gen_tall_prices(rows: usize, width: usize, seed: u64) -> Value {
    let wide = gen_wide_prices(rows, width, seed);
    let mut out = Vec::with_capacity(rows * width);
    for row in wide.as_elements().expect("bag") {
        let t = row.as_tuple().expect("tuple");
        let date = t.get("date").cloned().expect("date");
        for (name, value) in t.iter() {
            if name == "date" {
                continue;
            }
            let mut rec = Tuple::with_capacity(3);
            rec.insert("date", date.clone());
            rec.insert("symbol", Value::Str(name.to_string()));
            rec.insert("price", value.clone());
            out.push(Value::Tuple(rec));
        }
    }
    Value::Bag(out)
}

/// An engine pre-loaded with a nested-employee collection under
/// `hr.emp_nest` plus its flattened twin under `hr.emp_base` /
/// `hr.assignments`.
pub fn engine_with_employees(n: usize, fanout: usize, seed: u64) -> Engine {
    let engine = Engine::new();
    engine.register("hr.emp_nest", gen_emp_nested(n, fanout, seed));
    let (emps, assignments) = gen_emp_flat(n, fanout, seed);
    engine.register("hr.emp_base", emps);
    engine.register("hr.assignments", assignments);
    engine
}

/// An engine with a specific configuration and the same employee data.
pub fn configured_engine(n: usize, fanout: usize, seed: u64, config: SessionConfig) -> Engine {
    engine_with_employees(n, fanout, seed).with_config(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(gen_emp_nested(50, 4, 7), gen_emp_nested(50, 4, 7));
        assert_ne!(gen_emp_nested(50, 4, 7), gen_emp_nested(50, 4, 8));
    }

    #[test]
    fn flat_twin_preserves_cardinalities() {
        let nested = gen_emp_nested(100, 5, 1);
        let (emps, assignments) = gen_emp_flat(100, 5, 1);
        assert_eq!(emps.as_elements().unwrap().len(), 100);
        let total_projects: usize = nested
            .as_elements()
            .unwrap()
            .iter()
            .map(|e| {
                e.path("projects")
                    .as_elements()
                    .map(<[Value]>::len)
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(assignments.as_elements().unwrap().len(), total_projects);
    }

    #[test]
    fn unnest_equals_flat_join_semantically() {
        // The two workload twins must agree, otherwise the B2 bench
        // compares different answers.
        let engine = engine_with_employees(200, 4, 42);
        let nested = engine
            .query(
                "SELECT e.id AS id, p.name AS pname \
                 FROM hr.emp_nest AS e, e.projects AS p",
            )
            .unwrap();
        let flat = engine
            .query(
                "SELECT e.id AS id, a.pname AS pname \
                 FROM hr.emp_base AS e JOIN hr.assignments AS a ON a.emp_id = e.id",
            )
            .unwrap();
        assert!(nested.matches(flat.value()));
        assert!(!nested.is_empty());
    }

    #[test]
    fn dirty_fraction_is_respected() {
        let v = gen_dirty(2000, 250, 3);
        let dirty = v
            .as_elements()
            .unwrap()
            .iter()
            .filter(|t| matches!(t.path("x"), Value::Str(_)))
            .count();
        // 25% ± a generous tolerance.
        assert!((300..700).contains(&dirty), "{dirty}");
    }

    #[test]
    fn wide_and_tall_prices_agree() {
        let engine = Engine::new();
        engine.register("wide", gen_wide_prices(10, 8, 5));
        engine.register("tall", gen_tall_prices(10, 8, 5));
        let unpivoted = engine
            .query(
                "SELECT c.\"date\" AS \"date\", sym AS symbol, price AS price \
                 FROM wide AS c, UNPIVOT c AS price AT sym \
                 WHERE NOT sym = 'date'",
            )
            .unwrap();
        let tall = engine.query("SELECT VALUE t FROM tall AS t").unwrap();
        assert!(unpivoted.matches(tall.value()));
        assert_eq!(unpivoted.len(), 80);
    }
}
