//! The composability tenet (§I): "The extensions … compose well with one
//! another and with SQL itself, much as functions in functional
//! programming languages do." These tests stack features in combinations
//! the paper never shows explicitly — if composability is real, they just
//! work.
//!
//! The second half checks that the formulations the paper's prose
//! performance claims compare give one answer over scaled data: GROUP AS
//! and the nested `SELECT VALUE` it replaces (§V-B), unnesting and the
//! join over the normalized twin (§III), UNPIVOT and a hand-written
//! unpivot (§VI), and the optimizer on and off; and that every scaled
//! paper query family returns rows.

use sqlpp::{Engine, SessionConfig};
use sqlpp_formats::pnotation::from_pnotation;
use sqlpp_value::{tuple, Tuple, Value};

fn engine() -> Engine {
    let engine = Engine::new();
    engine
        .load_pnotation(
            "shop.orders",
            r#"{{
            {'id': 1, 'cust': 'ann',
             'lines': [{'sku': 'a', 'qty': 2, 'unit': 10},
                       {'sku': 'b', 'qty': 1, 'unit': 100}]},
            {'id': 2, 'cust': 'ann',
             'lines': [{'sku': 'a', 'qty': 1, 'unit': 10}]},
            {'id': 3, 'cust': 'bo', 'lines': []}
        }}"#,
        )
        .unwrap();
    engine
}

fn check(query: &str, expected: &str) {
    let engine = engine();
    let want = from_pnotation(expected).unwrap();
    let got = engine.query(query).unwrap();
    assert!(
        got.matches(&want),
        "query {query}\n expected {want}\n got      {}",
        got.value()
    );
}

#[test]
fn subquery_as_from_source() {
    // A whole query block is just a collection expression.
    check(
        "SELECT VALUE t.sku FROM \
         (SELECT l.sku AS sku, l.qty * l.unit AS amount \
          FROM shop.orders AS o, o.lines AS l) AS t \
         WHERE t.amount > 15",
        "{{'a', 'b'}}",
    );
}

#[test]
fn coll_aggregate_over_constructed_collection() {
    let engine = engine();
    let v = engine
        .eval_expr("COLL_SUM([1, 2, COLL_MAX(<<3, 4>>)])")
        .unwrap();
    assert_eq!(v, sqlpp_value::Value::Int(7));
}

#[test]
fn unpivot_a_constructed_tuple() {
    check(
        "SELECT a AS attr, v AS val \
         FROM UNPIVOT {'x': 1, 'y': 2} AS v AT a",
        "{{ {'attr': 'x', 'val': 1}, {'attr': 'y', 'val': 2} }}",
    );
}

#[test]
fn pivot_a_subquery() {
    // PIVOT over the result of a grouped aggregation: per-order totals
    // computed by a composable COLL_SUM in an inner block, summed per
    // customer, pivoted into one tuple. (An order with no lines has a
    // NULL total — COLL_SUM of an empty bag — so bo's sum is NULL.)
    check(
        "PIVOT row.total AT row.cust FROM \
         (SELECT t.cust AS cust, SUM(t.amount) AS total FROM \
           (SELECT o.cust AS cust, \
                   COLL_SUM(SELECT VALUE l.qty * l.unit FROM o.lines AS l) AS amount \
            FROM shop.orders AS o) AS t \
          GROUP BY t.cust) AS row",
        "{'ann': 130, 'bo': null}",
    );
}

#[test]
fn nested_group_as_two_levels() {
    // Group the groups: customers → orders → lines, re-nested the other
    // way around from the storage nesting.
    check(
        "FROM shop.orders AS o \
         GROUP BY o.cust AS cust GROUP AS g \
         SELECT cust, \
                (FROM g AS v \
                 GROUP BY COLL_COUNT(v.o.lines) AS n_lines GROUP AS g2 \
                 SELECT VALUE {'n_lines': n_lines, \
                               'order_ids': (FROM g2 AS w SELECT VALUE w.v.o.id)}) \
                AS orders_by_size",
        r#"{{
            {'cust': 'ann', 'orders_by_size': {{
                {'n_lines': 2, 'order_ids': {{1}}},
                {'n_lines': 1, 'order_ids': {{2}}}
            }}},
            {'cust': 'bo', 'orders_by_size': {{
                {'n_lines': 0, 'order_ids': {{3}}}
            }}}
        }}"#,
    );
}

#[test]
fn exists_correlated_through_two_levels() {
    check(
        "SELECT VALUE o.id FROM shop.orders AS o \
         WHERE EXISTS (SELECT VALUE l FROM o.lines AS l WHERE l.unit >= 100)",
        "{{1}}",
    );
}

#[test]
fn from_over_scalar_and_tuple_values() {
    // "FROM clause variables … can bind to any type of SQL++ data" —
    // including singletons in permissive mode.
    let engine = engine();
    let v = engine.query("SELECT VALUE x FROM 42 AS x").unwrap();
    assert_eq!(v.value().to_string(), "{{42}}");
    let v = engine
        .query("SELECT VALUE x.k FROM {'k': 'v'} AS x")
        .unwrap();
    assert_eq!(v.value().to_string(), "{{'v'}}");
}

#[test]
fn select_value_of_select_value() {
    check(
        "SELECT VALUE (SELECT VALUE l.qty FROM o.lines AS l) \
         FROM shop.orders AS o WHERE o.id = 1",
        "{{ {{2, 1}} }}",
    );
}

#[test]
fn order_by_deep_path_into_constructed_output() {
    let engine = engine();
    let r = engine
        .query(
            "SELECT o.id AS id, \
                    COLL_SUM(SELECT VALUE l.qty * l.unit FROM o.lines AS l) AS total \
             FROM shop.orders AS o \
             ORDER BY total DESC NULLS LAST",
        )
        .unwrap();
    let ids: Vec<i64> = r
        .rows()
        .iter()
        .map(|t| t.path("id").as_int().unwrap())
        .collect();
    assert_eq!(ids, vec![1, 2, 3], "NULL total (empty lines) sorts last");
}

#[test]
fn union_of_unpivot_and_unnest() {
    check(
        "SELECT VALUE l.sku FROM shop.orders AS o, o.lines AS l \
         UNION SELECT VALUE a FROM UNPIVOT {'c': 1, 'd': 2} AS v AT a",
        "{{'a', 'b', 'c', 'd'}}",
    );
}

#[test]
fn group_by_a_nested_collection_key() {
    // Grouping keys may themselves be non-scalar: group orders by their
    // full set of SKUs (structural equality of bags).
    check(
        "SELECT g_key AS skus, COUNT(*) AS n FROM shop.orders AS o \
         GROUP BY (SELECT VALUE l.sku FROM o.lines AS l) AS g_key",
        r#"{{
            {'skus': {{'a', 'b'}}, 'n': 1},
            {'skus': {{'a'}}, 'n': 1},
            {'skus': {{}}, 'n': 1}
        }}"#,
    );
}

const TITLES: [&str; 4] = ["Engineer", "Manager", "Analyst", "Director"];
const PROJECTS: [&str; 8] = [
    "Serverless Query",
    "OLAP Security",
    "OLTP Security",
    "Storage Engine",
    "Query Optimizer",
    "Replication",
    "Cost Model",
    "Vector Search",
];

/// `n` employees in the shape of Listing 1, employee `i` with
/// `i mod (fanout + 1)` distinct projects, registered nested
/// (`hr.emp_nest`) and as the normalized twin a SQL engine would need:
/// `hr.emp_base` plus `hr.assignments` keyed by `emp_id`.
fn employees(n: i64, fanout: i64) -> Engine {
    let (mut nest, mut base, mut assignments) = (Vec::new(), Vec::new(), Vec::new());
    for id in 0..n {
        let emp = tuple! {
            "id" => id,
            "name" => format!("Employee {id}"),
            "title" => TITLES[(id % 4) as usize],
            "salary" => 50_000 + (id * 7_919) % 100_000,
            "deptno" => (id * 13) % 32,
        };
        let projects: Vec<&str> = (0..id % (fanout + 1))
            .map(|j| PROJECTS[((id + 3 * j) % 8) as usize])
            .collect();
        for &p in &projects {
            assignments.push(Value::Tuple(tuple! { "emp_id" => id, "pname" => p }));
        }
        let mut nested = emp.clone();
        nested.insert(
            "projects",
            Value::Array(
                projects
                    .iter()
                    .map(|&p| Value::Tuple(tuple! { "name" => p }))
                    .collect(),
            ),
        );
        nest.push(Value::Tuple(nested));
        base.push(Value::Tuple(emp));
    }
    let engine = Engine::new();
    engine.register("hr.emp_nest", Value::Bag(nest));
    engine.register("hr.emp_base", Value::Bag(base));
    engine.register("hr.assignments", Value::Bag(assignments));
    engine
}

/// `rows` days of `width` symbol prices (Listing 19's wide shape), and
/// its hand-unpivoted tall twin: one `{date, symbol, price}` per price.
fn wide_and_tall(rows: i64, width: i64) -> (Value, Value) {
    let (mut wide, mut tall) = (Vec::new(), Vec::new());
    for day in 0..rows {
        let date = format!("2019-04-{:02}", day + 1);
        let mut t = Tuple::new();
        t.insert("date", Value::from(date.as_str()));
        for s in 0..width {
            let price = 100 + (day * 31 + s * 17) % 4_900;
            t.insert(format!("sym{s}"), Value::Int(price));
            tall.push(Value::Tuple(tuple! {
                "date" => date.as_str(),
                "symbol" => format!("sym{s}"),
                "price" => price,
            }));
        }
        wide.push(Value::Tuple(t));
    }
    (Value::Bag(wide), Value::Bag(tall))
}

/// Left-correlated unnesting of the nested documents and the equi-join
/// of their normalized twin give the same (employee, project) pairs.
#[test]
fn unnest_equals_flat_join_semantically() {
    for (n, fanout) in [(200, 4), (200, 2), (200, 8)] {
        let engine = employees(n, fanout);
        let nested = engine
            .query("SELECT e.id AS id, p.name AS pname FROM hr.emp_nest AS e, e.projects AS p")
            .unwrap();
        let flat = engine
            .query(
                "SELECT e.id AS id, a.pname AS pname \
                 FROM hr.emp_base AS e JOIN hr.assignments AS a ON a.emp_id = e.id",
            )
            .unwrap();
        assert!(!nested.is_empty());
        assert!(nested.matches(flat.value()), "n={n} fanout={fanout}");
    }
}

/// §V-B: GROUP AS inverts the employee→project nesting in one pass, with
/// the answer of a correlated `SELECT VALUE` per distinct project.
#[test]
fn group_as_equals_the_nested_subquery() {
    const GROUP_AS: &str = "FROM hr.emp_nest AS e, e.projects AS p \
         GROUP BY p.name AS pname GROUP AS g \
         SELECT pname AS project, (FROM g AS v SELECT VALUE v.e.name) AS members";
    const NESTED_SUBQUERY: &str = "SELECT DISTINCT VALUE {'project': p.name, 'members': \
           (SELECT VALUE e2.name FROM hr.emp_nest AS e2, e2.projects AS p2 \
            WHERE p2.name = p.name)} \
         FROM hr.emp_nest AS e, e.projects AS p";
    for n in [50, 200] {
        let engine = employees(n, 6);
        let grouped = engine.query(GROUP_AS).unwrap();
        assert!(!grouped.is_empty(), "n={n}");
        assert_eq!(
            grouped.canonical(),
            engine.query(NESTED_SUBQUERY).unwrap().canonical(),
            "n={n}"
        );
    }
}

/// §VI: UNPIVOT turns attribute names into data exactly as the
/// hand-written loop does, at every tuple width.
#[test]
fn wide_and_tall_prices_agree() {
    for (rows, width) in [(10, 8), (28, 4), (28, 64)] {
        let (wide, tall) = wide_and_tall(rows, width);
        let engine = Engine::new();
        engine.register("wide", wide);
        let unpivoted = engine
            .query(
                "SELECT c.\"date\" AS \"date\", sym AS symbol, price AS price \
                 FROM wide AS c, UNPIVOT c AS price AT sym \
                 WHERE NOT sym = 'date'",
            )
            .unwrap();
        assert_eq!(unpivoted.len(), (rows * width) as usize);
        assert!(unpivoted.matches(&tall), "{rows} rows of width {width}");
    }
}

/// The optimizer changes no answer, over the foldable constants and
/// fusable filters a query generator emits.
#[test]
fn the_optimizer_changes_no_answer() {
    const FOLDABLE: &str = "SELECT VALUE e.id FROM hr.emp_base AS e \
         WHERE TRUE AND e.salary > 25000 + 25000 * 2 AND 1 = 1 AND \
               e.deptno = (2 + 3) * 2";
    let engine = employees(2_000, 0);
    let raw = engine.with_config(SessionConfig {
        optimize: false,
        ..SessionConfig::default()
    });
    let folded = engine.query(FOLDABLE).unwrap();
    assert!(!folded.is_empty());
    assert_eq!(folded.canonical(), raw.query(FOLDABLE).unwrap().canonical());
}

/// Every scaled paper query family returns rows: a semantic regression
/// that empties one fails here rather than passing as a speed-up.
#[test]
fn every_scaled_paper_query_family_returns_rows() {
    let engine = employees(300, 3);
    engine.register("closing_prices", wide_and_tall(100, 3).0);
    for query in [
        "SELECT e.name AS emp_name, p.name AS proj_name \
         FROM hr.emp_nest AS e, e.projects AS p WHERE p.name LIKE '%Security%'",
        "SELECT e.id, e.title AS title FROM hr.emp_nest AS e WHERE e.title = 'Manager'",
        "SELECT e.id AS id, (SELECT VALUE p.name FROM e.projects AS p \
         WHERE p.name LIKE '%Security%') AS sec FROM hr.emp_nest AS e",
        "FROM hr.emp_nest AS e, e.projects AS p GROUP BY p.name AS pname GROUP AS g \
         SELECT pname AS project, (FROM g AS v SELECT VALUE v.e.name) AS members",
        "SELECT e.deptno, AVG(e.salary) AS avgsal FROM hr.emp_nest AS e GROUP BY e.deptno",
        "SELECT c.\"date\" AS d, sym AS symbol, price AS price \
         FROM closing_prices AS c, UNPIVOT c AS price AT sym WHERE NOT sym = 'date'",
        "SELECT sym AS symbol, AVG(price) AS avg_price \
         FROM closing_prices c, UNPIVOT c AS price AT sym \
         WHERE NOT sym = 'date' GROUP BY sym",
    ] {
        assert!(!engine.query(query).unwrap().is_empty(), "{query}");
    }
}
