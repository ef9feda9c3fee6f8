//! The consumers of the one row loop: a projection, a DISTINCT, a PIVOT,
//! a sort, a top-k, a GROUP BY, a correlate's left filter and a hash
//! join's two sides each read their input through it — off the slice when
//! the input is a bare `Filter* → Scan` (late materialization: keys and
//! filters run on borrowed rows, and only the rows kept are cloned), off
//! the binding stream otherwise; a standalone WHERE is the loop over its
//! input's binding stream. Every consumer must answer exactly like batch
//! 1, where every input is read off the binding stream, and like the
//! paper-literal plan (`optimize: false`) wherever both answer.
//!
//! * a seeded differential property over ORDER BY … LIMIT/OFFSET, a
//!   filtered DISTINCT, PIVOT and ORDER BY without LIMIT, an ORDER BY
//!   (with or without LIMIT/OFFSET) above a UNION ALL, UNION, INTERSECT
//!   ALL or EXCEPT of filtered scans, and INNER
//!   comma/JOIN equi-joins — probe filters, build filters,
//!   residuals, two-key joins whose second key can raise, `?`
//!   parameters (sometimes never supplied), LIMIT above a join, a
//!   folded GROUP BY over a join, outer-correlated subqueries, and a
//!   LEFT join as the control — over rows whose key and filter
//!   attributes are ints, strings, floats, NULL, MISSING or absent, with
//!   duplicate sort keys; optimize on and off, batch 1/2/1024, both
//!   typing modes: the identical answer or error at every batch size,
//!   and for an ORDER BY the same sequence of sort-key values (see
//!   `Order`);
//! * an input axis in the same generator: each consumer — projection,
//!   DISTINCT, PIVOT, sort, top-k, folded GROUP BY, GROUP AS, the pushed
//!   left filter, an INNER and a LEFT hash join's probe side and a hash
//!   join's build side — and the operators that run fetched programs per
//!   row (a window, an INNER and a LEFT non-equi nested-loop join) over a
//!   non-bare input (a scan with `AT i`, an UNNEST correlate, a hash
//!   join, a LET), so the loop reads the binding stream at batch 2 and
//!   1024 as well;
//! * a source-policy axis in the same generator: projections, UNNESTs,
//!   filters, GROUP BYs and LIMITs over every kind of FROM source §III
//!   tells apart — a stored bag, array, scalar, tuple and NULL, a
//!   literal array and bag, an absent path (MISSING) and `e.p` as a
//!   correlate's right side (an array, a bag, a scalar, NULL or absent)
//!   — with and without `AT i`, checked against a transcription of the
//!   policy where the shape has one;
//! * a stats axis over every generated shape, `?` ones included
//!   (`Prepared::execute_with_stats`), at every batch size: stats on
//!   gives the same answer or error; the spine's operators are labelled
//!   `fused` at batch 1024 and none is at batch 1; and wherever no LIMIT
//!   above a join can stop the scan, `rows_scanned` and every plan
//!   operator's `rows` are the same at every batch size;
//! * pinned cases where a naive late materialization changes an answer
//!   or an error: an empty build side, a probe filter that rejects every
//!   left row, an empty left side, the `UnknownName` fallback, LIMIT 0,
//!   a memory budget and a tiny spill budget.
//!
//! `tests/chaos.rs` checks that a deadline or cancel token stops both
//! consumers mid-scan.

use std::collections::BTreeMap;

use sqlpp::{Engine, Limits, SessionConfig, SpillConfig, TypingMode};
use sqlpp_testkit::prop::{self, Gen, Source};
use sqlpp_testkit::{prop_assert, sqlpp_prop};
use sqlpp_value::{Tuple, Value};

fn pick<T: Clone>(src: &mut Source, choices: &[T]) -> T {
    choices[src.draw_below(choices.len() as u64) as usize].clone()
}

fn tuple(pairs: Vec<(&str, Value)>) -> Value {
    let mut t = Tuple::new();
    for (name, v) in pairs {
        t.insert(name, v);
    }
    Value::Tuple(t)
}

/// A key or filter attribute: `None` leaves it absent. The small domain
/// makes duplicate sort keys and repeated join keys common.
fn attr(src: &mut Source) -> Option<Value> {
    pick(
        src,
        &[
            Some(Value::Int(1)),
            Some(Value::Int(2)),
            Some(Value::Int(2)),
            Some(Value::Int(3)),
            Some(Value::Float(0.5)),
            Some(Value::Float(2.0)),
            Some(Value::Str("a".into())),
            Some(Value::Str("b".into())),
            Some(Value::Null),
            Some(Value::Missing),
            None,
        ],
    )
}

/// A row's nested `p`, scanned as a correlate's right side: an array, a
/// bag, a scalar, NULL, or `None` (absent).
fn nested(src: &mut Source) -> Option<Value> {
    let ints = |src: &mut Source| -> Vec<Value> {
        (0..src.draw_len(0, 3))
            .map(|_| Value::Int(src.draw_range_i64(0, 3)))
            .collect()
    };
    match src.draw_below(5) {
        0 => Some(Value::Array(ints(src))),
        1 => Some(Value::Bag(ints(src))),
        2 => Some(Value::Int(5)),
        3 => Some(Value::Null),
        _ => None,
    }
}

/// 0–`max` rows `{id, k, f, t, p}`: `k` and `f` from [`attr`], `t` a 0/1
/// flag for build filters, `p` from [`nested`].
fn table(src: &mut Source, max: usize) -> Value {
    let n = src.draw_len(0, max);
    let mut out = Vec::with_capacity(n);
    for id in 0..n {
        let mut t = Tuple::new();
        t.insert("id", Value::Int(id as i64));
        for name in ["k", "f"] {
            if let Some(v) = attr(src) {
                t.insert(name, v);
            }
        }
        t.insert("t", Value::Int(src.draw_range_i64(0, 1)));
        if let Some(p) = nested(src) {
            t.insert("p", p);
        }
        out.push(Value::Tuple(t));
    }
    Value::Bag(out)
}

/// The probe table `u` and the build table `w`.
#[derive(Debug, Clone)]
struct Data {
    u: Value,
    w: Value,
}

fn data() -> Gen<Data> {
    Gen::new(|src| Data {
        u: table(src, 12),
        w: table(src, 6),
    })
}

const FILTERS: &[&str] = &[
    "e.f > 0.5",
    "e.k <> 'a'",
    "e.k = ?",
    "e.id < ?",
    "e.k IS NOT NULL",
    "e.k < 3",
];
const SORT_KEYS: &[&str] = &[
    "e.k",
    "e.k DESC",
    "e.f",
    "e.f DESC NULLS LAST",
    "e.k NULLS FIRST",
    "e.k + 1",
    "e.id DESC",
];
const LIMITS: &[&str] = &["0", "1", "2", "3", "5", "?"];
const KEYS: &[&str] = &["e.k = d.k", "e.k = d.k AND e.f + 1 = d.f + 1", "e.f = d.k"];
const PROBE: &[&str] = &["e.f > 0.5", "e.k = ?", "e.id < ?", "e.f IS NOT NULL"];
const RESIDUAL: &[&str] = &["e.id <> d.id", "e.f < d.f", "e.id + d.id > 3", "d.f = ?"];

/// A generated query and the parameters it runs with.
#[derive(Debug, Clone)]
struct Query {
    text: String,
    params: Vec<Value>,
    /// No LIMIT above a join can stop the scan, so with stats on every
    /// batch size scans the same rows, and every plan operator emits the
    /// same number of rows.
    counted: bool,
    /// The typing modes under which the optimized plan runs on the fused
    /// spine at batch 1024 whenever it answers.
    spine: &'static [TypingMode],
    /// A source-policy shape's answer under [`bindings`], where it has
    /// one.
    model: Option<Model>,
    /// What the shape's ORDER BY determines of its answer's order.
    order: Order,
}

/// What a shape's ORDER BY determines of its answer's order, compared
/// beside the canonical answer: the sequence of its rows' sort-key values
/// ([`key_value`]) — over a scan of `u`, a key `e.id` makes it the
/// sequence of the rows themselves. Rows that tie on every key may come
/// in any order.
#[derive(Debug, Clone, Default)]
enum Order {
    /// Nothing: the answer compares as a bag.
    #[default]
    Bag,
    /// Each row's keys, drawn from [`SORT_KEYS`], are read off the row of
    /// `u` its `e.id` names: a row's first element, or its `id`.
    Source(Vec<&'static str>),
    /// Each row is a set operation's element, `{id, k, f}`: its keys,
    /// drawn from [`SORT_KEYS`] with `e.` dropped, are read off it.
    Element(Vec<&'static str>),
}

const BOTH: &[TypingMode] = &[TypingMode::Permissive, TypingMode::StrictError];

/// A shape whose answer [`modelled`] derives from the data.
#[derive(Debug, Clone)]
enum Model {
    /// `SELECT VALUE [x(, i)] FROM source AS x (AT i)`.
    Scan { source: &'static str, at: bool },
    /// `SELECT VALUE [e.id, x(, i)] FROM u AS e, e.p AS x (AT i)`.
    Unnest { at: bool },
}

/// Every kind of FROM source §III tells apart: stored bag, array,
/// scalar, tuple and NULL, a literal array and bag, and an absent path.
const SOURCES: &[&str] = &[
    "u",
    "arr",
    "sc",
    "tup",
    "nul",
    "[1, 2, 3]",
    "<<1, 2>>",
    "tup.nope",
];

/// The value a [`SOURCES`] entry evaluates to (see [`engine`]).
fn source_value(source: &str, u: &Value) -> Value {
    match source {
        "u" => u.clone(),
        "arr" => Value::Array(u.as_elements().unwrap_or_default().to_vec()),
        "sc" => Value::Int(7),
        "tup" => tuple(vec![("id", Value::Int(0)), ("k", Value::Int(2))]),
        "nul" => Value::Null,
        "[1, 2, 3]" => Value::Array((1..=3).map(Value::Int).collect()),
        "<<1, 2>>" => Value::Bag((1..=2).map(Value::Int).collect()),
        _ => Value::Missing,
    }
}

/// §III, transcribed: the `(element, position)` bindings a FROM source
/// yields, or the error it raises. An array iterates with its indexes,
/// a bag with MISSING positions — which strict typing refuses to bind
/// to AT — MISSING yields nothing, and any other value binds once
/// (permissive) or raises (strict).
fn bindings(source: &Value, at: bool, strict: bool) -> Result<Vec<(Value, Value)>, &'static str> {
    Ok(match source {
        Value::Array(items) => (0..)
            .map(Value::Int)
            .zip(items)
            .map(|(i, v)| (v.clone(), i))
            .collect(),
        Value::Bag(items) if at && strict && !items.is_empty() => {
            return Err("AT position variable over an unordered bag");
        }
        Value::Bag(items) => items.iter().map(|v| (v.clone(), Value::Missing)).collect(),
        Value::Missing => Vec::new(),
        _ if strict => return Err("FROM source must be a collection"),
        single => vec![(single.clone(), Value::Missing)],
    })
}

/// The answer of a [`Model`] shape over the probe table `u`, or the
/// error it raises.
fn modelled(model: &Model, u: &Value, strict: bool) -> Result<Value, &'static str> {
    // `[…, x, i]`: the array constructor drops a MISSING position.
    let row = |mut prefix: Vec<Value>, at: bool, (x, i): (Value, Value)| {
        prefix.push(x);
        if at && !i.is_missing() {
            prefix.push(i);
        }
        Value::Array(prefix)
    };
    let mut out = Vec::new();
    match *model {
        Model::Scan { source, at } => {
            for b in bindings(&source_value(source, u), at, strict)? {
                out.push(row(Vec::new(), at, b));
            }
        }
        Model::Unnest { at } => {
            for e in u.as_elements().unwrap_or_default() {
                let Value::Tuple(t) = e else {
                    unreachable!("`u` holds tuples")
                };
                let p = t.get("p").cloned().unwrap_or(Value::Missing);
                for b in bindings(&p, at, strict)? {
                    out.push(row(vec![t.get("id").cloned().unwrap()], at, b));
                }
            }
        }
    }
    Ok(Value::Bag(out))
}

/// The value a [`SORT_KEYS`] entry gives a row, as the sort compares it:
/// ints as floats, so `2` and `2.0` tie; an absent attribute is MISSING,
/// and `+ 1` keeps NULL and MISSING and makes a string MISSING
/// (permissive typing; strict typing raises instead).
fn key_value(key: &str, row: &Tuple) -> Value {
    let attr = key.trim_start_matches("e.");
    let attr = &attr[..attr.find(' ').unwrap_or(attr.len())];
    let v = row.get(attr).cloned().unwrap_or(Value::Missing);
    let plus = if key.contains("+ 1") { 1.0 } else { 0.0 };
    match v {
        Value::Int(i) => Value::Float(i as f64 + plus),
        Value::Float(f) => Value::Float(f + plus),
        Value::Str(_) if plus > 0.0 => Value::Missing,
        other => other,
    }
}

/// The sequence of sort-key values of `answer`'s rows under `order`
/// (see [`Order`]); `u` is the table [`Order::Source`] reads.
fn key_sequence(order: &Order, answer: &Value, u: &Value) -> Vec<Value> {
    let (keys, from_source) = match order {
        Order::Bag => return Vec::new(),
        Order::Source(keys) => (keys, true),
        Order::Element(keys) => (keys, false),
    };
    let source = u.as_elements().unwrap_or_default();
    let tuple = |v: &Value| match v {
        Value::Tuple(t) => t.clone(),
        other => panic!("a sorted row of tuples, found {other}"),
    };
    (answer.as_elements().unwrap_or_default().iter())
        .map(|row| {
            let row = match (from_source, row) {
                (false, row) => tuple(row),
                (true, Value::Array(items)) => tuple(&source[id_of(&items[0])]),
                (true, Value::Tuple(t)) => tuple(&source[id_of(t.get("id").unwrap())]),
                (true, other) => panic!("a sorted row naming its `e.id`, found {other}"),
            };
            Value::Array(keys.iter().map(|k| key_value(k, &row)).collect())
        })
        .collect()
}

fn id_of(v: &Value) -> usize {
    match v {
        Value::Int(id) => *id as usize,
        other => panic!("an `e.id`, found {other}"),
    }
}

/// A source-policy shape over one of [`SOURCES`] or `e.p`, with `AT i`
/// half of the time.
fn policy_query(src: &mut Source) -> Query {
    let at = src.draw_below(2) == 0;
    let (at_clause, i) = if at { (" AT i", ", i") } else { ("", "") };
    let source = pick(src, SOURCES);
    // A scan with an AT variable keeps the binding stream.
    let scan_spine = if at { &[][..] } else { BOTH };
    let (text, counted, spine, model) = match src.draw_below(6) {
        0 => (
            format!("SELECT VALUE [x{i}] FROM {source} AS x{at_clause}"),
            true,
            scan_spine,
            Some(Model::Scan { source, at }),
        ),
        1 => (
            format!("SELECT VALUE [e.id, x{i}] FROM u AS e, e.p AS x{at_clause}"),
            true,
            &[][..],
            Some(Model::Unnest { at }),
        ),
        2 => (
            format!(
                "SELECT VALUE [x{i}] FROM {source} AS x{at_clause} WHERE {}",
                pick(src, &["x.id >= 1", "x.k = 2", "x > 1"])
            ),
            true,
            scan_spine,
            None,
        ),
        // A left-only conjunct filters the left rows below the UNNEST,
        // on the spine under permissive typing.
        3 => {
            let filter = pick(src, &["e.t = 1", "e.t = 1 AND x > 1", "x > 1"]);
            (
                format!(
                    "SELECT VALUE [e.id, x{i}] FROM u AS e, e.p AS x{at_clause} WHERE {filter}"
                ),
                true,
                match filter.starts_with("e.t") {
                    true => &[TypingMode::Permissive][..],
                    false => &[][..],
                },
                None,
            )
        }
        4 => (
            format!("SELECT x.k AS k, COUNT(*) AS n FROM {source} AS x{at_clause} GROUP BY x.k"),
            true,
            scan_spine,
            None,
        ),
        _ => {
            let from = match src.draw_below(2) {
                0 => format!("{source} AS x{at_clause}"),
                _ => format!("u AS e, e.p AS x{at_clause}"),
            };
            let limit = src.draw_range_i64(0, 3);
            (
                format!("SELECT VALUE [x{i}] FROM {from} LIMIT {limit}"),
                false,
                &[][..],
                None,
            )
        }
    };
    Query {
        text,
        params: Vec::new(),
        counted,
        spine,
        model,
        order: Order::Bag,
    }
}

/// ` WHERE c` for one filter, half of the time.
fn filter(src: &mut Source) -> String {
    match src.draw_below(2) {
        0 => String::new(),
        _ => format!(" WHERE {}", pick(src, FILTERS)),
    }
}

/// 1–2 sort keys.
fn sort_keys(src: &mut Source) -> Vec<&'static str> {
    (0..src.draw_len(1, 2))
        .map(|_| pick(src, SORT_KEYS))
        .collect()
}

/// ` LIMIT n`, with an OFFSET now and then.
fn limit(src: &mut Source) -> String {
    let offset = match src.draw_below(3) {
        0 => format!(" OFFSET {}", src.draw_range_i64(0, 3)),
        _ => String::new(),
    };
    format!(" LIMIT {}{offset}", pick(src, LIMITS))
}

/// `ORDER BY` 1–2 keys `LIMIT n`, with an OFFSET now and then, and the
/// keys.
fn order_limit(src: &mut Source) -> (String, Vec<&'static str>) {
    let keys = sort_keys(src);
    (format!(" ORDER BY {}{}", keys.join(", "), limit(src)), keys)
}

/// The equi-key, then any of a probe filter, a build filter and a
/// residual, in random order.
fn join_condition(src: &mut Source) -> String {
    let mut out = vec![pick(src, KEYS)];
    if src.draw_below(2) == 0 {
        out.push(pick(src, PROBE));
    }
    if src.draw_below(3) == 0 {
        out.push("d.t = 1");
    }
    if src.draw_below(2) == 0 {
        out.push(pick(src, RESIDUAL));
    }
    for i in (1..out.len()).rev() {
        out.swap(i, src.draw_below(i as u64 + 1) as usize);
    }
    out.join(" AND ")
}

/// A non-bare input binding `e`, a row of `u` or `arr`: its FROM items,
/// its LET clause, and an expression over its other variable — a scan
/// with `AT i`, an UNNEST correlate, a hash join and a LET.
const INPUTS: &[(&str, &str, &str)] = &[
    ("arr AS e AT i", "", "i"),
    ("u AS e, e.p AS x", "", "x"),
    ("u AS e JOIN w AS d ON e.k = d.k", "", "d.id"),
    ("u AS e", " LET z = e.f + 1", "z"),
];

/// Every consumer of the row loop over a non-bare input (see [`INPUTS`]),
/// so the loop reads the input's binding stream at batch 2 and 1024 too:
/// a projection, a DISTINCT, a PIVOT, a sort, a top-k, a folded GROUP BY,
/// a GROUP AS, a correlate's pushed left filter, and a hash join's probe
/// side (INNER, and LEFT, whose rejected rows are padded) and build side;
/// and the operators that run programs fetched at open per row: a window
/// and a non-equi nested-loop join, INNER and LEFT.
fn input_query(src: &mut Source) -> Query {
    let (from, lets, other) = pick(src, INPUTS);
    let mut order = Order::Bag;
    let text = match src.draw_below(13) {
        0 => format!(
            "SELECT VALUE [e.id, e.k, {other}] FROM {from}{lets}{}",
            filter(src)
        ),
        1 => {
            let filter = filter(src);
            let (order_limit, keys) = order_limit(src);
            order = Order::Source(keys);
            format!("SELECT VALUE [e.id, e.k, {other}] FROM {from}{lets}{filter}{order_limit}")
        }
        2 => format!(
            "SELECT e.t AS t, COUNT(*) AS n, SUM(e.id) AS s, MAX({other}) AS m \
             FROM {from}{lets}{} GROUP BY e.t",
            filter(src)
        ),
        3 => format!(
            "SELECT t, (SELECT VALUE [g.e.id, g.e.k] FROM grp AS g) AS rows \
             FROM {from}{lets}{} GROUP BY e.t AS t GROUP AS grp",
            filter(src)
        ),
        // A left-only conjunct over the input's other variable filters
        // the input's rows below the UNNEST of `e.p`.
        4 => format!(
            "SELECT VALUE [e.id, y] FROM {from}, e.p AS y{lets} WHERE {other} > 1{}",
            pick(src, &["", " AND y > 1"])
        ),
        5 => format!(
            "SELECT VALUE [e.id, c.id] FROM {from}, w AS c{lets} WHERE {}",
            join_condition(src).replace("d.", "c.")
        ),
        // The input's rows feed a LEFT join's probe side where the JOIN
        // syntax reaches them.
        6 if !from.contains(',') => format!(
            "SELECT VALUE [e.id, c.id] FROM {from} LEFT JOIN w AS c ON {}{lets}",
            join_condition(src).replace("d.", "c.")
        ),
        8 => format!(
            "SELECT DISTINCT VALUE [e.k, {other}] FROM {from}{lets}{}",
            filter(src)
        ),
        9 => format!("PIVOT {other} AT e.k FROM {from}{lets}{}", filter(src)),
        10 => {
            let filter = filter(src);
            let keys = sort_keys(src);
            let text = format!(
                "SELECT VALUE [e.id, e.k, {other}] FROM {from}{lets}{filter} ORDER BY {}",
                keys.join(", ")
            );
            order = Order::Source(keys);
            text
        }
        // Rows that tie on the window's ORDER BY also agree on what the
        // answer shows of them, so its multiset is the same under every
        // plan.
        11 => format!(
            "SELECT VALUE [e.id, e.t, ROW_NUMBER() OVER (PARTITION BY e.t ORDER BY e.id)]              FROM {from}{lets}{}",
            filter(src)
        ),
        12 => format!(
            "SELECT VALUE [e.id, c.id] FROM {from} {} w AS c ON e.k < c.k{lets}",
            pick(src, &["JOIN", "LEFT JOIN"])
        ),
        // The input is the build side where it is uncorrelated.
        _ => format!(
            "SELECT VALUE [c.id, e.id] FROM w AS c, {from}{lets} WHERE c.k = e.k{}",
            pick(src, &["", " AND e.f > 0.5", " AND c.t = 1"])
        ),
    };
    Query {
        params: params(src, &text),
        text,
        counted: true,
        spine: &[],
        model: None,
        order,
    }
}

/// Values for the `?`s in `text`; now and then they are never supplied.
fn params(src: &mut Source, text: &str) -> Vec<Value> {
    if src.draw_below(4) == 0 {
        return Vec::new();
    }
    (0..text.matches('?').count())
        .map(|_| {
            pick(
                src,
                &[
                    Value::Int(1),
                    Value::Int(2),
                    Value::Str("a".into()),
                    Value::Float(0.5),
                ],
            )
        })
        .collect()
}

fn queries() -> Gen<Query> {
    Gen::new(|src| {
        match src.draw_below(6) {
            0 | 1 => return policy_query(src),
            2 => return input_query(src),
            _ => {}
        }
        let shape = src.draw_below(15);
        let mut order = Order::Bag;
        let text = match shape {
            0..=2 => {
                let filter = filter(src);
                let (order_limit, keys) = order_limit(src);
                order = Order::Source(keys);
                match shape {
                    2 => format!("SELECT e.id AS id, e.k AS k FROM u AS e{filter}{order_limit}"),
                    _ => format!("SELECT VALUE [e.id, e.k, e.f] FROM u AS e{filter}{order_limit}"),
                }
            }
            // The spine reads the outer `o` from its environment. Each
            // subquery's order is not compared: the answer is a bag.
            3 => format!(
                "SELECT o.f AS f, (SELECT VALUE e.id FROM u AS e WHERE e.k <> o.f{}) AS s \
                 FROM outer_rows AS o",
                order_limit(src).0
            ),
            4 | 5 => format!(
                "SELECT VALUE [e.id, d.id] FROM u AS e, w AS d WHERE {}",
                join_condition(src)
            ),
            6 => format!(
                "SELECT VALUE [e.id, d.id] FROM u AS e {} w AS d ON {}",
                pick(src, &["JOIN", "INNER JOIN"]),
                join_condition(src)
            ),
            // A LIMIT above the join stops its probe side early.
            7 => format!(
                "SELECT VALUE [e.id, d.id] FROM u AS e, w AS d WHERE {} LIMIT {}",
                join_condition(src),
                src.draw_range_i64(1, 3)
            ),
            8 => format!(
                "SELECT d.t AS t, COUNT(*) AS n, SUM(e.id) AS s FROM u AS e, w AS d \
                 WHERE {} GROUP BY d.t",
                join_condition(src)
            ),
            // The control: a LEFT join keeps the binding stream.
            9 => format!(
                "SELECT VALUE [e.id, d.id] FROM u AS e LEFT JOIN w AS d ON {}",
                join_condition(src)
            ),
            10 => format!(
                "SELECT DISTINCT VALUE [e.k, e.t] FROM u AS e{}",
                filter(src)
            ),
            11 => format!("PIVOT e.id AT e.k FROM u AS e{}", filter(src)),
            12 => {
                let filter = filter(src);
                let keys = sort_keys(src);
                let text = format!(
                    "SELECT VALUE [e.id, e.k, e.f] FROM u AS e{filter} ORDER BY {}",
                    keys.join(", ")
                );
                order = Order::Source(keys);
                text
            }
            // An ORDER BY above a set operation sorts the block over its
            // elements; a key names an element's attribute, which an
            // element that lacks it fails to resolve.
            _ => {
                let element = |src: &mut Source, table| {
                    let filter = match src.draw_below(3) {
                        0 => String::new(),
                        1 => " WHERE e.k IS NOT MISSING AND e.f IS NOT MISSING".to_string(),
                        _ => format!(" WHERE {}", pick(src, FILTERS)),
                    };
                    format!(
                        "SELECT VALUE {{'id': e.id, 'k': e.k, 'f': e.f}} FROM {table} AS e{filter}"
                    )
                };
                let left = element(src, "u");
                let set_op = pick(src, &["UNION ALL", "UNION", "INTERSECT ALL", "EXCEPT"]);
                let right = element(src, "w");
                let keys = sort_keys(src);
                let limit = match src.draw_below(3) {
                    0 => String::new(),
                    1 => format!(" OFFSET {}", src.draw_range_i64(0, 3)),
                    _ => limit(src),
                };
                let text = format!(
                    "{left} {set_op} {right} ORDER BY {}{limit}",
                    keys.join(", ").replace("e.", "")
                );
                order = Order::Element(keys);
                text
            }
        };
        let params = params(src, &text);
        // A top-k, and a set operation below one, opens no scan for
        // LIMIT 0; a LEFT join keeps the binding stream.
        let spine = match shape {
            0..=3 | 13.. if text.contains("LIMIT 0") => &[][..],
            9 => &[][..],
            _ => BOTH,
        };
        // A LIMIT above a join stops its probe side after a number of
        // rows that depends on the batch size.
        Query {
            counted: shape != 7,
            spine,
            text,
            params,
            model: None,
            order,
        }
    })
}

fn engine(u: &Value, w: &Value) -> Engine {
    let engine = Engine::new();
    engine.register("u", u.clone());
    engine.register("w", w.clone());
    engine.register(
        "arr",
        Value::Array(u.as_elements().unwrap_or_default().to_vec()),
    );
    for name in ["sc", "tup", "nul"] {
        engine.register(name, source_value(name, u));
    }
    engine.register(
        "outer_rows",
        Value::Bag(
            [Value::Int(1), Value::Str("a".into()), Value::Null]
                .map(|f| tuple(vec![("f", f)]))
                .to_vec(),
        ),
    );
    engine
}

fn config(typing: TypingMode, optimize: bool, batch_size: usize) -> SessionConfig {
    SessionConfig {
        typing,
        optimize,
        batch_size,
        ..SessionConfig::default()
    }
}

/// The outcome of one run, as compared: the canonical answer with the
/// sequence of its rows' sort-key values (see [`Order`]), or the error
/// string.
type Outcome = Result<(Value, Vec<Value>), String>;

fn outcome(r: sqlpp::Result<sqlpp::QueryResult>, order: &Order, u: &Value) -> Outcome {
    r.map(|r| (r.canonical(), key_sequence(order, r.value(), u)))
        .map_err(|e| e.to_string())
}

/// Runs `q` under `base` in every arm — batch 1, 2 and 1024 with optimize
/// on and off — and returns each setting's batch-1 outcome, `(on, off)`,
/// once every other arm has been checked against them, in the order
/// `order` determines over `u`. Batch 1 is the
/// binding stream, where the spine never runs; batch 2 and 1024 run the
/// spine, and must give the identical answer or error. Across settings
/// only answers are compared: a hash join evaluates its conjuncts in
/// another order than the literal WHERE, so where one plan raises the
/// other may not, with or without the spine.
fn arms(
    engine: &Engine,
    base: &SessionConfig,
    q: &str,
    params: &[Value],
    (order, u): (&Order, &Value),
) -> Result<(Outcome, Outcome), String> {
    let run = |optimize, batch_size| {
        let session = engine.with_config(SessionConfig {
            optimize,
            batch_size,
            ..base.clone()
        });
        outcome(session.query_with_params(q, params.to_vec()), order, u)
    };
    let batch_one = |optimize| {
        let reference = run(optimize, 1);
        for batch_size in [2, 1024] {
            let got = run(optimize, batch_size);
            if got != reference {
                return Err(format!(
                    "{:?}, optimize {optimize}, batch {batch_size}: {q} {params:?}: \
                     got {got:?}, batch 1 gave {reference:?}",
                    base.typing
                ));
            }
        }
        Ok(reference)
    };
    let (on, off) = (batch_one(true)?, batch_one(false)?);
    if let (Ok(a), Ok(b)) = (&on, &off) {
        if a != b {
            return Err(format!(
                "{:?}: {q} {params:?}: optimize on gave {a:?}, the literal plan {b:?}",
                base.typing
            ));
        }
    }
    Ok((on, off))
}

/// The source-policy and stats axes of a shape, given its batch-1
/// outcomes `(on, off)` from [`arms`]: a modelled shape gives
/// [`modelled`]'s answer, or an error that carries its message, under
/// either plan; and with stats on — through
/// `Prepared::execute_with_stats`, so `?` shapes run too — every batch
/// size gives the stats-off batch-1 outcome. Of the runs that answer:
/// no operator is labelled `fused` at batch 1, and a spine shape labels
/// some at batch 1024 with the optimizer on; a counted shape has one
/// `rows_scanned` and one `rows` per plan operator throughout.
fn policy_arms(
    engine: &Engine,
    base: &SessionConfig,
    q: &Query,
    u: &Value,
    (on, off): (Outcome, Outcome),
) -> Result<(), String> {
    let text = &q.text;
    if let Some(model) = &q.model {
        let want = modelled(model, u, base.typing == TypingMode::StrictError);
        for got in [&on, &off] {
            let agrees = match (got, &want) {
                (Ok((got, _)), Ok(want)) => *got == sqlpp_value::canonicalize(want),
                (Err(got), Err(want)) => got.contains(want),
                _ => false,
            };
            if !agrees {
                return Err(format!(
                    "{:?}: {text}: got {got:?}, the source policy gives {want:?}",
                    base.typing
                ));
            }
        }
    }
    for (optimize, reference) in [(true, on), (false, off)] {
        let mut counts = Vec::new();
        for batch_size in [1, 2, 1024] {
            let session = engine.with_config(SessionConfig {
                optimize,
                batch_size,
                ..base.clone()
            });
            let (run, stats) = match session.prepare(text) {
                Ok(prepared) => prepared.execute_with_stats(&session, q.params.clone()),
                Err(e) => (Err(e), None),
            };
            let got = outcome(run, &q.order, u);
            if got != reference {
                return Err(format!(
                    "{:?}, optimize {optimize}, batch {batch_size}, stats on: {text} {:?}: \
                     got {got:?}, batch 1 gave {reference:?}",
                    base.typing, q.params
                ));
            }
            let (Ok(_), Some(stats)) = (&got, stats) else {
                continue;
            };
            let fused = stats.ops.values().any(|op| op.fused);
            let must_fuse = optimize && batch_size == 1024 && q.spine.contains(&base.typing);
            if (batch_size == 1 && fused) || (must_fuse && !fused) {
                return Err(format!(
                    "{:?}, optimize {optimize}, batch {batch_size}: {text}: \
                     fused labels {:?}",
                    base.typing, stats.ops
                ));
            }
            let rows: BTreeMap<u32, u64> =
                stats.ops.iter().map(|(&k, op)| (k, op.rows_out)).collect();
            counts.push((batch_size, stats.rows_scanned, rows));
        }
        if q.counted
            && counts
                .windows(2)
                .any(|w| (w[0].1, &w[0].2) != (w[1].1, &w[1].2))
        {
            return Err(format!(
                "{:?}, optimize {optimize}: {text} {:?}: \
                 (batch, rows_scanned, rows per operator) {counts:?}",
                base.typing, q.params
            ));
        }
    }
    Ok(())
}

// The CI spine differential gate scales the sweep through
// `SQLPP_PROP_CASES`.
sqlpp_prop! {
    #![config(cases = prop::cases(600))]

    fn spine_consumers_match_the_binding_stream_and_the_literal_plan(d in data(), q in queries()) {
        let engine = engine(&d.u, &d.w);
        for base in both_typings() {
            let checked = arms(&engine, &base, &q.text, &q.params, (&q.order, &d.u))
                .and_then(|outcomes| policy_arms(&engine, &base, &q, &d.u, outcomes));
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}

/// [`arms`] over a bag, panicking on a disagreement; returns the
/// optimized plan's canonical answer or error.
fn every_arm(
    engine: &Engine,
    base: &SessionConfig,
    q: &str,
    params: &[Value],
) -> Result<Value, String> {
    match arms(engine, base, q, params, (&Order::Bag, &Value::Missing)) {
        Ok((on, _)) => on.map(|(answer, _)| answer),
        Err(e) => panic!("{e}"),
    }
}

fn both_typings() -> [SessionConfig; 2] {
    [TypingMode::Permissive, TypingMode::StrictError].map(|typing| config(typing, true, 1024))
}

fn rows(n: i64, f: impl Fn(i64) -> Vec<(&'static str, Value)>) -> Value {
    Value::Bag((0..n).map(|i| tuple(f(i))).collect())
}

/// An empty build side matches nothing, and the probe filter — which
/// raises on every row (an unsupplied `?`) — is never evaluated: no left
/// predicate or key runs against an empty build.
#[test]
fn a_raising_probe_filter_over_an_empty_build_side_answers_empty() {
    let u = rows(100, |i| {
        vec![("id", Value::Int(i)), ("k", Value::Int(i % 3))]
    });
    let engine = engine(&u, &Value::Bag(Vec::new()));
    for q in [
        "SELECT VALUE [e.id, d.id] FROM u AS e, w AS d WHERE e.k = d.k AND e.id = ?",
        "SELECT VALUE [e.id, d.id] FROM u AS e JOIN w AS d ON e.k = d.k AND e.id = ?",
    ] {
        assert!(engine
            .with_config(config(TypingMode::Permissive, true, 1024))
            .explain(q)
            .unwrap()
            .contains("probe-filter"));
        for base in both_typings() {
            assert_eq!(
                every_arm(&engine, &base, q, &[]),
                Ok(Value::Bag(Vec::new()))
            );
        }
    }
}

/// A probe filter that rejects every left row does not skip the build:
/// a raising build side raises exactly as it does on the binding stream.
/// With an empty left side nothing is built, so the same build side
/// cannot raise.
#[test]
fn the_build_runs_when_every_left_row_is_rejected_and_not_when_the_left_is_empty() {
    let u = rows(50, |i| vec![("id", Value::Int(i)), ("k", Value::Int(i))]);
    // Strict typing raises on `d.k + 'x'` for the first build row.
    let w = rows(3, |i| vec![("id", Value::Int(i)), ("k", Value::Int(i))]);
    let q = "SELECT VALUE [e.id, d.id] FROM u AS e, w AS d WHERE e.k = d.k + 'x' AND e.id < 0";
    let strict = config(TypingMode::StrictError, true, 1024);
    let err = every_arm(&engine(&u, &w), &strict, q, &[]).expect_err("the build raises");
    assert!(err.contains("string"), "{err}");
    // Permissive typing builds nothing that matches: every key is MISSING.
    let permissive = config(TypingMode::Permissive, true, 1024);
    assert_eq!(
        every_arm(&engine(&u, &w), &permissive, q, &[]),
        Ok(Value::Bag(Vec::new()))
    );
    for base in both_typings() {
        assert_eq!(
            every_arm(&engine(&Value::Bag(Vec::new()), &w), &base, q, &[]),
            Ok(Value::Bag(Vec::new()))
        );
    }
}

/// The `UnknownName ⇒ NestedLoop` fallback: `tags` is an attribute of
/// each left row, not a catalog name, so the build cannot resolve it and
/// the join runs as the nested loop it was derived from — over the
/// spine's already-opened left source, every row of it.
#[test]
fn the_unknown_name_fallback_answers_from_the_spine_source() {
    let u = rows(6, |i| {
        vec![
            ("k", Value::Int(i % 3)),
            ("tags", Value::Array(vec![Value::Int(i % 3), Value::Int(1)])),
        ]
    });
    let engine = engine(&u, &Value::Bag(Vec::new()));
    let q = "SELECT VALUE [x.k, b] FROM u AS x, tags AS b WHERE x.k = b";
    let session = engine.with_config(config(TypingMode::Permissive, true, 1024));
    assert!(session.explain(q).unwrap().contains("hash join"));
    for base in both_typings() {
        let got = every_arm(&engine, &base, q, &[]).unwrap();
        assert_eq!(got.as_elements().map(<[Value]>::len), Some(8), "{got}");
    }
}

/// A `?` LIMIT over a projection plans a top-k whose heap bound is the
/// parameter plus the OFFSET, under the LIMIT/OFFSET that checks both
/// first. Every value — a good one, zero, a non-integer, a negative, an
/// unsupplied one and `i64::MAX`, whose sum with an OFFSET saturates —
/// gives the literal plan's answer or its identical error.
#[test]
fn a_parameter_limit_over_a_projection_runs_a_top_k_for_every_value() {
    let u = rows(30, |i| {
        vec![
            ("id", Value::Int(i)),
            ("k", Value::Int(i % 7)),
            (
                "f",
                if i == 4 {
                    Value::Str("s".into())
                } else {
                    Value::Int(i)
                },
            ),
        ]
    });
    let engine = engine(&u, &Value::Bag(Vec::new()));
    let values = [
        Some(Value::Int(3)),
        Some(Value::Int(0)),
        Some(Value::Float(1.5)),
        Some(Value::Str("a".into())),
        Some(Value::Int(-1)),
        Some(Value::Int(i64::MAX)),
        None,
    ];
    for q in [
        "SELECT e.id AS id, e.f + 1 AS g FROM u AS e ORDER BY e.k DESC, e.id LIMIT ?",
        "SELECT e.id AS id, e.f + 1 AS g FROM u AS e ORDER BY e.k, e.id LIMIT ? OFFSET ?",
        "SELECT e.id AS id, e.f + 1 AS g FROM u AS e ORDER BY e.k, e.id LIMIT ? OFFSET 2",
    ] {
        let plan = engine.with_config(config(TypingMode::Permissive, true, 1024));
        let text = plan.explain(q).unwrap();
        assert!(text.contains("top-k") && !text.contains("sort"), "{text}");
        let slots = q.matches('?').count();
        for limit in &values {
            for offset in [Some(Value::Int(1)), Some(Value::Int(i64::MAX)), None] {
                // An unsupplied value leaves every later one unsupplied.
                let params: Vec<Value> = [limit.clone(), offset]
                    .into_iter()
                    .take(slots)
                    .map_while(|v| v)
                    .collect();
                for base in both_typings() {
                    let (on, off) = match arms(&engine, &base, q, &params, (&Order::Bag, &u)) {
                        Ok(outcomes) => outcomes,
                        Err(e) => panic!("{e}"),
                    };
                    assert_eq!(on, off, "{:?}: {q} {params:?}", base.typing);
                }
            }
        }
    }
}

/// LIMIT 0 evaluates nothing — not the source, not a key that raises in
/// strict mode (`e.k + 1` on a string).
#[test]
fn limit_zero_evaluates_no_key() {
    let u = rows(10, |i| {
        vec![("id", Value::Int(i)), ("k", Value::Str("s".into()))]
    });
    let engine = engine(&u, &Value::Bag(Vec::new()));
    let q = "SELECT VALUE e.id FROM u AS e ORDER BY e.k + 1 LIMIT 0";
    assert!(engine
        .with_config(config(TypingMode::StrictError, true, 1024))
        .explain(q)
        .unwrap()
        .contains("top-k"));
    for base in both_typings() {
        let got = every_arm(&engine, &base, q, &[]).unwrap();
        assert_eq!(got.as_elements().map(<[Value]>::len), Some(0), "{got}");
    }
    // The same key raises as soon as one row is wanted.
    let strict = config(TypingMode::StrictError, true, 1024);
    let q = "SELECT VALUE e.id FROM u AS e ORDER BY e.k + 1 LIMIT 1";
    assert!(every_arm(&engine, &strict, q, &[]).is_err());
}

/// A top-k under a memory budget, with stats off: the spine charges each
/// row what its binding would weigh, so the budget admits and refuses at
/// the same row as the binding stream (batch 1), with the same figures
/// in the error.
#[test]
fn a_budgeted_top_k_admits_and_refuses_at_the_same_row_as_batch_one() {
    let u = rows(200, |i| {
        vec![
            ("id", Value::Int(i)),
            ("k", Value::Int(i % 17)),
            ("pad", Value::Str("x".repeat((i % 7) as usize * 10))),
        ]
    });
    let engine = engine(&u, &Value::Bag(Vec::new()));
    let q = "SELECT VALUE e.id FROM u AS e WHERE e.id >= 3 ORDER BY e.k DESC, e.id LIMIT 40";
    let mut outcomes = Vec::new();
    for bytes in [1_000, 4_000, 8_000, 100_000] {
        for base in both_typings() {
            let base = SessionConfig {
                limits: Limits::none().with_memory_bytes(bytes),
                ..base
            };
            outcomes.push(every_arm(&engine, &base, q, &[]));
        }
    }
    // The sweep straddles the budget: some budgets refuse, some answer.
    assert!(outcomes.iter().any(Result::is_ok), "{outcomes:?}");
    assert!(
        outcomes
            .iter()
            .any(|r| r.as_ref().is_err_and(|e| e.contains("memory"))),
        "{outcomes:?}"
    );
}

/// A tiny spill budget sends the join Grace-style to disk: the spilled
/// probe, fed off the spine, gives the in-memory answer as a multiset.
#[test]
fn a_grace_spilled_spine_probe_gives_the_in_memory_answer() {
    let u = rows(300, |i| {
        vec![
            ("id", Value::Int(i)),
            ("k", Value::Int(i % 23)),
            ("f", Value::Float((i % 5) as f64)),
        ]
    });
    let w = rows(120, |i| {
        vec![
            ("id", Value::Int(i)),
            ("k", Value::Int(i % 29)),
            ("f", Value::Float((i % 3) as f64)),
        ]
    });
    let engine = engine(&u, &w);
    for q in [
        "SELECT VALUE [e.id, d.id] FROM u AS e, w AS d WHERE e.k = d.k AND e.f > 1",
        "SELECT VALUE [e.id, d.id] FROM u AS e JOIN w AS d ON e.k = d.k AND e.f < d.f",
    ] {
        for base in both_typings() {
            let in_memory = every_arm(&engine, &base, q, &[]).unwrap();
            let budgeted = SessionConfig {
                limits: Limits::none().with_memory_bytes(2_000),
                ..base
            };
            // The build does not fit the budget…
            let refused = every_arm(&engine, &budgeted, q, &[]).unwrap_err();
            assert!(refused.contains("memory"), "{refused}");
            // …so with spilling on, the join runs on disk.
            let spilled = SessionConfig {
                spill: Some(SpillConfig::default()),
                ..budgeted
            };
            assert_eq!(every_arm(&engine, &spilled, q, &[]), Ok(in_memory));
        }
    }
}
