//! The seeded generator: data, request streams, and the plain-Rust model
//! that says what every answer must be.
//!
//! Everything here is a pure function of `(seed, scale)`. The program
//! under test sees only what this module emits — collection values to
//! register and `(statement text, parameters)` pairs to send — and every
//! expected answer is computed here by ordinary loops over the generated
//! rows, never by the engine. The SQL++ rules the model encodes are the
//! paper's: navigation into an absent attribute is MISSING, a tuple
//! constructor drops MISSING attributes, arithmetic propagates NULL and
//! turns a wrongly-typed operand into MISSING (permissive typing), a
//! predicate keeps a row only when it is TRUE, and (SQL-compat mode)
//! `CASE` takes its `ELSE` on any non-TRUE condition.

use std::collections::{BTreeMap, VecDeque};

use sqlpp_testkit::rng::{mix, Rng};
use sqlpp_value::{Tuple, Value};

use crate::check::Expect;

/// Rows in `hr.dept`.
pub const DEPTS: i64 = 64;
/// Rows in `hr.emp_small`.
pub const EMP_SMALL: i64 = 256;
/// Rows in `hr.emp` for a full `analytic-scan` run (about 12 MB of
/// values: well beyond the 2 MiB of L2 a core has here). Sized so that
/// a window holds several hundred requests — see README.md.
pub const EMP_FULL: i64 = 20_000;
/// Rows in `hr.emp` under `--smoke`.
pub const EMP_SMOKE: i64 = 10_000;
/// Steady size of `ev.log`.
pub const EV_ROWS: i64 = 5_000;
/// Distinct texts in the `adhoc-plan` pool.
pub const POOL: usize = 4096;
/// Requests in one client's `short-cached` stream (cycled).
pub const SHORT_STREAM: usize = 4096;
/// Closed-loop clients (and server workers) in every workload.
pub const CLIENTS: usize = 2;

const TITLES: [&str; 8] = [
    "Engineer",
    "Manager",
    "Analyst",
    "Director",
    "Designer",
    "Architect",
    "Clerk",
    "Intern",
];
const REGIONS: [&str; 4] = ["east", "west", "north", "south"];
const PROJECTS: [&str; 16] = [
    "OLTP Security",
    "OLAP Security",
    "Serverless Query",
    "Query Compiler",
    "Index Advisor",
    "Data Lake",
    "Stream Ingest",
    "Schema Inference",
    "Cost Model",
    "Wire Protocol",
    "Plan Cache",
    "Spill Manager",
    "Log Shipping",
    "Snapshot Store",
    "Type Checker",
    "Catalog Service",
];
const CITIES: [&str; 8] = [
    "Irvine",
    "San Diego",
    "Seattle",
    "Austin",
    "Boston",
    "Denver",
    "Portland",
    "Chicago",
];
const KINDS: [&str; 4] = ["click", "view", "purchase", "refund"];

/// The four workloads. Names and reasons are fixed by the benchmark
/// definition and mirrored verbatim in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ShortCached,
    AdhocPlan,
    AnalyticScan,
    DurableWrites,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ShortCached,
        Workload::AdhocPlan,
        Workload::AnalyticScan,
        Workload::DurableWrites,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ShortCached => "short-cached",
            Workload::AdhocPlan => "adhoc-plan",
            Workload::AnalyticScan => "analytic-scan",
            Workload::DurableWrites => "durable-writes",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, as in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ShortCached => {
                "16 parameterized shapes over 64/256-row collections: the plan cache always hits and the data is tiny, so socket, dispatch, wire codec and cache lookup get their largest share of a request here"
            }
            Workload::AdhocPlan => {
                "4096 distinct wide query texts walked cyclically so the 256-entry plan cache never hits: every request pays lookup-miss, parse, lower, optimize, insert and eviction; the opposite use of the same cache"
            }
            Workload::AnalyticScan => {
                "8 cached shapes over 20000 nested, heterogeneous rows: working set beyond L2 and front end under 1%, so eval does nearly all the work; one shape returns every row, making response encoding large"
            }
            Workload::DurableWrites => {
                "50% single-row INSERT/UPDATE/DELETE on a 5000-row collection, fsync-always WAL, 64 MiB checkpoints, 50% reads of it: DML clone, WAL and checkpoints dominate; a restart must keep every acked write"
            }
        }
    }
}

/// One request of a stream: what to send and what must come back.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index into the workload's shape labels (statement shape, query
    /// family, or operation kind) — latency is reported per shape.
    pub shape: usize,
    pub text: String,
    pub params: Vec<Value>,
    pub expect: Expect,
}

impl Request {
    /// The statement with every `?` replaced by its parameter's literal,
    /// for entry points that take no parameters
    /// (`Engine::query_with_stats`). No generated text has a `?` inside a
    /// string literal.
    pub fn literal_text(&self) -> String {
        let mut out = String::with_capacity(self.text.len() + 16);
        let mut params = self.params.iter();
        for ch in self.text.chars() {
            if ch == '?' {
                match params.next() {
                    Some(Value::Int(i)) => out.push_str(&i.to_string()),
                    Some(Value::Str(s)) => {
                        out.push('\'');
                        out.push_str(s);
                        out.push('\'');
                    }
                    other => panic!("unsupported parameter {other:?}"),
                }
            } else {
                out.push(ch);
            }
        }
        out
    }
}

// ---------------------------------------------------------------- rows

fn tuple(pairs: Vec<(&str, Value)>) -> Value {
    Value::Tuple(Tuple::from_pairs(pairs))
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn pick<'a>(rng: &mut Rng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// Integer attribute of a model row (`None` when absent or not an Int).
fn int(row: &Value, attr: &str) -> Option<i64> {
    row.as_tuple()?.get(attr)?.as_int()
}

fn str_attr<'a>(row: &'a Value, attr: &str) -> Option<&'a str> {
    row.as_tuple()?.get(attr)?.as_str()
}

fn projects(row: &Value) -> &[Value] {
    row.as_tuple()
        .and_then(|t| t.get("projects"))
        .and_then(Value::as_elements)
        .unwrap_or(&[])
}

/// `hr.dept`: `{dno, dname, region, budget}` — flat and fully populated.
pub fn depts(seed: u64) -> Vec<Value> {
    let mut rng = Rng::new(mix(seed, 0xD397));
    (0..DEPTS)
        .map(|dno| {
            tuple(vec![
                ("dno", Value::Int(dno)),
                ("dname", Value::Str(format!("dept-{dno:02}"))),
                ("region", s(REGIONS[(dno % 4) as usize])),
                ("budget", Value::Int(rng.gen_range(10..=200) * 1000)),
            ])
        })
        .collect()
}

/// `hr.emp` / `hr.emp_small`: nested and heterogeneous on purpose.
/// `title` is MISSING on 10 % of rows; `sal` is NULL on 2 % and a string
/// on 1 %; `addr` is MISSING on 20 % and lacks `zip` on a further 10 %;
/// `projects` is an array of 0–6 `{name, hours}` tuples (mean 3).
pub fn emps(seed: u64, n: i64) -> Vec<Value> {
    let mut rng = Rng::new(mix(seed, 0xE3B5 ^ n as u64));
    (0..n)
        .map(|id| {
            let title = if rng.gen_bool(0.10) {
                Value::Missing
            } else {
                s(pick(&mut rng, &TITLES))
            };
            let sal = match rng.gen_range(0..100) {
                0 | 1 => Value::Null,
                2 => s("n/a"),
                _ => Value::Int(rng.gen_range(30..=150) * 1000 + rng.gen_range(0..1000)),
            };
            let addr = match rng.gen_range(0..10) {
                0 | 1 => Value::Missing,
                2 => tuple(vec![("city", s(pick(&mut rng, &CITIES)))]),
                _ => tuple(vec![
                    ("city", s(pick(&mut rng, &CITIES))),
                    ("zip", Value::Int(rng.gen_range(10_000..99_999))),
                ]),
            };
            let nproj = rng.gen_range(0..=6);
            let projects = (0..nproj)
                .map(|_| {
                    tuple(vec![
                        ("name", s(pick(&mut rng, &PROJECTS))),
                        ("hours", Value::Int(rng.gen_range(1..=40))),
                    ])
                })
                .collect();
            tuple(vec![
                ("id", Value::Int(id)),
                ("name", Value::Str(format!("emp-{id:06}"))),
                ("deptno", Value::Int(rng.gen_range(0..DEPTS))),
                ("title", title),
                ("sal", sal),
                ("addr", addr),
                ("projects", Value::Array(projects)),
            ])
        })
        .collect()
}

fn event(id: i64, owner: i64, rng: &mut Rng) -> Value {
    tuple(vec![
        ("id", Value::Int(id)),
        ("owner", Value::Int(owner)),
        ("kind", s(pick(rng, &KINDS))),
        ("val", Value::Int(rng.gen_range(0..1_000_000))),
        (
            "note",
            Value::Str(format!(
                "evt-{:016x}-{:016x}",
                rng.next_u64(),
                rng.next_u64()
            )),
        ),
    ])
}

/// `ev.log` base rows: ids `0..EV_ROWS`, owned alternately by the clients.
pub fn events(seed: u64) -> Vec<Value> {
    let mut rng = Rng::new(mix(seed, 0xE7E7));
    (0..EV_ROWS)
        .map(|id| event(id, id % CLIENTS as i64, &mut rng))
        .collect()
}

// ------------------------------------------------- the model's expressions

/// A scalar expression over one row variable, printable as SQL++ and
/// evaluable by the model. Only shapes whose semantics the module docs
/// state are generated.
#[derive(Debug, Clone)]
enum Ex {
    /// `var.attr` — any stored value, MISSING when absent.
    Attr(&'static str),
    /// `var.a.b`.
    Attr2(&'static str, &'static str),
    /// `inner + k`, `inner * k`, `inner % k`.
    Arith(Box<Ex>, char, i64),
    /// `CASE WHEN inner < k THEN a ELSE b END`.
    CaseLt(Box<Ex>, i64, i64, i64),
}

impl Ex {
    /// SQL++ text over row variable `var`; an empty `var` prints bare
    /// column names (grouping keys in scope after `GROUP BY … AS`).
    fn sql(&self, var: &str) -> String {
        match self {
            Ex::Attr(a) if var.is_empty() => a.to_string(),
            Ex::Attr(a) => format!("{var}.{a}"),
            Ex::Attr2(a, b) => format!("{var}.{a}.{b}"),
            Ex::Arith(inner, op, k) => format!("{} {op} {k}", inner.sql(var)),
            Ex::CaseLt(inner, k, a, b) => {
                format!("CASE WHEN {} < {k} THEN {a} ELSE {b} END", inner.sql(var))
            }
        }
    }

    fn eval(&self, row: &Value) -> Value {
        match self {
            Ex::Attr(a) => row.path(a),
            Ex::Attr2(a, b) => row.path(a).path(b),
            Ex::Arith(inner, op, k) => match inner.eval(row) {
                Value::Int(x) => Value::Int(match op {
                    '+' => x + k,
                    '*' => x * k,
                    _ => x % k,
                }),
                Value::Null => Value::Null,
                _ => Value::Missing,
            },
            Ex::CaseLt(inner, k, a, b) => match inner.eval(row) {
                Value::Int(x) if x < *k => Value::Int(*a),
                _ => Value::Int(*b),
            },
        }
    }
}

/// A conjunct `ex <op> k`; TRUE only for an Int operand satisfying it.
#[derive(Debug, Clone)]
struct Cond(Ex, &'static str, i64);

impl Cond {
    fn sql(&self, var: &str) -> String {
        format!("{} {} {}", self.0.sql(var), self.1, self.2)
    }

    fn holds(&self, row: &Value) -> bool {
        let Value::Int(x) = self.0.eval(row) else {
            return false;
        };
        match self.1 {
            "<" => x < self.2,
            ">=" => x >= self.2,
            "<>" => x != self.2,
            ">" => x > self.2,
            other => unreachable!("operator {other} is never generated"),
        }
    }
}

fn all_hold(conds: &[Cond], row: &Value) -> bool {
    conds.iter().all(|c| c.holds(row))
}

fn and_sql(conds: &[Cond], var: &str) -> String {
    conds
        .iter()
        .map(|c| c.sql(var))
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// A random integer expression over an always-present Int column.
fn int_ex(rng: &mut Rng, cols: &[&'static str]) -> Ex {
    let base = Ex::Attr(cols[rng.gen_range(0..cols.len())]);
    match rng.gen_range(0..4) {
        0 => Ex::Arith(Box::new(base), '+', rng.gen_range(1..1000)),
        1 => Ex::Arith(
            Box::new(Ex::Arith(Box::new(base), '*', rng.gen_range(2..50))),
            '+',
            rng.gen_range(1..1000),
        ),
        2 => Ex::Arith(Box::new(base), '%', rng.gen_range(2..17)),
        _ => Ex::CaseLt(
            Box::new(base),
            rng.gen_range(1..256),
            rng.gen_range(0..100),
            rng.gen_range(100..200),
        ),
    }
}

/// Filler projections for an employee row: integer arithmetic plus the
/// attributes that are NULL, wrongly typed, or MISSING on some rows.
fn emp_projection(rng: &mut Rng) -> Ex {
    match rng.gen_range(0..8) {
        0 => Ex::Attr("title"),
        1 => Ex::Attr2("addr", "zip"),
        2 => Ex::Arith(Box::new(Ex::Attr("sal")), '+', rng.gen_range(1..5000)),
        3 => Ex::Arith(
            Box::new(Ex::Attr2("addr", "zip")),
            '%',
            rng.gen_range(2..100),
        ),
        _ => int_ex(rng, &["id", "deptno"]),
    }
}

/// Conjuncts that bound an Int column to a window and then add loose
/// filler (mostly true), so results stay small but rarely empty.
fn window_conds(
    rng: &mut Rng,
    col: &'static str,
    domain: i64,
    width: std::ops::Range<i64>,
    cols: &[&'static str],
    filler: usize,
) -> Vec<Cond> {
    let w = rng.gen_range(width);
    let lo = rng.gen_range(0..(domain - w).max(1));
    let mut conds = vec![
        Cond(Ex::Attr(col), ">=", lo),
        Cond(Ex::Attr(col), "<", lo + w),
    ];
    for _ in 0..filler {
        let c = cols[rng.gen_range(0..cols.len())];
        conds.push(match rng.gen_range(0..3) {
            0 => Cond(Ex::Attr(c), "<>", rng.gen_range(0..domain)),
            1 => Cond(
                Ex::Arith(Box::new(Ex::Attr(c)), '+', rng.gen_range(1..500)),
                ">",
                0,
            ),
            _ => Cond(
                Ex::Arith(Box::new(Ex::Attr(c)), '%', rng.gen_range(2..9)),
                "<",
                8,
            ),
        });
    }
    conds
}

fn projection_sql(extra: &[Ex], var: &str) -> String {
    extra
        .iter()
        .enumerate()
        .map(|(i, e)| format!(", {} AS p{i}", e.sql(var)))
        .collect()
}

fn push_projections(pairs: &mut Vec<(String, Value)>, extra: &[Ex], row: &Value) {
    for (i, e) in extra.iter().enumerate() {
        pairs.push((format!("p{i}"), e.eval(row)));
    }
}

fn row_of(pairs: Vec<(String, Value)>) -> Value {
    Value::Tuple(Tuple::from_pairs(pairs))
}

// --------------------------------------------------------- short-cached

/// Labels of the 16 `short-cached` shapes, in shape-index order.
pub const SHORT_SHAPES: [&str; 16] = [
    "emp-point",
    "dept-point",
    "nested-city",
    "nested-zip",
    "unnest-one",
    "unnest-filter",
    "group-dept",
    "is-missing",
    "is-null",
    "top5",
    "join-point",
    "count-filter",
    "dept-region",
    "case-title",
    "unnest-group",
    "group-region",
];

const SHORT_TEXTS: [&str; 16] = [
    "SELECT e.id, e.name, e.title, e.sal FROM hr.emp_small AS e WHERE e.id = ?",
    "SELECT VALUE d FROM hr.dept AS d WHERE d.dno = ?",
    "SELECT e.id, e.addr.city AS city FROM hr.emp_small AS e WHERE e.deptno = ?",
    "SELECT e.id, e.addr.zip AS zip FROM hr.emp_small AS e WHERE e.id = ?",
    "SELECT e.name AS emp, p.name AS proj FROM hr.emp_small AS e, e.projects AS p WHERE e.id = ?",
    "SELECT VALUE p.hours FROM hr.emp_small AS e, e.projects AS p WHERE e.deptno = ? AND p.name = ?",
    "SELECT e.deptno AS deptno, COUNT(*) AS n FROM hr.emp_small AS e WHERE e.id >= ? AND e.id < ? GROUP BY e.deptno",
    "SELECT VALUE e.id FROM hr.emp_small AS e WHERE e.title IS MISSING AND e.deptno < ?",
    "SELECT VALUE e.id FROM hr.emp_small AS e WHERE e.sal IS NULL AND e.id < ?",
    "SELECT e.id, e.sal FROM hr.emp_small AS e WHERE e.sal >= ? ORDER BY e.sal DESC, e.id LIMIT 5",
    "SELECT e.name AS ename, d.dname AS dname FROM hr.emp_small AS e, hr.dept AS d WHERE e.deptno = d.dno AND e.id = ?",
    "SELECT COUNT(*) AS n FROM hr.emp_small AS e WHERE e.deptno = ? AND e.sal > ?",
    "SELECT VALUE d.dname FROM hr.dept AS d WHERE d.region = ? AND d.budget >= ?",
    "SELECT e.id, CASE WHEN e.title IS MISSING THEN 'none' ELSE e.title END AS t FROM hr.emp_small AS e WHERE e.id = ?",
    "SELECT p.name AS proj, SUM(p.hours) AS h FROM hr.emp_small AS e, e.projects AS p WHERE e.deptno = ? GROUP BY p.name",
    "SELECT d.region AS region, COUNT(*) AS n FROM hr.dept AS d WHERE d.budget >= ? GROUP BY d.region",
];

fn short_request(shape: usize, rng: &mut Rng, emps: &[Value], depts: &[Value]) -> Request {
    let id = rng.gen_range(0..EMP_SMALL);
    let dno = rng.gen_range(0..DEPTS);
    let emp = &emps[id as usize];
    let in_dept = |d: i64| emps.iter().filter(move |e| int(e, "deptno") == Some(d));
    let (params, expect) = match shape {
        0 => (
            vec![Value::Int(id)],
            Expect::bag(vec![tuple(vec![
                ("id", emp.path("id")),
                ("name", emp.path("name")),
                ("title", emp.path("title")),
                ("sal", emp.path("sal")),
            ])]),
        ),
        1 => (
            vec![Value::Int(dno)],
            Expect::bag(vec![depts[dno as usize].clone()]),
        ),
        2 => (
            vec![Value::Int(dno)],
            Expect::bag(
                in_dept(dno)
                    .map(|e| {
                        tuple(vec![
                            ("id", e.path("id")),
                            ("city", e.path("addr").path("city")),
                        ])
                    })
                    .collect(),
            ),
        ),
        3 => (
            vec![Value::Int(id)],
            Expect::bag(vec![tuple(vec![
                ("id", emp.path("id")),
                ("zip", emp.path("addr").path("zip")),
            ])]),
        ),
        4 => (
            vec![Value::Int(id)],
            Expect::bag(
                projects(emp)
                    .iter()
                    .map(|p| tuple(vec![("emp", emp.path("name")), ("proj", p.path("name"))]))
                    .collect(),
            ),
        ),
        5 => {
            let proj = pick(rng, &PROJECTS);
            (
                vec![Value::Int(dno), s(proj)],
                Expect::bag(
                    in_dept(dno)
                        .flat_map(|e| projects(e).iter())
                        .filter(|p| str_attr(p, "name") == Some(proj))
                        .map(|p| p.path("hours"))
                        .collect(),
                ),
            )
        }
        6 => {
            let lo = rng.gen_range(0..EMP_SMALL - 32);
            let hi = lo + rng.gen_range(8..32);
            let mut counts: BTreeMap<i64, i64> = BTreeMap::new();
            for e in &emps[lo as usize..hi as usize] {
                *counts.entry(int(e, "deptno").expect("deptno")).or_default() += 1;
            }
            (
                vec![Value::Int(lo), Value::Int(hi)],
                Expect::bag(
                    counts
                        .into_iter()
                        .map(|(d, n)| tuple(vec![("deptno", Value::Int(d)), ("n", Value::Int(n))]))
                        .collect(),
                ),
            )
        }
        7 => {
            let below = rng.gen_range(4..DEPTS);
            (
                vec![Value::Int(below)],
                Expect::bag(
                    emps.iter()
                        .filter(|e| {
                            e.path("title").is_missing()
                                && int(e, "deptno").expect("deptno") < below
                        })
                        .map(|e| e.path("id"))
                        .collect(),
                ),
            )
        }
        8 => (
            vec![Value::Int(id)],
            Expect::bag(
                emps[..id as usize]
                    .iter()
                    .filter(|e| e.path("sal").is_null())
                    .map(|e| e.path("id"))
                    .collect(),
            ),
        ),
        9 => {
            let floor = rng.gen_range(100..150) * 1000;
            let mut hits: Vec<(i64, i64)> = emps
                .iter()
                .filter_map(|e| Some((int(e, "sal")?, int(e, "id")?)))
                .filter(|(sal, _)| *sal >= floor)
                .collect();
            hits.sort_by_key(|&(sal, id)| (std::cmp::Reverse(sal), id));
            hits.truncate(5);
            (
                vec![Value::Int(floor)],
                Expect::list(
                    hits.into_iter()
                        .map(|(sal, id)| {
                            tuple(vec![("id", Value::Int(id)), ("sal", Value::Int(sal))])
                        })
                        .collect(),
                ),
            )
        }
        10 => {
            let dept = &depts[int(emp, "deptno").expect("deptno") as usize];
            (
                vec![Value::Int(id)],
                Expect::bag(vec![tuple(vec![
                    ("ename", emp.path("name")),
                    ("dname", dept.path("dname")),
                ])]),
            )
        }
        11 => {
            let floor = rng.gen_range(30..150) * 1000;
            let n = in_dept(dno)
                .filter(|e| int(e, "sal").is_some_and(|sal| sal > floor))
                .count();
            (
                vec![Value::Int(dno), Value::Int(floor)],
                Expect::bag(vec![tuple(vec![("n", Value::Int(n as i64))])]),
            )
        }
        12 => {
            let region = pick(rng, &REGIONS);
            let floor = rng.gen_range(10..200) * 1000;
            (
                vec![s(region), Value::Int(floor)],
                Expect::bag(
                    depts
                        .iter()
                        .filter(|d| {
                            str_attr(d, "region") == Some(region)
                                && int(d, "budget").expect("budget") >= floor
                        })
                        .map(|d| d.path("dname"))
                        .collect(),
                ),
            )
        }
        13 => {
            let t = match emp.path("title") {
                Value::Missing => s("none"),
                title => title,
            };
            (
                vec![Value::Int(id)],
                Expect::bag(vec![tuple(vec![("id", emp.path("id")), ("t", t)])]),
            )
        }
        14 => {
            let mut hours: BTreeMap<&str, i64> = BTreeMap::new();
            for p in in_dept(dno).flat_map(|e| projects(e).iter()) {
                *hours.entry(str_attr(p, "name").expect("name")).or_default() +=
                    int(p, "hours").expect("hours");
            }
            (
                vec![Value::Int(dno)],
                Expect::bag(
                    hours
                        .into_iter()
                        .map(|(proj, h)| tuple(vec![("proj", s(proj)), ("h", Value::Int(h))]))
                        .collect(),
                ),
            )
        }
        15 => {
            let floor = rng.gen_range(10..200) * 1000;
            let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
            for d in depts
                .iter()
                .filter(|d| int(d, "budget").expect("budget") >= floor)
            {
                *counts
                    .entry(str_attr(d, "region").expect("region"))
                    .or_default() += 1;
            }
            (
                vec![Value::Int(floor)],
                Expect::bag(
                    counts
                        .into_iter()
                        .map(|(r, n)| tuple(vec![("region", s(r)), ("n", Value::Int(n))]))
                        .collect(),
                ),
            )
        }
        other => unreachable!("short-cached has 16 shapes, not {other}"),
    };
    Request {
        shape,
        text: SHORT_TEXTS[shape].to_string(),
        params,
        expect,
    }
}

/// One client's `short-cached` stream: the 16 shapes round-robin, with
/// parameters drawn from the client's own seeded stream.
pub fn short_stream(seed: u64, client: usize, emps: &[Value], depts: &[Value]) -> Vec<Request> {
    let mut rng = Rng::new(mix(seed, 0x5C00 + client as u64));
    (0..SHORT_STREAM)
        .map(|i| short_request(i % 16, &mut rng, emps, depts))
        .collect()
}

// ----------------------------------------------------------- adhoc-plan

/// Labels of the six `adhoc-plan` query families.
pub const ADHOC_SHAPES: [&str; 6] = [
    "wide-select",
    "value-case",
    "select-subquery",
    "where-subquery",
    "group-as",
    "unpivot",
];

/// The text at `index` of the pool, with its model answer. Family is
/// `index % 6`; every literal is drawn from a stream keyed by
/// `(seed, index)`, so the pool is the same however it is sliced.
fn adhoc_request(seed: u64, index: usize, emps: &[Value], depts: &[Value]) -> Request {
    let mut rng = Rng::new(mix(seed, 0xAD0C_0000 + index as u64));
    let rng = &mut rng;
    let shape = index % 6;
    let emp_cols: [&'static str; 2] = ["id", "deptno"];
    let dept_cols: [&'static str; 2] = ["dno", "budget"];
    // 10–60 projections and conjuncts in total.
    let nproj = rng.gen_range(6..44);
    let ncond = rng.gen_range(2..14);
    let (text, rows) = match shape {
        0 => {
            let extra: Vec<Ex> = (0..nproj).map(|_| emp_projection(rng)).collect();
            let conds = window_conds(rng, "id", EMP_SMALL, 4..16, &emp_cols, ncond);
            let text = format!(
                "SELECT e.id AS id{} FROM hr.emp_small AS e WHERE {}",
                projection_sql(&extra, "e"),
                and_sql(&conds, "e")
            );
            let rows = emps
                .iter()
                .filter(|e| all_hold(&conds, e))
                .map(|e| {
                    let mut pairs = vec![("id".to_string(), e.path("id"))];
                    push_projections(&mut pairs, &extra, e);
                    row_of(pairs)
                })
                .collect();
            (text, rows)
        }
        1 => {
            let extra: Vec<Ex> = (0..nproj).map(|_| emp_projection(rng)).collect();
            let conds = window_conds(rng, "id", EMP_SMALL, 4..16, &emp_cols, ncond);
            let mid = rng.gen_range(40..90) * 1000;
            let high = mid + rng.gen_range(10..50) * 1000;
            let fields: String = extra
                .iter()
                .enumerate()
                .map(|(i, e)| format!(", 'p{i}': {}", e.sql("e")))
                .collect();
            let text = format!(
                "SELECT VALUE {{'id': e.id, 'band': CASE WHEN e.sal >= {high} THEN 'high' \
                 WHEN e.sal >= {mid} THEN 'mid' ELSE 'low' END{fields}}} \
                 FROM hr.emp_small AS e WHERE {}",
                and_sql(&conds, "e")
            );
            let rows = emps
                .iter()
                .filter(|e| all_hold(&conds, e))
                .map(|e| {
                    let band = match int(e, "sal") {
                        Some(sal) if sal >= high => "high",
                        Some(sal) if sal >= mid => "mid",
                        _ => "low",
                    };
                    let mut pairs = vec![
                        ("id".to_string(), e.path("id")),
                        ("band".to_string(), s(band)),
                    ];
                    push_projections(&mut pairs, &extra, e);
                    row_of(pairs)
                })
                .collect();
            (text, rows)
        }
        2 => {
            let extra: Vec<Ex> = (0..nproj).map(|_| int_ex(rng, &dept_cols)).collect();
            let conds = window_conds(rng, "dno", DEPTS, 3..10, &["dno"], ncond / 2);
            let inner = window_conds(rng, "id", EMP_SMALL, 64..200, &emp_cols, ncond / 2);
            let summed = int_ex(rng, &emp_cols);
            let text = format!(
                "SELECT d.dno AS dno, \
                 COLL_COUNT(SELECT VALUE e.id FROM hr.emp_small AS e WHERE e.deptno = d.dno AND {inner_sql}) AS n, \
                 COLL_SUM(SELECT VALUE {summed_sql} FROM hr.emp_small AS e WHERE e.deptno = d.dno AND {inner_sql}) AS total\
                 {} FROM hr.dept AS d WHERE {}",
                projection_sql(&extra, "d"),
                and_sql(&conds, "d"),
                inner_sql = and_sql(&inner, "e"),
                summed_sql = summed.sql("e"),
            );
            let rows = depts
                .iter()
                .filter(|d| all_hold(&conds, d))
                .map(|d| {
                    let members: Vec<&Value> = emps
                        .iter()
                        .filter(|e| e.path("deptno") == d.path("dno") && all_hold(&inner, e))
                        .collect();
                    // COLL_SUM over an empty bag is NULL, as SQL's SUM.
                    let total = if members.is_empty() {
                        Value::Null
                    } else {
                        Value::Int(
                            members
                                .iter()
                                .map(|e| summed.eval(e).as_int().expect("int_ex is Int-valued"))
                                .sum(),
                        )
                    };
                    let mut pairs = vec![
                        ("dno".to_string(), d.path("dno")),
                        ("n".to_string(), Value::Int(members.len() as i64)),
                        ("total".to_string(), total),
                    ];
                    push_projections(&mut pairs, &extra, d);
                    row_of(pairs)
                })
                .collect();
            (text, rows)
        }
        3 => {
            let extra: Vec<Ex> = (0..nproj).map(|_| emp_projection(rng)).collect();
            let conds = window_conds(rng, "id", EMP_SMALL, 8..32, &emp_cols, ncond);
            let hours = rng.gen_range(5..35);
            let budget = rng.gen_range(20..150) * 1000;
            let text = format!(
                "SELECT e.id AS id{} FROM hr.emp_small AS e WHERE {} \
                 AND EXISTS (SELECT VALUE p FROM e.projects AS p WHERE p.hours > {hours}) \
                 AND e.deptno IN (SELECT VALUE d.dno FROM hr.dept AS d WHERE d.budget >= {budget})",
                projection_sql(&extra, "e"),
                and_sql(&conds, "e")
            );
            let rows = emps
                .iter()
                .filter(|e| {
                    all_hold(&conds, e)
                        && projects(e)
                            .iter()
                            .any(|p| int(p, "hours").expect("hours") > hours)
                        && int(&depts[int(e, "deptno").expect("deptno") as usize], "budget")
                            .expect("budget")
                            >= budget
                })
                .map(|e| {
                    let mut pairs = vec![("id".to_string(), e.path("id"))];
                    push_projections(&mut pairs, &extra, e);
                    row_of(pairs)
                })
                .collect();
            (text, rows)
        }
        4 => {
            // Projections over the grouping key only.
            let extra: Vec<Ex> = (0..nproj).map(|_| int_ex(rng, &["dno"])).collect();
            let conds = window_conds(rng, "id", EMP_SMALL, 16..64, &emp_cols, ncond);
            let modulus = rng.gen_range(2..5);
            let text = format!(
                "SELECT dno, COUNT(*) AS n, \
                 (SELECT VALUE v.e.id FROM g AS v WHERE v.e.id % {modulus} = 0) AS ids{} \
                 FROM hr.emp_small AS e WHERE {} GROUP BY e.deptno AS dno GROUP AS g",
                projection_sql(&extra, ""),
                and_sql(&conds, "e")
            );
            let mut groups: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
            for e in emps.iter().filter(|e| all_hold(&conds, e)) {
                groups
                    .entry(int(e, "deptno").expect("deptno"))
                    .or_default()
                    .push(int(e, "id").expect("id"));
            }
            let rows = groups
                .into_iter()
                .map(|(dno, ids)| {
                    let key = tuple(vec![("dno", Value::Int(dno))]);
                    let mut pairs = vec![
                        ("dno".to_string(), Value::Int(dno)),
                        ("n".to_string(), Value::Int(ids.len() as i64)),
                        (
                            "ids".to_string(),
                            Value::Bag(
                                ids.into_iter()
                                    .filter(|id| id % modulus == 0)
                                    .map(Value::Int)
                                    .collect(),
                            ),
                        ),
                    ];
                    push_projections(&mut pairs, &extra, &key);
                    row_of(pairs)
                })
                .collect();
            (text, rows)
        }
        _ => {
            let extra: Vec<Ex> = (0..nproj).map(|_| int_ex(rng, &dept_cols)).collect();
            let conds = window_conds(rng, "dno", DEPTS, 2..6, &dept_cols, ncond);
            let skipped = ["dname", "region", "budget"][rng.gen_range(0..3)];
            let text = format!(
                "SELECT d.dno AS dno, a AS attr, v AS val{} \
                 FROM hr.dept AS d, UNPIVOT d AS v AT a WHERE {} AND a <> '{skipped}'",
                projection_sql(&extra, "d"),
                and_sql(&conds, "d")
            );
            let rows = depts
                .iter()
                .filter(|d| all_hold(&conds, d))
                .flat_map(|d| {
                    let extra = &extra;
                    d.as_tuple()
                        .expect("dept rows are tuples")
                        .iter()
                        .filter(move |(name, _)| *name != skipped)
                        .map(move |(name, value)| {
                            let mut pairs = vec![
                                ("dno".to_string(), d.path("dno")),
                                ("attr".to_string(), s(name)),
                                ("val".to_string(), value.clone()),
                            ];
                            push_projections(&mut pairs, extra, d);
                            row_of(pairs)
                        })
                })
                .collect();
            (text, rows)
        }
    };
    Request {
        shape,
        text,
        params: Vec::new(),
        expect: Expect::bag(rows),
    }
}

/// The `adhoc-plan` pool: `POOL` pairwise-distinct texts.
pub fn adhoc_pool(seed: u64, emps: &[Value], depts: &[Value]) -> Vec<Request> {
    let pool: Vec<Request> = (0..POOL)
        .map(|i| adhoc_request(seed, i, emps, depts))
        .collect();
    let distinct: std::collections::BTreeSet<&str> = pool.iter().map(|r| r.text.as_str()).collect();
    assert_eq!(distinct.len(), POOL, "adhoc-plan texts must be distinct");
    pool
}

// -------------------------------------------------------- analytic-scan

/// Labels of the 8 `analytic-scan` shapes.
pub const ANALYTIC_SHAPES: [&str; 8] = [
    "filter-project",
    "scalar-agg",
    "group-agg",
    "unnest-group",
    "group-as-invert",
    "join-agg",
    "top-100",
    "wide-result",
];

/// The 8 `analytic-scan` requests for this seed (literals drawn once,
/// so each text stays cached for the whole run).
pub fn analytic_requests(seed: u64, emps: &[Value], depts: &[Value]) -> Vec<Request> {
    let mut rng = Rng::new(mix(seed, 0xA5CA));
    let dept_a = rng.gen_range(0..DEPTS);
    let dept_b = rng.gen_range(0..DEPTS);
    let high = rng.gen_range(120..145) * 1000;
    // The engine spends ~10 us per *aggregated* row, so the aggregate
    // shapes scan everything but aggregate a narrow band (6–7 % of the
    // rows, 1/16 of the departments); the band's width, not the seed,
    // sets their cost.
    let floor = 142_000 + rng.gen_range(0..2_000);
    let unnest_lo = rng.gen_range(0..DEPTS - 4);
    let top_floor = 40_000 + rng.gen_range(0..5_000);
    let sal = |e: &Value| int(e, "sal");
    let deptno = |e: &Value| int(e, "deptno").expect("deptno");
    let mut out = Vec::with_capacity(8);
    let mut push = |text: String, expect: Expect| {
        out.push(Request {
            shape: out.len(),
            text,
            params: Vec::new(),
            expect,
        })
    };

    push(
        format!(
            "SELECT e.id AS id, e.sal AS sal FROM hr.emp AS e WHERE e.deptno = {dept_a} AND e.sal >= {high}"
        ),
        Expect::bag(
            emps.iter()
                .filter(|e| deptno(e) == dept_a && sal(e).is_some_and(|x| x >= high))
                .map(|e| tuple(vec![("id", e.path("id")), ("sal", e.path("sal"))]))
                .collect(),
        ),
    );

    let paid: Vec<i64> = emps
        .iter()
        .filter_map(sal)
        .filter(|x| *x >= floor)
        .collect();
    push(
        format!(
            "SELECT COUNT(*) AS n, SUM(e.sal) AS total, MIN(e.sal) AS lo, MAX(e.sal) AS hi \
             FROM hr.emp AS e WHERE e.sal >= {floor}"
        ),
        Expect::bag(vec![tuple(vec![
            ("n", Value::Int(paid.len() as i64)),
            ("total", Value::Int(paid.iter().sum())),
            ("lo", Value::Int(*paid.iter().min().expect("some salary"))),
            ("hi", Value::Int(*paid.iter().max().expect("some salary"))),
        ])]),
    );

    let mut by_dept: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for e in emps {
        if let Some(x) = sal(e).filter(|x| *x >= floor) {
            let slot = by_dept.entry(deptno(e)).or_default();
            slot.0 += 1;
            slot.1 += x;
        }
    }
    push(
        format!(
            "SELECT e.deptno AS deptno, COUNT(*) AS n, SUM(e.sal) AS total \
             FROM hr.emp AS e WHERE e.sal >= {floor} GROUP BY e.deptno"
        ),
        Expect::bag(
            by_dept
                .iter()
                .map(|(d, (n, total))| {
                    tuple(vec![
                        ("deptno", Value::Int(*d)),
                        ("n", Value::Int(*n)),
                        ("total", Value::Int(*total)),
                    ])
                })
                .collect(),
        ),
    );

    let mut by_proj: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
    for p in emps
        .iter()
        .filter(|e| (unnest_lo..unnest_lo + 4).contains(&deptno(e)))
        .flat_map(|e| projects(e).iter())
    {
        let slot = by_proj
            .entry(str_attr(p, "name").expect("name"))
            .or_default();
        slot.0 += 1;
        slot.1 += int(p, "hours").expect("hours");
    }
    push(
        format!(
            "SELECT p.name AS proj, COUNT(*) AS n, SUM(p.hours) AS hours \
             FROM hr.emp AS e, e.projects AS p \
             WHERE e.deptno >= {unnest_lo} AND e.deptno < {} GROUP BY p.name",
            unnest_lo + 4
        ),
        Expect::bag(
            by_proj
                .iter()
                .map(|(proj, (n, hours))| {
                    tuple(vec![
                        ("proj", s(proj)),
                        ("n", Value::Int(*n)),
                        ("hours", Value::Int(*hours)),
                    ])
                })
                .collect(),
        ),
    );

    let mut members: BTreeMap<&str, Vec<Value>> = BTreeMap::new();
    for e in emps.iter().filter(|e| deptno(e) == dept_b) {
        for p in projects(e) {
            members
                .entry(str_attr(p, "name").expect("name"))
                .or_default()
                .push(e.path("id"));
        }
    }
    push(
        format!(
            "SELECT p.name AS proj, (SELECT VALUE v.e.id FROM g AS v) AS members \
             FROM hr.emp AS e, e.projects AS p WHERE e.deptno = {dept_b} \
             GROUP BY p.name GROUP AS g"
        ),
        Expect::bag(
            members
                .into_iter()
                .map(|(proj, ids)| tuple(vec![("proj", s(proj)), ("members", Value::Bag(ids))]))
                .collect(),
        ),
    );

    let mut by_region: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
    for e in emps {
        if let Some(x) = sal(e).filter(|x| *x >= floor) {
            let region = str_attr(&depts[deptno(e) as usize], "region").expect("region");
            let slot = by_region.entry(region).or_default();
            slot.0 += 1;
            slot.1 += x;
        }
    }
    push(
        format!(
            "SELECT d.region AS region, COUNT(*) AS n, SUM(e.sal) AS total \
             FROM hr.emp AS e, hr.dept AS d WHERE e.deptno = d.dno AND e.sal >= {floor} \
             GROUP BY d.region"
        ),
        Expect::bag(
            by_region
                .iter()
                .map(|(region, (n, total))| {
                    tuple(vec![
                        ("region", s(region)),
                        ("n", Value::Int(*n)),
                        ("total", Value::Int(*total)),
                    ])
                })
                .collect(),
        ),
    );

    let mut top: Vec<(i64, i64)> = emps
        .iter()
        .filter_map(|e| Some((sal(e).filter(|x| *x >= top_floor)?, int(e, "id")?)))
        .collect();
    top.sort_by_key(|&(x, id)| (std::cmp::Reverse(x), id));
    top.truncate(100);
    push(
        format!(
            "SELECT e.id AS id, e.sal AS sal FROM hr.emp AS e WHERE e.sal >= {top_floor} \
             ORDER BY e.sal DESC, e.id LIMIT 100"
        ),
        Expect::list(
            top.into_iter()
                .map(|(x, id)| tuple(vec![("id", Value::Int(id)), ("sal", Value::Int(x))]))
                .collect(),
        ),
    );

    // Every row comes back: the one shape whose response is large.
    push(
        "SELECT e.id AS id, e.name AS name, e.title AS title, e.sal AS sal FROM hr.emp AS e"
            .to_string(),
        Expect::bag(
            emps.iter()
                .map(|e| {
                    tuple(vec![
                        ("id", e.path("id")),
                        ("name", e.path("name")),
                        ("title", e.path("title")),
                        ("sal", e.path("sal")),
                    ])
                })
                .collect(),
        ),
    );
    out
}

// ------------------------------------------------------- durable-writes

/// Labels of the `durable-writes` operation kinds.
pub const DURABLE_SHAPES: [&str; 5] = ["insert", "update", "delete", "read-point", "read-count"];

/// One client's stateful `durable-writes` stream plus its model of the
/// rows it owns. The client is the only writer of those rows, so every
/// read it issues has one right answer (read-your-writes) regardless of
/// what the other client is doing.
pub struct DurableClient {
    rng: Rng,
    owner: i64,
    /// Every live row this client owns, by id.
    rows: BTreeMap<i64, Value>,
    /// Live ids this client inserted, oldest first.
    inserted: VecDeque<i64>,
    next_id: i64,
    /// Position in the INSERT → UPDATE → DELETE cycle.
    write_step: usize,
}

/// What an acknowledged write does to the model.
#[derive(Debug, Clone)]
pub enum Effect {
    None,
    Insert(Value),
    SetVal(i64, i64),
    Delete(i64),
}

impl DurableClient {
    pub fn new(seed: u64, client: usize, base: &[Value]) -> Self {
        let owner = client as i64;
        DurableClient {
            rng: Rng::new(mix(seed, 0xD0_0000 + client as u64)),
            owner,
            rows: base
                .iter()
                .filter(|r| int(r, "owner") == Some(owner))
                .map(|r| (int(r, "id").expect("id"), r.clone()))
                .collect(),
            inserted: VecDeque::new(),
            // Fresh ids come from the client's own range, far above the
            // base rows and disjoint from the other client's.
            next_id: (owner + 1) * 1_000_000_000,
            write_step: 0,
        }
    }

    /// The rows this client's model says are live.
    pub fn rows(&self) -> impl Iterator<Item = &Value> {
        self.rows.values()
    }

    fn some_live_id(&mut self) -> i64 {
        // Uniform over the owned rows without materializing the keys:
        // probe a random point of the id space and take the next live id.
        let probe = self.rng.gen_range(0..EV_ROWS);
        *self
            .rows
            .range(probe..)
            .next()
            .or_else(|| self.rows.iter().next())
            .expect("a client always owns live rows")
            .0
    }

    /// The next request and the model change to apply once it is
    /// acknowledged with the expected answer.
    pub fn next(&mut self) -> (Request, Effect) {
        let read = self.rng.gen_bool(0.5);
        if read {
            if self.rng.gen_bool(0.5) {
                let id = self.some_live_id();
                let req = Request {
                    shape: 3,
                    text: "SELECT VALUE e FROM ev.log AS e WHERE e.id = ?".to_string(),
                    params: vec![Value::Int(id)],
                    expect: Expect::bag(vec![self.rows[&id].clone()]),
                };
                return (req, Effect::None);
            }
            let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
            for row in self.rows.values() {
                *counts
                    .entry(str_attr(row, "kind").expect("kind"))
                    .or_default() += 1;
            }
            let req = Request {
                shape: 4,
                text: "SELECT e.kind AS kind, COUNT(*) AS n FROM ev.log AS e \
                       WHERE e.owner = ? GROUP BY e.kind"
                    .to_string(),
                params: vec![Value::Int(self.owner)],
                expect: Expect::bag(
                    counts
                        .into_iter()
                        .map(|(k, n)| tuple(vec![("kind", s(k)), ("n", Value::Int(n))]))
                        .collect(),
                ),
            };
            return (req, Effect::None);
        }
        let step = self.write_step;
        self.write_step = (step + 1) % 3;
        match step {
            0 => {
                let id = self.next_id;
                self.next_id += 1;
                let row = event(id, self.owner, &mut self.rng);
                let req = Request {
                    shape: 0,
                    text: format!(
                        "INSERT INTO ev.log VALUE {{'id': {id}, 'owner': {}, 'kind': '{}', 'val': {}, 'note': '{}'}}",
                        self.owner,
                        str_attr(&row, "kind").expect("kind"),
                        int(&row, "val").expect("val"),
                        str_attr(&row, "note").expect("note"),
                    ),
                    params: Vec::new(),
                    expect: Expect::Summary("inserted", 1),
                };
                (req, Effect::Insert(row))
            }
            1 => {
                let id = self.some_live_id();
                let val = self.rng.gen_range(0..1_000_000);
                let req = Request {
                    shape: 1,
                    text: format!("UPDATE ev.log AS e SET e.val = {val} WHERE e.id = {id}"),
                    params: Vec::new(),
                    expect: Expect::Summary("updated", 1),
                };
                (req, Effect::SetVal(id, val))
            }
            _ => {
                // The INSERT of this cycle precedes it, so one is live.
                let id = *self.inserted.front().expect("an inserted row is live");
                let req = Request {
                    shape: 2,
                    text: format!("DELETE FROM ev.log AS e WHERE e.id = {id}"),
                    params: Vec::new(),
                    expect: Expect::Summary("deleted", 1),
                };
                (req, Effect::Delete(id))
            }
        }
    }

    /// Applies an acknowledged write to the model.
    pub fn ack(&mut self, effect: Effect) {
        match effect {
            Effect::None => {}
            Effect::Insert(row) => {
                let id = int(&row, "id").expect("id");
                self.inserted.push_back(id);
                self.rows.insert(id, row);
            }
            Effect::SetVal(id, val) => {
                if let Some(Value::Tuple(t)) = self.rows.get_mut(&id) {
                    t.upsert("val", Value::Int(val));
                }
            }
            Effect::Delete(id) => {
                self.inserted.retain(|x| *x != id);
                self.rows.remove(&id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlpp_formats::wire;

    fn stream_bytes(requests: &[Request]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in requests {
            out.extend(wire::encode_request(&wire::Request {
                query: r.text.clone(),
                params: r.params.clone(),
            }));
        }
        out
    }

    fn every_stream(seed: u64) -> Vec<u8> {
        let depts = depts(seed);
        let small = emps(seed, EMP_SMALL);
        let big = emps(seed, 2_000);
        let mut all = Vec::new();
        for c in 0..CLIENTS {
            all.extend(short_stream(seed, c, &small, &depts));
        }
        all.extend(adhoc_pool(seed, &small, &depts));
        all.extend(analytic_requests(seed, &big, &depts));
        let base = events(seed);
        for c in 0..CLIENTS {
            let mut client = DurableClient::new(seed, c, &base);
            for _ in 0..500 {
                let (req, effect) = client.next();
                client.ack(effect);
                all.push(req);
            }
        }
        stream_bytes(&all)
    }

    #[test]
    fn same_seed_gives_byte_identical_request_stream() {
        assert_eq!(every_stream(7), every_stream(7));
        assert_ne!(every_stream(7), every_stream(8));
    }

    /// The model is independent of the engine, so the two can be played
    /// against each other: every generated request, run in-process, must
    /// give the model's answer — and so must the paper-pseudocode
    /// reference evaluator wherever the request is inside its fragment.
    #[test]
    fn model_agrees_with_the_engine_and_the_reference_evaluator() {
        let seed = 11;
        let depts = depts(seed);
        let small = emps(seed, EMP_SMALL);
        let big = emps(seed, 1_500);
        let engine = sqlpp::Engine::new();
        engine.register("hr.dept", Value::Bag(depts.clone()));
        engine.register("hr.emp_small", Value::Bag(small.clone()));
        engine.register("hr.emp", Value::Bag(big.clone()));
        let mut requests = short_stream(seed, 0, &small, &depts);
        requests.truncate(256);
        requests.extend(adhoc_pool(seed, &small, &depts).into_iter().step_by(16));
        requests.extend(analytic_requests(seed, &big, &depts));
        let mut by_reference = 0;
        for r in &requests {
            let got = engine
                .query_with_params(&r.text, r.params.clone())
                .unwrap_or_else(|e| panic!("{}: {e}", r.text))
                .into_value();
            assert!(crate::check::full(&got, &r.expect), "engine: {}", r.text);
            let ast = sqlpp_syntax::parse_query(&r.literal_text()).expect("generated text parses");
            // The reference covers SELECT–FROM–WHERE only, and does not
            // itself refuse SQL aggregates without GROUP BY.
            let aggregates = ["COUNT(", "SUM(", "MIN(", "MAX("]
                .iter()
                .any(|f| r.text.contains(f));
            if aggregates {
                continue;
            }
            if let Ok(reference) = sqlpp_eval::reference::eval_sfw(&ast, engine.catalog()) {
                assert!(
                    crate::check::full(&reference, &r.expect),
                    "reference: {}",
                    r.text
                );
                by_reference += 1;
            }
        }
        assert!(
            by_reference >= 100,
            "only {by_reference} requests reached the reference"
        );
    }

    #[test]
    fn durable_model_agrees_with_the_engine() {
        let seed = 12;
        let base = events(seed);
        let engine = sqlpp::Engine::new();
        engine.register("ev.log", Value::Bag(base.clone()));
        let mut client = DurableClient::new(seed, 1, &base);
        for _ in 0..300 {
            let (req, effect) = client.next();
            let got = match &req.expect {
                Expect::Summary(..) => match engine.execute(&req.text).expect("DML runs") {
                    sqlpp::ExecOutcome::Inserted { count } => {
                        tuple(vec![("inserted", Value::Int(count as i64))])
                    }
                    sqlpp::ExecOutcome::Updated { count } => {
                        tuple(vec![("updated", Value::Int(count as i64))])
                    }
                    sqlpp::ExecOutcome::Deleted { count } => {
                        tuple(vec![("deleted", Value::Int(count as i64))])
                    }
                    other => panic!("{other:?}"),
                },
                Expect::Rows { .. } => engine
                    .query_with_params(&req.text, req.params.clone())
                    .expect("read runs")
                    .into_value(),
            };
            assert!(crate::check::full(&got, &req.expect), "{}", req.text);
            client.ack(effect);
        }
    }

    #[test]
    fn data_has_the_advertised_irregularities() {
        let rows = emps(3, 20_000);
        let share = |f: &dyn Fn(&Value) -> bool| {
            rows.iter().filter(|r| f(r)).count() as f64 / rows.len() as f64
        };
        assert!((share(&|r| r.path("title").is_missing()) - 0.10).abs() < 0.01);
        assert!((share(&|r| r.path("sal").is_null()) - 0.02).abs() < 0.005);
        assert!((share(&|r| r.path("sal").as_str().is_some()) - 0.01).abs() < 0.005);
        let mean_projects =
            rows.iter().map(|r| projects(r).len()).sum::<usize>() as f64 / rows.len() as f64;
        assert!((mean_projects - 3.0).abs() < 0.1);
    }

    #[test]
    fn literal_text_inlines_parameters() {
        let r = Request {
            shape: 0,
            text: "SELECT VALUE d FROM t AS d WHERE d.a = ? AND d.b = ?".to_string(),
            params: vec![Value::Int(4), s("east")],
            expect: Expect::bag(Vec::new()),
        };
        assert_eq!(
            r.literal_text(),
            "SELECT VALUE d FROM t AS d WHERE d.a = 4 AND d.b = 'east'"
        );
    }

    #[test]
    fn durable_model_keeps_the_collection_at_its_steady_size() {
        let base = events(5);
        let mut client = DurableClient::new(5, 0, &base);
        let owned = client.rows().count();
        for _ in 0..3_000 {
            let (_, effect) = client.next();
            client.ack(effect);
        }
        let now = client.rows().count();
        assert!(now >= owned && now <= owned + 1, "{owned} -> {now}");
    }
}
