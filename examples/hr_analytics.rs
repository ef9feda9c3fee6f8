//! HR analytics over nested documents — the workload the paper's
//! introduction motivates: schema-optional collections queried with SQL
//! skills, no ETL flattening step.
//!
//! ```text
//! cargo run --example hr_analytics
//! ```

use sqlpp::Engine;
use sqlpp_testkit::rng::Rng;
use sqlpp_value::{Tuple, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = Engine::new();
    // 2,000 employees with nested project assignments (deterministic).
    engine.register("hr.employees", gen_emp_nested(2_000, 5, 2024));

    // 1. Department salary profile — classic SQL over document data.
    let profile = engine.query(
        "SELECT e.deptno, COUNT(*) AS headcount, \
                AVG(e.salary) AS avg_salary, MAX(e.salary) AS top_salary \
         FROM hr.employees AS e \
         GROUP BY e.deptno \
         HAVING COUNT(*) > 50 \
         ORDER BY avg_salary DESC \
         LIMIT 5",
    )?;
    println!(
        "Top departments by average salary:\n{}\n",
        profile.to_pretty()
    );

    // 2. Invert the hierarchy with GROUP AS (§V-B): who staffs each
    //    project? The nesting of the output does NOT follow the nesting
    //    of the input, which is exactly when GROUP AS shines.
    let staffing = engine.query(
        "FROM hr.employees AS e, e.projects AS p \
         GROUP BY p.name AS project GROUP AS g \
         SELECT project, \
                COLL_COUNT(FROM g AS v SELECT VALUE v.e.id) AS team_size, \
                (FROM g AS v SELECT VALUE v.e.name LIMIT 3) AS sample_members \
         ORDER BY team_size DESC",
    )?;
    println!(
        "Project staffing (hierarchy inverted):\n{}\n",
        staffing.to_pretty()
    );

    // 3. Per-employee nested summary: output nesting follows input
    //    nesting, so a correlated SELECT VALUE is the natural tool (§V-A).
    let summary = engine.query(
        "SELECT e.name AS name, \
                (SELECT VALUE p.name FROM e.projects AS p \
                 WHERE p.name LIKE '%Security%') AS security_work \
         FROM hr.employees AS e \
         WHERE e.title = 'Director' \
         LIMIT 3",
    )?;
    println!("Directors' security work:\n{}\n", summary.to_pretty());

    // 4. A prepared, parameterized query, run for several titles.
    let by_title = engine.prepare(
        "SELECT VALUE COLL_COUNT(FROM g AS v SELECT VALUE v.e) \
         FROM hr.employees AS e WHERE e.title = ? \
         GROUP BY e.title GROUP AS g",
    )?;
    for title in ["Engineer", "Manager", "Analyst", "Director"] {
        let n = by_title.execute_with_params(&engine, vec![title.into()])?;
        println!("{title:>9}: {}", n.value());
    }
    Ok(())
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

/// A nested employee collection in the shape of Listing 1: `n`
/// employees, each with up to `fanout` nested project tuples, drawn from
/// a PRNG seeded with `seed`.
fn gen_emp_nested(n: usize, fanout: usize, seed: u64) -> Value {
    let mut r = Rng::new(seed);
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
