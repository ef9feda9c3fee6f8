//! EXPLAIN ANALYZE smoke: run a GROUP AS + UNNEST paper query, a folded
//! SQL-aggregate query and an UNNEST whose WHERE filters its left side
//! first, with statistics collection, and verify the rendered plans carry
//! non-zero row and timing counters — with each GROUP BY breaker's time
//! covering its child's, and the fused scan spine's operators labelled
//! `fused`. `scripts/ci.sh` runs this on every build.
//!
//! ```text
//! cargo run --example explain_analyze
//! ```

use sqlpp::Engine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = Engine::new();
    engine.load_pnotation(
        "hr.emp_nest_tuples",
        r#"{{
            {'id': 3, 'name': 'Bob Smith', 'title': null,
             'projects': [{'name': 'Serverless Query'},
                          {'name': 'OLAP Security'},
                          {'name': 'OLTP Security'}]},
            {'id': 4, 'name': 'Susan Smith', 'title': 'Manager', 'projects': []},
            {'id': 6, 'name': 'Jane Smith', 'title': 'Engineer',
             'projects': [{'name': 'OLTP Security'}]}
        }}"#,
    )?;

    // A GROUP AS query over an UNNESTed (left-correlated) FROM: per
    // project, collect who works on it — Listing 14 territory. Reading
    // the group bag keeps the group materializing.
    let query = "SELECT p.name AS proj, COUNT(*) AS headcount, \
                 (SELECT VALUE v.e.name FROM g AS v) AS who \
                 FROM hr.emp_nest_tuples AS e, e.projects AS p \
                 GROUP BY p.name GROUP AS g";
    let text = analyze(&engine, query)?;
    assert!(
        text.contains("group as g capturing [e, p]"),
        "no materializing group:\n{text}"
    );

    // SQL aggregates alone fold into the group: one running state per
    // aggregate per group, no member bag.
    let text = analyze(
        &engine,
        "SELECT e.title AS title, COUNT(*) AS n, SUM(e.id) AS ids \
         FROM hr.emp_nest_tuples AS e GROUP BY e.title",
    )?;
    assert!(
        text.contains("group by e.title AS title folding [$agg0 = COUNT(*), $agg1 = SUM(e.id)]"),
        "no folded group:\n{text}"
    );
    // Its input runs on the fused spine, which stats collection watches.
    assert!(
        text.contains("[materializing fused calls=") && text.contains("from [streaming fused"),
        "the folded group's spine is not labelled fused:\n{text}"
    );

    // A leading conjunct over the left side filters the employees before
    // their projects are unnested.
    let text = analyze(
        &engine,
        "SELECT p.name AS proj, COUNT(*) AS n \
         FROM hr.emp_nest_tuples AS e, e.projects AS p \
         WHERE e.title = 'Engineer' GROUP BY p.name",
    )?;
    assert!(
        text.contains("correlate left-filter CASE WHEN (e.title = 'Engineer') THEN true"),
        "no left filter on the correlate:\n{text}"
    );

    let result = engine.query_with_stats(query)?;
    let stats = result.stats().expect("stats collection was on");
    assert!(stats.rows_scanned > 0, "rows_scanned = 0");
    assert!(stats.bindings_produced > 0, "bindings_produced = 0");
    assert!(stats.groups_built > 0, "groups_built = 0");
    assert!(stats.eval_ns > 0, "eval_ns = 0");
    println!(
        "ok: scanned {} rows, produced {} bindings, built {} groups",
        stats.rows_scanned, stats.bindings_produced, stats.groups_built
    );
    Ok(())
}

/// Runs `EXPLAIN ANALYZE` on `query`, prints the annotated plan, and
/// checks what every analysis must show.
fn analyze(engine: &Engine, query: &str) -> Result<String, Box<dyn std::error::Error>> {
    // The statement form, as a client would type it.
    let sqlpp::ExecOutcome::Explained { text } =
        engine.execute(&format!("EXPLAIN ANALYZE {query}"))?
    else {
        return Err("EXPLAIN ANALYZE did not produce a plan".into());
    };
    println!("{text}");

    // The plan must be annotated: per-operator pipeline class, calls,
    // rows, and time, plus the phase/counter summary with non-zero scan
    // and binding counts.
    assert!(
        text.contains("[streaming calls=") || text.contains("[streaming fused calls="),
        "no streaming-operator annotations:\n{text}"
    );
    assert!(
        text.contains("[materializing calls=") || text.contains("[materializing fused calls="),
        "no materializing-operator annotations:\n{text}"
    );
    assert!(text.contains("group by"), "no group operator:\n{text}");
    assert!(text.contains("phases: parse"), "no phase summary:\n{text}");

    // Times are inclusive, and a breaker's build is its own work: the
    // GROUP BY node's time must cover its FROM child's.
    let time_ns = |node: &str| -> f64 {
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with(node))
            .unwrap_or_else(|| panic!("no {node} node:\n{text}"));
        let time = line.rsplit("time=").next().unwrap().trim_end_matches(']');
        let (num, unit) = time.split_at(time.find(char::is_alphabetic).unwrap());
        let scale = match unit {
            "ns" => 1.0,
            "us" => 1e3,
            "ms" => 1e6,
            _ => 1e9,
        };
        num.parse::<f64>().unwrap() * scale
    };
    let (group, from) = (time_ns("group by"), time_ns("from"));
    assert!(
        group >= from,
        "group by shows {group}ns, less than its from child's {from}ns:\n{text}"
    );
    Ok(text)
}
