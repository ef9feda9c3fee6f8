//! The serving layer end to end: start a multi-threaded session server
//! over an engine, then drive it with raw TCP clients — queries,
//! positional parameters, DML, an error with spanned diagnostics, and a
//! budget-tripped request arriving as a structured `Overloaded` frame.
//!
//! Run: `cargo run --example server_roundtrip`

use std::time::Duration;

use sqlpp::{Engine, Limits, SessionConfig};
use sqlpp_server::{wire::Response, Client, Server, ServerConfig};
use sqlpp_value::Value;

fn main() -> std::io::Result<()> {
    let engine = Engine::new();
    engine
        .load_pnotation(
            "hr.emp",
            "{{ {'id': 1, 'name': 'Ann', 'sal': 90, 'dept': 'eng'},
                {'id': 2, 'name': 'Bo',  'sal': 70, 'dept': 'eng'},
                {'id': 3, 'name': 'Cy',  'sal': 40, 'dept': 'ops'} }}",
        )
        .expect("load");

    // A worker pool over the engine's catalog. The governor limits are
    // the second admission tier: any request that exceeds them is shed
    // with a structured response, and the session keeps working.
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            workers: 4,
            session: SessionConfig {
                limits: Limits::none()
                    .with_memory_bytes(64 << 20)
                    .with_time(Duration::from_secs(5)),
                ..SessionConfig::default()
            },
            ..ServerConfig::default()
        },
    )?;
    println!("server listening on {}", server.addr());

    let mut client = Client::connect(server.addr())?;

    // A query; the server parses, lowers, optimizes, caches, executes.
    let resp = client.query(
        "SELECT e.dept AS dept, COUNT(*) AS n, SUM(e.sal) AS payroll \
         FROM hr.emp AS e GROUP BY e.dept ORDER BY payroll DESC",
    )?;
    println!("group-by over the wire  -> {resp:?}");

    // The same query shape with different parameters is a plan-cache
    // hit: parse/lower/optimize are skipped, only execution runs.
    let resp = client.query_with_params(
        "SELECT VALUE e.name FROM hr.emp AS e WHERE e.sal > ?",
        vec![Value::Int(50)],
    )?;
    println!("parameterized           -> {resp:?}");
    let resp = client.query_with_params(
        "SELECT VALUE e.name FROM hr.emp AS e WHERE e.sal > ?",
        vec![Value::Int(80)],
    )?;
    println!("same plan, new param    -> {resp:?}");

    // DML goes through the same connection and is immediately visible
    // to every session (one catalog underneath).
    let resp = client
        .query("INSERT INTO hr.emp VALUE {'id': 9, 'name': 'Di', 'sal': 55, 'dept': 'ops'}")?;
    println!("insert                  -> {resp:?}");

    // Errors arrive structured: a machine code plus full spanned
    // diagnostics, enough for a thin client to render caret reports.
    match client.query("SELECT VALUE FROM WHERE")? {
        Response::Error {
            code,
            message,
            diagnostics,
        } => {
            println!(
                "broken query            -> code={code} ({} diagnostic(s))",
                diagnostics.len()
            );
            println!("                           {message}");
        }
        other => println!("unexpected: {other:?}"),
    }

    // A request that trips the session budget is *shed*, not errored —
    // and the very next request on the same connection is served.
    let tight = Server::start(
        engine,
        ServerConfig {
            session: SessionConfig {
                limits: Limits::none().with_memory_bytes(64),
                ..SessionConfig::default()
            },
            ..ServerConfig::default()
        },
    )?;
    let mut c2 = Client::connect(tight.addr())?;
    match c2.query("SELECT VALUE e.sal FROM hr.emp AS e ORDER BY e.sal")? {
        Response::Overloaded { message } => println!("over budget             -> shed: {message}"),
        other => println!("unexpected: {other:?}"),
    }
    let resp = c2.query("SELECT VALUE e.name FROM hr.emp AS e WHERE e.id = 1")?;
    println!("same session, next req  -> {resp:?}");
    tight.shutdown();

    println!(
        "cache: {:?}\nstats: {:?}",
        server.cache_stats(),
        server.stats()
    );
    server.shutdown();
    Ok(())
}
