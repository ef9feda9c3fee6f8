//! An interactive SQL++ shell.
//!
//! ```text
//! cargo run --example repl
//! sql++> SELECT VALUE x FROM [1,2,3] AS x WHERE x > 1
//! {{2, 3}}
//! ```
//!
//! Dot-commands:
//!
//! * `.load <name> <file>` — load a collection (format by extension:
//!   `.json`, `.csv`, `.ion`, anything else is paper notation);
//! * `.explain <query>` — show the lowered SQL++ Core plan;
//! * `.names` — list catalog names;
//! * `.mode compat|composable` / `.typing permissive|strict` — the dials;
//! * `.stats on|off` — print the phase/counter summary after every
//!   statement, DML included;
//! * `.limit bytes <n>` / `.limit time <ms>` / `.limit spill <n>` /
//!   `.limit off` — per-query resource budgets (tracked buffer bytes,
//!   wall-clock deadline, spill-file bytes);
//! * `.spill on|off` — let pipeline breakers overflow the memory budget
//!   to temp files instead of refusing the query; with `.stats on`,
//!   spilling queries report partitions/bytes/merge passes;
//! * `.check <query>` — static analysis only: every syntax error,
//!   name-resolution failure, and schema-derived type warning in one
//!   caret-underlined report, nothing evaluated;
//! * `.save <path>` / `.open <path>` — export the whole catalog as a
//!   checksummed snapshot file, or import one (values *and* attached
//!   schemas survive the round trip);
//! * `.wal status` — durability counters when the REPL was started on a
//!   durable engine (`SQLPP_DATA_DIR=<dir> cargo run --example repl`
//!   opens a write-ahead-logged catalog that survives restarts);
//! * `.quit`.
//!
//! Broken input gets a multi-error report rather than just the first
//! failure — the recovering parser resynchronizes at clause boundaries:
//!
//! ```text
//! sql++> SELECT 1 + FROM demo.emps AS e WHERE ORDER BY
//! error[E_EXPECTED]: unexpected token FROM in expression at line 1, column 12
//!   | SELECT 1 + FROM demo.emps AS e WHERE ORDER BY
//!   |            ^^^^
//!   = hint: while parsing the SELECT clause
//! …
//! 3 errors found
//! ```

use std::io::{BufRead, Write};
use std::time::Duration;

use sqlpp::{
    CompatMode, Engine, Error, ExecOutcome, Limits, SessionConfig, SpillConfig, TypingMode,
};

fn main() {
    let mut config = SessionConfig::default();
    let mut stats_on = false;
    // `SQLPP_DATA_DIR=<dir>` starts the shell durable: catalog recovered
    // from the directory on startup, every commit write-ahead logged.
    let base = match std::env::var("SQLPP_DATA_DIR") {
        Ok(dir) => match Engine::open_durable(&dir) {
            Ok(engine) => {
                println!(
                    "durable catalog at {dir} ({} names recovered)",
                    engine.catalog().names().len()
                );
                engine
            }
            Err(e) => {
                eprintln!("cannot open durable catalog at {dir}: {e}");
                std::process::exit(1);
            }
        },
        Err(_) => Engine::new(),
    };
    if !base.catalog().contains(&sqlpp::Name::parse("demo.emps")) {
        // Something to play with out of the box.
        base.load_pnotation(
            "demo.emps",
            "{{ {'name': 'Ann', 'dept': 'eng', 'salary': 100},
                {'name': 'Bo', 'dept': 'eng', 'salary': 80},
                {'name': 'Cy', 'dept': 'ops'} }}",
        )
        .expect("demo data");
    }

    println!("sqlpp REPL — try: SELECT VALUE e.name FROM demo.emps AS e");
    println!(
        "dot-commands: .load .save .open .wal .explain .check .names .mode .typing \
         .stats .limit .spill .quit"
    );
    let stdin = std::io::stdin();
    loop {
        print!("sql++> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let engine = base.with_config(config.clone());
        if let Some(rest) = line.strip_prefix('.') {
            let mut words = rest.split_whitespace();
            match words.next() {
                Some("quit") | Some("exit") => break,
                Some("names") => {
                    for n in engine.catalog().names() {
                        println!("  {n}");
                    }
                }
                Some("mode") => match words.next() {
                    Some("compat") => config.compat = CompatMode::SqlCompat,
                    Some("composable") => config.compat = CompatMode::Composable,
                    _ => println!("usage: .mode compat|composable"),
                },
                Some("typing") => match words.next() {
                    Some("permissive") => config.typing = TypingMode::Permissive,
                    Some("strict") => config.typing = TypingMode::StrictError,
                    _ => println!("usage: .typing permissive|strict"),
                },
                Some("stats") => match words.next() {
                    Some("on") => stats_on = true,
                    Some("off") => stats_on = false,
                    _ => println!("usage: .stats on|off"),
                },
                Some("limit") => match (words.next(), words.next().map(str::parse::<u64>)) {
                    (Some("bytes"), Some(Ok(bytes))) => {
                        config.limits = config.limits.clone().with_memory_bytes(bytes);
                        println!("memory budget: {bytes} bytes of tracked buffers");
                    }
                    (Some("time"), Some(Ok(ms))) => {
                        config.limits = config.limits.clone().with_time(Duration::from_millis(ms));
                        println!("deadline: {ms}ms per query");
                    }
                    (Some("spill"), Some(Ok(bytes))) => {
                        config.limits = config.limits.clone().with_spill_bytes(bytes);
                        println!("spill budget: {bytes} bytes of temp files per query");
                    }
                    (Some("off"), _) => {
                        config.limits = Limits::none();
                        println!("limits cleared");
                    }
                    _ => println!(
                        "usage: .limit bytes <n> | .limit time <ms> | .limit spill <n> \
                         | .limit off"
                    ),
                },
                Some("spill") => match words.next() {
                    Some("on") => {
                        config.spill = Some(SpillConfig::default());
                        println!("spill: on (pipeline breakers overflow to temp files)");
                    }
                    Some("off") => {
                        config.spill = None;
                        println!("spill: off (over-budget queries are refused)");
                    }
                    _ => println!("usage: .spill on|off"),
                },
                Some("check") => {
                    let q = rest.trim_start_matches("check").trim();
                    let diags = engine.check(q);
                    if diags.is_empty() {
                        println!("ok: no diagnostics");
                    } else {
                        print!("{}", sqlpp::render_report(q, &diags));
                    }
                }
                Some("explain") => {
                    let q = rest.trim_start_matches("explain").trim();
                    match engine.explain(q) {
                        Ok(plan) => print!("{plan}"),
                        Err(e) => println!("error: {e}"),
                    }
                }
                Some("load") => {
                    let (name, path) = (words.next(), words.next());
                    match (name, path) {
                        (Some(name), Some(path)) => match load(&engine, name, path) {
                            Ok(n) => println!("loaded {n} into {name}"),
                            Err(e) => println!("error: {e}"),
                        },
                        _ => println!("usage: .load <name> <file>"),
                    }
                }
                Some("save") => match words.next() {
                    Some(path) => match engine.save_snapshot(std::path::Path::new(path)) {
                        Ok(()) => println!("catalog saved to {path}"),
                        Err(e) => println!("error: {e}"),
                    },
                    None => println!("usage: .save <path>"),
                },
                Some("open") => match words.next() {
                    Some(path) => match engine.load_snapshot(std::path::Path::new(path)) {
                        Ok(n) => println!("imported {n} binding(s) from {path}"),
                        Err(e) => println!("error: {e}"),
                    },
                    None => println!("usage: .open <path>"),
                },
                Some("wal") => match words.next() {
                    Some("status") => match engine.wal_status() {
                        Some(st) => {
                            println!(
                                "wal: {} (sync {})\n  last lsn {} | snapshot lsn {} | \
                                 {} record(s) since checkpoint | {} wal byte(s)\n  \
                                 lifetime: {} append(s), {} fsync(s), {} checkpoint(s), \
                                 {} replayed on open{}",
                                st.dir.display(),
                                st.sync,
                                st.last_lsn,
                                st.snapshot_lsn
                                    .map_or_else(|| "-".to_string(), |l| l.to_string()),
                                st.records_since_checkpoint,
                                st.wal_bytes,
                                st.appends,
                                st.syncs,
                                st.checkpoints,
                                st.replayed,
                                if st.poisoned { " | POISONED" } else { "" },
                            );
                        }
                        None => println!(
                            "in-memory engine (start with SQLPP_DATA_DIR=<dir> for durability)"
                        ),
                    },
                    Some("checkpoint") => match engine.checkpoint() {
                        Ok(Some(lsn)) => println!("checkpoint written at lsn {lsn}"),
                        Ok(None) => println!("in-memory engine: nothing to checkpoint"),
                        Err(e) => println!("error: {e}"),
                    },
                    _ => println!("usage: .wal status|checkpoint"),
                },
                other => println!("unknown command {other:?}"),
            }
            continue;
        }
        match evaluate(&engine, line, stats_on) {
            Ok(text) => print!("{text}"),
            // Caret-underlined multi-error report where the error has
            // source attribution; plain one-liner otherwise.
            Err(e) => print!("{}", sqlpp::render_error_report(line, &e)),
        }
    }
    // Graceful exit on a durable engine: checkpoint so the next start
    // recovers from a snapshot instead of replaying the whole log.
    if base.is_durable() {
        match base.checkpoint() {
            Ok(Some(lsn)) => println!("checkpointed at lsn {lsn}"),
            Ok(None) => {}
            Err(e) => eprintln!("checkpoint failed: {e}"),
        }
    }
}

/// Evaluates one input line to the text the shell prints for it: a
/// statement first (with `stats_on`, led by its phase/counter summary —
/// DML included), and a bare expression only when the line is *not a
/// statement at all*, i.e. failed to parse. A statement that parsed and
/// then failed — a schema violation, an unknown DML target, a strict-mode
/// type error — reports its own error and is never re-run as something
/// else.
pub fn evaluate(engine: &Engine, line: &str, stats_on: bool) -> sqlpp::Result<String> {
    let executed = if stats_on {
        engine.execute_with_stats(line)
    } else {
        engine.execute(line).map(|outcome| (outcome, None))
    };
    let (outcome, stats) = match executed {
        Err(Error::Syntax(first)) => {
            return engine
                .eval_expr(line)
                .map(|v| format!("{}\n", sqlpp::value::to_pretty(&v)))
                .map_err(|_| Error::Syntax(first));
        }
        other => other?,
    };
    let summary = stats.map(|st| st.render_summary()).unwrap_or_default();
    Ok(summary
        + &match outcome {
            ExecOutcome::Rows(r) => format!("{}\n", r.to_pretty()),
            ExecOutcome::Created { name, row_type } => format!("created {name}: {row_type}\n"),
            ExecOutcome::Inserted { count } => format!("inserted {count}\n"),
            ExecOutcome::Deleted { count } => format!("deleted {count}\n"),
            ExecOutcome::Updated { count } => format!("updated {count}\n"),
            ExecOutcome::Explained { text } => text,
        })
}

fn load(engine: &Engine, name: &str, path: &str) -> Result<String, Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path)?;
    if path.ends_with(".ion") {
        engine.load_ion_lite(name, &bytes)?;
    } else {
        let text = String::from_utf8(bytes)?;
        if path.ends_with(".json") {
            engine.load_json(name, &text)?;
        } else if path.ends_with(".csv") {
            engine.load_csv(name, &text)?;
        } else {
            engine.load_pnotation(name, &text)?;
        }
    }
    let v = engine.catalog().get_str(name)?;
    Ok(format!(
        "{} ({} rows)",
        v.kind().name(),
        v.as_elements()
            .map(<[sqlpp::value::Value]>::len)
            .unwrap_or(1)
    ))
}
