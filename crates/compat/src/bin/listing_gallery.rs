//! Regenerates every listing of the paper from the engine: the data (as
//! loaded), the query, the mechanically produced result in the paper's
//! notation, and — for the §V-C rewriting listings — the EXPLAIN output
//! showing the SQL→Core rewrite the paper prints by hand.
//!
//! ```text
//! cargo run -p sqlpp-compat-kit --bin listing_gallery            # all listings
//! cargo run -p sqlpp-compat-kit --bin listing_gallery -- L12 L17 # a selection
//! ```

use sqlpp::{CompatMode, TypingMode};
use sqlpp_compat_kit::{corpus, fixture_engine, Check, ModeSpec};
use sqlpp_value::to_pretty;

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).collect();
    let compat_engine = fixture_engine(CompatMode::SqlCompat, TypingMode::Permissive);
    let composable_engine = fixture_engine(CompatMode::Composable, TypingMode::Permissive);

    let mut shown = 0;
    for case in corpus() {
        if !filter.is_empty() && !filter.iter().any(|f| f == case.id) {
            continue;
        }
        let (engine, mode_label) = match case.modes {
            ModeSpec::ComposableOnly => (&composable_engine, "composability mode"),
            _ => (&compat_engine, "SQL-compat mode"),
        };
        for (name, text) in case.setup {
            engine.load_pnotation(name, text).expect("fixture parses");
        }
        println!("==================================================================");
        println!(
            "{} — §{} — {} [{}]",
            case.id, case.section, case.title, mode_label
        );
        println!("------------------------------------------------------------------");
        println!(
            "query:\n  {}\n",
            case.query.split_whitespace().collect::<Vec<_>>().join(" ")
        );
        if case.check == Check::Errors {
            match engine.run_str(case.query) {
                Err(e) => println!("result: rejected as expected\n  {e}\n"),
                Ok(v) => println!("result: UNEXPECTED SUCCESS\n{}\n", to_pretty(&v)),
            }
        } else {
            match engine.run_str(case.query) {
                Ok(v) => println!("result:\n{}\n", to_pretty(&v)),
                Err(e) => println!("ERROR: {e}\n"),
            }
        }
        // The aggregation listings exist to illustrate the §V-C rewriting:
        // show the machine's version of it.
        if matches!(case.id, "L15" | "L17" | "L22" | "K-count-star") {
            if let Ok(plan) = engine.explain(case.query) {
                println!("lowered SQL++ Core plan (EXPLAIN):\n{}", indent(&plan));
            }
        }
        if let Some(note) = case.note {
            println!("note: {note}\n");
        }
        shown += 1;
    }
    if shown == 0 {
        eprintln!("no listing matched the filter {filter:?}");
        std::process::exit(1);
    }
    println!("==================================================================");
    println!("{shown} listings regenerated.");
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}
