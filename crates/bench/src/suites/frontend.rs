//! **B14** — front-end resilience overhead: error recovery must be free
//! on the happy path.
//!
//! The recovering parser takes the byte-identical code path as the
//! strict one until the first error fires, so parsing valid queries with
//! recovery enabled should cost the same as strict parsing. Measured:
//! (a) strict vs recovering parse over every compatibility-corpus query,
//! and (b) recovering parse over the same corpus with each query's last
//! token chopped off — the diagnose-and-resynchronize path itself.

use sqlpp_syntax::{lex, parse_statement, parse_statement_recovering, token::Tok};
use sqlpp_testkit::bench::Harness;

/// Runs the suite.
pub fn run(h: &mut Harness) {
    let queries: Vec<String> = sqlpp_compat_kit::corpus()
        .iter()
        .map(|c| c.query.to_string())
        .collect();
    // Corrupted variants: delete the final token of each query.
    let corrupted: Vec<String> = queries
        .iter()
        .filter_map(|q| {
            let tokens = lex(q).ok()?;
            let last = tokens.iter().rev().find(|t| t.tok != Tok::Eof)?;
            let truncated = q[..last.span.start].trim_end().to_string();
            (!truncated.is_empty()).then_some(truncated)
        })
        .collect();

    h.bench("frontend/parse_strict/corpus", || {
        queries
            .iter()
            .filter(|q| parse_statement(q).is_ok())
            .count()
    });
    h.bench("frontend/parse_recovering/corpus", || {
        queries
            .iter()
            .filter(|q| parse_statement_recovering(q).is_clean())
            .count()
    });
    h.bench("frontend/parse_recovering/corrupted", || {
        corrupted
            .iter()
            .map(|q| parse_statement_recovering(q).diags.len())
            .sum::<usize>()
    });
}
