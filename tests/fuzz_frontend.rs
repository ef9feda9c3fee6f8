//! Front-end fuzzing: the recovering parser must survive anything.
//!
//! Three input families — raw byte soup, SQL-shaped token soup, and
//! mutation-corrupted real queries from the compatibility corpus — are
//! driven through every front-end entry point under `catch_unwind`. The
//! contract checked for each input:
//!
//! 1. no panic, ever;
//! 2. every input the *strict* parser rejects yields at least one
//!    diagnostic from the *recovering* parser;
//! 3. every diagnostic has a code, a message, and an in-bounds span, and
//!    no two diagnostics of one parse have overlapping spans;
//! 4. every input the strict parser accepts parses identically (and
//!    diagnostic-free) in recovering mode — recovery is inert on valid
//!    queries.
//!
//! Invariant 4 is also pinned deterministically over the whole
//! compatibility corpus (every paper listing plus the derived edge
//! cases) in `recovery_differential_over_the_compat_corpus`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sqlpp_syntax::token::Span;
use sqlpp_syntax::{
    parse_expr, parse_expr_recovering, parse_query, parse_query_recovering, parse_statement,
    parse_statement_recovering, Diagnostic,
};
use sqlpp_testkit::{gen, prop, sqlpp_prop};

fn corpus_queries() -> Vec<String> {
    sqlpp_compat_kit::corpus()
        .iter()
        .map(|c| c.query.to_string())
        .collect()
}

/// Mirrors `Diagnostics`' overlap rule: half-open ranges, with empty
/// (EOF) spans overlapping only an identical empty span.
fn spans_overlap(a: Span, b: Span) -> bool {
    if a.start == a.end && b.start == b.end {
        return a.start == b.start;
    }
    a.start < b.end && b.start < a.end
}

fn assert_diags_well_formed(src: &str, diags: &[Diagnostic]) {
    for d in diags {
        assert!(d.span.start <= d.span.end, "inverted span {d} on {src:?}");
        assert!(
            d.span.end <= src.len() + 1,
            "span out of bounds: {d} on {src:?} (len {})",
            src.len()
        );
        assert!(!d.message.is_empty(), "empty message: {d} on {src:?}");
        assert!(!d.code.is_empty(), "empty code: {d} on {src:?}");
    }
    for (i, a) in diags.iter().enumerate() {
        for b in &diags[i + 1..] {
            assert!(
                !spans_overlap(a.span, b.span),
                "overlapping diagnostics on {src:?}:\n  {a}\n  {b}"
            );
        }
    }
}

/// The full front-end contract for one input (see module docs).
fn assert_front_end_contract(src: &str) {
    let (stmt, query, expr) = catch_unwind(AssertUnwindSafe(|| {
        (
            parse_statement_recovering(src),
            parse_query_recovering(src),
            parse_expr_recovering(src),
        )
    }))
    .unwrap_or_else(|_| panic!("front end panicked on {src:?}"));

    assert_diags_well_formed(src, &stmt.diags);
    assert_diags_well_formed(src, &query.diags);
    assert_diags_well_formed(src, &expr.diags);

    // Strict rejection ⇒ at least one spanned diagnostic.
    if parse_statement(src).is_err() {
        assert!(
            !stmt.diags.is_empty(),
            "strict parse_statement rejected {src:?} but recovery reported nothing"
        );
    }
    if parse_expr(src).is_err() {
        assert!(
            !expr.diags.is_empty(),
            "strict parse_expr rejected {src:?} but recovery reported nothing"
        );
    }

    // Strict acceptance ⇒ recovery is inert: same AST, zero diagnostics.
    if let Ok(strict) = parse_statement(src) {
        assert!(stmt.diags.is_empty(), "{src:?}: {:?}", stmt.diags);
        assert_eq!(stmt.ast.as_ref(), Some(&strict), "{src:?}");
    }
    if let Ok(strict) = parse_query(src) {
        assert!(query.diags.is_empty(), "{src:?}: {:?}", query.diags);
        assert_eq!(query.ast.as_ref(), Some(&strict), "{src:?}");
    }
    if let Ok(strict) = parse_expr(src) {
        assert!(expr.diags.is_empty(), "{src:?}: {:?}", expr.diags);
        assert_eq!(expr.ast.as_ref(), Some(&strict), "{src:?}");
    }
}

// The CI fuzz gate scales the sweep through `SQLPP_PROP_CASES` (500 per
// property for the smoke, 2500 for the full 10k-input acceptance run).
sqlpp_prop! {
    #![config(cases = prop::cases(512))]

    // Family 1: raw bytes, lossily decoded — control characters,
    // replacement chars, truncated multi-byte sequences.
    fn byte_soup_never_panics_the_front_end(bytes in gen::bytes(0..=160)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        assert_front_end_contract(&src);
    }

    // Family 1b: well-formed Unicode over the whole range.
    fn unicode_soup_never_panics_the_front_end(src in gen::unicode_string(0..=120)) {
        assert_front_end_contract(&src);
    }

    // Family 2: SQL-shaped token soup — lexically clean, grammatically
    // wild. Exercises the parser's clause-boundary synchronizer far more
    // than raw bytes (which mostly die in the lexer).
    fn token_soup_never_panics_the_front_end(
        tokens in gen::vec_of(
            gen::element_of(vec![
                "SELECT", "VALUE", "FROM", "WHERE", "GROUP", "BY", "AS",
                "ORDER", "HAVING", "LIMIT", "OFFSET", "LET", "UNION",
                "PIVOT", "UNPIVOT", "AT", "JOIN", "ON", "WITH", "CASE",
                "WHEN", "THEN", "END", "(", ")", "{{", "}}", "{", "}",
                "[", "]", ",", ".", "*", "=", "<", "+", ";", "x", "y",
                "t", "1", "1.5", "'s'", "\"q\"", "NULL", "MISSING",
                "TRUE", "AND", "NOT", "?",
            ]),
            0..=32,
        )
    ) {
        let src = tokens.join(" ");
        assert_front_end_contract(&src);
    }

    // Family 3: real queries from the compatibility corpus, corrupted by
    // chunk deletion/duplication/swap/truncation/insertion — the
    // "almost right" inputs that reach deepest into the grammar.
    fn corrupted_real_queries_never_panic_the_front_end(
        src in gen::mutated_string(corpus_queries())
    ) {
        assert_front_end_contract(&src);
    }
}

/// Recovery differential, pinned deterministically: every query in the
/// compatibility corpus (all paper listings included) parses to the
/// *identical* AST with recovery on, with zero diagnostics.
#[test]
fn recovery_differential_over_the_compat_corpus() {
    let mut checked = 0;
    for case in sqlpp_compat_kit::corpus() {
        let src = case.query;
        match parse_statement(src) {
            Ok(strict) => {
                let rec = parse_statement_recovering(src);
                assert!(rec.diags.is_empty(), "{}: {:?}", case.id, rec.diags);
                assert_eq!(rec.ast, Some(strict), "{}", case.id);
            }
            // The engine falls back to bare-expression parsing; the
            // differential follows the same path.
            Err(_) => {
                let strict = parse_expr(src).unwrap_or_else(|e| {
                    panic!(
                        "{}: parses as neither statement nor expression: {e}",
                        case.id
                    )
                });
                let rec = parse_expr_recovering(src);
                assert!(rec.diags.is_empty(), "{}: {:?}", case.id, rec.diags);
                assert_eq!(rec.ast, Some(strict), "{}", case.id);
            }
        }
        checked += 1;
    }
    // 48 distinct queries today (they fan out to 89 case×mode results in
    // the kit); guard against the corpus silently shrinking.
    assert!(checked >= 45, "only {checked} corpus queries checked");
}
