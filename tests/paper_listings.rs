//! Golden reproduction of every paper listing: the compatibility-kit
//! corpus, run in both modes, must pass completely. (The kit is also a
//! library; this test locks the workspace build to a green kit.)

use sqlpp::{CompatMode, SessionConfig, TypingMode};
use sqlpp_compat_kit::{corpus, fixture_engine, run_all, Check};

#[test]
fn every_listing_and_kit_case_passes_in_both_modes() {
    let report = run_all(TypingMode::Permissive);
    let failures: Vec<String> = report
        .results
        .iter()
        .filter(|r| !r.passed)
        .map(|r| {
            format!(
                "{} [{:?}] expected {} got {}",
                r.id, r.mode, r.expected, r.actual
            )
        })
        .collect();
    assert!(failures.is_empty(), "failures:\n{}", failures.join("\n"));
}

#[test]
fn the_corpus_covers_every_queryable_listing() {
    // Listings with queries/results: 2, 4, 8, 9, 10/11, 12/13, 14, 15,
    // 16, 17, 18, 20/21, 22, 24/25, 26/28. (1, 3, 5, 6, 7, 19, 23, 27 are
    // data; 5 is DDL covered by sqlpp-schema's Hive tests.)
    let ids: Vec<&str> = corpus().iter().map(|c| c.id).collect();
    for required in [
        "L2", "L4", "L8", "L9", "L10", "L12", "L14", "L15", "L16", "L17", "L18", "L20", "L22",
        "L24", "L26",
    ] {
        assert!(ids.contains(&required), "missing listing case {required}");
    }
}

#[test]
fn error_cases_error_and_value_cases_parse() {
    for case in corpus() {
        if case.check != Check::Errors {
            assert!(
                !case.expected.trim().is_empty(),
                "case {} has an empty expectation",
                case.id
            );
        }
    }
}

/// There is one expression evaluator: every corpus query that runs
/// compiles all of its expressions, none fall back. (Cases written as bare
/// expressions rather than queries have no stats surface and are skipped;
/// the floor keeps the check from going vacuous.)
#[test]
fn every_corpus_query_runs_without_expression_fallback() {
    let mut checked = 0;
    for mode in [CompatMode::SqlCompat, CompatMode::Composable] {
        let engine = fixture_engine(mode, TypingMode::Permissive);
        for case in corpus() {
            for (name, text) in case.setup {
                engine.load_pnotation(name, text).unwrap();
            }
            let Ok(run) = engine.query_with_stats(case.query) else {
                continue;
            };
            let stats = run.stats().expect("stats collection was on");
            assert_eq!(stats.exprs_fallback, 0, "case {} [{mode:?}]", case.id);
            checked += 1;
        }
    }
    assert!(checked >= 60, "only {checked} corpus queries were checked");
}

/// The optimizer runs each pass once: optimizing an optimized plan must
/// change nothing. Plans compare by their Debug text, which (unlike
/// `PartialEq`) sees a NaN constant as equal to itself.
#[test]
fn optimizing_a_corpus_plan_twice_changes_nothing() {
    let mut checked = 0;
    for mode in [CompatMode::SqlCompat, CompatMode::Composable] {
        let engine = fixture_engine(mode, TypingMode::Permissive).with_config(SessionConfig {
            compat: mode,
            optimize: false,
            ..SessionConfig::default()
        });
        for case in corpus() {
            for (name, text) in case.setup {
                engine.load_pnotation(name, text).unwrap();
            }
            let Ok(prepared) = engine.prepare(case.query) else {
                continue;
            };
            let once = sqlpp_plan::optimize(prepared.plan().clone());
            let twice = sqlpp_plan::optimize(once.clone());
            assert_eq!(
                format!("{twice:?}"),
                format!("{once:?}"),
                "case {} [{mode:?}]",
                case.id
            );
            checked += 1;
        }
    }
    assert!(checked >= 60, "only {checked} corpus queries were checked");
}
