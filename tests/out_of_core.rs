//! Out-of-core differential suite (ISSUE 9): every spilling pipeline
//! breaker must agree with its in-memory twin, and the top-k rewrite
//! must agree with the ORDER BY + LIMIT plan it replaces.
//!
//! * external merge-sort ≡ in-memory sort (exact order) ≡ a Rust
//!   reference oracle, under both typing modes;
//! * Grace hash join and Grace GROUP BY ≡ their in-memory paths as
//!   multisets (bags are unordered — a spilled group-by emits in
//!   partition order, which is legal);
//! * `ORDER BY … LIMIT` fused to a bounded heap ≡ the unfused plan,
//!   including OFFSET, `LIMIT 0`, and limits larger than the input —
//!   and the heap never materializes more than O(k) rows, never spills;
//! * a byte-budget sweep straddling partition-size boundaries — over
//!   `GROUP AS`, absent (NULL/MISSING) group and join keys, and LEFT-join
//!   padding, as the row engine and batched — keeps the answer identical
//!   while peak tracked bytes stay within budget;
//! * a spilled join evaluates each side exactly once;
//! * one hot key bigger than the budget is refused after
//!   `SpillConfig::MAX_RECURSION` re-partitioning levels, for GROUP BY and
//!   the join build alike;
//! * successful spills reclaim every temp file;
//! * a folded GROUP BY (SQL aggregates only) holds one state per group:
//!   its peak tracked bytes stay flat from 1 000 to 100 000 input rows,
//!   while its GROUP AS twin's grow; a folded MAX is charged for the
//!   value it keeps, so over large values it still spills under budget;
//! * sort and top-k plans compile their key expressions (the EXPLAIN
//!   ANALYZE summary reports `exprs_compiled`, and `exprs_fallback=0`),
//!   and a spilling run tags the breaker that went out-of-core.

use sqlpp::{Engine, ExecOutcome, Limits, SessionConfig, SpillConfig, TypingMode};
use sqlpp_eval::govern::MEMORY_BUDGET;
use sqlpp_eval::{EvalConfig, EvalError, Evaluator};
use sqlpp_value::{Tuple, Value};

/// A deterministic scrambled fixture: `n` rows with non-monotonic sort
/// keys (`k`, n/4 distinct values, four duplicates each — join and
/// group-by fodder), and a string payload to give each row some byte
/// weight. Beside it, `sparse`: 64 rows whose key `k` is MISSING on every
/// 16th row and NULL on every 16th-plus-8th (absent keys never join and
/// group together), four rows for each of the other fourteen keys.
fn fixture(n: usize) -> Engine {
    let engine = Engine::new();
    let rows: Vec<String> = (0..n)
        .map(|i| {
            format!(
                "{{'id': {i}, 'k': {}, 'tag': 'row-{}'}}",
                (i * 67) % (n / 4),
                i % 7
            )
        })
        .collect();
    engine
        .load_pnotation("big", &format!("{{{{ {} }}}}", rows.join(", ")))
        .unwrap();
    let sparse: Vec<String> = (0..64)
        .map(|i| match i % 16 {
            0 => format!("{{'id': {i}}}"),
            8 => format!("{{'id': {i}, 'k': null}}"),
            k => format!("{{'id': {i}, 'k': {k}}}"),
        })
        .collect();
    engine
        .load_pnotation("sparse", &format!("{{{{ {} }}}}", sparse.join(", ")))
        .unwrap();
    engine
}

fn spill_session(engine: &Engine, budget_bytes: u64) -> Engine {
    engine.with_config(SessionConfig {
        limits: Limits::none().with_memory_bytes(budget_bytes),
        spill: Some(SpillConfig::default()),
        ..SessionConfig::default()
    })
}

const SORT_Q: &str = "SELECT VALUE b.id FROM big AS b ORDER BY b.k, b.id";

#[test]
fn external_sort_matches_in_memory_sort_exactly() {
    let engine = fixture(500);
    let baseline = engine.query_with_stats(SORT_Q).unwrap();
    assert_eq!(
        baseline.stats().unwrap().spill_partitions,
        0,
        "unlimited session must not spill"
    );
    let spilled = spill_session(&engine, 2_000)
        .query_with_stats(SORT_Q)
        .unwrap();
    let stats = spilled.stats().unwrap().clone();
    assert!(stats.spill_partitions > 0, "2 KB budget must force runs");
    assert!(stats.spill_bytes_written > 0);
    assert!(
        stats.peak_budget_bytes <= 2_000,
        "peak {} exceeded the byte budget",
        stats.peak_budget_bytes
    );
    // Exact order, not just multiset: ORDER BY promises the sequence.
    assert_eq!(
        spilled.into_value().to_string(),
        baseline.into_value().to_string()
    );
}

/// The engine (spilling and not) against a plain Rust sort of the same
/// keys — the §II Pseudocode semantics of ORDER BY, written by hand.
#[test]
fn external_sort_agrees_with_the_reference_oracle() {
    let n = 300usize;
    let m = (n / 4) as i64;
    let mut oracle: Vec<(i64, i64)> = (0..n as i64).map(|i| ((i * 67) % m, i)).collect();
    oracle.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1))); // k DESC, id ASC
    let expected = format!(
        "{{{{{}}}}}",
        oracle
            .iter()
            .map(|(_, id)| id.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let q = "SELECT VALUE b.id FROM big AS b ORDER BY b.k DESC, b.id";
    let engine = fixture(n);
    for typing in [TypingMode::Permissive, TypingMode::StrictError] {
        for budget in [None, Some(1_500u64)] {
            let session = engine.with_config(SessionConfig {
                typing,
                limits: budget.map_or_else(Limits::none, |b| Limits::none().with_memory_bytes(b)),
                spill: budget.map(|_| SpillConfig::default()),
                ..SessionConfig::default()
            });
            let got = session.query(q).unwrap().into_value().to_string();
            assert_eq!(got, expected, "typing={typing:?} budget={budget:?}");
        }
    }
}

#[test]
fn top_k_matches_order_by_limit() {
    let engine = fixture(200);
    let shapes = [
        "SELECT VALUE b.id FROM big AS b ORDER BY b.k, b.id LIMIT 5",
        "SELECT VALUE b.id FROM big AS b ORDER BY b.k DESC, b.id LIMIT 5 OFFSET 3",
        "SELECT VALUE b.id FROM big AS b ORDER BY b.k LIMIT 0",
        "SELECT VALUE b.id FROM big AS b ORDER BY b.k, b.id LIMIT 1000",
        "SELECT b.id AS id, b.tag AS tag FROM big AS b ORDER BY b.k, b.id LIMIT 7 OFFSET 2",
    ];
    for q in shapes {
        let fused = engine.query(q).unwrap().into_value().to_string();
        let unfused = engine
            .with_config(SessionConfig {
                optimize: false,
                ..SessionConfig::default()
            })
            .query(q)
            .unwrap()
            .into_value()
            .to_string();
        assert_eq!(fused, unfused, "top-k diverged from ORDER BY + LIMIT: {q}");
    }
    // And the rewrite really is in the optimized plan.
    let plan = engine
        .explain("SELECT VALUE b.id FROM big AS b ORDER BY b.k LIMIT 5")
        .unwrap();
    assert!(
        plan.contains("top-k"),
        "no top-k in optimized plan:\n{plan}"
    );
}

/// The ISSUE 9 acceptance bound: a top-k over input 10× beyond any
/// reasonable budget holds O(k) rows, not O(n), and never touches disk.
#[test]
fn top_k_never_materializes_its_input() {
    let n = 2_000;
    let (k, off) = (10u64, 5u64);
    let engine = fixture(n);
    let run = spill_session(&engine, 4_000)
        .query_with_stats(&format!(
            "SELECT VALUE b.id FROM big AS b ORDER BY b.k, b.id LIMIT {k} OFFSET {off}"
        ))
        .unwrap();
    assert_eq!(run.len(), k as usize);
    let stats = run.stats().unwrap();
    assert_eq!(stats.spill_partitions, 0, "a bounded heap must not spill");
    assert!(
        stats.peak_live_bindings <= 2 * (k + off) + 16,
        "top-k held {} rows for k+offset = {}",
        stats.peak_live_bindings,
        k + off
    );
}

#[test]
fn spilled_group_by_and_join_match_in_memory_as_multisets() {
    let n = 400;
    let engine = fixture(n);
    // The joins carry the `rows_scanned` they must report: a spilled join
    // scatters the rows it already built and keeps pulling the *same*
    // right stream, so each side is still scanned exactly once.
    let shapes = [
        // Grace GROUP BY with aggregates over duplicate-heavy keys.
        (
            "SELECT b.k AS k, COUNT(*) AS n, SUM(b.id) AS total FROM big AS b GROUP BY b.k",
            None,
        ),
        // GROUP AS: whole groups round-trip through the spill codec.
        (
            "SELECT kk AS kk, (SELECT VALUE x.b.id FROM grp AS x) AS ids \
             FROM big AS b GROUP BY b.k AS kk GROUP AS grp",
            None,
        ),
        // Grace hash join with a residual predicate.
        (
            "SELECT a.id AS l, b.id AS r FROM big AS a JOIN big AS b \
             ON a.k = b.k AND a.id < b.id",
            Some(2 * n as u64),
        ),
        // LEFT join: unmatched probe rows pad with NULL through the
        // spilled path too (the smallest id of each key group matches
        // nothing).
        (
            "SELECT a.id AS l, b.id AS r FROM big AS a LEFT JOIN big AS b \
             ON a.k = b.k AND b.id < a.id",
            Some(2 * n as u64),
        ),
    ];
    for (q, scans) in shapes {
        let baseline = engine.query(q).unwrap().canonical().to_string();
        for batch_size in [1, 1024] {
            let session = engine.with_config(SessionConfig {
                batch_size,
                ..spill_session(&engine, 3_000).config().clone()
            });
            let run = session.query_with_stats(q).unwrap();
            let stats = run.stats().unwrap();
            assert!(
                stats.spill_partitions > 0,
                "3 KB budget did not force a spill: {q}"
            );
            assert!(
                stats.peak_budget_bytes <= 3_000,
                "batch_size {batch_size}: peak {} overshot: {q}",
                stats.peak_budget_bytes
            );
            if let Some(scans) = scans {
                assert_eq!(
                    stats.rows_scanned, scans,
                    "batch_size {batch_size}: a side was re-evaluated: {q}"
                );
            }
            assert_eq!(
                run.canonical().to_string(),
                baseline,
                "batch_size {batch_size}: diverged: {q}"
            );
        }
    }
}

/// Sweeping the byte budget across partition-size boundaries: every
/// budget gives the same answer, and tracked memory never overshoots.
/// Small budgets recurse (partitions straddle); large ones barely spill.
#[test]
fn budget_sweep_straddles_partition_boundaries() {
    let engine = fixture(256);
    let sort_expected = engine.query(SORT_Q).unwrap().into_value().to_string();
    // Bag-valued shapes, compared as multisets against the unlimited run.
    let bag_shapes = [
        "SELECT b.k AS k, COUNT(*) AS n FROM big AS b GROUP BY b.k",
        "SELECT kk AS kk, (SELECT VALUE x.b.id FROM grp AS x) AS ids \
         FROM big AS b GROUP BY b.k AS kk GROUP AS grp",
        // Absent group keys: MISSING and NULL share the NULL group.
        "SELECT s.k AS k, COUNT(*) AS n FROM sparse AS s GROUP BY s.k",
        // Absent join keys never match: those probe rows pad, those
        // build rows never enter a partition.
        "SELECT a.id AS l, b.id AS r FROM sparse AS a LEFT JOIN sparse AS b ON a.k = b.k",
        "SELECT a.id AS l, b.id AS r FROM big AS a LEFT JOIN big AS b \
         ON a.k = b.k AND b.id < a.id",
    ];
    let bag_expected = bag_shapes.map(|q| engine.query(q).unwrap().canonical().to_string());
    for budget in [600u64, 1_100, 2_300, 4_700, 9_500, 19_000] {
        let session = spill_session(&engine, budget);
        let sorted = session.query_with_stats(SORT_Q).unwrap();
        let stats = sorted.stats().unwrap().clone();
        assert!(
            stats.peak_budget_bytes <= budget,
            "budget {budget}: peak {} overshot",
            stats.peak_budget_bytes
        );
        assert_eq!(
            sorted.into_value().to_string(),
            sort_expected,
            "budget {budget}: sort diverged"
        );
        for batch_size in [1, 1024] {
            let session = engine.with_config(SessionConfig {
                batch_size,
                ..session.config().clone()
            });
            for (q, expected) in bag_shapes.iter().zip(&bag_expected) {
                let run = session.query_with_stats(q).unwrap();
                let peak = run.stats().unwrap().peak_budget_bytes;
                assert!(peak <= budget, "budget {budget}: peak {peak} overshot: {q}");
                assert_eq!(
                    &run.canonical().to_string(),
                    expected,
                    "budget {budget}, batch_size {batch_size}: diverged: {q}"
                );
            }
        }
    }
}

/// Grace recursion splits skew across *distinct* keys; a single key
/// bigger than the whole budget is irreducible — hashing the same key
/// again never separates its rows. That must surface as the honest
/// budget refusal, not a hang or a silent overshoot: after exactly
/// `SpillConfig::MAX_RECURSION` re-partitioning levels, for GROUP BY and
/// the join build alike, with every temp file reclaimed and the evaluator
/// reusable. The GROUP BY shapes read their GROUP AS bag, so every group
/// materializes; the same keys under `COUNT(*)` fold to one small state
/// per group and answer within the same budget.
#[test]
fn a_single_key_larger_than_the_budget_is_an_honest_refusal() {
    let engine = fixture(400);
    let err = spill_session(&engine, 1_000)
        .query(
            "SELECT b.tag AS tag, (SELECT VALUE x.b.id FROM grp AS x) AS ids \
             FROM big AS b GROUP BY b.tag GROUP AS grp",
        )
        .expect_err("seven ~57-row groups cannot fit a 1 KB budget");
    assert!(err.to_string().contains("memory budget"), "{err}");
    for q in [
        "SELECT b.tag AS tag, COUNT(*) AS n FROM big AS b GROUP BY b.tag",
        "SELECT z AS z, COUNT(*) AS n FROM big AS b GROUP BY b.id - b.id AS z",
    ] {
        let folded = spill_session(&engine, 1_000)
            .query_with_stats(q)
            .unwrap_or_else(|e| panic!("folded {q} refused: {e}"));
        let peak = folded.stats().unwrap().peak_budget_bytes;
        assert!(peak <= 1_000, "peak {peak} overshot: {q}");
        assert_eq!(
            folded.canonical().to_string(),
            engine.query(q).unwrap().canonical().to_string(),
            "{q}"
        );
    }

    let dir = std::env::temp_dir().join(format!("sqlpp-ooc-skew-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spill = SpillConfig {
        dir: Some(dir.clone()),
    };
    let levels = u64::from(SpillConfig::MAX_RECURSION) + 1;
    let next = engine
        .prepare("SELECT VALUE b.id FROM big AS b WHERE b.id < 3")
        .unwrap();
    // `b.id - b.id` is 0 on every row: one hot key holding all 400. Each
    // level scatters it into `partitions` files (the join: build and
    // probe side each) and finds it whole again in one of them.
    for (q, files_per_level) in [
        (
            "SELECT z AS z, (SELECT VALUE x.b.id FROM grp AS x) AS ids \
             FROM big AS b GROUP BY b.id - b.id AS z GROUP AS grp",
            SpillConfig::PARTITIONS as u64,
        ),
        (
            "SELECT a.id AS l, b.id AS r FROM big AS a JOIN big AS b \
             ON a.id - a.id = b.id - b.id",
            2 * SpillConfig::PARTITIONS as u64,
        ),
    ] {
        let skewed = engine.prepare(q).unwrap();
        let ev = Evaluator::new(
            engine.catalog(),
            EvalConfig {
                limits: Limits::none().with_memory_bytes(1_000),
                spill: Some(spill.clone()),
                ..EvalConfig::default()
            },
        );
        let err = ev.run(skewed.plan()).unwrap_err();
        assert!(
            matches!(err, EvalError::ResourceExhausted { resource, .. } if resource == MEMORY_BUDGET),
            "wrong error: {err:?}: {q}"
        );
        let g = ev.governor();
        assert_eq!(g.spill_partitions(), files_per_level * levels, "{q}");
        assert!(g.peak_buffer_bytes() <= 1_000, "{q}");
        assert_eq!(g.live_buffer_bytes(), 0, "refusal left bytes admitted: {q}");
        let leaked = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(leaked, 0, "{leaked} temp files leaked after {q}");
        let again = ev.run(next.plan()).unwrap();
        assert_eq!(again.to_string(), "{{0, 1, 2}}", "{q}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn successful_spills_leave_no_temp_files() {
    let dir = std::env::temp_dir().join(format!("sqlpp-ooc-clean-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let engine = fixture(300);
    let session = engine.with_config(SessionConfig {
        limits: Limits::none().with_memory_bytes(2_000),
        spill: Some(SpillConfig {
            dir: Some(dir.clone()),
        }),
        ..SessionConfig::default()
    });
    for q in [
        SORT_Q,
        "SELECT b.k AS k, COUNT(*) AS n FROM big AS b GROUP BY b.k",
        "SELECT a.id AS l, b.id AS r FROM big AS a JOIN big AS b ON a.k = b.k",
    ] {
        session.query(q).unwrap();
        let leaked: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(
            leaked.is_empty(),
            "{} temp files leaked after {q}",
            leaked.len()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Sort and top-k keys go through the one expression evaluator (the
/// EXPLAIN ANALYZE summary counts them compiled, none fallen back) — and
/// a spilling run tags the breaker that went out-of-core.
#[test]
fn sort_and_top_k_nodes_run_compiled_bytecode() {
    let engine = fixture(200);
    let analyze = |session: &Engine, q: &str| -> String {
        match session.execute(&format!("EXPLAIN ANALYZE {q}")).unwrap() {
            ExecOutcome::Explained { text } => text,
            other => panic!("expected an analysis, got {other:?}"),
        }
    };
    let text = analyze(
        &engine,
        "SELECT VALUE b.id FROM big AS b ORDER BY b.k LIMIT 5",
    );
    assert!(text.contains("top-k"), "no top-k node in:\n{text}");
    assert!(!text.contains("exprs_compiled=0 "), "{text}");
    assert!(text.contains("exprs_fallback=0"), "{text}");

    let session = spill_session(&engine, 2_000);
    let text = analyze(&session, SORT_Q);
    let sort_line = text
        .lines()
        .find(|l| l.contains("sort"))
        .unwrap_or_else(|| panic!("no sort node in:\n{text}"));
    assert!(sort_line.contains("spilled"), "{sort_line}");
    assert!(text.contains("exprs_fallback=0"), "{text}");
    assert!(text.contains("spill:"), "no spill counter summary:\n{text}");
}

/// 16 groups under a memory budget: folded `COUNT(*)`/`SUM` holds one
/// state per group, so its peak tracked bytes are the same at every
/// input size; the GROUP AS twin holds every row, so its peak grows.
#[test]
fn folded_peak_memory_is_independent_of_input_size() {
    let peak = |n: i64, q: &str| {
        let engine = Engine::new();
        engine.register(
            "c",
            Value::Bag(
                (0..n)
                    .map(|i| {
                        let mut t = Tuple::new();
                        t.insert("k", Value::Int(i % 16));
                        t.insert("v", Value::Int(i));
                        Value::Tuple(t)
                    })
                    .collect(),
            ),
        );
        let session = engine.with_config(SessionConfig {
            limits: Limits::none().with_memory_bytes(1 << 30),
            ..SessionConfig::default()
        });
        let run = session.query_with_stats(q).unwrap();
        let stats = run.stats().unwrap().clone();
        assert_eq!(run.len(), 16, "{q}");
        assert_eq!(stats.groups_built, 16, "{q}");
        stats.peak_budget_bytes
    };
    let folded = "SELECT t.k AS k, COUNT(*) AS n, SUM(t.v) AS s FROM c AS t GROUP BY t.k";
    let twin = "SELECT k AS k, COUNT(*) AS n, SUM(t.v) AS s, \
                (SELECT VALUE x.t.v FROM g AS x) AS vs FROM c AS t GROUP BY t.k AS k GROUP AS g";
    let sizes = [1_000, 10_000, 100_000];
    let folded_peaks = sizes.map(|n| peak(n, folded));
    assert!(folded_peaks[0] > 0);
    assert_eq!(folded_peaks[0], folded_peaks[1]);
    assert_eq!(folded_peaks[1], folded_peaks[2]);
    let twin_peaks = sizes.map(|n| peak(n, twin));
    assert!(
        twin_peaks[0] < twin_peaks[1] && twin_peaks[1] < twin_peaks[2],
        "the GROUP AS twin must grow: {twin_peaks:?}"
    );
    assert!(folded_peaks[2] < twin_peaks[0]);
}

/// A folded `MAX` keeps a copy of its best value, and that copy is
/// charged when it grows: 64 groups whose maxima grow to 320-byte strings
/// are metered at no less than those strings, spill under an 8 KB budget
/// (the groups' first, short values alone would fit it), stay within it,
/// and answer like the unlimited run and the paper-literal plan. Without
/// spilling the same budget refuses.
#[test]
fn a_folded_max_over_large_values_is_charged_and_spills() {
    const GROUPS: i64 = 64;
    const LONGEST: usize = 320;
    let engine = Engine::new();
    engine.register(
        "c",
        Value::Bag(
            (0..GROUPS * 8)
                .map(|i| {
                    let mut t = Tuple::new();
                    t.insert("k", Value::Int(i % GROUPS));
                    // Each later row of a group is a longer run of `x`,
                    // so every row replaces its group's maximum.
                    let len = (i / GROUPS + 1) as usize * LONGEST / 8;
                    t.insert("p", Value::Str("x".repeat(len)));
                    Value::Tuple(t)
                })
                .collect(),
        ),
    );
    let q = "SELECT t.k AS k, MAX(t.p) AS m FROM c AS t GROUP BY t.k";
    let want = engine.query(q).unwrap().canonical().to_string();
    let metered = engine
        .with_config(SessionConfig {
            limits: Limits::none().with_memory_bytes(1 << 30),
            ..SessionConfig::default()
        })
        .query_with_stats(q)
        .unwrap();
    let peak = metered.stats().unwrap().peak_budget_bytes;
    assert!(
        peak >= GROUPS as u64 * LONGEST as u64,
        "peak {peak} undercounts the kept maxima"
    );
    for optimize in [true, false] {
        let session = engine.with_config(SessionConfig {
            optimize,
            ..spill_session(&engine, 8_000).config().clone()
        });
        let run = session.query_with_stats(q).unwrap();
        let stats = run.stats().unwrap();
        assert!(
            stats.spill_partitions > 0,
            "optimize {optimize}: must spill"
        );
        assert!(
            stats.peak_budget_bytes <= 8_000,
            "optimize {optimize}: peak overshot"
        );
        assert_eq!(run.canonical().to_string(), want, "optimize {optimize}");
    }
    let refused = engine
        .with_config(SessionConfig {
            limits: Limits::none().with_memory_bytes(8_000),
            ..SessionConfig::default()
        })
        .query(q)
        .expect_err("64 kept 320-byte maxima cannot fit 8 KB unspilled");
    assert!(refused.to_string().contains("memory budget"), "{refused}");
}
