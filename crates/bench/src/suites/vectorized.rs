//! **B17** — vectorized execution: batch-at-a-time pulls and the fused
//! scan spine against the row-at-a-time engine (`batch_size: 1` — the
//! same operators and the same bytecode, pulling one-row batches with the
//! fused spine off). The suite *asserts* the speedup, so a change that
//! silently knocks a hot shape off the fused/batched path fails CI rather
//! than shipping a regression.
//!
//! Workloads (scan/filter/aggregate at 10k–1M rows):
//!
//! * `scan_project` — full scan with an arithmetic projection: the
//!   fused scan→project spine vs per-row `Box<dyn>` pulls and a per-row
//!   `Env`.
//! * `filter_project` — WHERE + projection: predicate and projection
//!   both run over borrowed slices.
//! * `aggregate` — `COLL_SUM` over a projected subquery: the pipelined
//!   accumulator fed by the fused spine.
//!
//! Gates:
//!
//! * each shape's batched median is ≥ [`MIN_SPEEDUP`]× faster than the
//!   row path at [`GATE_ROWS`] rows. The gate is pinned to the largest
//!   cache-resident size on purpose: at 1M rows the source outgrows
//!   LLC and *both* paths converge on DRAM bandwidth — the fused path
//!   already matches a hand-written loop there (~110ns/row), so the
//!   ratio measures memory, not engine overhead. Larger sizes are
//!   still measured and their speedups reported as counters;
//! * under a deadline, real governor clock inspections amortize to
//!   ≤ rows/512 (`cancel_checks` — batching amortizes the every-64th-pull
//!   tick) while still checking at least once;
//! * the instrumented run actually took the batched path
//!   (`batches_produced > 0`) and compiled its expressions
//!   (`exprs_compiled > 0`, `exprs_fallback == 0`).

use std::time::Duration;

use sqlpp::{Engine, Limits, SessionConfig};
use sqlpp_testkit::bench::Harness;
use sqlpp_value::{Tuple, Value};

/// Minimum batched-over-row median speedup per shape at [`GATE_ROWS`].
/// Measured 3.0–5.0× (EXPERIMENTS.md B17) now that the baseline shares
/// the bytecode evaluator; a shape knocked off the fused/batched path
/// collapses to ~1×, so 2× separates the two with room for host noise.
const MIN_SPEEDUP: f64 = 2.0;

/// The size the speedup gate is asserted at — the largest workload that
/// stays cache-resident, so the ratio isolates engine overhead.
const GATE_ROWS: usize = 100_000;

/// `n` tuples `{k: i, v: 7i, even: i % 2 == 0}`.
fn rows(n: usize) -> Value {
    let rows = (0..n as i64)
        .map(|i| {
            let mut t = Tuple::with_capacity(3);
            t.insert("k", Value::Int(i));
            t.insert("v", Value::Int(7 * i));
            t.insert("even", Value::Bool(i % 2 == 0));
            Value::Tuple(t)
        })
        .collect();
    Value::Bag(rows)
}

/// Pulls one named counter out of an instrumented run.
fn counter(stats: &sqlpp::ExecStats, name: &str) -> u64 {
    stats
        .counters()
        .iter()
        .find(|(k, _)| *k == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Runs the suite.
pub fn run(h: &mut Harness) {
    // Quick mode drops the DRAM-bound 1M sweep (the slowest baseline);
    // the gated size always runs.
    let sizes: &[usize] = if h.quick() {
        &[10_000, GATE_ROWS]
    } else {
        &[10_000, GATE_ROWS, 1_000_000]
    };

    let shapes: &[(&str, &str)] = &[
        ("scan_project", "SELECT VALUE x.v + x.k FROM s.big AS x"),
        (
            "filter_project",
            "SELECT VALUE x.v FROM s.big AS x WHERE x.even AND x.v >= 0",
        ),
        (
            "aggregate",
            "SELECT VALUE COLL_SUM(SELECT VALUE x.v FROM s.big AS x)",
        ),
    ];

    for &n in sizes {
        let base = Engine::new();
        base.register("s.big", rows(n));

        // The vectorized engine is the default configuration; the row
        // engine is the same code pulling one-row batches.
        let vec_session = base.with_config(SessionConfig::default());
        let row_session = base.with_config(SessionConfig {
            batch_size: 1,
            ..SessionConfig::default()
        });

        for (shape, query) in shapes {
            let row_plan = row_session.prepare(query).unwrap();
            let vec_plan = vec_session.prepare(query).unwrap();

            // The gate detects *regressions* — a shape knocked off the
            // fused/batched path collapses to ~1× and fails every
            // attempt. Host noise on a shared machine can shave an
            // honest 3× down past the threshold in one sample, so a
            // below-threshold gated measurement is retried before it
            // fails the suite.
            let attempts = if n == GATE_ROWS { 3 } else { 1 };
            let (mut row_ns, mut vec_ns, mut speedup) = (0.0f64, 0.0f64, 0.0f64);
            for attempt in 0..attempts {
                let suffix = if attempt == 0 {
                    String::new()
                } else {
                    format!("/retry{attempt}")
                };
                h.bench(format!("vectorized/{shape}/row/{n}{suffix}"), || {
                    row_plan.execute(&row_session).unwrap()
                });
                row_ns = h.results().last().unwrap().median_ns;

                h.bench(format!("vectorized/{shape}/batched/{n}{suffix}"), || {
                    vec_plan.execute(&vec_session).unwrap()
                });
                vec_ns = h.results().last().unwrap().median_ns;

                speedup = row_ns / vec_ns.max(1.0);
                if speedup >= MIN_SPEEDUP {
                    break;
                }
            }
            // An instrumented run proves the workload really exercises
            // the batch protocol and the compiler (stats collection runs
            // the fused spine too, which credits the batches of the
            // operators it stands in for).
            let run = vec_session.query_with_stats(query).unwrap();
            let stats = run.stats().expect("stats collection was on");
            let batches = counter(stats, "batches_produced");
            let compiled = counter(stats, "exprs_compiled");
            assert!(
                batches > 0,
                "{shape}: no operator took the batched path (batches_produced = 0)"
            );
            assert!(
                compiled > 0,
                "{shape}: no expression compiled to bytecode (exprs_compiled = 0)"
            );
            let fallback = counter(stats, "exprs_fallback");
            assert_eq!(fallback, 0, "{shape}: an expression left the bytecode VM");
            if n == GATE_ROWS {
                assert!(
                    speedup >= MIN_SPEEDUP,
                    "{shape}: batched path is only {speedup:.2}x the row path \
                     (row {row_ns:.0}ns vs batched {vec_ns:.0}ns), want >= {MIN_SPEEDUP}x"
                );
            }
            h.attach_counters([
                ("speedup_pct".to_string(), (speedup * 100.0) as u64),
                ("batches_produced".to_string(), batches),
                ("exprs_compiled".to_string(), compiled),
                ("exprs_fallback".to_string(), fallback),
                ("n".to_string(), n as u64),
            ]);
        }

        // Governor amortization gate: a deadline-governed batched scan
        // must inspect the clock at least once but no more than once
        // per 512 rows — the every-64th-pull tick now advances by
        // whole batches.
        let governed = base.with_config(SessionConfig {
            limits: Limits::none().with_time(Duration::from_secs(3600)),
            ..SessionConfig::default()
        });
        let run = governed
            .query_with_stats("SELECT VALUE x.v FROM s.big AS x WHERE x.even AND x.v >= 0")
            .unwrap();
        let stats = run.stats().expect("stats collection was on");
        let checks = counter(stats, "cancel_checks");
        assert!(
            checks >= 1,
            "governed batched scan never inspected its deadline"
        );
        assert!(
            checks <= n as u64 / 512,
            "{checks} real deadline checks over {n} rows — batching failed to \
             amortize (want <= rows/512 = {})",
            n as u64 / 512
        );
        let plan = governed
            .prepare("SELECT VALUE x.v FROM s.big AS x WHERE x.even AND x.v >= 0")
            .unwrap();
        h.bench(format!("vectorized/governed_filter/batched/{n}"), || {
            plan.execute(&governed).unwrap()
        });
        h.attach_counters([
            ("cancel_checks".to_string(), checks),
            ("rows_scanned".to_string(), counter(stats, "rows_scanned")),
            ("n".to_string(), n as u64),
        ]);
    }
}
