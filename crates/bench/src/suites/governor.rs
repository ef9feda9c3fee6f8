//! **B13** — the resource governor's two promises: *off means free*, and
//! *on means bounded*.
//!
//! Workloads:
//!
//! * `off` / `on` — the same prepared GROUP BY + ORDER BY query with no
//!   governor vs generous limits (memory and deadline far above what the
//!   query needs). The report's medians document the governed overhead;
//!   the suite only hard-fails on a catastrophic regression (> 1.5×),
//!   leaving the within-MAD comparison to the report so CI stays
//!   deterministic on noisy machines.
//! * `budget_failfast` — an 18 000-byte budget (~1 000 sort rows)
//!   against an ORDER BY over 50 000 rows. Asserted, not just measured: the query dies with the
//!   structured `ResourceExhausted`, the governor's peak gauge never
//!   exceeds the budget (admission happens *before* storage), and the
//!   refusal is far faster than sorting the input would be.
//! * `deadline_zero` — an already-expired deadline cancels on the first
//!   pull with the structured `Cancelled` error.
//!
//! The fail-fast checks drive the evaluator directly (`sqlpp-eval`):
//! engine-level stats are discarded on `Err`, and the point here is
//! precisely to inspect the governor *after* a failure.

use std::time::Duration;

use sqlpp::{Engine, Limits, SessionConfig};
use sqlpp_eval::govern::MEMORY_BUDGET;
use sqlpp_eval::{EvalConfig, EvalError, Evaluator};
use sqlpp_testkit::bench::Harness;
use sqlpp_value::{Tuple, Value};

use super::scaled;

/// Bytes: 1 000 sort rows of one `Int` key plus one `Int` element.
const BUDGET: u64 = 18_000;

fn rows(n: usize) -> Value {
    let rows = (0..n as i64)
        .map(|i| {
            let mut t = Tuple::with_capacity(3);
            t.insert("k", Value::Int(i));
            t.insert("v", Value::Int(7 * i));
            t.insert("grp", Value::Int(i % 64));
            Value::Tuple(t)
        })
        .collect();
    Value::Bag(rows)
}

/// Runs the suite.
pub fn run(h: &mut Harness) {
    let n = scaled(h, 50_000).max(2_000);
    let engine = Engine::new();
    engine.register("g.data", rows(n));

    // A query with real governed surface: a GROUP BY breaker, per-row
    // arithmetic, and an ORDER BY breaker over the groups.
    let query = "SELECT g.grp AS grp, COUNT(*) AS n, SUM(g.v) AS total \
                 FROM g.data AS g GROUP BY g.grp ORDER BY total DESC";

    // --- off: the production path carries no governor state at all.
    let plan = engine.prepare(query).unwrap();
    h.bench(format!("governor/off/{n}"), || {
        plan.execute(&engine).unwrap()
    });
    let off_ns = h.results().last().unwrap().median_ns;

    // --- on: generous limits (~10× the data, a minute of deadline).
    // Every admission is now sized and runs through the governor, as
    // does every tick.
    let governed = engine.with_config(SessionConfig {
        limits: Limits::none()
            .with_memory_bytes(2_000 * n as u64)
            .with_time(Duration::from_secs(60)),
        ..SessionConfig::default()
    });
    let plan = governed.prepare(query).unwrap();
    h.bench(format!("governor/on/{n}"), || {
        plan.execute(&governed).unwrap()
    });
    let on_ns = h.results().last().unwrap().median_ns;
    let overhead_pct = ((on_ns / off_ns) - 1.0) * 100.0;
    assert!(
        on_ns <= off_ns * 1.5,
        "governed run is catastrophically slower: {on_ns:.0}ns vs {off_ns:.0}ns off"
    );
    h.attach_counters([
        ("n".to_string(), n as u64),
        (
            "overhead_pct_x100".to_string(),
            (overhead_pct.max(0.0) * 100.0) as u64,
        ),
    ]);

    // --- budget_failfast: a budget 50× under the input. The sort buffer
    // is refused at admission BUDGET, long before the scan finishes.
    let limits = Limits::none().with_memory_bytes(BUDGET);
    let sort_all = "SELECT VALUE g.v FROM g.data AS g ORDER BY g.v DESC";
    let prepared = engine.prepare(sort_all).unwrap();
    let run_budgeted = || {
        let ev = Evaluator::new(
            engine.catalog(),
            EvalConfig {
                limits: limits.clone(),
                ..EvalConfig::default()
            },
        );
        let err = ev.run(prepared.plan()).unwrap_err();
        (ev, err)
    };
    let (ev, err) = run_budgeted();
    match err {
        EvalError::ResourceExhausted {
            resource,
            limit,
            used,
        } => {
            assert_eq!(resource, MEMORY_BUDGET);
            assert_eq!(limit, BUDGET);
            assert!(
                used > limit,
                "refusal must be the first over-budget admission"
            );
        }
        other => panic!("budgeted ORDER BY failed with the wrong error: {other}"),
    }
    let g = ev.governor();
    assert!(
        g.peak_buffer_bytes() <= BUDGET,
        "peak live bytes {} exceeded the {BUDGET}-byte budget",
        g.peak_buffer_bytes()
    );
    assert_eq!(g.budget_denials(), 1, "exactly one refusal, then unwind");
    h.bench(format!("governor/budget_failfast/{BUDGET}_of_{n}"), || {
        run_budgeted().1
    });
    let failfast_ns = h.results().last().unwrap().median_ns;
    h.attach_counters([
        ("mem_bytes_budget".to_string(), BUDGET),
        ("peak_budget_bytes".to_string(), g.peak_buffer_bytes()),
        ("budget_denials".to_string(), g.budget_denials()),
    ]);
    // Failing fast must beat sorting the whole input.
    assert!(
        failfast_ns <= off_ns,
        "budget refusal ({failfast_ns:.0}ns) is slower than completing the query ({off_ns:.0}ns)"
    );

    // --- deadline_zero: an expired deadline cancels on the first pull.
    let expired = engine.with_config(SessionConfig {
        limits: Limits::none().with_time(Duration::ZERO),
        ..SessionConfig::default()
    });
    let plan = expired.prepare(sort_all).unwrap();
    let err = plan.execute(&expired).unwrap_err();
    assert!(
        err.to_string().contains("query cancelled"),
        "expired deadline surfaced as: {err}"
    );
    h.bench(format!("governor/deadline_zero/{n}"), || {
        plan.execute(&expired).unwrap_err()
    });
}
