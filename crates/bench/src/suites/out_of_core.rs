//! **B15** — out-of-core execution: under a byte budget ~10× smaller
//! than the working set, every pipeline breaker completes correctly with
//! peak *tracked* memory inside the budget, the spill slowdown is a
//! graceful curve rather than a cliff, and `ORDER BY … LIMIT k` fused
//! to a bounded heap materializes O(k) rows — never its input, never a
//! spill file.
//!
//! Workloads (all asserted, not just measured):
//!
//! * `sort_in_memory` / `sort_spilled` — the same ORDER BY with an
//!   unlimited (but byte-tracked) budget vs. a budget a tenth of the
//!   measured peak. The spilled run must return the identical sequence,
//!   keep `peak_budget_bytes ≤ budget`, and report nonzero
//!   `spill_partitions` / `spill_bytes_written` / `merge_passes`. The
//!   slowdown is capped at 40× — temp-file I/O is allowed to cost, a
//!   quadratic cliff is not.
//! * `group_spilled` / `join_spilled` — Grace GROUP BY and Grace hash
//!   join at the same budget: multiset-identical answers, bounded peak.
//! * `topk` vs `sort_limit_unfused` — the fused bounded heap against
//!   the optimizer-off full sort + LIMIT: same rows, zero spill files,
//!   `peak_live_bindings ≤ 2(k + offset) + 16` rows, and no slower than
//!   the plan it replaced.

use sqlpp::{Engine, Limits, SessionConfig, SpillConfig};
use sqlpp_testkit::bench::Harness;
use sqlpp_value::{Tuple, Value};

use super::scaled;

fn rows(n: usize) -> Value {
    let rows = (0..n as i64)
        .map(|i| {
            let mut t = Tuple::with_capacity(3);
            t.insert("id", Value::Int(i));
            t.insert("k", Value::Int((i * 67) % (n as i64 / 4)));
            t.insert("pad", Value::Str(format!("payload-{}", i % 97)));
            Value::Tuple(t)
        })
        .collect();
    Value::Bag(rows)
}

/// Runs the suite.
pub fn run(h: &mut Harness) {
    let n = scaled(h, 20_000).max(2_000);
    let engine = Engine::new();
    engine.register("ooc.data", rows(n));

    let sort_q = "SELECT VALUE d.id FROM ooc.data AS d ORDER BY d.k, d.id";

    // --- in-memory baseline: byte-tracked (so the gauge reports peaks)
    // but effectively unlimited.
    let tracked = engine.with_config(SessionConfig {
        limits: Limits::none().with_memory_bytes(u64::MAX / 2),
        ..SessionConfig::default()
    });
    let baseline = tracked.query_with_stats(sort_q).unwrap();
    let working_set = baseline.stats().unwrap().peak_budget_bytes;
    assert!(working_set > 0, "byte tracking reported an empty sort");
    let expected = baseline.into_value().to_string();
    let plan = tracked.prepare(sort_q).unwrap();
    h.bench(format!("out_of_core/sort_in_memory/{n}"), || {
        plan.execute(&tracked).unwrap()
    });
    let in_memory_ns = h.results().last().unwrap().median_ns;

    // --- spilled: a tenth of the measured working set. The 10×-budget
    // input of the ISSUE 9 acceptance gate.
    let budget = (working_set / 10).max(1_500);
    let spilling = engine.with_config(SessionConfig {
        limits: Limits::none().with_memory_bytes(budget),
        spill: Some(SpillConfig::default()),
        ..SessionConfig::default()
    });
    let run = spilling.query_with_stats(sort_q).unwrap();
    let stats = run.stats().unwrap().clone();
    assert_eq!(
        run.into_value().to_string(),
        expected,
        "external sort diverged from the in-memory order"
    );
    assert!(
        stats.peak_budget_bytes <= budget,
        "peak tracked bytes {} exceeded the {budget}-byte budget",
        stats.peak_budget_bytes
    );
    assert!(stats.spill_partitions > 0, "the sort never spilled a run");
    assert!(stats.spill_bytes_written > 0);
    assert!(stats.merge_passes >= 1, "a spilled sort must merge");
    let plan = spilling.prepare(sort_q).unwrap();
    h.bench(format!("out_of_core/sort_spilled/{n}"), || {
        plan.execute(&spilling).unwrap()
    });
    let spilled_ns = h.results().last().unwrap().median_ns;
    assert!(
        spilled_ns <= in_memory_ns * 40.0,
        "spilling fell off a cliff: {spilled_ns:.0}ns vs {in_memory_ns:.0}ns in memory"
    );
    h.attach_counters([
        ("n".to_string(), n as u64),
        ("working_set_bytes".to_string(), working_set),
        ("budget_bytes".to_string(), budget),
        ("peak_budget_bytes".to_string(), stats.peak_budget_bytes),
        ("spill_partitions".to_string(), stats.spill_partitions),
        ("spill_bytes_written".to_string(), stats.spill_bytes_written),
        ("merge_passes".to_string(), stats.merge_passes),
        (
            "slowdown_pct".to_string(),
            ((spilled_ns / in_memory_ns) * 100.0) as u64,
        ),
    ]);

    // --- Grace GROUP BY and Grace hash join at the same budget: the
    // answers are bags, so compare as multisets.
    let group_q = "SELECT d.k AS k, COUNT(*) AS c, SUM(d.id) AS s \
                   FROM ooc.data AS d GROUP BY d.k";
    let expected = engine.query(group_q).unwrap().canonical().to_string();
    let run = spilling.query_with_stats(group_q).unwrap();
    let gstats = run.stats().unwrap().clone();
    assert!(gstats.spill_partitions > 0, "GROUP BY never partitioned");
    assert!(
        gstats.peak_budget_bytes <= budget,
        "GROUP BY peak {} exceeded the {budget}-byte budget",
        gstats.peak_budget_bytes
    );
    assert_eq!(
        run.canonical().to_string(),
        expected,
        "Grace GROUP BY diverged from the in-memory groups"
    );
    let plan = spilling.prepare(group_q).unwrap();
    h.bench(format!("out_of_core/group_spilled/{n}"), || {
        plan.execute(&spilling).unwrap()
    });

    let join_q = "SELECT a.id AS l, b.id AS r FROM ooc.data AS a \
                  JOIN ooc.data AS b ON a.k = b.k AND a.id < b.id";
    let expected = engine.query(join_q).unwrap().canonical().to_string();
    let run = spilling.query_with_stats(join_q).unwrap();
    let jstats = run.stats().unwrap().clone();
    assert!(jstats.spill_partitions > 0, "the join build never spilled");
    assert!(
        jstats.peak_budget_bytes <= budget,
        "join peak {} exceeded the {budget}-byte budget",
        jstats.peak_budget_bytes
    );
    assert_eq!(
        run.canonical().to_string(),
        expected,
        "Grace hash join diverged from the in-memory join"
    );
    let plan = spilling.prepare(join_q).unwrap();
    h.bench(format!("out_of_core/join_spilled/{n}"), || {
        plan.execute(&spilling).unwrap()
    });

    // --- top-k: O(k) rows held, zero spill files, and at least as fast
    // as the unfused sort-then-limit it replaces.
    let (k, off) = (10u64, 5u64);
    let topk_q =
        format!("SELECT VALUE d.id FROM ooc.data AS d ORDER BY d.k, d.id LIMIT {k} OFFSET {off}");
    let run = spilling.query_with_stats(&topk_q).unwrap();
    let tstats = run.stats().unwrap().clone();
    assert_eq!(run.len(), k as usize);
    let fused = run.into_value().to_string();
    assert_eq!(
        tstats.spill_partitions, 0,
        "a bounded heap must not touch disk"
    );
    assert!(
        tstats.peak_live_bindings <= 2 * (k + off) + 16,
        "top-k held {} rows for k + offset = {}",
        tstats.peak_live_bindings,
        k + off
    );
    let unfused_session = engine.with_config(SessionConfig {
        optimize: false,
        ..SessionConfig::default()
    });
    let unfused = unfused_session
        .query(&topk_q)
        .unwrap()
        .into_value()
        .to_string();
    assert_eq!(fused, unfused, "top-k diverged from ORDER BY + LIMIT");
    let plan = spilling.prepare(&topk_q).unwrap();
    h.bench(format!("out_of_core/topk/{n}"), || {
        plan.execute(&spilling).unwrap()
    });
    let topk_ns = h.results().last().unwrap().median_ns;
    let plan = unfused_session.prepare(&topk_q).unwrap();
    h.bench(format!("out_of_core/sort_limit_unfused/{n}"), || {
        plan.execute(&unfused_session).unwrap()
    });
    let unfused_ns = h.results().last().unwrap().median_ns;
    assert!(
        topk_ns <= unfused_ns * 1.2,
        "the top-k rewrite ({topk_ns:.0}ns) lost to the full sort ({unfused_ns:.0}ns)"
    );
    h.attach_counters([
        ("topk_peak_rows".to_string(), tstats.peak_live_bindings),
        ("topk_spill_partitions".to_string(), tstats.spill_partitions),
        (
            "topk_speedup_pct".to_string(),
            ((unfused_ns / topk_ns) * 100.0) as u64,
        ),
    ]);
}
