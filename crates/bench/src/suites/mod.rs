//! The seventeen benchmark suites, one module per performance claim (see the
//! crate docs for the claim ↔ suite map). Each suite registers its
//! measurements on a shared [`Harness`]; thin `[[bin]]` wrappers run one
//! suite each, and `bench_all` runs every suite into one report.
//!
//! In `--quick` mode (the CI smoke configuration) workloads shrink about
//! an order of magnitude and the slowest baselines are skipped, so the
//! whole sweep finishes in seconds while still executing every code
//! path.

use sqlpp_testkit::bench::Harness;

pub mod compat_mode_overhead;
pub mod durability;
pub mod e2e_paper_queries;
pub mod format_parse;
pub mod frontend;
pub mod governor;
pub mod group_as_vs_subquery;
pub mod join_scale;
pub mod limit_stream;
pub mod missing_propagation;
pub mod optimizer_ablation;
pub mod out_of_core;
pub mod pivot_unpivot;
pub mod serving;
pub mod set_ops;
pub mod unnest_vs_flat_join;
pub mod vectorized;

/// A suite's name and runner.
pub type Suite = (&'static str, fn(&mut Harness));

/// All suites, in a stable order.
pub fn all() -> Vec<Suite> {
    vec![
        (
            "group_as_vs_subquery",
            group_as_vs_subquery::run as fn(&mut Harness),
        ),
        ("unnest_vs_flat_join", unnest_vs_flat_join::run),
        ("missing_propagation", missing_propagation::run),
        ("compat_mode_overhead", compat_mode_overhead::run),
        ("pivot_unpivot", pivot_unpivot::run),
        ("format_parse", format_parse::run),
        ("e2e_paper_queries", e2e_paper_queries::run),
        ("optimizer_ablation", optimizer_ablation::run),
        ("set_ops", set_ops::run),
        ("join_scale", join_scale::run),
        ("limit_stream", limit_stream::run),
        ("governor", governor::run),
        ("frontend", frontend::run),
        ("serving", serving::run),
        ("vectorized", vectorized::run),
        // Disk-heavy (spill files, page-cache churn): keep it after the
        // CPU-bound speedup gates so its I/O footprint can't skew them.
        ("out_of_core", out_of_core::run),
        // fsync-heavy: last of all, for the same reason.
        ("durability", durability::run),
    ]
}

/// Entry point shared by the single-suite `[[bin]]` wrappers: parses the
/// common CLI flags (`--quick`, `--name <report>`), runs one suite, and
/// writes its `BENCH_<report>.json`.
pub fn run_one(suite: &str) {
    let (cfg, name) = sqlpp_testkit::bench::BenchConfig::from_args();
    let runner = all()
        .into_iter()
        .find(|(n, _)| *n == suite)
        .unwrap_or_else(|| panic!("unknown bench suite {suite:?}"))
        .1;
    let mut h = Harness::new(name, cfg);
    runner(&mut h);
    let path = h.finish().expect("failed to write bench report");
    eprintln!("wrote {}", path.display());
}

/// Scales a workload size down in quick mode.
pub(crate) fn scaled(h: &Harness, full: usize) -> usize {
    if h.quick() {
        (full / 10).max(10)
    } else {
        full
    }
}
