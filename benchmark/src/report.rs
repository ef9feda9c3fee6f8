//! The metric definitions, the gated (untraced) run, the result lines,
//! and the two-run comparison behind `repeat.sh`.

use std::path::Path;

use sqlpp_formats::json::from_json;
use sqlpp_value::Value;

use crate::drive::{self, Scale};
use crate::gen::{Workload, CLIENTS};
use crate::stats;

/// Length of the measured window when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// A metric as `BENCHMARK.json` declares it. `bound` is the share of the
/// baseline median by which an end-to-end metric may get worse.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the served engine sees. Failures are not a metric
/// here because a metric must never be 0: they are the `failed` and
/// `attempted` counts of the result line, and any failure makes the run
/// incorrect.
///
/// The bounds are what this sandbox allows, not what the metrics
/// deserve: the VM's speed drifts by 10–30 % over minutes (CPU steal,
/// shared memory bandwidth, shared disk), one bound per metric has to
/// hold on the noisiest workload, and a run's length is capped. On a
/// quiet machine same-seed repeats agree within about 3 %.
pub const END_TO_END: [Metric; 5] = [
    gated("throughput_rps", "req/s", "higher", 0.25),
    gated("p50_us", "us", "lower", 0.25),
    gated("p95_us", "us", "lower", 0.25),
    gated("setup_s", "s", "lower", 0.25),
    gated("peak_rss_mb", "MiB", "lower", 0.20),
];

/// One or more measurements per layer (layer = crate name), all taken
/// from outside around public calls by the traced run.
pub const PER_LAYER: [Metric; 21] = [
    layer("formats.request_codec_us", "us", "lower"),
    layer("formats.response_codec_us", "us", "lower"),
    layer("formats.response_bytes", "bytes", "lower"),
    layer("server.cache_hit_ratio", "ratio", "higher"),
    layer("server.cache_lookup_us", "us", "lower"),
    layer("server.overhead_us", "us", "lower"),
    layer("syntax.parse_us", "us", "lower"),
    layer("syntax.mb_per_s", "MB/s", "higher"),
    layer("plan.lower_us", "us", "lower"),
    layer("plan.optimize_us", "us", "lower"),
    layer("eval.run_us", "us", "lower"),
    layer("eval.rows_scanned_per_result", "ratio", "lower"),
    layer("eval.exprs_fallback", "count", "lower"),
    layer("eval.spill_bytes", "bytes", "lower"),
    layer("core.dml_apply_us", "us", "lower"),
    layer("durability.append_us", "us", "lower"),
    layer("durability.wal_bytes_per_commit", "bytes", "lower"),
    layer("durability.syncs_per_commit", "ratio", "lower"),
    layer("durability.checkpoint_ms", "ms", "lower"),
    layer("durability.checkpoints", "count", "higher"),
    layer("durability.recovery_ms", "ms", "lower"),
];

/// Prints the machine-readable result: the last line of standard output.
pub fn print_result(specs: &[Metric], values: &[f64], attempted: u64, failed: u64, correct: bool) {
    assert_eq!(specs.len(), values.len());
    let metrics: Vec<String> = specs
        .iter()
        .zip(values)
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
}

pub fn header(w: Workload, seed: u64, scale: &Scale, mode: &str) {
    println!(
        "workload {}  {mode}  seed {seed}  window {:.1} s  warm-up {:.1} s  clients {CLIENTS}  workers {CLIENTS}  nproc {}",
        w.name(),
        scale.window.as_secs_f64(),
        scale.warmup.as_secs_f64(),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    println!("  why: {}", w.why());
}

fn us(ns: f64) -> f64 {
    ns / 1000.0
}

/// The untraced, gated run of one workload: set-up (repeated, median
/// reported), warm-up, measured window, full answer check, and for
/// `durable-writes` the restart check.
pub fn gated_run(w: Workload, seed: u64, scale: &Scale) -> Result<(), String> {
    header(w, seed, scale, "gated run (tracing off)");
    let streams = (w != Workload::DurableWrites).then(|| drive::read_streams(w, seed, scale));
    let (mut loaded, setup_s, setups) = drive::timed_setup(w, seed, scale)?;

    let mut restart: Option<(u64, f64)> = None;
    let (tallies, cache, peak_rss) = match &streams {
        Some(streams) => {
            let (mut tallies, cache) = drive::run_reads(&mut loaded, streams, scale);
            let peak_rss = drive::peak_rss_mib();
            for (tally, stream) in tallies.iter_mut().zip(streams) {
                drive::verify_latest(tally, stream);
            }
            (tallies, cache, peak_rss)
        }
        None => {
            let (tallies, models, cache) = drive::run_durable(&mut loaded, seed, scale);
            let peak_rss = drive::peak_rss_mib();
            let dir = loaded.dir.as_ref().expect("durable-writes has a directory");
            let image = drive::crash_image(dir, &scale.out_dir).map_err(|e| e.to_string())?;
            let (wrong, took) = drive::restart_check(&image, &models.iter().collect::<Vec<_>>())?;
            restart = Some((wrong, took.as_secs_f64() * 1e3));
            (tallies, cache, peak_rss)
        }
    };
    loaded.close();

    let mut failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let attempted: u64 = tallies.iter().map(|t| t.attempted).sum();
    if let Some((wrong, _)) = restart {
        failed += wrong;
    }
    let mut all: Vec<u64> = tallies
        .iter()
        .flat_map(|t| t.latencies.iter().map(|&(_, ns)| ns))
        .collect();
    all.sort_unstable();
    let verified = all.len() as u64;
    let window = scale.window.as_secs_f64();
    let throughput = verified as f64 / window;
    let p50 = stats::nearest_rank(all.len(), 0.50).map(|rank| all[rank - 1]);
    // A smoke run only shows that the benchmark runs: its 2 s window may
    // hold too few samples for the ten-beyond rule, which it waives.
    let p95 = stats::percentile(&all, 0.95).or_else(|| {
        let rank = stats::nearest_rank(all.len(), 0.95).filter(|_| scale.smoke)?;
        Some(all[rank - 1])
    });
    let p99 = stats::percentile(&all, 0.99);
    let show = |v: Option<u64>| v.map_or("n/a".to_string(), |ns| format!("{:.1}", us(ns as f64)));

    let bound = |i: usize| END_TO_END[i].bound.expect("end-to-end metrics are bounded") * 100.0;
    println!(
        "  {:<16} {:>12.1} req/s  (n={verified}, bound -{:.0}%)",
        "throughput_rps",
        throughput,
        bound(0)
    );
    println!(
        "  {:<16} {:>12} us     (n={verified}, bound +{:.0}%)",
        "p50_us",
        show(p50),
        bound(1)
    );
    println!(
        "  {:<16} {:>12} us     (n={verified}, bound +{:.0}%)",
        "p95_us",
        show(p95),
        bound(2)
    );
    println!(
        "  {:<16} {:>12} us     (n={verified}, detail, not gated)",
        "p99_us",
        show(p99)
    );
    println!(
        "  {:<16} {:>12.6} ratio  ({failed} of {attempted} attempted; any failure makes the run incorrect)",
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "  {:<16} {:>12.4} s      (median of {setups} set-ups, bound +{:.0}%)",
        "setup_s",
        setup_s,
        bound(3)
    );
    println!(
        "  {:<16} {:>12} MiB    (VmHWM at window end, bound +{:.0}%)",
        "peak_rss_mb",
        peak_rss.map_or("n/a".to_string(), |m| format!("{m:.1}")),
        bound(4)
    );

    let labels = drive::shape_labels(w);
    println!("  per-shape p50_us (detail):");
    for (shape, label) in labels.iter().enumerate() {
        let ns: Vec<u64> = tallies
            .iter()
            .flat_map(|t| t.latencies.iter())
            .filter(|(s, _)| *s == shape)
            .map(|&(_, ns)| ns)
            .collect();
        println!(
            "    {label:<18} {:>12} us  (n={})",
            stats::median_u64(&ns).map_or("n/a".to_string(), |m| format!("{:.1}", us(m))),
            ns.len()
        );
    }
    let lookups = (cache.hits + cache.misses).max(1);
    let hit_ratio = cache.hits as f64 / lookups as f64;
    let checkpoints: u64 = tallies.iter().map(|t| t.checkpoints.0).sum();
    let checkpoint_ms: f64 = tallies
        .iter()
        .map(|t| t.checkpoints.1.as_secs_f64() * 1e3)
        .sum();
    println!(
        "  server.cache_hit_ratio over the window: {hit_ratio:.4} ({} of {lookups} lookups)",
        cache.hits
    );
    if let Some((wrong, ms)) = restart {
        println!(
            "  durability.checkpoints in the window: {checkpoints} ({:.1} ms each on average)",
            checkpoint_ms / checkpoints.max(1) as f64
        );
        println!(
            "  restart check: {wrong} rows wrong after recovery from the crash image ({ms:.1} ms)"
        );
    }
    for failure in tallies.iter().flat_map(|t| &t.failures) {
        println!("  FAILED {failure}");
    }
    println!("detail {{\"cache_hit_ratio\": {hit_ratio}, \"checkpoints\": {checkpoints}}}");

    let (Some(p50), Some(p95), Some(peak_rss)) = (p50, p95, peak_rss) else {
        return Err(format!(
            "{verified} verified responses are too few for a p95 with {} samples beyond it (or VmHWM is unreadable)",
            stats::BEYOND
        ));
    };
    print_result(
        &END_TO_END,
        &[
            throughput,
            us(p50 as f64),
            us(p95 as f64),
            setup_s,
            peak_rss,
        ],
        attempted,
        failed,
        failed == 0,
    );
    Ok(())
}

// ----------------------------------------------------------- comparison

/// The result line and the detail line of one captured run.
struct Captured {
    result: Value,
    detail: Value,
}

fn capture(dir: &Path, w: Workload) -> Result<Captured, String> {
    let path = dir.join(format!("{}.txt", w.name()));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let parse = |line: Option<&str>, what: &str| {
        let line = line.ok_or(format!("{}: no {what} line", path.display()))?;
        from_json(line).map_err(|e| format!("{}: {what} line: {e}", path.display()))
    };
    Ok(Captured {
        result: parse(text.lines().last(), "result")?,
        detail: parse(
            text.lines().find_map(|l| l.strip_prefix("detail ")),
            "detail",
        )?,
    })
}

fn number(v: &Value) -> f64 {
    v.as_f64_lossy().unwrap_or(f64::NAN)
}

/// Compares two captured sets of gated runs (same build, same seed):
/// prints every (workload, metric) relative difference beside its
/// bound, checks that each workload did what its reason says, and fails
/// if any gated metric disagrees by more than its bound.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let mut problems = Vec::new();
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for w in Workload::ALL {
        let runs = [capture(a, w)?, capture(b, w)?];
        for m in &END_TO_END {
            let [x, y] =
                [0, 1].map(|i| number(&runs[i].result.path("metrics").path(m.name).path("value")));
            let diff = (y - x) / x;
            let bound = m.bound.expect("end-to-end metrics are bounded");
            // NaN (a missing metric) must fail too.
            let within = diff.abs() <= bound;
            println!(
                "{:<16} {:<16} {x:>14.3} {y:>14.3} {:>+8.2}% {:>6.0}%{}",
                w.name(),
                m.name,
                diff * 100.0,
                bound * 100.0,
                if within { "" } else { "  DISAGREE" }
            );
            if !within {
                problems.push(format!(
                    "{} {} differs by {:+.2}%",
                    w.name(),
                    m.name,
                    diff * 100.0
                ));
            }
        }
        for (i, run) in runs.iter().enumerate() {
            let failed = number(&run.result.path("failed"));
            if failed != 0.0 || run.result.path("correct") != Value::Bool(true) {
                problems.push(format!(
                    "{} run {}: {failed} failed requests",
                    w.name(),
                    i + 1
                ));
            }
            let hit_ratio = number(&run.detail.path("cache_hit_ratio"));
            let checkpoints = number(&run.detail.path("checkpoints"));
            // Each workload must have done what its reason says.
            let as_designed = match w {
                Workload::ShortCached => hit_ratio >= 0.99,
                Workload::AdhocPlan => hit_ratio <= 0.01,
                Workload::AnalyticScan => true,
                Workload::DurableWrites => checkpoints >= 3.0,
            };
            if !as_designed {
                problems.push(format!(
                    "{} run {}: cache_hit_ratio {hit_ratio}, checkpoints {checkpoints}",
                    w.name(),
                    i + 1
                ));
            }
        }
    }
    if problems.is_empty() {
        println!("both runs agree within every bound, nothing failed, and every workload did what its reason says");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_declares_exactly_what_is_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = from_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(spec.path("run_seconds"), Value::Int(RUN_SECONDS as i64));
        let declared = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            spec.path(key)
                .as_elements()
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.path("name").as_str().unwrap().to_string(),
                        m.path("unit").as_str().unwrap().to_string(),
                        m.path("better").as_str().unwrap().to_string(),
                        m.path("bound").as_f64_lossy(),
                    )
                })
                .collect()
        };
        let printed = |specs: &[Metric]| -> Vec<(String, String, String, Option<f64>)> {
            specs
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
                .collect()
        };
        assert_eq!(declared("end_to_end"), printed(&END_TO_END));
        assert_eq!(declared("per_layer"), printed(&PER_LAYER));
        let workloads: Vec<(String, String)> = spec
            .path("workloads")
            .as_elements()
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.path("name").as_str().unwrap().to_string(),
                    w.path("why").as_str().unwrap().to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert!(ours.iter().all(|(_, why)| why.chars().count() <= 200));
    }
}
