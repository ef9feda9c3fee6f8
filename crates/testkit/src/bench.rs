//! A dependency-free micro-benchmark harness.
//!
//! Replaces criterion for this workspace's needs: warmup, automatic
//! per-sample iteration calibration, robust statistics (median, MAD,
//! p95 — chosen over mean/stddev because scheduler noise is one-sided),
//! and a machine-readable JSON report (`BENCH_<name>.json`) so perf PRs
//! can diff against a committed baseline.
//!
//! ```ignore
//! let mut h = Harness::new("seed", BenchConfig::from_args());
//! h.bench("vectorized/scan_project/batched/10000", || plan.execute(&engine).unwrap());
//! h.finish().unwrap();
//! ```

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Harness configuration. `from_args` understands `--quick` (shrink
/// warmup/samples for CI smoke runs) and `--name <s>` (report name).
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Warmup duration per benchmark.
    pub warmup: Duration,
    /// Number of timed samples per benchmark.
    pub samples: usize,
    /// Target wall time per sample (iteration count is calibrated to it).
    pub target_sample_time: Duration,
    /// Quick mode: fewer/shorter samples, scaled-down workloads.
    pub quick: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup: Duration::from_millis(300),
            samples: 15,
            target_sample_time: Duration::from_millis(60),
            quick: false,
        }
    }
}

impl BenchConfig {
    /// The quick-mode configuration.
    pub fn quick() -> Self {
        BenchConfig {
            warmup: Duration::from_millis(30),
            samples: 7,
            target_sample_time: Duration::from_millis(10),
            quick: true,
        }
    }

    /// Parses process arguments: `--quick`, `--name <report-name>`.
    /// Returns the config and the report name (default `"seed"`).
    pub fn from_args() -> (Self, String) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let quick = args.iter().any(|a| a == "--quick");
        let name = args
            .iter()
            .position(|a| a == "--name")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| "seed".to_string());
        let cfg = if quick {
            BenchConfig::quick()
        } else {
            BenchConfig::default()
        };
        (cfg, name)
    }
}

/// One benchmark's robust summary statistics (all in nanoseconds per
/// iteration).
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark identifier, e.g. `"vectorized/scan_project/batched/10000"`.
    pub id: String,
    /// Median per-iteration time.
    pub median_ns: f64,
    /// Median absolute deviation — robust spread.
    pub mad_ns: f64,
    /// 95th percentile per-iteration time.
    pub p95_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample (calibrated).
    pub iters: u64,
    /// Optional named operator counters attached by the suite (e.g.
    /// SQL++ `ExecStats` probe counts) — reported alongside the timings.
    pub counters: Vec<(String, u64)>,
}

/// Collects [`BenchResult`]s and writes the JSON report.
pub struct Harness {
    name: String,
    cfg: BenchConfig,
    results: Vec<BenchResult>,
}

impl Harness {
    /// A harness whose report will be written to `BENCH_<name>.json`.
    pub fn new(name: impl Into<String>, cfg: BenchConfig) -> Self {
        Harness {
            name: name.into(),
            cfg,
            results: Vec::new(),
        }
    }

    /// Whether quick mode is on — suites use this to scale workloads.
    pub fn quick(&self) -> bool {
        self.cfg.quick
    }

    /// Times `f`, printing one summary line and recording the result.
    /// The closure's return value is passed through [`black_box`] so the
    /// optimizer cannot delete the work.
    pub fn bench<R>(&mut self, id: impl Into<String>, mut f: impl FnMut() -> R) {
        let id = id.into();
        // Calibration: find an iteration count filling the target sample
        // time (at least 1; growing geometrically like criterion).
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= self.cfg.target_sample_time || iters >= 1 << 20 {
                break;
            }
            let grow = if elapsed.is_zero() {
                16
            } else {
                (self.cfg.target_sample_time.as_nanos() / elapsed.as_nanos().max(1)).clamp(2, 16)
                    as u64
            };
            iters = iters.saturating_mul(grow);
        }

        let warmup_deadline = Instant::now() + self.cfg.warmup;
        while Instant::now() < warmup_deadline {
            black_box(f());
        }

        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(self.cfg.samples);
        for _ in 0..self.cfg.samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }

        let median = percentile(&mut per_iter_ns, 50.0);
        let mut deviations: Vec<f64> = per_iter_ns.iter().map(|x| (x - median).abs()).collect();
        let mad = percentile(&mut deviations, 50.0);
        let p95 = percentile(&mut per_iter_ns, 95.0);

        println!(
            "bench {id:<44} median {:>10}  mad {:>9}  p95 {:>10}  ({} x {iters} iters)",
            fmt_ns(median),
            fmt_ns(mad),
            fmt_ns(p95),
            per_iter_ns.len(),
        );
        self.results.push(BenchResult {
            id,
            median_ns: median,
            mad_ns: mad,
            p95_ns: p95,
            samples: per_iter_ns.len(),
            iters,
            counters: Vec::new(),
        });
    }

    /// Attaches named counters to the most recent benchmark (e.g. operator
    /// statistics from one instrumented execution of the same workload).
    /// No-op if nothing has been benchmarked yet.
    pub fn attach_counters(&mut self, counters: impl IntoIterator<Item = (String, u64)>) {
        if let Some(last) = self.results.last_mut() {
            last.counters.extend(counters);
            let rendered: Vec<String> = last
                .counters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!("      counters {}", rendered.join(" "));
        }
    }

    /// The results so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Writes `BENCH_<name>.json` into the current directory (or
    /// `$SQLPP_BENCH_DIR`, created if missing — a long sweep must not
    /// die at its last step) and returns its path.
    pub fn finish(self) -> std::io::Result<std::path::PathBuf> {
        let dir = std::env::var_os("SQLPP_BENCH_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("."));
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        println!(
            "report: {} ({} benchmarks)",
            path.display(),
            self.results.len()
        );
        Ok(path)
    }

    /// The report as a JSON document (hand-rolled — hermetic build, no
    /// serde; the schema is flat so escaping identifiers suffices).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.results.len() * 160);
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": {},\n", json_string(&self.name)));
        out.push_str(&format!("  \"quick\": {},\n", self.cfg.quick));
        let unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        out.push_str(&format!("  \"created_unix\": {unix},\n"));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let mut counters = String::new();
            if !r.counters.is_empty() {
                counters.push_str(", \"counters\": {");
                for (j, (k, v)) in r.counters.iter().enumerate() {
                    if j > 0 {
                        counters.push_str(", ");
                    }
                    counters.push_str(&format!("{}: {v}", json_string(k)));
                }
                counters.push('}');
            }
            out.push_str(&format!(
                "    {{\"id\": {}, \"median_ns\": {:.1}, \"mad_ns\": {:.1}, \
                 \"p95_ns\": {:.1}, \"samples\": {}, \"iters\": {}{counters}}}{}\n",
                json_string(&r.id),
                r.median_ns,
                r.mad_ns,
                r.p95_ns,
                r.samples,
                r.iters,
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Nearest-rank-with-interpolation percentile; sorts in place.
fn percentile(xs: &mut [f64], p: f64) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let rank = (p / 100.0) * (xs.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    if lo == hi {
        xs[lo]
    } else {
        let frac = rank - lo as f64;
        xs[lo] * (1.0 - frac) + xs[hi] * frac
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> BenchConfig {
        BenchConfig {
            warmup: Duration::from_millis(1),
            samples: 5,
            target_sample_time: Duration::from_micros(200),
            quick: true,
        }
    }

    #[test]
    fn bench_produces_sane_statistics() {
        let mut h = Harness::new("unit", tiny_cfg());
        h.bench("busy_loop", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i * i));
            }
            acc
        });
        let r = &h.results()[0];
        assert_eq!(r.id, "busy_loop");
        assert!(r.median_ns > 0.0);
        assert!(r.p95_ns >= r.median_ns);
        assert!(r.mad_ns >= 0.0);
        assert!(r.samples == 5 && r.iters >= 1);
    }

    #[test]
    fn json_report_is_well_formed() {
        let mut h = Harness::new("unit", tiny_cfg());
        h.bench("a/b\"c", || black_box(1 + 1));
        let json = h.to_json();
        assert!(json.contains("\"name\": \"unit\""));
        assert!(json.contains("\\\"c\""));
        assert!(json.contains("\"median_ns\""));
        // Balanced braces/brackets — cheap structural sanity.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn attached_counters_reach_the_json_report() {
        let mut h = Harness::new("unit", tiny_cfg());
        h.bench("with_counters", || black_box(2 + 2));
        h.attach_counters([("setop_probes".to_string(), 128u64)]);
        let json = h.to_json();
        assert!(
            json.contains("\"counters\": {\"setop_probes\": 128}"),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn percentile_is_correct_on_known_data() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&mut xs, 50.0), 3.0);
        assert_eq!(percentile(&mut xs, 0.0), 1.0);
        assert_eq!(percentile(&mut xs, 100.0), 5.0);
        let mut two = vec![10.0, 20.0];
        assert_eq!(percentile(&mut two, 50.0), 15.0);
    }
}
