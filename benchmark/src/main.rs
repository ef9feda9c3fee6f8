//! The end-to-end serving benchmark of the sqlpp engine (see README.md).
//!
//! ```text
//! sqlpp-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! sqlpp-benchmark compare <dir-a> <dir-b>
//! ```
//!
//! One invocation runs one workload in a fresh process (peak RSS is a
//! per-process high-water mark); `run.sh` loops over the four.

mod check;
mod drive;
mod gen;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use drive::Scale;
use gen::Workload;

/// Parsed command line of a run.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: sqlpp-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n       sqlpp-benchmark compare <dir-a> <dir-b>",
        Workload::ALL.map(Workload::name).join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => match value("--trace")?.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--smoke" => smoke = true,
            "--out" => out_dir = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.unwrap_or(if smoke {
            2.0
        } else {
            report::RUN_SECONDS as f64
        }),
        trace,
        smoke,
        out_dir,
    })
}

fn scale_of(args: &Args) -> Scale {
    Scale {
        emp_rows: if args.smoke {
            gen::EMP_SMOKE
        } else {
            gen::EMP_FULL
        },
        // A fifth of the window, untimed: fills the plan cache and
        // faults the data in.
        warmup: Duration::from_secs_f64((args.seconds / 5.0).max(0.5)),
        window: Duration::from_secs_f64(args.seconds),
        min_setups: if args.smoke { 1 } else { 5 },
        setup_budget: Duration::from_secs(if args.smoke { 0 } else { 1 }),
        smoke: args.smoke,
        out_dir: args.out_dir.clone(),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().is_some_and(|a| a == "compare") {
        match &argv[1..] {
            [a, b] => report::compare(a.as_ref(), b.as_ref()),
            _ => Err(usage()),
        }
    } else {
        parse_args(&argv)
            .map_err(|e| format!("{e}\n{}", usage()))
            .and_then(|args| {
                std::fs::create_dir_all(&args.out_dir)
                    .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
                let scale = scale_of(&args);
                if args.trace {
                    trace::run(args.workload, args.seed, &scale)
                } else {
                    report::gated_run(args.workload, args.seed, &scale)
                }
            })
    };
    if let Err(e) = outcome {
        eprintln!("sqlpp-benchmark: {e}");
        std::process::exit(2);
    }
}
