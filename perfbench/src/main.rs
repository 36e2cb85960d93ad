//! Benchmark command:
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tune_portfolio|serve_longtail|fleet_burst> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints detail lines, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1` (spans are
//! written under `perfbench/out/`). Exits non-zero when a check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use recflex_perfbench::fleet_burst::FleetBurst;
use recflex_perfbench::serve_longtail::ServeLongtail;
use recflex_perfbench::tune_portfolio::TunePortfolio;
use recflex_perfbench::{measure, trace_run, Report, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn run<W: Workload>(args: &Args) -> Report {
    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", W::NAME, args.seed));
        trace_run::<W>(args.seed, &path)
    } else {
        measure::<W>(args.seed, args.seconds)
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "tune_portfolio" => run::<TunePortfolio>(&args),
        "serve_longtail" => run::<ServeLongtail>(&args),
        "fleet_burst" => run::<FleetBurst>(&args),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{:<34} {:>16} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    if report.correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
