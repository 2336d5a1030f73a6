//! Command line of the Rocket benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload forensics_dist --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the host record and every timing first; the last line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Exits 1
//! when any output check failed and 2 on a usage error.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use rocket_perfbench::stats::{host_record, yardstick_s, Metrics};
use rocket_perfbench::{run, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};

/// Directory, relative to where the command runs, for traced runs' spans.
const SPAN_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Writes the traced run's spans as tab-separated `name start_ns end_ns`.
fn write_spans(args: &Args, spans: &[(&str, (u64, u64))]) -> std::io::Result<String> {
    let mut text = String::from("name\tstart_ns\tend_ns\n");
    for (name, (start, end)) in spans {
        let _ = writeln!(text, "{name}\t{start}\t{end}");
    }
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = Path::new(SPAN_DIR).join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let yardstick_before = yardstick_s();
    let outcome = match run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "host {}",
        host_record(
            &args.workload,
            args.seed,
            args.trace,
            [yardstick_before, yardstick_s()],
        )
    );
    for timing in &outcome.timings {
        println!("timing {}", timing.to_json());
    }
    if args.trace {
        match write_spans(&args, &outcome.spans) {
            Ok(path) => println!("spans {path}"),
            Err(e) => println!("spans not written: {e}"),
        }
    }
    for error in &outcome.errors {
        println!("check failed: {error}");
    }
    println!(
        "failed_frac {} ({:?})",
        outcome.failed_frac(),
        outcome.tally
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Metrics = outcome.metrics.select(table);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.tally.attempted,
        outcome.tally.bad(),
        metrics.to_json()
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
