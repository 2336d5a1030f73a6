//! Writes, checks, or *compares against* the committed bench snapshot
//! `BENCH_8.json`.
//!
//! The snapshot records the median wall-clock time of each canonical
//! bench anchor (`rocket_bench::anchors`), with enough host metadata to
//! interpret the numbers later. It is the committed waypoint of the
//! performance trajectory: PRs that touch the simulator re-run it and the
//! diff shows the cost or win.
//!
//! ```text
//! rocket-bench-snapshot                   # measure, write BENCH_8.json
//! rocket-bench-snapshot --out FILE        # measure, write FILE
//! rocket-bench-snapshot --samples 7       # odd sample count per bench
//! rocket-bench-snapshot --check [FILE]    # CI: validate snapshot shape
//! rocket-bench-snapshot --compare [FILE]  # CI: re-measure, gate on noise band
//!     [--tolerance [NAME=]X] [--min-samples N] [--json-out FILE]
//! ```
//!
//! `--check` fails (exit 1) when the snapshot is missing or malformed —
//! every anchor must be present with a positive median. It never re-runs
//! the benches, so it is cheap enough for every CI run.
//!
//! `--compare` re-measures every row and classifies each fresh median
//! against the committed one with a relative noise band (default ±10%,
//! per-bench overridable via repeated `--tolerance name=0.15`). Exit
//! codes are distinct so CI can gate asymmetrically:
//!
//! * `0` — every gated row within its band,
//! * `1` — snapshot missing/malformed (drift),
//! * `2` — at least one gated row regressed beyond its band,
//! * `3` — no regression, at least one gated row *improved* beyond its
//!   band (time to re-record the snapshot).
//!
//! A row whose committed median was taken from fewer than `--min-samples`
//! samples (default 3) is reported but not gated — medians of tiny
//! samples are noise.

use std::process::ExitCode;

use rocket_bench::anchors;
use rocket_core::clock::stopwatch;
use rocket_core::Backend;
use rocket_sim::SimBackend;

/// Default relative noise band for `--compare`.
const DEFAULT_TOLERANCE: f64 = 0.10;

/// Default sample floor: committed medians from fewer samples inform but
/// never gate.
const DEFAULT_MIN_SAMPLES: u64 = 3;

fn median_ns(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn measure(backend: &SimBackend, scenario: &rocket_core::Scenario, samples: usize) -> u128 {
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let sw = stopwatch();
            let r = backend.run(scenario).expect("bench anchor run");
            assert!(r.pairs > 0, "anchor simulated no work");
            sw.elapsed().as_nanos()
        })
        .collect();
    median_ns(&mut times)
}

/// Measures every snapshot row, one per anchor. Shared by the writer and
/// the comparator.
fn measure_all(samples: usize) -> Vec<(String, u128, u64)> {
    let mut rows = Vec::new();
    for (name, make) in anchors::ALL {
        let s = make();
        eprintln!("measuring {name} ({samples} samples)…");
        let ns = measure(&SimBackend::new(), &s, samples);
        rows.push((name.to_string(), ns, s.workload.pairs()));
    }
    rows
}

fn write_snapshot(out: &str, samples: usize) {
    let rows = measure_all(samples);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": 1,\n  \"pr\": 9,\n");
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str(&format!("  \"host_parallelism\": {threads},\n"));
    json.push_str("  \"benches\": {\n");
    for (i, (name, ns, pairs)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {{\"median_ns\": {ns}, \"pairs\": {pairs}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(out, &json).expect("write snapshot");
    println!("wrote {out} on {threads} hardware threads");
}

/// Extracts the integer following `"key": ` in the snapshot text.
fn snapshot_u64(text: &str, path: &str, key: &str) -> Result<u64, String> {
    let needle = format!("\"{key}\": ");
    let at = text
        .find(&needle)
        .ok_or_else(|| format!("{path}: missing {key}"))?;
    let digits: String = text[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|_| format!("{path}: non-numeric {key}"))
}

/// The committed snapshot, parsed far enough to compare against.
struct Committed {
    /// Samples behind each committed median.
    samples: u64,
    /// `(row name, median_ns)` for every expected row.
    rows: Vec<(String, u128)>,
}

fn parse_committed(path: &str) -> Result<Committed, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if !text.contains("\"schema\": 1") {
        return Err(format!("{path}: missing/unknown schema marker"));
    }
    let mut rows = Vec::with_capacity(anchors::ALL.len());
    for &(name, _) in anchors::ALL {
        let needle = format!("\"{name}\": {{\"median_ns\": ");
        let at = text
            .find(&needle)
            .ok_or_else(|| format!("{path}: missing bench row {name}"))?;
        let digits: String = text[at + needle.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let ns: u128 = digits
            .parse()
            .map_err(|_| format!("{path}: non-numeric median for {name}"))?;
        if ns == 0 {
            return Err(format!("{path}: zero median for {name}"));
        }
        rows.push((name.to_string(), ns));
    }
    Ok(Committed {
        samples: snapshot_u64(&text, path, "samples")?,
        rows,
    })
}

/// Validates a snapshot without re-measuring: parses the hand-rolled
/// layout far enough to know every anchor row exists with a positive
/// median.
fn check_snapshot(path: &str) -> Result<(), String> {
    parse_committed(path).map(|_| ())
}

/// One row of a `--compare` verdict.
struct RowVerdict {
    name: String,
    committed_ns: u128,
    fresh_ns: u128,
    tolerance: f64,
    gated: bool,
    /// Why the row is not gated (empty when it is).
    reason: String,
    /// `within` / `regression` / `improvement`.
    status: &'static str,
}

impl RowVerdict {
    fn ratio(&self) -> f64 {
        self.fresh_ns as f64 / self.committed_ns as f64
    }
}

/// Noise-band comparison settings (CLI-provided).
struct CompareOpts {
    samples: usize,
    min_samples: u64,
    default_tolerance: f64,
    /// Per-bench `(name, tolerance)` overrides.
    tolerances: Vec<(String, f64)>,
    json_out: Option<String>,
}

fn compare_snapshot(path: &str, opts: &CompareOpts) -> Result<Vec<RowVerdict>, String> {
    let committed = parse_committed(path)?;
    let fresh = measure_all(opts.samples);
    let mut verdicts = Vec::with_capacity(committed.rows.len());
    for (name, committed_ns) in committed.rows {
        let fresh_ns = fresh
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|&(_, ns, _)| ns)
            .ok_or_else(|| format!("fresh measurement missing row {name}"))?;
        let tolerance = opts
            .tolerances
            .iter()
            .rev() // last override wins
            .find(|(n, _)| *n == name)
            .map(|&(_, t)| t)
            .unwrap_or(opts.default_tolerance);
        let (mut gated, mut reason) = (true, String::new());
        if committed.samples < opts.min_samples {
            gated = false;
            reason = format!(
                "committed median from {} samples, below the {}-sample floor",
                committed.samples, opts.min_samples
            );
        }
        let ratio = fresh_ns as f64 / committed_ns as f64;
        let status = if ratio > 1.0 + tolerance {
            "regression"
        } else if ratio < 1.0 - tolerance {
            "improvement"
        } else {
            "within"
        };
        verdicts.push(RowVerdict {
            name,
            committed_ns,
            fresh_ns,
            tolerance,
            gated,
            reason,
            status,
        });
    }
    Ok(verdicts)
}

fn comparison_json(
    path: &str,
    opts: &CompareOpts,
    verdicts: &[RowVerdict],
    result: &str,
) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n");
    out.push_str(&format!("  \"committed\": \"{path}\",\n"));
    out.push_str(&format!("  \"fresh_samples\": {},\n", opts.samples));
    out.push_str(&format!("  \"min_samples\": {},\n", opts.min_samples));
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    out.push_str(&format!("  \"result\": \"{result}\",\n  \"rows\": [\n"));
    for (i, v) in verdicts.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"committed_ns\": {}, \"fresh_ns\": {}, \
             \"ratio\": {:.4}, \"tolerance\": {}, \"gated\": {}, \"status\": \"{}\"\
             {}}}{}\n",
            v.name,
            v.committed_ns,
            v.fresh_ns,
            v.ratio(),
            v.tolerance,
            v.gated,
            v.status,
            if v.reason.is_empty() {
                String::new()
            } else {
                format!(", \"reason\": \"{}\"", v.reason)
            },
            if i + 1 < verdicts.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_compare(path: &str, opts: &CompareOpts) -> ExitCode {
    let verdicts = match compare_snapshot(path, opts) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let gated = |status: &str| verdicts.iter().any(|v| v.gated && v.status == status);
    let result = if gated("regression") {
        "regression"
    } else if gated("improvement") {
        "improvement"
    } else {
        "within"
    };
    println!(
        "{:<36} {:>14} {:>14} {:>7} {:>6}  verdict",
        "bench", "committed_ns", "fresh_ns", "ratio", "band"
    );
    for v in &verdicts {
        println!(
            "{:<36} {:>14} {:>14} {:>7.3} {:>5.0}%  {}{}",
            v.name,
            v.committed_ns,
            v.fresh_ns,
            v.ratio(),
            v.tolerance * 100.0,
            if v.gated { "" } else { "(info) " },
            if v.reason.is_empty() {
                v.status.to_string()
            } else {
                format!("{} — {}", v.status, v.reason)
            },
        );
    }
    println!("comparison result: {result}");
    if let Some(json_path) = &opts.json_out {
        let json = comparison_json(path, opts, &verdicts, result);
        if let Err(e) = std::fs::write(json_path, json) {
            eprintln!("cannot write {json_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {json_path}");
    }
    match result {
        "regression" => ExitCode::from(2),
        "improvement" => ExitCode::from(3),
        _ => ExitCode::SUCCESS,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_8.json".to_string();
    let mut samples = 5usize;
    let mut check = false;
    let mut compare = false;
    let mut opts = CompareOpts {
        samples: 0, // filled from --samples below
        min_samples: DEFAULT_MIN_SAMPLES,
        default_tolerance: DEFAULT_TOLERANCE,
        tolerances: Vec::new(),
        json_out: None,
    };
    let usage = "usage: rocket-bench-snapshot [--out FILE] [--samples N] \
                 | --check [FILE] \
                 | --compare [FILE] [--samples N] [--tolerance [NAME=]X] \
                 [--min-samples N] [--json-out FILE]";
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--compare" => compare = true,
            "--out" => match it.next() {
                Some(v) => out = v.clone(),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--samples" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => samples = v,
                _ => {
                    eprintln!("--samples needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--min-samples" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.min_samples = v,
                None => {
                    eprintln!("--min-samples needs a non-negative integer");
                    return ExitCode::FAILURE;
                }
            },
            "--tolerance" => match it.next() {
                Some(v) => {
                    let parsed = match v.split_once('=') {
                        Some((name, t)) => {
                            t.parse::<f64>().ok().map(|t| (Some(name.to_string()), t))
                        }
                        None => v.parse::<f64>().ok().map(|t| (None, t)),
                    };
                    match parsed {
                        Some((name, t)) if t > 0.0 && t < 1.0 => match name {
                            Some(n) => opts.tolerances.push((n, t)),
                            None => opts.default_tolerance = t,
                        },
                        _ => {
                            eprintln!("--tolerance needs [NAME=]X with 0 < X < 1");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                None => {
                    eprintln!("--tolerance needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--json-out" => match it.next() {
                Some(v) => opts.json_out = Some(v.clone()),
                None => {
                    eprintln!("--json-out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other if !other.starts_with('-') && (check || compare) => out = other.to_string(),
            other => {
                eprintln!("unknown argument {other}\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    if check && compare {
        eprintln!("--check and --compare are mutually exclusive\n{usage}");
        return ExitCode::FAILURE;
    }
    if check {
        match check_snapshot(&out) {
            Ok(()) => {
                println!("{out}: snapshot ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        }
    } else if compare {
        opts.samples = samples;
        run_compare(&out, &opts)
    } else {
        write_snapshot(&out, samples);
        ExitCode::SUCCESS
    }
}
