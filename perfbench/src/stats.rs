//! Sample summaries, the metric table, and the host record.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest of the percentiles 50, 75, 90, 95, 99 and 99.9 that has at
/// least ten samples beyond it, with its nearest-rank value; `None` when
/// fewer than twenty samples exist.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|p| {
            let rank = ((p / 100.0 * n).ceil() as usize).clamp(1, v.len());
            (p, v[rank - 1])
        })
}

/// A timing series: what was timed, its samples in seconds.
pub struct Timing {
    pub name: &'static str,
    pub samples: Vec<f64>,
}

impl Timing {
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            samples: Vec::new(),
        }
    }

    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// One JSON object: sample count, median, extremes, and the tail
    /// percentile.
    pub fn to_json(&self) -> String {
        let tail = match tail(&self.samples) {
            Some((p, v)) => format!("{{\"p\":{p},\"value_s\":{v}}}"),
            None => "null".to_string(),
        };
        let min = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.samples.iter().copied().fold(0.0, f64::max);
        format!(
            "{{\"name\":\"{}\",\"samples\":{},\"median_s\":{},\"min_s\":{min},\"max_s\":{max},\"tail\":{tail}}}",
            self.name,
            self.samples.len(),
            self.median()
        )
    }
}

/// Calls `one` until `seconds` have passed and at least three times,
/// recording the seconds each call returns. `one` gets its call's index.
pub fn closed_loop(name: &'static str, seconds: f64, mut one: impl FnMut(usize) -> f64) -> Timing {
    let mut timing = Timing::new(name);
    let start = Instant::now();
    while timing.samples.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        timing.samples.push(one(timing.samples.len()));
    }
    timing
}

/// Ordered `name → (value, unit)` metrics of one run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.0.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// The metrics named in `table`, in its order and with its units;
    /// names this run did not measure read 0.
    pub fn select(&self, table: &[(&str, &'static str)]) -> Metrics {
        Metrics(
            table
                .iter()
                .map(|&(name, unit)| (name.to_string(), self.get(name).unwrap_or(0.0), unit))
                .collect(),
        )
    }

    /// Per metric, the median over `runs` (names from the first run).
    pub fn median_of(runs: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        if let Some(first) = runs.first() {
            for (name, _, unit) in first.iter() {
                let values: Vec<f64> = runs.iter().filter_map(|m| m.get(name)).collect();
                out.set(name.clone(), median(&values), unit);
            }
        }
        out
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in MB, 0 where
/// unknown.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix(field)).and_then(|v| {
                v.trim_start_matches(':')
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The process's peak resident set so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// The process's resident set now, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// A command's trimmed output, `None` if it cannot run or fails.
/// Git looks for a repository in the working directory only, never in
/// the directories above it.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Seconds a fixed single-thread integer loop takes now, median of 5. It
/// runs no program code, so comparing it between results tells a slower
/// or busier host apart from slower code.
pub fn yardstick_s() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Seed, workload and host facts every result is recorded with;
/// `yardstick` holds [`yardstick_s`] before and after the run.
pub fn host_record(workload: &str, seed: u64, trace: bool, yardstick: [f64; 2]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"commit\":{},\"yardstick_s\":[{},{}]}}",
        json_str(workload),
        json_str(&cpu),
        json_str(&rustc),
        json_str(&commit),
        yardstick[0],
        yardstick[1]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75.0, 30.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
    }

    #[test]
    fn select_fills_unmeasured_with_zero() {
        let mut m = Metrics::default();
        m.set("a", 1.5, "s");
        let s = m.select(&[("b", "count"), ("a", "s")]);
        assert_eq!(s.to_json(), "{\"b\": {\"value\": 0, \"unit\": \"count\"}, \"a\": {\"value\": 1.5, \"unit\": \"s\"}}");
    }
}
