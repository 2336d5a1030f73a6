//! The Rocket benchmark: three workloads driven through the public
//! `Backend`/`Study` API, every output checked, end-to-end metrics from
//! untraced runs and per-layer metrics from a separate traced run.
//! See `README.md` in this directory for the metric definitions.

pub mod check;
pub mod stats;
pub mod sweep;
pub mod threaded;
pub mod wrap;

use check::Tally;
use stats::{Metrics, Timing};

/// Workload names, as passed to `--workload`.
pub const WORKLOADS: [&str; 3] = ["forensics_dist", "microscopy_kernel", "sim_sweep"];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, to confirm the checks pass off the default.
pub const HOLDOUT_SEED: u64 = 7919;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("pairs_per_s", "pairs/s"),
    ("r_factor", "loads/item"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run (0 where a workload
/// does not exercise the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("apps.parse.calls", "count"),
    ("apps.parse.busy_s", "s"),
    ("apps.preprocess.calls", "count"),
    ("apps.preprocess.busy_s", "s"),
    ("apps.compare.calls", "count"),
    ("apps.compare.busy_s", "s"),
    ("apps.postprocess.calls", "count"),
    ("apps.postprocess.busy_s", "s"),
    ("apps.compare.bytes", "B"),
    ("apps.compare.useful_ratio", "ratio"),
    ("storage.reads", "count"),
    ("storage.read_bytes", "B"),
    ("storage.busy_s", "s"),
    ("storage.errors", "count"),
    ("cache.device.hits", "count"),
    ("cache.device.misses", "count"),
    ("cache.device.evictions", "count"),
    ("cache.device.capacity_stalls", "count"),
    ("cache.device.hit_ratio", "ratio"),
    ("cache.host.hits", "count"),
    ("cache.host.misses", "count"),
    ("cache.host.evictions", "count"),
    ("cache.host.capacity_stalls", "count"),
    ("cache.host.hit_ratio", "ratio"),
    ("cache.directory.lookups", "count"),
    ("cache.directory.hits", "count"),
    ("cache.directory.hit_ratio", "ratio"),
    ("cache.directory.msgs", "count"),
    ("steal.local", "count"),
    ("steal.remote", "count"),
    ("steal.imbalance", "ratio"),
    ("comm.msgs", "count"),
    ("comm.bytes", "B"),
    ("comm.remote_fetches", "count"),
    ("comm.remote_fetch.busy_s", "s"),
    ("comm.remote_serve.busy_s", "s"),
    ("gpu.copy_in.calls", "count"),
    ("gpu.copy_in.busy_s", "s"),
    ("gpu.copy_out.calls", "count"),
    ("gpu.copy_out.busy_s", "s"),
    ("engine.efficiency", "ratio"),
    ("engine.gpu_occupancy", "ratio"),
    ("engine.idle_s", "s"),
    ("engine.rss_growth_mb_per_job", "MB"),
    ("sim.host_s.nodes_1", "s"),
    ("sim.host_s.nodes_4", "s"),
    ("sim.host_s.nodes_16", "s"),
    ("sim.host_s.nodes_64", "s"),
    ("sim.host_ns_per_pair", "ns"),
    ("sim.windows", "count"),
    ("sim.shards", "count"),
    ("sim.perf.records", "count"),
    ("study.self_s", "s"),
    ("sim.model.efficiency", "ratio"),
    ("sim.model.makespan_s", "s"),
    ("sim.model.loads", "count"),
    ("sim.model.remote_fetches", "count"),
    ("sim.model.steals", "count"),
    ("sim.model.net_msgs", "count"),
    ("sim.model.device_hit_ratio", "ratio"),
    ("sim.model.host_hit_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// What one benchmark run found.
#[derive(Default)]
pub struct Outcome {
    /// Pairs checked and bad pairs found.
    pub tally: Tally,
    /// Checks that failed, described.
    pub errors: Vec<String>,
    pub metrics: Metrics,
    pub timings: Vec<Timing>,
    /// The benchmark's own spans of the last traced job or sweep: layer
    /// call name and `[start_ns, end_ns)`.
    pub spans: Vec<(&'static str, wrap::Interval)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.tally.bad() == 0 && self.tally.attempted > 0
    }

    /// Records a failed check.
    pub fn fail(&mut self, error: impl Into<String>) {
        self.errors.push(error.into());
    }

    /// (failed + missing + duplicate + wrong pairs) ÷ pairs attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.tally.attempted == 0 {
            1.0
        } else {
            self.tally.bad() as f64 / self.tally.attempted as f64
        }
    }
}

/// Runs one workload for `seconds` of measurement.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let outcome = match (workload, trace) {
        ("forensics_dist", false) => threaded::timed(|| threaded::forensics_dist(seed), seconds),
        ("forensics_dist", true) => threaded::traced(|| threaded::forensics_dist(seed), seconds),
        ("microscopy_kernel", false) => {
            threaded::timed(|| threaded::microscopy_kernel(seed), seconds)
        }
        ("microscopy_kernel", true) => {
            threaded::traced(|| threaded::microscopy_kernel(seed), seconds)
        }
        ("sim_sweep", false) => sweep::timed(seed, seconds),
        ("sim_sweep", true) => sweep::traced(seed, seconds),
        _ => {
            return Err(format!(
                "unknown workload `{workload}` (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    Ok(outcome)
}
