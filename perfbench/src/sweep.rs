//! The `sim_sweep` workload: a `Study` on the simulator over the paper's
//! node-count × distributed-cache grid, as users reproduce its scaling
//! figures.

use std::hint::black_box;
use std::time::Instant;

use rocket::apps::profiles;
use rocket::cache::CacheStats;
use rocket::core::{Axis, Backend, NodeSpec, RunReport, Scenario, Study, StudyReport, Sweep};
use rocket::sim::{system_efficiency, SimBackend};
use rocket::trace::PerfKind;

use crate::check::{pair_count, Tally};
use crate::stats::{self, closed_loop, Metrics, Timing};
use crate::wrap::{CellRun, TimedBackend};
use crate::Outcome;

/// Node counts of the grid; each runs with the distributed cache on and off.
pub const NODES: [usize; 4] = [1, 4, 16, 64];

/// The forensics profile at a quarter of the paper's size on 1-GPU nodes,
/// swept over [`NODES`] × distributed cache on/off. Everything else,
/// shards and study threads included, stays at the program's defaults.
pub fn sim_sweep(seed: u64) -> Sweep {
    let base = Scenario::builder()
        .workload(profiles::forensics().scaled(4))
        .node(NodeSpec::uniform(1, 28, 104))
        .seed(seed)
        .build();
    Sweep::over(base)
        .axis(Axis::nodes(NODES))
        .axis(Axis::distributed_cache([true, false]))
        .try_build()
        .expect("the sim_sweep grid is valid")
}

/// Eq 5 in virtual time of one cell.
fn efficiency(scenario: &Scenario, report: &RunReport) -> f64 {
    system_efficiency(&scenario.workload, &scenario.all_gpus(), report.elapsed)
}

/// Checks every cell: all pairs, none failed, Eq 5 in (0, 1].
fn check_sweep(sweep: &Sweep, report: &StudyReport, outcome: &mut Outcome) {
    if report.cells.len() != sweep.len() {
        outcome.fail(format!(
            "study returned {} cells for a {}-cell sweep",
            report.cells.len(),
            sweep.len()
        ));
    }
    for cell in &report.cells {
        let run = cell.run();
        let expected = pair_count(cell.scenario.workload.items);
        let missing = expected.saturating_sub(run.pairs);
        let extra = run.pairs.saturating_sub(expected);
        outcome.tally.add(Tally {
            attempted: expected,
            failed: run.failed_pairs,
            missing,
            duplicate: extra,
            wrong: 0,
        });
        let eff = efficiency(&cell.scenario, run);
        if !(eff > 0.0 && eff <= 1.0) {
            outcome.fail(format!(
                "cell {}: Eq 5 efficiency {eff} outside (0, 1]",
                cell.coords_label()
            ));
        }
    }
}

/// Runs the study on `backend` and checks it; `first` holds the first
/// report's cells, which every later sweep of the same seed must repeat.
fn one_sweep(
    backend: &dyn Backend,
    sweep: &Sweep,
    first: &mut Option<Vec<String>>,
    outcome: &mut Outcome,
) -> (f64, Option<StudyReport>) {
    let start = Instant::now();
    let result = Study::new("sim_sweep").run(backend, sweep);
    let secs = start.elapsed().as_secs_f64();
    match result {
        Ok(report) => {
            check_sweep(sweep, &report, outcome);
            let cells: Vec<String> = report.cells.iter().map(|c| c.run().to_json()).collect();
            match first {
                Some(f) if *f != cells => {
                    outcome.fail("a sweep's reports differ from the first sweep of the seed")
                }
                Some(_) => {}
                None => *first = Some(cells),
            }
            (secs, Some(report))
        }
        Err(e) => {
            outcome.fail(format!("study failed: {e}"));
            let pairs = sweep
                .cells()
                .iter()
                .map(|c| pair_count(c.scenario.workload.items))
                .sum();
            outcome.tally.add(Tally::lost_job(pairs));
            (secs, None)
        }
    }
}

/// Set-up batches timed before each sweep.
const SETUP_BATCHES: usize = 5;

/// Seconds of one set-up: sweep expansion and backend construction,
/// timed over a batch of 100 because one takes microseconds.
fn time_setup(seed: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..100 {
        black_box((sim_sweep(black_box(seed)), SimBackend::new()));
    }
    start.elapsed().as_secs_f64() / 100.0
}

/// The untraced run: end-to-end metrics.
pub fn timed(seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    // Set-up is timed before the first sweep and again before every sweep,
    // so its median spans the run as the sweeps' median does.
    let mut setup_t = Timing::new("setup_s");
    setup_t
        .samples
        .extend((0..SETUP_BATCHES).map(|_| time_setup(seed)));
    let sweep = sim_sweep(seed);
    let backend = SimBackend::new();
    let mut first = None;
    let mut last = None;
    let mut peak_rss_mb = 0.0;
    let sweeps = closed_loop("sweep_s", seconds, |_| {
        setup_t
            .samples
            .extend((0..SETUP_BATCHES).map(|_| time_setup(seed)));
        let (secs, report) = one_sweep(&backend, &sweep, &mut first, &mut outcome);
        if last.is_none() {
            // As on the threaded workloads: peak memory through set-up and
            // the first whole job.
            peak_rss_mb = stats::peak_rss_mb();
        }
        last = report.or(last.take());
        secs
    });
    let m = &mut outcome.metrics;
    if let Some(report) = last {
        let pairs: u64 = report.cells.iter().map(|c| c.run().pairs).sum();
        let r: Vec<f64> = report.cells.iter().map(|c| c.run().r_factor()).collect();
        m.set("pairs_per_s", pairs as f64 / sweeps.median(), "pairs/s");
        m.set(
            "r_factor",
            r.iter().sum::<f64>() / r.len() as f64,
            "loads/item",
        );
    }
    m.set("setup_s", setup_t.median(), "s");
    m.set("peak_rss_mb", peak_rss_mb, "MB");
    outcome.timings = vec![setup_t, sweeps];
    outcome
}

/// Per-layer metrics of one traced sweep.
fn layer_metrics(cells: &[CellRun], study_s: f64) -> Metrics {
    let mut m = Metrics::default();
    let host_s: f64 = cells.iter().map(CellRun::host_s).sum();
    for nodes in NODES {
        let s: f64 = cells
            .iter()
            .filter(|c| c.scenario.nodes.len() == nodes)
            .map(CellRun::host_s)
            .sum();
        m.set(format!("sim.host_s.nodes_{nodes}"), s, "s");
    }
    let sum = |f: fn(&RunReport) -> u64| cells.iter().map(|c| f(&c.report)).sum::<u64>() as f64;
    let count = cells.len().max(1) as f64;
    m.set(
        "sim.host_ns_per_pair",
        host_s * 1e9 / sum(|r| r.pairs),
        "ns",
    );
    m.set("sim.windows", sum(|r| r.sim_windows), "count");
    m.set(
        "sim.shards",
        sum(|r| u64::from(r.sim_shards)) / count,
        "count",
    );
    let records: u64 = cells.iter().map(|c| c.rollup.records).sum();
    m.set("sim.perf.records", records as f64, "count");
    let calls_s: f64 = cells.iter().map(|c| c.call_s).sum();
    m.set("study.self_s", (study_s - calls_s).max(0.0), "s");
    let eff: f64 = cells
        .iter()
        .map(|c| efficiency(&c.scenario, &c.report))
        .sum();
    m.set("sim.model.efficiency", eff / count, "ratio");
    m.set(
        "sim.model.makespan_s",
        cells.iter().map(|c| c.report.elapsed).sum(),
        "s",
    );
    m.set("sim.model.loads", sum(|r| r.loads), "count");
    m.set(
        "sim.model.remote_fetches",
        sum(|r| r.remote_fetches),
        "count",
    );
    m.set("sim.model.steals", sum(|r| r.steals), "count");
    m.set("sim.model.net_msgs", sum(|r| r.net_msgs), "count");
    let (mut device, mut host) = (CacheStats::default(), CacheStats::default());
    for c in cells {
        device.merge(&c.report.device_cache);
        host.merge(&c.report.host_cache);
    }
    m.set("sim.model.device_hit_ratio", device.hit_ratio(), "ratio");
    m.set("sim.model.host_hit_ratio", host.hit_ratio(), "ratio");
    m
}

/// The traced run: per-layer metrics. Half the time runs the bare
/// simulator, half runs it behind [`TimedBackend`], whose every cell runs
/// with a perf log; the traced reports must equal the untraced ones.
pub fn traced(seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let sweep = sim_sweep(seed);
    let bare = SimBackend::new();
    let mut first = None;
    let untraced = closed_loop("sweep_s", seconds / 2.0, |_| {
        one_sweep(&bare, &sweep, &mut first, &mut outcome).0
    });

    let timed = TimedBackend::new(SimBackend::new());
    let mut per_sweep = Vec::new();
    let mut last_cells = Vec::new();
    let traced_sweeps = closed_loop("traced_sweep_s", seconds / 2.0, |_| {
        timed.take();
        let (secs, _) = one_sweep(&timed, &sweep, &mut first, &mut outcome);
        let cells = timed.take();
        for c in &cells {
            let compares = c.rollup.stage(PerfKind::Compare).map_or(0, |s| s.count);
            if compares != c.report.pairs {
                outcome.fail(format!(
                    "perf log counts {compares} compares for {} simulated pairs",
                    c.report.pairs
                ));
            }
        }
        per_sweep.push(layer_metrics(&cells, secs));
        last_cells = cells;
        secs
    });

    let mut m = Metrics::median_of(&per_sweep);
    m.set(
        "trace.overhead_frac",
        traced_sweeps.median() / untraced.median() - 1.0,
        "ratio",
    );
    outcome.metrics = m;
    outcome.timings = vec![untraced, traced_sweeps];
    outcome.spans = last_cells.iter().map(|c| ("sim.cell", c.span)).collect();
    outcome
}
