//! The two workloads on the threaded runtime: `forensics_dist` (cheap
//! kernels, two nodes over sockets, runtime-bound) and `microscopy_kernel`
//! (expensive kernel, one node, kernel-bound).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rocket::apps::{
    ForensicsApp, ForensicsConfig, ForensicsDataset, MicroscopyApp, MicroscopyConfig,
    MicroscopyDataset,
};
use rocket::core::{AppReport, Application, NodeSpec, Scenario, ThreadedBackend, TransportKind};
use rocket::storage::{ModeledStore, ObjectStore};
use rocket::trace::TaskKind;

use crate::check::{self, pair_count, Exact, Reference, Tally};
use crate::stats::{self, closed_loop, Metrics, Timing};
use crate::wrap::{calls_busy, union_s, Interval, TimedApp, TimedStore, STAGES};
use crate::Outcome;

/// An application, the store it reads and the scenario it runs.
pub struct Threaded<A> {
    pub app: Arc<A>,
    pub store: Arc<dyn ObjectStore>,
    pub scenario: Scenario,
}

/// 384 PRNU images from 8 cameras on 2 nodes × 1 GPU over sockets. Each
/// host cache holds two thirds of the set, so a third of the host fills
/// come from the peer (level 3), and every storage read waits 300 µs.
pub fn forensics_dist(seed: u64) -> Threaded<ForensicsApp> {
    let config = ForensicsConfig {
        images: 384,
        cameras: 8,
        width: 32,
        height: 32,
        seed,
        ..ForensicsConfig::default()
    };
    let dataset = ForensicsDataset::generate(config.clone());
    let store = ModeledStore::new(dataset.store, Duration::from_micros(300), f64::INFINITY)
        .with_sleep(true);
    let scenario = Scenario::builder()
        .items(config.images)
        .nodes(2, NodeSpec::uniform(1, 32, 256))
        .cpu_threads(1)
        .job_limit(16)
        .transport(TransportKind::Socket)
        .distributed_cache(true)
        .seed(seed)
        .build();
    Threaded {
        app: Arc::new(ForensicsApp::new(&config)),
        store: Arc::new(store),
        scenario,
    }
}

/// 16 particles registered with GMM-L2 on 1 node × 1 GPU whose caches hold
/// the whole set: the compare kernel is nearly the whole job.
pub fn microscopy_kernel(seed: u64) -> Threaded<MicroscopyApp> {
    // A compare costs time in proportion to the product of the two point
    // counts. Every particle gets the mean count of the default 60..=120
    // range, so the job's cost does not depend on the seed.
    let config = MicroscopyConfig {
        particles: 16,
        points_min: 90,
        points_max: 90,
        seed,
        ..MicroscopyConfig::default()
    };
    let dataset = MicroscopyDataset::generate(config.clone());
    let scenario = Scenario::builder()
        .items(config.particles)
        .node(NodeSpec::uniform(1, 64, 64))
        .cpu_threads(1)
        .seed(seed)
        .build();
    Threaded {
        app: Arc::new(MicroscopyApp::new(&config)),
        store: Arc::new(dataset.store),
        scenario,
    }
}

/// Seconds of one set-up: data-set generation plus store, application,
/// scenario and backend construction.
fn time_setup<A: Application>(setup: &impl Fn() -> Threaded<A>) -> f64 {
    let start = Instant::now();
    let w = setup();
    black_box(ThreadedBackend::new(w.app, w.store));
    start.elapsed().as_secs_f64()
}

/// The scenario of job `k` of a run. The runtime's random decisions
/// (steal victims) draw from a seed of their own per job, so a run's
/// medians average over many draws instead of resting on one.
fn job_scenario(base: &Scenario, k: usize) -> Scenario {
    base.with_seed(base.seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs one whole all-pairs job, timing the `run_app` call alone, and
/// checks its outputs.
fn job<A>(
    backend: &ThreadedBackend<A>,
    scenario: &Scenario,
    reference: &Reference<<A::Output as Exact>::Bits>,
    outcome: &mut Outcome,
) -> (f64, Option<AppReport<A::Output>>)
where
    A: Application,
    A::Output: Exact,
{
    let start = Instant::now();
    let result = backend.run_app(scenario);
    let secs = start.elapsed().as_secs_f64();
    match result {
        Ok(report) => {
            let tally = check::check_job(reference, &report);
            if tally.bad() > 0 {
                outcome.fail(format!("job outputs differ from the reference: {tally:?}"));
            }
            outcome.tally.add(tally);
            (secs, Some(report))
        }
        Err(e) => {
            outcome.fail(format!("job failed: {e}"));
            outcome
                .tally
                .add(Tally::lost_job(pair_count(reference.items)));
            (secs, None)
        }
    }
}

fn reference_or_fail<A>(
    w: &Threaded<A>,
    outcome: &mut Outcome,
) -> Option<Reference<<A::Output as Exact>::Bits>>
where
    A: Application,
    A::Output: Exact,
{
    match check::reference(&*w.app, &*w.store) {
        Ok(r) => Some(r),
        Err(e) => {
            outcome.fail(e);
            None
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn timed<A>(setup: impl Fn() -> Threaded<A>, seconds: f64) -> Outcome
where
    A: Application,
    A::Output: Exact,
{
    let mut outcome = Outcome::default();
    // Set-up is timed before the first job and again before every timed
    // job, so its median spans the run as the jobs' median does.
    let mut setup_t = Timing::new("setup_s");
    setup_t.samples.push(time_setup(&setup));
    let w = setup();
    let Some(reference) = reference_or_fail(&w, &mut outcome) else {
        return outcome;
    };
    let backend = ThreadedBackend::new(Arc::clone(&w.app), Arc::clone(&w.store));
    // One untimed job first, so lazy set-up inside the process is done.
    // The resident set grows a little with every job the runtime runs, so
    // peak memory is read here, where it does not depend on how many jobs
    // fit in the run.
    job(
        &backend,
        &job_scenario(&w.scenario, 0),
        &reference,
        &mut outcome,
    );
    let peak_rss_mb = stats::peak_rss_mb();
    let mut r_factors = Vec::new();
    let jobs = closed_loop("job_s", seconds, |i| {
        let k = 1 + i;
        setup_t.samples.push(time_setup(&setup));
        let scenario = job_scenario(&w.scenario, k);
        let (secs, report) = job(&backend, &scenario, &reference, &mut outcome);
        if let Some(report) = report {
            r_factors.push(report.r_factor());
        }
        secs
    });
    let m = &mut outcome.metrics;
    m.set(
        "pairs_per_s",
        pair_count(reference.items) as f64 / jobs.median(),
        "pairs/s",
    );
    // R is a count, bounded and without a long tail: its mean over jobs
    // is steadier than its median.
    if !r_factors.is_empty() {
        let mean = r_factors.iter().sum::<f64>() / r_factors.len() as f64;
        m.set("r_factor", mean, "loads/item");
    }
    m.set("setup_s", setup_t.median(), "s");
    m.set("peak_rss_mb", peak_rss_mb, "MB");
    outcome.timings = vec![setup_t, jobs];
    outcome
}

/// Count and busy seconds of the runtime's own spans of `kind`.
fn span_stats<O>(report: &AppReport<O>, kind: TaskKind) -> (f64, f64) {
    let (mut calls, mut busy) = (0u64, 0u64);
    for span in report.nodes.iter().flat_map(|n| &n.spans) {
        if span.kind == kind {
            calls += 1;
            busy += span.duration_ns();
        }
    }
    (calls as f64, busy as f64 / 1e9)
}

/// Per-layer metrics of one traced job.
fn layer_metrics<A: Application>(
    report: &AppReport<A::Output>,
    app: &TimedApp<A>,
    store: &TimedStore,
    job_s: f64,
    gpus: f64,
    spans: &mut Vec<(&'static str, Interval)>,
) -> Metrics {
    let mut m = Metrics::default();
    spans.clear();
    let mut kernel_busy = 0.0;
    let mut all_calls: Vec<Interval> = Vec::new();
    for (stage, log) in STAGES.iter().zip(&app.stages) {
        let calls = log.take();
        let (n, busy) = calls_busy(&calls);
        m.set(format!("apps.{stage}.calls"), n, "count");
        m.set(format!("apps.{stage}.busy_s"), busy, "s");
        match *stage {
            "compare" => {
                kernel_busy += busy;
                m.set("apps.compare.bytes", 2.0 * app.item_bytes() as f64 * n, "B");
                if n > 0.0 {
                    let useful = pair_count(app.item_count()) as f64 / n;
                    m.set("apps.compare.useful_ratio", useful, "ratio");
                }
            }
            "preprocess" => kernel_busy += busy,
            _ => {}
        }
        all_calls.extend_from_slice(&calls);
        spans.extend(calls.into_iter().map(|c| (*stage, c)));
    }
    let reads = store.reads.take();
    let (n, busy) = calls_busy(&reads);
    let (read_bytes, errors) = store.counters();
    m.set("storage.reads", n, "count");
    m.set("storage.read_bytes", read_bytes as f64, "B");
    m.set("storage.busy_s", busy, "s");
    m.set("storage.errors", errors as f64, "count");
    spans.extend(reads.into_iter().map(|c| ("read", c)));

    for (level, c) in [
        ("device", report.device_cache()),
        ("host", report.host_cache()),
    ] {
        m.set(
            format!("cache.{level}.hits"),
            (c.hits + c.hits_pending) as f64,
            "count",
        );
        m.set(format!("cache.{level}.misses"), c.misses as f64, "count");
        m.set(
            format!("cache.{level}.evictions"),
            c.evictions as f64,
            "count",
        );
        m.set(
            format!("cache.{level}.capacity_stalls"),
            c.capacity_stalls as f64,
            "count",
        );
        m.set(format!("cache.{level}.hit_ratio"), c.hit_ratio(), "ratio");
    }
    let d = report.directory();
    m.set("cache.directory.lookups", d.lookups() as f64, "count");
    m.set("cache.directory.hits", d.hits() as f64, "count");
    let ratio = if d.lookups() == 0 {
        0.0
    } else {
        d.hits() as f64 / d.lookups() as f64
    };
    m.set("cache.directory.hit_ratio", ratio, "ratio");
    m.set("cache.directory.msgs", d.messages_sent as f64, "count");

    m.set("steal.local", report.steal.local_steals as f64, "count");
    m.set("steal.remote", report.steal.remote_steals as f64, "count");
    m.set("steal.imbalance", report.steal.imbalance(), "ratio");

    let comm = report.comm_totals();
    m.set("comm.msgs", comm.msgs_sent as f64, "count");
    m.set("comm.bytes", comm.bytes_sent as f64, "B");
    m.set(
        "comm.remote_fetches",
        report.total_remote_fetches() as f64,
        "count",
    );
    m.set(
        "comm.remote_fetch.busy_s",
        span_stats(report, TaskKind::RemoteFetch).1,
        "s",
    );
    m.set(
        "comm.remote_serve.busy_s",
        span_stats(report, TaskKind::RemoteServe).1,
        "s",
    );

    for (name, kind) in [
        ("copy_in", TaskKind::CopyIn),
        ("copy_out", TaskKind::CopyOut),
    ] {
        let (calls, busy) = span_stats(report, kind);
        m.set(format!("gpu.{name}.calls"), calls, "count");
        m.set(format!("gpu.{name}.busy_s"), busy, "s");
    }

    m.set(
        "engine.gpu_occupancy",
        kernel_busy / (job_s * gpus),
        "ratio",
    );
    m.set(
        "engine.idle_s",
        (job_s - union_s(&mut all_calls)).max(0.0),
        "s",
    );
    m
}

/// The traced run: per-layer metrics. Half the time runs untraced jobs
/// on the bare application and store, half runs traced jobs through the
/// wrappers with the runtime's task spans on.
pub fn traced<A>(setup: impl Fn() -> Threaded<A>, seconds: f64) -> Outcome
where
    A: Application,
    A::Output: Exact,
{
    let mut outcome = Outcome::default();
    let w = setup();
    let Some(reference) = reference_or_fail(&w, &mut outcome) else {
        return outcome;
    };
    let gpus = w.scenario.total_gpus() as f64;

    let bare = ThreadedBackend::new(Arc::clone(&w.app), Arc::clone(&w.store));
    job(
        &bare,
        &job_scenario(&w.scenario, 0),
        &reference,
        &mut outcome,
    );
    let rss_before = stats::rss_mb();
    let untraced = closed_loop("job_s", seconds / 2.0, |i| {
        let k = 1 + i;
        job(
            &bare,
            &job_scenario(&w.scenario, k),
            &reference,
            &mut outcome,
        )
        .0
    });
    let rss_growth = (stats::rss_mb() - rss_before) / untraced.samples.len() as f64;

    let app = Arc::new(TimedApp::new(Arc::clone(&w.app)));
    let store = Arc::new(TimedStore::new(Arc::clone(&w.store)));
    let wrapped =
        ThreadedBackend::new(Arc::clone(&app), Arc::clone(&store) as Arc<dyn ObjectStore>);
    let mut per_job = Vec::new();
    let mut spans = Vec::new();
    let first = 1 + untraced.samples.len();
    let traced_jobs = closed_loop("traced_job_s", seconds / 2.0, |i| {
        let k = first + i;
        let mut scenario = job_scenario(&w.scenario, k);
        scenario.tracing = true;
        let epoch = Instant::now();
        app.reset(epoch);
        store.reset(epoch);
        let (secs, report) = job(&wrapped, &scenario, &reference, &mut outcome);
        if let Some(report) = report {
            per_job.push(layer_metrics(&report, &app, &store, secs, gpus, &mut spans));
        }
        secs
    });

    let mut m = Metrics::median_of(&per_job);
    m.set(
        "engine.efficiency",
        reference.t_min_s / gpus / untraced.median(),
        "ratio",
    );
    m.set("engine.rss_growth_mb_per_job", rss_growth, "MB");
    m.set(
        "trace.overhead_frac",
        traced_jobs.median() / untraced.median() - 1.0,
        "ratio",
    );
    outcome.metrics = m;
    outcome.timings = vec![untraced, traced_jobs];
    outcome.spans = spans;
    outcome
}
