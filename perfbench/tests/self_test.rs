//! Self-tests of the benchmark: its checks catch bad outputs, its
//! wrappers change no output, and its metric tables match
//! `BENCHMARK.json`.

use std::sync::Arc;
use std::time::Instant;

use rocket::apps::{ForensicsApp, ForensicsConfig, ForensicsDataset};
use rocket::core::{Backend, NodeSpec, Scenario, ThreadedBackend};
use rocket::sim::SimBackend;
use rocket::storage::{FaultStore, MemStore, ObjectStore};
use rocket_perfbench::check::{check_job, reference, Exact, Tally};
use rocket_perfbench::wrap::{TimedApp, TimedBackend, TimedStore};
use rocket_perfbench::{run, DEFAULT_SEED, END_TO_END, HOLDOUT_SEED, PER_LAYER, WORKLOADS};

fn small_forensics(seed: u64) -> (ForensicsConfig, MemStore) {
    let config = ForensicsConfig {
        images: 20,
        cameras: 3,
        width: 16,
        height: 16,
        seed,
        ..ForensicsConfig::default()
    };
    let store = ForensicsDataset::generate(config.clone()).store;
    (config, store)
}

fn scenario(items: u64) -> Scenario {
    Scenario::builder()
        .items(items)
        .nodes(2, NodeSpec::uniform(1, 6, 12))
        .cpu_threads(1)
        .job_limit(4)
        .build()
}

#[test]
fn perturbed_outputs_trip_the_reference_check() {
    let (config, store) = small_forensics(3);
    let app = Arc::new(ForensicsApp::new(&config));
    let store: Arc<dyn ObjectStore> = Arc::new(store);
    let expected = reference(&*app, &*store).unwrap();
    let backend = ThreadedBackend::new(Arc::clone(&app), store);
    let mut report = backend.run_app(&scenario(config.images)).unwrap();
    let pairs = report.outputs.len() as u64;
    assert_eq!(check_job(&expected, &report).bad(), 0);

    // One output off by its last bit.
    let score = &mut report.outputs[7].1;
    *score = f64::from_bits(score.bits() ^ 1);
    let tally = check_job(&expected, &report);
    assert_eq!((tally.wrong, tally.bad()), (1, 1));

    // One output delivered twice in place of another.
    report.outputs[7].1 = f64::from_bits(report.outputs[7].1.bits() ^ 1);
    report.outputs[3] = report.outputs[4];
    let tally = check_job(&expected, &report);
    assert_eq!(
        tally,
        Tally {
            attempted: pairs,
            duplicate: 1,
            missing: 1,
            ..Tally::default()
        }
    );
}

#[test]
fn a_faulty_store_raises_failed_frac() {
    let (config, store) = small_forensics(4);
    let app = Arc::new(ForensicsApp::new(&config));
    let expected = reference(&*app, &store).unwrap();
    let faulty: Arc<dyn ObjectStore> = Arc::new(FaultStore::seeded(store, 11, 0.5, 0.0));
    let mut s = scenario(config.images);
    s.io_retries = 0;
    s.max_item_failures = 1;
    let tally = match ThreadedBackend::new(app, faulty).run_app(&s) {
        Ok(report) => check_job(&expected, &report),
        Err(_) => Tally::lost_job(expected.outputs.len() as u64),
    };
    assert!(tally.bad() > 0, "{tally:?}");
    assert_eq!(tally.wrong + tally.duplicate, 0, "{tally:?}");
}

#[test]
fn wrappers_leave_threaded_outputs_bit_identical() {
    let (config, store) = small_forensics(5);
    let app = Arc::new(ForensicsApp::new(&config));
    let store: Arc<dyn ObjectStore> = Arc::new(store);
    let expected = reference(&*app, &*store).unwrap();
    let bits = |outputs: Vec<&(rocket::core::Pair, f64)>| {
        outputs
            .into_iter()
            .map(|(p, o)| (*p, o.bits()))
            .collect::<Vec<_>>()
    };

    let bare = ThreadedBackend::new(Arc::clone(&app), Arc::clone(&store));
    let bare_report = bare.run_app(&scenario(config.images)).unwrap();

    let timed_app = Arc::new(TimedApp::new(Arc::clone(&app)));
    let timed_store = Arc::new(TimedStore::new(Arc::clone(&store)));
    timed_app.reset(Instant::now());
    let wrapped = ThreadedBackend::new(
        Arc::clone(&timed_app),
        timed_store.clone() as Arc<dyn ObjectStore>,
    );
    let mut traced = scenario(config.images);
    traced.tracing = true;
    let wrapped_report = wrapped.run_app(&traced).unwrap();

    assert_eq!(check_job(&expected, &bare_report).bad(), 0);
    assert_eq!(check_job(&expected, &wrapped_report).bad(), 0);
    assert_eq!(
        bits(bare_report.sorted_outputs()),
        bits(wrapped_report.sorted_outputs())
    );
    let compares = timed_app.stages[2].take().len();
    assert_eq!(compares as u64, config.images * (config.images - 1) / 2);
    assert!(!timed_store.reads.take().is_empty());
}

#[test]
fn the_timed_backend_leaves_sim_reports_identical() {
    let s = Scenario::builder()
        .items(96)
        .nodes(4, NodeSpec::uniform(1, 8, 24))
        .seed(9)
        .build();
    let bare = SimBackend::new().run(&s).unwrap();
    let timed = TimedBackend::new(SimBackend::new());
    let wrapped = timed.run(&s).unwrap();
    assert_eq!(bare.to_json(), wrapped.to_json());
    let cells = timed.take();
    assert_eq!(cells.len(), 1);
    assert!(cells[0].rollup.records > 0);
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let section = |key: &str| -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).unwrap();
        let body = &text[start..start + text[start..].find(']').unwrap()];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).unwrap() + f.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').unwrap() + 1;
                    let close = open + rest[open..].find('"').unwrap();
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(section("end_to_end"), table(END_TO_END));
    assert_eq!(section("per_layer"), table(PER_LAYER));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "whole workloads: run with --release")]
fn default_and_holdout_seeds_pass_every_check() {
    for workload in WORKLOADS {
        for seed in [DEFAULT_SEED, HOLDOUT_SEED] {
            let outcome = run(workload, seed, 0.01, false).unwrap();
            assert!(
                outcome.correct(),
                "{workload} seed {seed}: {:?} {:?}",
                outcome.errors,
                outcome.tally
            );
        }
    }
}
