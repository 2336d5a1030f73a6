//! Golden digests of the simulator's output.
//!
//! `determinism.rs` compares two runs of the same build; this suite pins
//! the output *across* commits. Each test hashes the full Debug rendering
//! of a [`SimResult`] (every counter, busy time, per-node series and the
//! window count) and compares it with a digest recorded from a known-good
//! build. Every digest is checked on both event-queue implementations, so
//! the two schedulers stay interchangeable.
//!
//! A change that moves any digest changes simulator behaviour. If that is
//! intended, re-record the digests from the failure messages and say why
//! in the change.

use rocket_apps::WorkloadProfile;
use rocket_core::{PerfLog, PerfRollup};
use rocket_sim::{simulate, Scheduler, SimConfig, SimNodeConfig};
use rocket_stats::Dist;

/// FNV-1a, 64-bit: tiny, dependency-free and stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `benches/des.rs` anchor workload, duplicated at the `SimConfig`
/// level (rocket-bench depends on rocket-sim, so this crate cannot import
/// the anchors module without a cycle).
fn bench_workload(items: u64) -> WorkloadProfile {
    WorkloadProfile {
        name: "bench",
        items,
        file_bytes: 1_000_000,
        item_bytes: 10_000_000,
        parse: Dist::Constant(10e-3),
        preprocess: Some(Dist::Constant(5e-3)),
        compare: Dist::Constant(1e-3),
        postprocess: Dist::Constant(0.0),
        paper_device_slots: 16,
        paper_host_slots: 64,
    }
}

/// Stochastic stage times: ordering bugs that constant stage times mask
/// (ties everywhere) show up as per-node RNG-stream divergence.
fn noisy_workload(items: u64) -> WorkloadProfile {
    WorkloadProfile {
        name: "noisy",
        items,
        file_bytes: 1_000_000,
        item_bytes: 10_000_000,
        parse: Dist::Uniform {
            lo: 5e-3,
            hi: 15e-3,
        },
        preprocess: Some(Dist::Normal {
            mean: 5e-3,
            std: 1e-3,
        }),
        compare: Dist::Uniform {
            lo: 0.5e-3,
            hi: 1.5e-3,
        },
        postprocess: Dist::Constant(0.1e-3),
        paper_device_slots: 16,
        paper_host_slots: 64,
    }
}

/// 13 nodes of three shapes (1, 2 and 4 GPUs) on the noisy workload, with
/// a cloud-scale 200 µs network latency: many short windows.
fn heterogeneous_noisy(items: u64) -> SimConfig {
    let nodes = (0..13usize)
        .map(|i| match i % 3 {
            0 => SimNodeConfig::uniform(1, 8, 16),
            1 => SimNodeConfig::uniform(2, 12, 24),
            _ => SimNodeConfig::uniform(4, 16, 32),
        })
        .collect();
    let mut cfg = SimConfig::cluster(noisy_workload(items), nodes);
    cfg.net_latency = 200e-6;
    cfg
}

/// Asserts that `render` hashes to `expected` on both schedulers.
fn assert_digest(
    label: &str,
    cfg: &SimConfig,
    expected: u64,
    render: impl Fn(&SimConfig) -> String,
) {
    for scheduler in [Scheduler::SlabHeap, Scheduler::Calendar] {
        let mut c = cfg.clone();
        c.scheduler = scheduler;
        let got = fnv1a64(render(&c).as_bytes());
        assert_eq!(
            got, expected,
            "{label} on {scheduler:?}: digest {got:#018x}, expected {expected:#018x}"
        );
    }
}

fn result_debug(cfg: &SimConfig) -> String {
    format!("{:?}", simulate(cfg))
}

#[test]
fn four_node_anchor_n48() {
    let cfg = SimConfig::cluster(
        bench_workload(48),
        vec![SimNodeConfig::uniform(1, 16, 32); 4],
    );
    assert_digest(
        "four_nodes_n48_distcache",
        &cfg,
        0xe44e7b11aa63eba0,
        result_debug,
    );
}

#[test]
fn heterogeneous_noisy_13_nodes() {
    assert_digest(
        "heterogeneous_noisy_13_nodes",
        &heterogeneous_noisy(64),
        0xaeba2484c40f40e7,
        result_debug,
    );
}

#[test]
fn completion_series_heterogeneous() {
    let mut cfg = heterogeneous_noisy(32);
    cfg.record_completions = true;
    assert_digest(
        "completions_13_nodes_n32",
        &cfg,
        0x5116c129ccb090a3,
        result_debug,
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy: runs in release (CI tests --release)"
)]
fn sixteen_node_anchor() {
    let cfg = SimConfig::cluster(
        bench_workload(256),
        vec![SimNodeConfig::uniform(4, 24, 96); 16],
    );
    assert_digest(
        "sixteen_nodes_4gpu_n256_distcache",
        &cfg,
        0x5a9ed254ff940333,
        result_debug,
    );
}

/// The perf-record stream and its rollup are pinned as well: instrumentation
/// records are part of the engine's observable output.
#[test]
fn perf_records_and_rollup_noisy_four_nodes() {
    let cfg = SimConfig::cluster(
        noisy_workload(32),
        vec![SimNodeConfig::uniform(1, 8, 16); 4],
    );
    let records = |c: &SimConfig| {
        let mut c = c.clone();
        c.perf = PerfLog::enabled();
        simulate(&c);
        c.perf.take()
    };
    assert_digest(
        "perf_records_noisy_4_nodes",
        &cfg,
        0x6032b192f2eca876,
        |c| format!("{:?}", records(c)),
    );
    assert_digest("perf_rollup_noisy_4_nodes", &cfg, 0x09b22807072f9ae9, |c| {
        PerfRollup::from_records(&records(c)).to_json()
    });
}
