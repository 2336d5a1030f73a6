//! The cluster simulator's event engine.
//!
//! One event queue drives every node in virtual-time order. Virtual time
//! is cut into fixed *windows* of width
//! `min(net_latency, service + storage_latency)`, and the model fixes when
//! nodes interact relative to them:
//!
//! * **Work stealing** happens only at window boundaries, matched
//!   deterministically over a snapshot of every node's deque
//!   (`steal_match`). A hungry node therefore waits for the next boundary
//!   that finds it hungry, not for the next event.
//! * **Storage requests** are deferred and submitted to the shared storage
//!   engine in `(time, prio)` order as soon as virtual time moves past
//!   them (`flush_loads`), so same-timestamp requests from different nodes
//!   queue in node order, not in handler order.
//! * **Network messages** ([`Ev::Net`]) arrive `net_latency` after they
//!   are sent.
//!
//! The window count is reported as `SimResult::windows`; windows without
//! a hungry node or a pending storage request run on a fast path that
//! only counts them.
//!
//! # Event order
//!
//! Every event carries priority `(node << 40) | seq` drawn from a monotonic
//! per-node counter, and the queue orders by `(time, prio, slot)`.
//! Priorities are unique, so the slot tie-break never fires and the order
//! of any two events is a pure function of their keys, not of when they
//! were inserted; both event-queue implementations pop the same sequence.
//! Stage times come from per-node RNG streams, and the steal RNG advances
//! only on a boundary match. `tests/engine_golden.rs` pins the resulting
//! output on both queues.

use std::collections::VecDeque;

use rocket_cache::{CacheStats, Directory, DirectoryMsg, DirectoryStats, Lookup, Resolution};
use rocket_stats::SeedSequence;
use rocket_steal::{Block, Pair, TaskDeque};
use rocket_trace::{PerfKind, PerfRecord, ThroughputSeries};

use crate::cluster::{
    sample_ns, transfer_ns, DevFill, Ev, GpuRates, HostFill, Msg, SimConfig, SimGpu, SimJob,
    SimNode, SimResult, StageDists, Tok,
};
use crate::engine::{ns_to_secs, secs_to_ns, EventQueue, SimTime};
use crate::server::{Engine, Pool};

/// Virtual nanoseconds without a pair completion before declaring deadlock.
const STALL_NS: u64 = 300_000_000_000;

/// A node must have been hungry this long (virtual) before a boundary
/// steal match will hand it a sub-leaf remnant. Remnant steals drag the
/// victim's items to the thief for a handful of pairs, so they only pay
/// off against genuine stragglers (a slow node grinding a tail while fast
/// nodes idle); un-started whole-leaf backlog is always fair game. Tuned
/// together with `RICH_BACKLOG_DIVISOR` on both bench anchors: on the
/// 16-node anchor, 30 ms + the scaled rich threshold give makespan
/// 0.849 s with 655 loads and 70 steals, vs 0.863 s / 651 loads for the
/// greedy policy (steal anything, immediately) it replaced; the 1024-node
/// anchor stays within 0.6% of greedy.
const REMNANT_STEAL_DELAY_NS: u64 = 30_000_000;

/// A victim counts as "rich" — stealable without any hunger delay — only
/// while its un-started backlog is at least a tenth of the average initial
/// per-node backlog (quantized to whole leaves, floor one leaf). Below
/// that, taking its front block mostly reshuffles cache locality for no
/// balance win. The threshold must scale with the workload: on the
/// 16-node anchor (~32 leaves/node) it lands at 3 leaves, while on the
/// 1024-node anchor (~8 leaves/node) it relaxes to 1 — a fixed 3-leaf bar
/// there starves thieves into the remnant path and costs 8% makespan.
const RICH_BACKLOG_DIVISOR: u64 = 10;

/// Low bits of an event priority hold the per-node sequence number; the
/// node id sits above them.
const PRIO_SEQ_BITS: u32 = 40;

/// Read-only run context.
pub(crate) struct Ctx<'a> {
    cfg: &'a SimConfig,
    stages: StageDists,
    total_pairs: u64,
    /// Window width in ns (see the module docs).
    window_ns: u64,
    net_lat_ns: u64,
    storage_lat_ns: u64,
    /// Storage service time of one file load (constant per run).
    load_service_ns: u64,
    /// First global GPU id of each node (Fig 14 completion sources).
    gpu_gid_base: Vec<usize>,
}

/// Every node of the cluster plus the event queue that drives them.
pub(crate) struct ShardState<Q> {
    nodes: Vec<SimNode>,
    queue: Q,
    /// Same-node wake tokens, drained after every event.
    wakes: VecDeque<(usize, Tok)>,
    /// Deferred storage requests: `(at, prio, node, item)`.
    load_reqs: Vec<(SimTime, u64, usize, u64)>,
    ev_counts: [u64; 11],
    completions: Option<ThroughputSeries>,
    /// End (exclusive) of the current window.
    window_end: SimTime,
    /// Nodes with `hungry` set (steal candidates).
    hungry_count: usize,
    pairs_done: u64,
    pairs_started: u64,
    /// Per-node event-priority counters (`nodes[i]` ↔ `seqs[i]`), kept as
    /// a dense side array: `next_prio` runs on every schedule, and two hot
    /// cache lines beat a scattered read into each node's struct.
    seqs: Vec<u64>,
    /// Deque blocks plus open row cursors across all nodes. Zero means
    /// nothing is stealable, letting `steal_match` skip its whole-cluster
    /// snapshot — which is most boundaries late in a run, when all
    /// remaining work is in flight and hungry nodes can only wait.
    work_blocks: usize,
    /// Perf-sample buffer (`Some` iff `cfg.perf` is enabled). Records stay
    /// here during the run and fold into `cfg.perf` in `finish`, after the
    /// result is final — so instrumentation can never perturb `SimResult`.
    perf: Option<Vec<PerfRecord>>,
}

/// Boundary-side state: the shared storage engine and the steal matcher.
struct Driver {
    storage: Engine,
    steal_rng: rocket_stats::Xoshiro256,
    steals: u64,
    windows: u64,
    /// Scratch: deque depth per node for steal matching.
    lens: Vec<usize>,
    /// Scratch: pending pairs per node for steal matching.
    pair_lens: Vec<u64>,
    /// Perf samples produced at boundaries (storage reads, steals).
    perf: Option<Vec<PerfRecord>>,
}

impl Driver {
    /// Appends a boundary-side perf record when instrumentation is on.
    #[inline]
    fn perf(&mut self, t_ns: SimTime, kind: PerfKind, node: usize, value: u64) {
        if let Some(buf) = &mut self.perf {
            buf.push(PerfRecord {
                t_ns,
                kind,
                node: node as u32,
                value,
            });
        }
    }
}

/// Runs one simulation to completion.
pub(crate) fn run<Q>(cfg: &SimConfig) -> SimResult
where
    Q: EventQueue<Ev> + Default,
{
    let ctx = build_ctx(cfg);
    let mut shard = build_shard::<Q>(cfg, &ctx);
    let mut drv = Driver {
        storage: Engine::new(),
        steal_rng: SeedSequence::new(cfg.seed).rng("steal"),
        steals: 0,
        windows: 0,
        lens: Vec::new(),
        pair_lens: Vec::new(),
        perf: cfg.perf.is_enabled().then(Vec::new),
    };
    if ctx.total_pairs > 0 {
        run_sequential(&ctx, &mut shard, &mut drv);
    }
    finish(&ctx, shard, drv)
}

fn build_ctx(cfg: &SimConfig) -> Ctx<'_> {
    assert!(!cfg.nodes.is_empty(), "cluster needs nodes");
    let n = cfg.workload.items;
    let mut gpu_gid_base = Vec::with_capacity(cfg.nodes.len());
    let mut base = 0usize;
    for nc in &cfg.nodes {
        gpu_gid_base.push(base);
        base += nc.gpus.len();
    }
    let net_lat_ns = secs_to_ns(cfg.net_latency);
    let storage_lat_ns = secs_to_ns(cfg.storage_latency);
    let load_service_ns = secs_to_ns(cfg.workload.file_bytes as f64 / cfg.storage_bandwidth);
    let window_ns = net_lat_ns
        .max(1)
        .min((load_service_ns + storage_lat_ns).max(1));
    Ctx {
        cfg,
        stages: StageDists {
            parse: cfg.workload.parse.clone(),
            preprocess: cfg.workload.preprocess.clone(),
            compare: cfg.workload.compare.clone(),
            postprocess: cfg.workload.postprocess.clone(),
        },
        total_pairs: n * n.saturating_sub(1) / 2,
        window_ns,
        net_lat_ns,
        storage_lat_ns,
        load_service_ns,
        gpu_gid_base,
    }
}

fn build_shard<Q>(cfg: &SimConfig, ctx: &Ctx) -> ShardState<Q>
where
    Q: EventQueue<Ev> + Default,
{
    let n = cfg.workload.items;
    let p = cfg.nodes.len();
    let seeds = SeedSequence::new(cfg.seed);
    let nodes: Vec<SimNode> = cfg
        .nodes
        .iter()
        .enumerate()
        .map(|(rank, nc)| {
            // Slots beyond the item count never get used: clamp to keep
            // huge Fig 9 sweeps cheap without changing behaviour.
            let dev_slots = nc.device_slots.min(n as usize).max(2);
            let host_slots = nc.host_slots.min(n as usize).max(2);
            SimNode {
                deque: TaskDeque::new(),
                cursor: None,
                gpus: nc
                    .gpus
                    .iter()
                    .map(|profile| SimGpu {
                        rates: GpuRates::from(profile),
                        cache: rocket_cache::SlotCache::with_item_space(dev_slots, n as usize),
                        compute: Engine::new(),
                        h2d: Engine::new(),
                        d2h: Engine::new(),
                        in_flight: 0,
                        pre_busy_ns: 0,
                        cmp_busy_ns: 0,
                        fills: vec![DevFill::default(); n as usize],
                    })
                    .collect(),
                host_cache: rocket_cache::SlotCache::with_item_space(host_slots, n as usize),
                cpu: Pool::new(cfg.cpu_threads),
                nic: Engine::new(),
                directory: Directory::new(rank, p, cfg.hops),
                jobs: Vec::new(),
                free_jobs: Vec::new(),
                jobs_in_flight: 0,
                host_fill: vec![None; n as usize],
                pairs_done: 0,
                loads: 0,
                remote_fetches: 0,
                rng: seeds.rng_indexed("node", rank as u64),
                hungry: false,
                hungry_since: 0,
                io_bytes: 0,
                net_bytes: 0,
                makespan_ns: 0,
            }
        })
        .collect();
    let mut shard = ShardState {
        nodes,
        queue: Q::default(),
        wakes: VecDeque::new(),
        load_reqs: Vec::new(),
        ev_counts: [0; 11],
        completions: cfg.record_completions.then(ThroughputSeries::new),
        window_end: 0,
        hungry_count: 0,
        pairs_done: 0,
        pairs_started: 0,
        seqs: vec![0; p],
        work_blocks: 0,
        perf: cfg.perf.is_enabled().then(Vec::new),
    };
    if ctx.total_pairs > 0 {
        // The master node spawns the root task (§4.2); every node
        // starts with a keyed Pull at t = 0.
        shard.nodes[0].deque.push(Block::root(n));
        shard.work_blocks += 1;
        for g in 0..p {
            let prio = shard.next_prio(g);
            shard.queue.schedule_keyed(0, prio, Ev::Pull { node: g });
        }
    }
    shard
}

// ---- event loop -----------------------------------------------------------

/// The event loop. Between window boundaries it pops and handles events;
/// at a boundary that finds a hungry node it runs the steal match.
fn run_sequential<Q: EventQueue<Ev>>(ctx: &Ctx, shard: &mut ShardState<Q>, drv: &mut Driver) {
    let win = ctx.window_ns;
    let mut last = (0u64, 0u64); // (pairs_done, virtual ns)
    while shard.pairs_done < ctx.total_pairs {
        if shard.pairs_done != last.0 {
            last = (shard.pairs_done, shard.queue.now());
        } else if shard.queue.now() > last.1 + STALL_NS {
            stall_panic(ctx, shard, drv, "no progress for 5min of virtual time");
        }
        if shard.hungry_count == 0 && shard.load_reqs.is_empty() {
            // Fast path: no boundary has work to do, so pop without
            // peeking and only count the windows entered.
            let Some((t, ev)) = shard.queue.pop() else {
                stall_panic(ctx, shard, drv, "event queue drained");
            };
            if t >= shard.window_end {
                drv.windows += 1;
                shard.window_end = (t / win + 1) * win;
            }
            shard.handle(ctx, ev);
            shard.drain_wakes(ctx);
            #[cfg(debug_assertions)]
            shard.validate();
            continue;
        }
        // Deferred storage requests flush as soon as virtual time moves
        // past them, one sorted batch per timestamp.
        let t = shard.queue.peek_time();
        if let Some(&(req_t, ..)) = shard.load_reqs.first() {
            if t.is_none_or(|t| t > req_t) {
                flush_loads(ctx, shard, drv);
                continue; // an IoDone may now be the earliest event
            }
        }
        let Some(t) = t else {
            stall_panic(ctx, shard, drv, "event queue drained");
        };
        if t >= shard.window_end {
            // Window boundary: run the steal match, then enter the next
            // non-empty window.
            let boundary = shard.window_end;
            steal_match(ctx, shard, drv, boundary);
            drv.windows += 1;
            record_gauges(shard, boundary);
            let t2 = shard.queue.peek_time().unwrap_or(t);
            shard.window_end = (t2 / win + 1) * win;
            continue;
        }
        let (_, ev) = shard.queue.pop().expect("peeked event");
        shard.handle(ctx, ev);
        shard.drain_wakes(ctx);
        #[cfg(debug_assertions)]
        shard.validate();
    }
}

/// Engine gauges, sampled at boundaries that run the steal match: queue
/// depth and cumulative events handled (diff consecutive `Window` records
/// for a per-window event cost). Both carry node 0. Boundaries on the fast
/// path (no hungry nodes, no pending loads) record nothing.
fn record_gauges<Q: EventQueue<Ev>>(shard: &mut ShardState<Q>, boundary: SimTime) {
    if shard.perf.is_some() {
        let depth = shard.queue.len() as u64;
        let events: u64 = shard.ev_counts.iter().sum();
        shard.perf(boundary, PerfKind::QueueDepth, 0, depth);
        shard.perf(boundary, PerfKind::Window, 0, events);
    }
}

/// Submits every deferred storage request to the shared storage engine in
/// `(at, prio)` order and schedules the completions.
fn flush_loads<Q: EventQueue<Ev>>(ctx: &Ctx, shard: &mut ShardState<Q>, drv: &mut Driver) {
    let mut loads = std::mem::take(&mut shard.load_reqs);
    loads.sort_unstable_by_key(|&(at, p, ..)| (at, p));
    for &(at, p, node, item) in &loads {
        let done = drv.storage.submit(at, ctx.load_service_ns) + ctx.storage_lat_ns;
        // Read latency as the node observes it: queueing at the shared
        // storage engine plus service plus delivery latency.
        drv.perf(done, PerfKind::Read, node, done - at);
        shard
            .queue
            .schedule_keyed(done, p, Ev::IoDone { node, item });
    }
    loads.clear();
    shard.load_reqs = loads;
}

/// Matches hungry nodes (out of local work) with victims over a snapshot
/// of every deque's depth, in ascending node order. The thief's fresh
/// block is not re-offered within the same boundary; a robbed victim's
/// depth drops immediately. The RNG advances only on a match, so
/// boundaries without steal pressure cost no randomness.
fn steal_match<Q: EventQueue<Ev>>(
    ctx: &Ctx,
    shard: &mut ShardState<Q>,
    drv: &mut Driver,
    boundary: SimTime,
) {
    if shard.hungry_count == 0 {
        return;
    }
    // No block anywhere means no possible victim: the full scan below
    // would normalize nothing, see every deque empty, and match nobody.
    // Skipping it is therefore result-identical — and it is the common
    // case late in a run, when every remaining pair is in flight and
    // thieves just wait.
    if shard.work_blocks == 0 {
        return;
    }
    // Fold every open row cursor back into its deque before snapshotting,
    // so remnants are visible (and stealable) exactly as if each pair had
    // gone through the deque.
    shard.normalize_cursors();
    drv.lens.clear();
    drv.pair_lens.clear();
    for n in &shard.nodes {
        drv.lens.push(n.deque.len());
        drv.pair_lens.push(n.deque.pending_pairs());
    }
    debug_assert_eq!(
        drv.lens.iter().sum::<usize>(),
        shard.work_blocks,
        "work_blocks counter drifted from actual deque contents"
    );
    let leaf = ctx.cfg.leaf_pairs;
    let rich_pairs =
        leaf * (ctx.total_pairs / (drv.lens.len() as u64 * RICH_BACKLOG_DIVISOR * leaf)).max(1);
    for g in 0..drv.lens.len() {
        let node = &shard.nodes[g];
        if !node.hungry {
            continue;
        }
        // Victim tiers. Rich victims ([`RICH_STEAL_MIN_LEAVES`] whole
        // leaves of un-started backlog) are always fair game — moving
        // whole quadrants is what stealing is for. Sub-leaf remnants only
        // feed thieves starved for REMNANT_STEAL_DELAY_NS: remnant steals
        // drag the victim's items along for a handful of pairs, so they
        // must stay a last resort against genuine stragglers, not fire at
        // every boundary. See `RICH_BACKLOG_DIVISOR` for the threshold.
        let rich = |v: usize, l: usize| v != g && l > 0 && drv.pair_lens[v] >= rich_pairs;
        let any = |v: usize, l: usize| v != g && l > 0;
        let mut count = drv
            .lens
            .iter()
            .enumerate()
            .filter(|&(v, &l)| rich(v, l))
            .count();
        let mut eligible: &dyn Fn(usize, usize) -> bool = &rich;
        if count == 0 {
            if boundary < node.hungry_since + REMNANT_STEAL_DELAY_NS {
                continue;
            }
            count = drv
                .lens
                .iter()
                .enumerate()
                .filter(|&(v, &l)| any(v, l))
                .count();
            if count == 0 {
                continue;
            }
            eligible = &any;
        }
        let pick = drv.steal_rng.below(count);
        let victim = drv
            .lens
            .iter()
            .enumerate()
            .filter(|&(v, &l)| eligible(v, l))
            .nth(pick)
            .expect("pick < count")
            .0;
        let block = shard.nodes[victim]
            .deque
            .steal()
            .expect("victim deque non-empty");
        drv.lens[victim] -= 1;
        drv.pair_lens[victim] -= block.count();
        drv.steals += 1;
        // Thief's node id, pairs moved.
        drv.perf(boundary, PerfKind::Steal, g, block.count());
        // The block only changes owner: `work_blocks` is unchanged.
        shard.nodes[g].deque.push(block);
        shard.set_hungry(g, false);
        let p = shard.next_prio(g);
        shard
            .queue
            .schedule_keyed(boundary, p, Ev::Pull { node: g });
    }
}

fn stall_panic<Q: EventQueue<Ev>>(ctx: &Ctx, shard: &ShardState<Q>, drv: &Driver, why: &str) -> ! {
    let mut diag = String::new();
    for (i, node) in shard.nodes.iter().enumerate() {
        let dev_fills: usize = node
            .gpus
            .iter()
            .map(|g| g.fills.iter().filter(|f| f.dev_slot.is_some()).count())
            .sum();
        let h2d_leases: usize = node
            .gpus
            .iter()
            .map(|g| g.fills.iter().filter(|f| f.h2d_lease.is_some()).count())
            .sum();
        diag.push_str(&format!(
            "\n node {i}: jobs={} inflight={} deque={} ({} pairs) hungry={} hostfills={} \
             devfills={} h2d_leases={} host(cap_waiters={} evictable={} occ={}/{})",
            node.live_jobs(),
            node.jobs_in_flight,
            node.deque.len(),
            node.deque.pending_pairs(),
            node.hungry,
            node.host_fill.iter().flatten().count(),
            dev_fills,
            h2d_leases,
            node.host_cache.parked_capacity_waiters(),
            node.host_cache.evictable(),
            node.host_cache.occupied(),
            node.host_cache.capacity(),
        ));
        for (g, gpu) in node.gpus.iter().enumerate() {
            diag.push_str(&format!(
                "\n   gpu {g}: inflight={} cap_waiters={} evictable={} occ={}/{} resident={:?}",
                gpu.in_flight,
                gpu.cache.parked_capacity_waiters(),
                gpu.cache.evictable(),
                gpu.cache.occupied(),
                gpu.cache.capacity(),
                gpu.cache.resident_items(),
            ));
        }
        if i == 0 {
            for (id, j) in node.jobs.iter().enumerate() {
                let Some(j) = j else { continue };
                diag.push_str(&format!(
                    "\n   job {id}: pair=({},{}) left={:?} right={:?} stalled={:?} comparing={}",
                    j.pair.left, j.pair.right, j.left, j.right, j.stalled, j.comparing
                ));
            }
        }
    }
    panic!(
        "simulation stalled ({why}): {}/{} pairs done (started {}){diag}\n              event counts [pull,io,parse,staging,pre,writeback,fillcopy,cmp,res,post,net]: {:?}\n              windows {} queue len {}",
        shard.pairs_done,
        ctx.total_pairs,
        shard.pairs_started,
        shard.ev_counts,
        drv.windows,
        shard.queue.len(),
    );
}

/// Folds per-node state in node order into a [`SimResult`].
fn finish<Q: EventQueue<Ev>>(ctx: &Ctx, shard: ShardState<Q>, drv: Driver) -> SimResult {
    let mut r = SimResult {
        makespan: 0.0,
        items: ctx.cfg.workload.items,
        pairs: shard.pairs_done,
        loads: 0,
        remote_fetches: 0,
        io_bytes: 0,
        net_bytes: 0,
        steals: drv.steals,
        windows: drv.windows,
        busy_preprocess: 0.0,
        busy_compare: 0.0,
        busy_h2d: 0.0,
        busy_d2h: 0.0,
        busy_cpu: 0.0,
        busy_io: ns_to_secs(drv.storage.busy_ns()),
        device_cache: CacheStats::default(),
        host_cache: CacheStats::default(),
        directory: DirectoryStats::default(),
        pairs_per_node: Vec::with_capacity(shard.nodes.len()),
        completions: shard.completions,
    };
    let mut makespan_ns: SimTime = 0;
    for node in &shard.nodes {
        makespan_ns = makespan_ns.max(node.makespan_ns);
        r.loads += node.loads;
        r.remote_fetches += node.remote_fetches;
        r.io_bytes += node.io_bytes;
        r.net_bytes += node.net_bytes;
        r.pairs_per_node.push(node.pairs_done);
        r.busy_cpu += ns_to_secs(node.cpu.busy_ns());
        r.host_cache.merge(&node.host_cache.stats());
        r.directory.merge(node.directory.stats());
        for gpu in &node.gpus {
            r.busy_preprocess += ns_to_secs(gpu.pre_busy_ns);
            r.busy_compare += ns_to_secs(gpu.cmp_busy_ns);
            r.busy_h2d += ns_to_secs(gpu.h2d.busy_ns());
            r.busy_d2h += ns_to_secs(gpu.d2h.busy_ns());
            r.device_cache.merge(&gpu.cache.stats());
        }
    }
    r.makespan = ns_to_secs(makespan_ns);
    // Node-side records first, then boundary-side ones.
    if let Some(mut records) = shard.perf {
        records.extend(drv.perf.into_iter().flatten());
        ctx.cfg.perf.extend(records);
    }
    r
}

// ---- event handlers ----------------------------------------------------
//
// Every schedule draws a keyed priority from the target node's monotonic
// sequence; storage requests and steals wait for the boundary schedule in
// the module docs instead of acting inline.

impl<Q: EventQueue<Ev>> ShardState<Q> {
    /// Draws the next event priority for global node `g`: unique across
    /// the whole run, ordered by `(node, draw index)` within a timestamp.
    #[inline]
    fn next_prio(&mut self, g: usize) -> u64 {
        let slot = &mut self.seqs[g];
        let seq = *slot;
        *slot += 1;
        debug_assert!(seq < 1 << PRIO_SEQ_BITS, "per-node event seq overflow");
        ((g as u64) << PRIO_SEQ_BITS) | seq
    }

    /// Pushes every open row cursor back onto its owner's deque (at the
    /// tail, where the one-block-per-pair scheme would have left it).
    /// Called before steal snapshots; the owner simply pops it back off
    /// on its next pull, so consumption order is unaffected.
    fn normalize_cursors(&mut self) {
        for node in &mut self.nodes {
            if let Some(row) = node.cursor.take() {
                node.deque.push(row);
            }
        }
    }

    /// Appends a perf record when instrumentation is on — one branch, no
    /// allocation, when it is off.
    #[inline]
    fn perf(&mut self, t_ns: SimTime, kind: PerfKind, node: usize, value: u64) {
        if let Some(buf) = &mut self.perf {
            buf.push(PerfRecord {
                t_ns,
                kind,
                node: node as u32,
                value,
            });
        }
    }

    #[inline]
    fn set_hungry(&mut self, g: usize, flag: bool) {
        let now = self.queue.now();
        let node = &mut self.nodes[g];
        if node.hungry != flag {
            node.hungry = flag;
            if flag {
                node.hungry_since = now;
                self.hungry_count += 1;
            } else {
                self.hungry_count -= 1;
            }
        }
    }

    fn handle(&mut self, ctx: &Ctx, ev: Ev) {
        let idx = match &ev {
            Ev::Pull { .. } => 0,
            Ev::IoDone { .. } => 1,
            Ev::ParseDone { .. } => 2,
            Ev::StagingDone { .. } => 3,
            Ev::PreprocessDone { .. } => 4,
            Ev::WritebackDone { .. } => 5,
            Ev::FillCopyDone { .. } => 6,
            Ev::CompareDone { .. } => 7,
            Ev::ResultDone { .. } => 8,
            Ev::PostDone { .. } => 9,
            Ev::Net { .. } => 10,
        };
        self.ev_counts[idx] += 1;
        match ev {
            Ev::Pull { node } => self.pull_work(ctx, node),
            Ev::IoDone { node, item } => self.on_io_done(ctx, node, item),
            Ev::ParseDone { node, item } => self.on_parse_done(ctx, node, item),
            Ev::StagingDone { node, gpu, item } => self.schedule_preprocess(ctx, node, gpu, item),
            Ev::PreprocessDone { node, gpu, item } => self.on_preprocess_done(ctx, node, gpu, item),
            Ev::WritebackDone { node, item } => self.publish_host(ctx, node, item),
            Ev::FillCopyDone { node, gpu, item } => self.on_fill_copy_done(ctx, node, gpu, item),
            Ev::CompareDone { node, job } => self.on_compare_done(ctx, node, job),
            Ev::ResultDone { node, job } => self.on_result_done(ctx, node, job),
            Ev::PostDone { node, job } => self.on_post_done(ctx, node, job),
            Ev::Net { to, from, msg } => self.on_net(ctx, to, from, msg),
        }
    }

    // ---- work acquisition ------------------------------------------------

    /// Per-GPU in-flight cap: each job pins up to two device slots, so
    /// keeping jobs ≤ slots/2 per GPU guarantees every in-flight job's
    /// leases fit simultaneously — the counting argument that makes the
    /// pipeline deadlock- and livelock-free even for tiny caches.
    fn gpu_cap(&self, node: usize, gpu: usize) -> usize {
        (self.nodes[node].gpus[gpu].cache.capacity() / 2).max(1)
    }

    #[inline]
    fn has_gpu_slack(&self, node: usize) -> bool {
        (0..self.nodes[node].gpus.len())
            .any(|g| self.nodes[node].gpus[g].in_flight < self.gpu_cap(node, g))
    }

    fn pull_work(&mut self, ctx: &Ctx, node: usize) {
        loop {
            if self.nodes[node].jobs_in_flight >= ctx.cfg.job_limit || !self.has_gpu_slack(node) {
                // Capacity-limited, not starved: job completions re-pull.
                self.set_hungry(node, false);
                return;
            }
            if let Some(pair) = self.next_pair(ctx, node) {
                self.start_job(ctx, node, pair);
            } else {
                // Out of reachable work: flag for the next window-boundary
                // steal match.
                self.set_hungry(node, true);
                return;
            }
        }
    }

    #[inline]
    fn next_pair(&mut self, ctx: &Ctx, node: usize) -> Option<Pair> {
        // Stream from the open row first: the cursor is exactly the
        // rest-of-row block the one-block-per-pair scheme would have
        // pushed to (and immediately popped back off) the deque tail, so
        // consumption order is unchanged while each pair costs an
        // increment instead of deque traffic. `normalize_cursors` pushes
        // the remnant back before any steal snapshot reads the deques.
        if let Some(row) = self.nodes[node].cursor.as_mut() {
            let pair = Pair {
                left: row.row_lo,
                right: row.col_lo,
            };
            row.col_lo += 1;
            if row.col_lo == row.col_hi {
                self.nodes[node].cursor = None;
                self.work_blocks -= 1;
            }
            return Some(pair);
        }
        loop {
            // Depth-first descent into the quadrant tree. No inline
            // stealing: hungry nodes wait for the deterministic boundary
            // match (`steal_match`).
            let block = self.nodes[node].deque.pop()?;
            self.work_blocks -= 1;
            if block.count() <= ctx.cfg.leaf_pairs {
                // Take the first pair (row-major, matching `Block::pairs`),
                // push the rows below back as a block, and keep the rest of
                // the current row as the owner's cursor — row-major order
                // for the owner while the un-started tail of the leaf
                // remains stealable at window boundaries (a straggler's
                // backlog can still migrate instead of being locked in).
                let pair = block.pairs().next().expect("queued blocks are non-empty");
                let below = Block {
                    row_lo: pair.left + 1,
                    ..block
                };
                if below.count() > 0 {
                    self.nodes[node].deque.push(below);
                    self.work_blocks += 1;
                }
                let row = Block {
                    row_lo: pair.left,
                    row_hi: pair.left + 1,
                    col_lo: pair.right + 1,
                    col_hi: block.col_hi,
                };
                if row.count() > 0 {
                    self.nodes[node].cursor = Some(row);
                    self.work_blocks += 1;
                }
                return Some(pair);
            }
            for child in block.split() {
                self.nodes[node].deque.push(child);
                self.work_blocks += 1;
            }
        }
    }

    fn start_job(&mut self, ctx: &Ctx, node: usize, pair: Pair) {
        self.pairs_started += 1;
        // Bind to the least-loaded GPU of the node (per-GPU workers) that
        // still has lease headroom.
        let gpu = (0..self.nodes[node].gpus.len())
            .filter(|&g| self.nodes[node].gpus[g].in_flight < self.gpu_cap(node, g))
            .min_by_key(|&g| self.nodes[node].gpus[g].in_flight)
            .expect("caller checked gpu slack");
        self.nodes[node].gpus[gpu].in_flight += 1;
        self.nodes[node].jobs_in_flight += 1;
        let id = self.nodes[node].alloc_job(SimJob {
            pair,
            gpu,
            left: None,
            right: None,
            stalled: None,
            comparing: false,
        });
        self.try_acquire(ctx, node, id);
    }

    // ---- job lease acquisition (mirrors the threaded conductor) ----------

    fn try_acquire(&mut self, ctx: &Ctx, node: usize, id: u64) {
        let Some(job) = self.nodes[node].job(id) else {
            return;
        };
        if job.comparing {
            return;
        }
        let (pair, gpu, stalled) = (job.pair, job.gpu, job.stalled);
        // Acquire the previously stalled item first (see `SimJob::stalled`).
        let mut order = [(0usize, pair.left), (1usize, pair.right)];
        if stalled == Some(pair.right) {
            order.swap(0, 1);
        }
        for (which, item) in order {
            let held = {
                let job = self.nodes[node].job(id).expect("job");
                if which == 0 {
                    job.left
                } else {
                    job.right
                }
            };
            if held.is_some() {
                continue;
            }
            match self.nodes[node].gpus[gpu].cache.get(item, || Tok::Job(id)) {
                Lookup::Hit(slot) => {
                    let job = self.nodes[node].job_mut(id).expect("job");
                    if which == 0 {
                        job.left = Some(slot);
                    } else {
                        job.right = Some(slot);
                    }
                    let now = self.queue.now();
                    self.perf(now, PerfKind::DevHit, node, item);
                }
                Lookup::Pending => return,
                Lookup::MustLoad(slot) => {
                    let now = self.queue.now();
                    self.perf(now, PerfKind::DevMiss, node, item);
                    let fill = &mut self.nodes[node].gpus[gpu].fills[item as usize];
                    fill.dev_slot = Some(slot);
                    fill.waiters.push(Tok::Job(id));
                    self.continue_dev_fill(ctx, node, gpu, item);
                    return;
                }
                Lookup::Busy => {
                    self.nodes[node].job_mut(id).expect("job").stalled = Some(item);
                    self.release_leases(node, id);
                    return;
                }
            }
        }
        let job = self.nodes[node].job_mut(id).expect("job");
        job.stalled = None;
        job.comparing = true;
        self.schedule_compare(ctx, node, id);
    }

    fn release_leases(&mut self, node: usize, id: u64) {
        let Some(job) = self.nodes[node].job_mut(id) else {
            return;
        };
        let gpu = job.gpu;
        let leases = [job.left.take(), job.right.take()];
        for slot in leases.into_iter().flatten() {
            if let Some(tok) = self.nodes[node].gpus[gpu].cache.release(slot) {
                self.wake(node, tok);
            }
        }
    }

    /// Queues a wake-up. Wakes are drained iteratively after each event:
    /// recursion here would overflow the stack on long waiter chains.
    #[inline]
    fn wake(&mut self, node: usize, tok: Tok) {
        self.wakes.push_back((node, tok));
    }

    #[inline]
    fn drain_wakes(&mut self, ctx: &Ctx) {
        while let Some((node, tok)) = self.wakes.pop_front() {
            match tok {
                Tok::Job(id) => self.try_acquire(ctx, node, id),
                Tok::DevFill { gpu, item } => self.continue_dev_fill(ctx, node, gpu, item),
            }
        }
    }

    // ---- compare / result / post -----------------------------------------

    fn schedule_compare(&mut self, ctx: &Ctx, node: usize, id: u64) {
        let gpu = self.nodes[node].job(id).expect("job").gpu;
        let base = sample_ns(&mut self.nodes[node].rng, &ctx.stages.compare);
        let now = self.queue.now();
        let g = &mut self.nodes[node].gpus[gpu];
        let dur = (base as f64 / g.rates.compute_scale) as u64;
        let done = g.compute.submit(now, dur);
        g.cmp_busy_ns += dur;
        let p = self.next_prio(node);
        self.queue
            .schedule_keyed(done, p, Ev::CompareDone { node, job: id });
        self.perf(done, PerfKind::Compare, node, dur);
    }

    fn on_compare_done(&mut self, ctx: &Ctx, node: usize, id: u64) {
        // Leases can be dropped as soon as the kernel finishes.
        self.release_leases(node, id);
        let gpu = self.nodes[node].job(id).expect("job").gpu;
        let now = self.queue.now();
        let g = &mut self.nodes[node].gpus[gpu];
        let dur = transfer_ns(
            ctx.cfg.workload.item_bytes.min(1024),
            g.rates.d2h_bytes_per_sec,
        );
        let done = g.d2h.submit(now, dur);
        let p = self.next_prio(node);
        self.queue
            .schedule_keyed(done, p, Ev::ResultDone { node, job: id });
        self.perf(done, PerfKind::CopyOut, node, dur);
    }

    fn on_result_done(&mut self, ctx: &Ctx, node: usize, id: u64) {
        let dur = sample_ns(&mut self.nodes[node].rng, &ctx.stages.postprocess);
        let now = self.queue.now();
        let done = self.nodes[node].cpu.submit(now, dur);
        let p = self.next_prio(node);
        self.queue
            .schedule_keyed(done, p, Ev::PostDone { node, job: id });
        self.perf(done, PerfKind::Postprocess, node, dur);
    }

    fn on_post_done(&mut self, ctx: &Ctx, node: usize, id: u64) {
        let job = self.nodes[node].free_job(id);
        self.nodes[node].gpus[job.gpu].in_flight -= 1;
        self.nodes[node].jobs_in_flight -= 1;
        self.nodes[node].pairs_done += 1;
        self.pairs_done += 1;
        let now = self.queue.now();
        self.nodes[node].makespan_ns = self.nodes[node].makespan_ns.max(now);
        if let Some(series) = &mut self.completions {
            let gid = ctx.gpu_gid_base[node] + job.gpu;
            series.record(gid as u32, now);
        }
        self.pull_work(ctx, node);
    }

    // ---- device fill ------------------------------------------------------

    fn continue_dev_fill(&mut self, ctx: &Ctx, node: usize, gpu: usize, item: u64) {
        let fill = &self.nodes[node].gpus[gpu].fills[item as usize];
        if fill.dev_slot.is_none() {
            return;
        }
        // An H2D copy is already filling this slot: a second wake (e.g. a
        // parked token plus the origin-continuation of `publish_host`)
        // must not take a second host lease.
        if fill.h2d_lease.is_some() {
            return;
        }
        match self.nodes[node]
            .host_cache
            .get(item, || Tok::DevFill { gpu, item })
        {
            Lookup::Hit(hslot) => {
                let now = self.queue.now();
                let g = &mut self.nodes[node].gpus[gpu];
                g.fills[item as usize].h2d_lease = Some(hslot);
                let dur = transfer_ns(ctx.cfg.workload.item_bytes, g.rates.h2d_bytes_per_sec);
                let done = g.h2d.submit(now, dur);
                let p = self.next_prio(node);
                self.queue
                    .schedule_keyed(done, p, Ev::FillCopyDone { node, gpu, item });
                self.perf(now, PerfKind::HostHit, node, item);
                self.perf(done, PerfKind::CopyIn, node, dur);
            }
            Lookup::Pending | Lookup::Busy => {}
            Lookup::MustLoad(hslot) => {
                let now = self.queue.now();
                self.perf(now, PerfKind::HostMiss, node, item);
                self.nodes[node].host_fill[item as usize] = Some(HostFill {
                    origin_gpu: gpu as u32,
                    slot: hslot,
                });
                if ctx.cfg.distributed_cache && self.nodes.len() > 1 {
                    let (to, msg) = self.nodes[node].directory.begin_lookup(item);
                    self.send(ctx, node, to, Msg::Dir(msg));
                    self.perf(now, PerfKind::Probe, node, item);
                } else {
                    self.request_load(ctx, node, item);
                }
            }
        }
    }

    fn on_fill_copy_done(&mut self, ctx: &Ctx, node: usize, gpu: usize, item: u64) {
        if let Some(hslot) = self.nodes[node].gpus[gpu].fills[item as usize]
            .h2d_lease
            .take()
        {
            if let Some(tok) = self.nodes[node].host_cache.release(hslot) {
                self.wake(node, tok);
            }
        }
        let _ = ctx;
        self.complete_dev_fill(node, gpu, item);
    }

    fn complete_dev_fill(&mut self, node: usize, gpu: usize, item: u64) {
        let fill = &mut self.nodes[node].gpus[gpu].fills[item as usize];
        let Some(dslot) = fill.dev_slot.take() else {
            return;
        };
        let ws = std::mem::take(&mut fill.waiters);
        let waiters = self.nodes[node].gpus[gpu].cache.publish(dslot);
        for w in waiters {
            self.wake(node, w);
        }
        for w in ws {
            self.wake(node, w);
        }
        // The published slot is evictable until a reader takes it: that is
        // fresh capacity, so a parked capacity waiter must get a retry.
        if let Some(w) = self.nodes[node].gpus[gpu].cache.pop_capacity_waiter() {
            self.wake(node, w);
        }
    }

    // ---- host fill / load pipeline ----------------------------------------

    /// Defers a storage load. The request is priced (`io_bytes`) here but
    /// submitted to the shared storage engine only once virtual time moves
    /// past it, in `(time, prio)` order (see `flush_loads`).
    fn request_load(&mut self, ctx: &Ctx, node: usize, item: u64) {
        self.nodes[node].io_bytes += ctx.cfg.workload.file_bytes;
        let now = self.queue.now();
        let p = self.next_prio(node);
        self.load_reqs.push((now, p, node, item));
    }

    fn on_io_done(&mut self, ctx: &Ctx, node: usize, item: u64) {
        let dur = sample_ns(&mut self.nodes[node].rng, &ctx.stages.parse);
        let now = self.queue.now();
        let done = self.nodes[node].cpu.submit(now, dur);
        let p = self.next_prio(node);
        self.queue
            .schedule_keyed(done, p, Ev::ParseDone { node, item });
        self.perf(done, PerfKind::Parse, node, dur);
    }

    fn on_parse_done(&mut self, ctx: &Ctx, node: usize, item: u64) {
        let Some(fill) = self.nodes[node].host_fill[item as usize] else {
            return;
        };
        let gpu = fill.origin_gpu as usize;
        if ctx.stages.preprocess.is_some() {
            // Stage parsed bytes to the device, pre-process there, write the
            // item back to the host slot (Fig 4's ℓ path).
            let now = self.queue.now();
            let g = &mut self.nodes[node].gpus[gpu];
            let dur = transfer_ns(ctx.cfg.workload.item_bytes, g.rates.h2d_bytes_per_sec);
            let done = g.h2d.submit(now, dur);
            let p = self.next_prio(node);
            self.queue
                .schedule_keyed(done, p, Ev::StagingDone { node, gpu, item });
            self.perf(done, PerfKind::CopyIn, node, dur);
        } else {
            // No GPU pre-processing: the parsed bytes are the item.
            self.nodes[node].loads += 1;
            self.publish_host(ctx, node, item);
        }
    }

    fn schedule_preprocess(&mut self, ctx: &Ctx, node: usize, gpu: usize, item: u64) {
        let base = sample_ns(
            &mut self.nodes[node].rng,
            ctx.stages.preprocess.as_ref().expect("preprocess stage"),
        );
        let now = self.queue.now();
        let g = &mut self.nodes[node].gpus[gpu];
        let dur = (base as f64 / g.rates.compute_scale) as u64;
        let done = g.compute.submit(now, dur);
        g.pre_busy_ns += dur;
        let p = self.next_prio(node);
        self.queue
            .schedule_keyed(done, p, Ev::PreprocessDone { node, gpu, item });
        self.perf(done, PerfKind::Preprocess, node, dur);
    }

    fn on_preprocess_done(&mut self, ctx: &Ctx, node: usize, gpu: usize, item: u64) {
        self.nodes[node].loads += 1;
        // Publish the device slot first (jobs can compare immediately), then
        // write back to the host slot.
        self.complete_dev_fill(node, gpu, item);
        let now = self.queue.now();
        let g = &mut self.nodes[node].gpus[gpu];
        let dur = transfer_ns(ctx.cfg.workload.item_bytes, g.rates.d2h_bytes_per_sec);
        let done = g.d2h.submit(now, dur);
        let p = self.next_prio(node);
        self.queue
            .schedule_keyed(done, p, Ev::WritebackDone { node, item });
        self.perf(done, PerfKind::CopyOut, node, dur);
    }

    fn publish_host(&mut self, ctx: &Ctx, node: usize, item: u64) {
        let Some(fill) = self.nodes[node].host_fill[item as usize].take() else {
            return;
        };
        let origin_gpu = fill.origin_gpu as usize;
        let waiters = self.nodes[node].host_cache.publish(fill.slot);
        for w in waiters {
            self.wake(node, w);
        }
        // Fresh capacity (see complete_dev_fill): retry one parked waiter.
        if let Some(w) = self.nodes[node].host_cache.pop_capacity_waiter() {
            self.wake(node, w);
        }
        if self.nodes[node].gpus[origin_gpu].fills[item as usize]
            .dev_slot
            .is_some()
        {
            self.continue_dev_fill(ctx, node, origin_gpu, item);
        }
    }

    // ---- distributed cache ------------------------------------------------

    /// Schedules a message from `from` to `to`, arriving at absolute time
    /// `at`, under a priority drawn from the *sender's* sequence.
    #[inline]
    fn route_at(&mut self, at: SimTime, from: usize, to: usize, msg: Msg) {
        let p = self.next_prio(from);
        self.queue.schedule_keyed(at, p, Ev::Net { to, from, msg });
    }

    #[inline]
    fn send(&mut self, ctx: &Ctx, from: usize, to: usize, msg: Msg) {
        let at = self.queue.now() + ctx.net_lat_ns;
        self.route_at(at, from, to, msg);
    }

    fn on_net(&mut self, ctx: &Ctx, to: usize, from: usize, msg: Msg) {
        match msg {
            Msg::Dir(dir_msg) => {
                let lookup_item = match &dir_msg {
                    DirectoryMsg::Found { item, .. } | DirectoryMsg::NotFound { item } => {
                        Some(*item)
                    }
                    _ => None,
                };
                let node = &mut self.nodes[to];
                let host_cache = &node.host_cache;
                let (outgoing, resolution) = node
                    .directory
                    .handle(dir_msg, |i| host_cache.contains_ready(i));
                for (peer, m) in outgoing {
                    self.send(ctx, to, peer, Msg::Dir(m));
                }
                match resolution {
                    Resolution::InFlight => {}
                    Resolution::Found { holder, .. } => {
                        let item = lookup_item.expect("found carries item");
                        let now = self.queue.now();
                        self.perf(now, PerfKind::ProbeHit, to, item);
                        if self.nodes[to].host_fill[item as usize].is_some() {
                            self.send(
                                ctx,
                                to,
                                holder,
                                Msg::Fetch {
                                    item,
                                    requester: to,
                                },
                            );
                        }
                    }
                    Resolution::LoadLocally => {
                        let item = lookup_item.expect("not-found carries item");
                        let now = self.queue.now();
                        self.perf(now, PerfKind::ProbeMiss, to, item);
                        if self.nodes[to].host_fill[item as usize].is_some() {
                            self.request_load(ctx, to, item);
                        }
                    }
                }
            }
            Msg::Fetch { item, requester } => {
                // Serve from the host cache if still resident; transfer
                // occupies this node's NIC.
                let served = self.nodes[to].host_cache.try_read(item);
                match served {
                    Some(hslot) => {
                        if let Some(tok) = self.nodes[to].host_cache.release(hslot) {
                            self.wake(to, tok);
                        }
                        let bytes = ctx.cfg.workload.item_bytes;
                        self.nodes[to].net_bytes += bytes;
                        let dur = secs_to_ns(bytes as f64 / ctx.cfg.net_bandwidth);
                        let now = self.queue.now();
                        let done = self.nodes[to].nic.submit(now, dur) + ctx.net_lat_ns;
                        self.route_at(done, to, requester, Msg::FetchReply { item, ok: true });
                    }
                    None => {
                        self.send(ctx, to, requester, Msg::FetchReply { item, ok: false });
                    }
                }
            }
            Msg::FetchReply { item, ok } => {
                let _ = from;
                if self.nodes[to].host_fill[item as usize].is_none() {
                    return;
                }
                if ok {
                    self.nodes[to].remote_fetches += 1;
                    self.publish_host(ctx, to, item);
                } else {
                    self.request_load(ctx, to, item);
                }
            }
        }
    }

    /// Debug-build cross-check: every device-cache read lease is owned by
    /// exactly one job lease, every host lease by one in-flight H2D copy.
    #[cfg(debug_assertions)]
    fn validate(&self) {
        for (ni, node) in self.nodes.iter().enumerate() {
            let mut dev_readers: Vec<Vec<u32>> = node
                .gpus
                .iter()
                .map(|g| vec![0u32; g.cache.capacity()])
                .collect();
            for job in node.jobs.iter().flatten() {
                for slot in [job.left, job.right].into_iter().flatten() {
                    dev_readers[job.gpu][slot] += 1;
                }
            }
            for (g, gpu) in node.gpus.iter().enumerate() {
                for (slot, &expected) in dev_readers[g].iter().enumerate() {
                    assert_eq!(
                        gpu.cache.readers(slot),
                        expected,
                        "node {ni} gpu {g} slot {slot}: reader-count leak"
                    );
                }
                gpu.cache
                    .check_invariants()
                    .expect("device cache invariants");
            }
            let mut host_readers = vec![0u32; node.host_cache.capacity()];
            for gpu in &node.gpus {
                for hslot in gpu.fills.iter().filter_map(|f| f.h2d_lease) {
                    host_readers[hslot] += 1;
                }
            }
            for (slot, &expected) in host_readers.iter().enumerate() {
                assert_eq!(
                    node.host_cache.readers(slot),
                    expected,
                    "node {ni} host slot {slot}: reader-count leak"
                );
            }
            node.host_cache
                .check_invariants()
                .expect("host cache invariants");
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SimNodeConfig;
    use rocket_core::WorkloadProfile;
    use rocket_stats::Dist;

    fn toy_config(items: u64, nodes: usize, slots: usize) -> SimConfig {
        let workload = WorkloadProfile {
            name: "toy",
            items,
            file_bytes: 1_000_000,
            item_bytes: 10_000_000,
            parse: Dist::Constant(10e-3),
            preprocess: Some(Dist::Constant(5e-3)),
            compare: Dist::Constant(1e-3),
            postprocess: Dist::Constant(0.0),
            paper_device_slots: 8,
            paper_host_slots: 16,
        };
        let node = SimNodeConfig::uniform(1, slots, slots * 2);
        SimConfig::cluster(workload, vec![node; nodes])
    }

    #[test]
    fn window_width_respects_both_lookahead_channels() {
        let cfg = toy_config(4, 2, 4);
        let ctx = build_ctx(&cfg);
        let net = secs_to_ns(cfg.net_latency);
        let storage = secs_to_ns(cfg.workload.file_bytes as f64 / cfg.storage_bandwidth)
            + secs_to_ns(cfg.storage_latency);
        assert_eq!(ctx.window_ns, net.min(storage).max(1));
        // A storage-latency-free config must shrink the window to the
        // storage floor, not trust net_latency alone.
        let mut fast_storage = toy_config(4, 2, 4);
        fast_storage.storage_latency = 0.0;
        fast_storage.storage_bandwidth = 1e15;
        let ctx2 = build_ctx(&fast_storage);
        assert!(ctx2.window_ns <= secs_to_ns(1e-9).max(1) || ctx2.window_ns < net);
    }
}
