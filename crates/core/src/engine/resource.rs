//! Resource threads (§4.3).
//!
//! Rocket launches one thread (or pool) per resource type so that tasks on
//! different resources never contend: CPU pool, one kernel-launch thread
//! per GPU, one H2D and one D2H copy thread per GPU, and one I/O thread.
//! Each thread executes closures sent by the conductor and posts the
//! resulting events back; trace spans are recorded around every task, on
//! the lane of the worker that ran it.
//!
//! ## Two ways to hand over work
//!
//! - [`Resource::submit`] sends one task as its own message, and its event
//!   goes back the moment the task finishes. Fill stages (read, parse,
//!   upload, pre-process, write-back) use it: a finished fill must never
//!   wait behind other work, because jobs queue on it.
//! - [`Resource::defer`] only queues a task on the handle. The conductor
//!   calls [`Resource::flush`] once per burst of events, which sends all
//!   deferred tasks as one batch message (split into one chunk per pool
//!   worker, so a pool of k workers still runs k tasks at once). A worker
//!   runs its chunk in submission order and posts the chunk's events back
//!   as one message, built with `E::from(Vec<E>)`. The per-pair stages
//!   (compare, result copy, post-process) use it, so a burst of ready
//!   pairs costs one channel hop per resource instead of one per pair.

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use rocket_trace::{TaskKind, ThreadClass, TraceRecorder};

/// A task executed on a resource thread, yielding an event for the
/// conductor (or `None` for fire-and-forget tasks).
pub(crate) type Task<E> = Box<dyn FnOnce() -> Option<E> + Send>;

/// One queued task with the span it records.
struct Queued<E> {
    kind: TaskKind,
    tag: u64,
    task: Task<E>,
}

enum TaskMsg<E> {
    /// One task whose event is posted as soon as it finishes.
    Run(Queued<E>),
    /// Tasks run in order; their events are posted together at the end.
    Batch(Vec<Queued<E>>),
    Stop,
}

/// Handle to one resource (a thread or a pool sharing a queue).
pub(crate) struct Resource<E> {
    tx: Sender<TaskMsg<E>>,
    threads: Vec<JoinHandle<()>>,
    deferred: Vec<Queued<E>>,
}

impl<E: From<Vec<E>> + Send + 'static> Resource<E> {
    /// Spawns `threads` workers of `class` sharing one task queue. Worker
    /// `i` records its spans on lane `lane + i`, so a trace never shows two
    /// tasks of one pool running on the same lane at once. Completed events
    /// go to `events`.
    pub fn spawn(
        name: &str,
        class: ThreadClass,
        lane: u32,
        threads: usize,
        events: Sender<E>,
        recorder: Arc<TraceRecorder>,
    ) -> Self {
        assert!(threads >= 1);
        let (tx, rx): (Sender<TaskMsg<E>>, Receiver<TaskMsg<E>>) = unbounded();
        let handles = (0..threads)
            .map(|i| {
                let rx = rx.clone();
                let events = events.clone();
                let recorder = Arc::clone(&recorder);
                let lane = lane + i as u32;
                let run = move |q: Queued<E>| recorder.scope(class, lane, q.kind, q.tag, q.task);
                std::thread::Builder::new()
                    .name(format!("rocket-{name}-{i}"))
                    .spawn(move || {
                        // The conductor may already be gone during
                        // shutdown; dropping its events is fine then.
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                TaskMsg::Run(q) => {
                                    if let Some(e) = run(q) {
                                        let _ = events.send(e);
                                    }
                                }
                                TaskMsg::Batch(batch) => {
                                    let mut done: Vec<E> =
                                        batch.into_iter().filter_map(&run).collect();
                                    let _ = match done.len() {
                                        0 => Ok(()),
                                        1 => events.send(done.pop().expect("one event")),
                                        _ => events.send(E::from(done)),
                                    };
                                }
                                TaskMsg::Stop => break,
                            }
                        }
                    })
                    .expect("failed to spawn resource thread")
            })
            .collect();
        Self {
            tx,
            threads: handles,
            deferred: Vec::new(),
        }
    }

    /// Sends one task now; its event is posted as soon as it finishes.
    pub fn submit(&self, kind: TaskKind, tag: u64, task: Task<E>) {
        self.send(TaskMsg::Run(Queued { kind, tag, task }));
    }

    /// Queues a task for the next [`Resource::flush`].
    pub fn defer(&mut self, kind: TaskKind, tag: u64, task: Task<E>) {
        self.deferred.push(Queued { kind, tag, task });
    }

    /// Sends every deferred task: one batch message per pool worker (at
    /// most), each holding a contiguous run of tasks in submission order.
    pub fn flush(&mut self) {
        if self.deferred.is_empty() {
            return;
        }
        let chunk = self.deferred.len().div_ceil(self.threads.len());
        let mut rest = std::mem::take(&mut self.deferred);
        while rest.len() > chunk {
            let tail = rest.split_off(chunk);
            self.send(TaskMsg::Batch(rest));
            rest = tail;
        }
        self.send(TaskMsg::Batch(rest));
    }

    fn send(&self, msg: TaskMsg<E>) {
        self.tx.send(msg).expect("resource thread gone");
    }

    /// Stops all workers and joins them.
    pub fn shutdown(mut self) {
        self.flush();
        for _ in 0..self.threads.len() {
            let _ = self.tx.send(TaskMsg::Stop);
        }
        for h in self.threads {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A test event: one value, or a batch's values in the order run.
    #[derive(Debug, PartialEq)]
    enum Ev {
        One(u32),
        Many(Vec<Ev>),
    }

    impl From<Vec<Ev>> for Ev {
        fn from(events: Vec<Ev>) -> Self {
            Ev::Many(events)
        }
    }

    impl Ev {
        fn values(self) -> Vec<u32> {
            match self {
                Ev::One(v) => vec![v],
                Ev::Many(events) => events.into_iter().flat_map(Ev::values).collect(),
            }
        }
    }

    /// Receives events until `n` values have arrived; returns them in
    /// arrival order.
    fn collect(erx: &Receiver<Ev>, n: usize) -> Vec<u32> {
        let mut got = Vec::new();
        while got.len() < n {
            got.extend(erx.recv().unwrap().values());
        }
        got
    }

    #[test]
    fn executes_tasks_and_posts_events() {
        let (etx, erx) = unbounded::<Ev>();
        let rec = TraceRecorder::shared();
        let r = Resource::spawn("test", ThreadClass::Cpu, 0, 1, etx, Arc::clone(&rec));
        for i in 0..5u32 {
            r.submit(
                TaskKind::Parse,
                i as u64,
                Box::new(move || Some(Ev::One(i * 2))),
            );
        }
        let mut got = collect(&erx, 5);
        got.sort_unstable();
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
        r.shutdown();
        assert_eq!(rec.len(), 5);
    }

    #[test]
    fn pool_shares_queue() {
        let (etx, erx) = unbounded::<Ev>();
        let rec = TraceRecorder::disabled();
        let seen = Arc::new(AtomicU32::new(0));
        let mut r = Resource::spawn("pool", ThreadClass::Cpu, 0, 3, etx, rec);
        for i in 0..30 {
            let seen = Arc::clone(&seen);
            let task: Task<Ev> = Box::new(move || {
                seen.fetch_add(1, Ordering::Relaxed);
                Some(Ev::One(0))
            });
            // Half the tasks go one by one, half as a batch.
            if i % 2 == 0 {
                r.submit(TaskKind::Parse, 0, task);
            } else {
                r.defer(TaskKind::Postprocess, 0, task);
            }
        }
        r.flush();
        assert_eq!(collect(&erx, 30).len(), 30);
        assert_eq!(seen.load(Ordering::Relaxed), 30);
        r.shutdown();
        assert!(erx.try_recv().is_err());
    }

    #[test]
    fn fire_and_forget_tasks() {
        let (etx, erx) = unbounded::<Ev>();
        let mut r = Resource::spawn("ff", ThreadClass::Io, 0, 1, etx, TraceRecorder::disabled());
        r.submit(TaskKind::Read, 0, Box::new(|| None));
        r.submit(TaskKind::Read, 0, Box::new(|| Some(Ev::One(1))));
        assert_eq!(erx.recv().unwrap(), Ev::One(1));
        // A batch of silent tasks posts nothing; one event travels alone.
        r.defer(TaskKind::Compare, 0, Box::new(|| None));
        r.defer(TaskKind::Compare, 0, Box::new(|| Some(Ev::One(2))));
        r.defer(TaskKind::Compare, 0, Box::new(|| None));
        r.flush();
        assert_eq!(erx.recv().unwrap(), Ev::One(2));
        r.shutdown();
        assert!(erx.try_recv().is_err());
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let (etx, _erx) = unbounded::<Ev>();
        let r = Resource::<Ev>::spawn("s", ThreadClass::Gpu, 2, 2, etx, TraceRecorder::disabled());
        r.shutdown();
    }

    #[test]
    fn shutdown_runs_deferred_tasks() {
        let (etx, erx) = unbounded::<Ev>();
        let mut r = Resource::spawn("d", ThreadClass::Gpu, 0, 1, etx, TraceRecorder::disabled());
        r.defer(TaskKind::Compare, 0, Box::new(|| Some(Ev::One(7))));
        r.shutdown();
        assert_eq!(erx.try_recv().unwrap(), Ev::One(7));
    }

    #[test]
    fn batch_runs_in_submission_order_with_one_span_per_task() {
        let (etx, erx) = unbounded::<Ev>();
        let rec = TraceRecorder::shared();
        let mut r = Resource::spawn("order", ThreadClass::Gpu, 4, 1, etx, Arc::clone(&rec));
        let order = Arc::new(rocket_sanitize::Mutex::named("order", Vec::new()));
        for i in 0..8u32 {
            let order = Arc::clone(&order);
            r.defer(
                TaskKind::Compare,
                i as u64,
                Box::new(move || {
                    order.lock().push(i);
                    Some(Ev::One(i))
                }),
            );
        }
        r.flush();
        // One message carries the whole batch, its events in run order.
        assert_eq!(erx.recv().unwrap(), Ev::Many((0..8).map(Ev::One).collect()));
        r.shutdown();
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
        let spans = rec.take();
        assert_eq!(spans.len(), 8);
        assert!(spans.iter().all(|s| s.lane == 4));
        let mut tags: Vec<u64> = spans.iter().map(|s| s.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..8).collect::<Vec<_>>());
        assert!(!rocket_trace::Timeline::new(spans).has_lane_overlap());
    }

    #[test]
    fn every_event_is_delivered_across_batches_and_singles() {
        let (etx, erx) = unbounded::<Ev>();
        let mut r = Resource::spawn(
            "all",
            ThreadClass::Cpu,
            0,
            2,
            etx,
            TraceRecorder::disabled(),
        );
        let mut want = Vec::new();
        for round in 0..20u32 {
            for k in 0..(round % 5) {
                let v = round * 100 + k;
                want.push(v);
                r.defer(TaskKind::Postprocess, 0, Box::new(move || Some(Ev::One(v))));
            }
            let v = round * 100 + 99;
            want.push(v);
            r.submit(TaskKind::Parse, 0, Box::new(move || Some(Ev::One(v))));
            r.flush();
        }
        let mut got = collect(&erx, want.len());
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        r.shutdown();
        assert!(erx.try_recv().is_err());
    }

    /// Submits two tasks that each wait for the other, so they can only
    /// meet if they run at once, one per worker; returns the spans. A task
    /// gives up after a few seconds, so a pool that runs them one after
    /// the other fails the test instead of hanging it.
    fn two_tasks_at_once(batched: bool) -> Vec<rocket_trace::Span> {
        let (etx, erx) = unbounded::<Ev>();
        let rec = TraceRecorder::shared();
        let mut r = Resource::spawn("lanes", ThreadClass::Cpu, 2, 2, etx, Arc::clone(&rec));
        let (a_tx, a_rx) = unbounded::<()>();
        let (b_tx, b_rx) = unbounded::<()>();
        for (arrive, other) in [(a_tx, b_rx), (b_tx, a_rx)] {
            let task: Task<Ev> = Box::new(move || {
                let _ = arrive.send(());
                let met = other.recv_timeout(std::time::Duration::from_secs(5));
                Some(Ev::One(met.is_ok() as u32))
            });
            if batched {
                r.defer(TaskKind::Compare, 0, task);
            } else {
                r.submit(TaskKind::Compare, 0, task);
            }
        }
        r.flush();
        assert_eq!(
            collect(&erx, 2),
            vec![1, 1],
            "the two tasks never ran at once"
        );
        r.shutdown();
        rec.take()
    }

    #[test]
    fn pool_workers_record_on_their_own_lanes() {
        let spans = two_tasks_at_once(false);
        let mut lanes: Vec<u32> = spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        assert_eq!(lanes, vec![2, 3]);
        assert!(!rocket_trace::Timeline::new(spans).has_lane_overlap());
    }

    #[test]
    fn pool_runs_two_batched_tasks_at_once() {
        let spans = two_tasks_at_once(true);
        let mut lanes: Vec<u32> = spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        assert_eq!(lanes, vec![2, 3]);
        assert!(!rocket_trace::Timeline::new(spans).has_lane_overlap());
    }
}
