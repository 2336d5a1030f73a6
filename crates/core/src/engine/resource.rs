//! Resource threads (§4.3).
//!
//! Rocket launches one thread (or pool) per resource type so that tasks on
//! different resources never contend: CPU pool, one kernel-launch thread
//! per GPU, one H2D and one D2H copy thread per GPU, and one I/O thread.
//! Each thread executes closures sent by the conductor and posts the
//! resulting event back; trace spans are recorded around every task.

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use rocket_trace::{TaskKind, ThreadClass, TraceRecorder};

/// A task executed on a resource thread, yielding an event for the
/// conductor (or `None` for fire-and-forget tasks).
pub(crate) type Task<E> = Box<dyn FnOnce() -> Option<E> + Send>;

enum TaskMsg<E> {
    Run {
        kind: TaskKind,
        tag: u64,
        task: Task<E>,
    },
    Stop,
}

/// Handle to one resource (a thread or a pool sharing a queue).
pub(crate) struct Resource<E> {
    tx: Sender<TaskMsg<E>>,
    threads: Vec<JoinHandle<()>>,
}

impl<E: Send + 'static> Resource<E> {
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
                std::thread::Builder::new()
                    .name(format!("rocket-{name}-{i}"))
                    .spawn(move || {
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                TaskMsg::Run { kind, tag, task } => {
                                    let event = recorder.scope(class, lane, kind, tag, task);
                                    if let Some(e) = event {
                                        // The conductor may already be gone
                                        // during shutdown; dropping the
                                        // event is fine then.
                                        let _ = events.send(e);
                                    }
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
        }
    }

    /// Queues a task.
    pub fn submit(&self, kind: TaskKind, tag: u64, task: Task<E>) {
        self.tx
            .send(TaskMsg::Run { kind, tag, task })
            .expect("resource thread gone");
    }

    /// Stops all workers and joins them.
    pub fn shutdown(self) {
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

    #[test]
    fn executes_tasks_and_posts_events() {
        let (etx, erx) = unbounded::<u32>();
        let rec = TraceRecorder::shared();
        let r = Resource::spawn("test", ThreadClass::Cpu, 0, 1, etx, Arc::clone(&rec));
        for i in 0..5u32 {
            r.submit(TaskKind::Parse, i as u64, Box::new(move || Some(i * 2)));
        }
        let mut got: Vec<u32> = (0..5).map(|_| erx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
        r.shutdown();
        assert_eq!(rec.len(), 5);
    }

    #[test]
    fn pool_shares_queue() {
        let (etx, erx) = unbounded::<()>();
        let rec = TraceRecorder::disabled();
        let seen = Arc::new(AtomicU32::new(0));
        let r = Resource::spawn("pool", ThreadClass::Cpu, 0, 3, etx, rec);
        for _ in 0..30 {
            let seen = Arc::clone(&seen);
            r.submit(
                TaskKind::Parse,
                0,
                Box::new(move || {
                    seen.fetch_add(1, Ordering::Relaxed);
                    Some(())
                }),
            );
        }
        for _ in 0..30 {
            erx.recv().unwrap();
        }
        assert_eq!(seen.load(Ordering::Relaxed), 30);
        r.shutdown();
    }

    #[test]
    fn fire_and_forget_tasks() {
        let (etx, erx) = unbounded::<u8>();
        let r = Resource::spawn("ff", ThreadClass::Io, 0, 1, etx, TraceRecorder::disabled());
        r.submit(TaskKind::Read, 0, Box::new(|| None));
        r.submit(TaskKind::Read, 0, Box::new(|| Some(1)));
        assert_eq!(erx.recv().unwrap(), 1);
        r.shutdown();
        assert!(erx.try_recv().is_err());
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let (etx, _erx) = unbounded::<()>();
        let r = Resource::<()>::spawn("s", ThreadClass::Gpu, 2, 2, etx, TraceRecorder::disabled());
        r.shutdown();
    }

    #[test]
    fn pool_workers_record_on_their_own_lanes() {
        let (etx, erx) = unbounded::<()>();
        let rec = TraceRecorder::shared();
        let r = Resource::spawn("lanes", ThreadClass::Cpu, 2, 2, etx, Arc::clone(&rec));
        // Each task waits for the other, so the two run at once, one per
        // worker.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            r.submit(
                TaskKind::Compare,
                0,
                Box::new(move || {
                    barrier.wait();
                    Some(())
                }),
            );
        }
        erx.recv().unwrap();
        erx.recv().unwrap();
        r.shutdown();
        let spans = rec.take();
        let mut lanes: Vec<u32> = spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        assert_eq!(lanes, vec![2, 3]);
        assert!(!rocket_trace::Timeline::new(spans).has_lane_overlap());
    }
}
