//! The concurrent-job limit (§4.2's back-pressure mechanism).
//!
//! Rocket's runtime is asynchronous: submitting a job never blocks on the
//! job's completion. Without back-pressure one node could claim the whole
//! matrix while others idle, and unbounded in-flight jobs would exhaust
//! cache slots. The limiter is a counting semaphore: workers acquire one
//! permit per submitted job; completions release it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rocket_sanitize::{Condvar, Mutex};

/// Counting semaphore bounding concurrently in-flight jobs.
#[derive(Debug)]
pub struct JobLimiter {
    limit: usize,
    available: Mutex<usize>,
    cond: Condvar,
    peak_waits: AtomicU64,
}

impl JobLimiter {
    /// Creates a limiter with `limit` permits (`limit ≥ 1`).
    pub fn new(limit: usize) -> Self {
        assert!(limit >= 1, "concurrent job limit must be positive");
        Self {
            limit,
            available: Mutex::named("available", limit),
            cond: Condvar::new(),
            peak_waits: AtomicU64::new(0),
        }
    }

    /// The configured limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        *self.available.lock()
    }

    /// Acquires one permit, blocking while none are available.
    pub fn acquire(&self) {
        let mut avail = self.available.lock();
        if *avail == 0 {
            self.peak_waits.fetch_add(1, Ordering::Relaxed);
            // lint:allow(blocking) — the semaphore exists to block here;
            // the wait atomically releases `available` while parked.
            self.cond.wait_while(&mut avail, |a| *a == 0);
        }
        *avail -= 1;
    }

    /// Tries to acquire a permit within `timeout`; returns success.
    pub fn acquire_timeout(&self, timeout: Duration) -> bool {
        let mut avail = self.available.lock();
        if *avail == 0 {
            self.peak_waits.fetch_add(1, Ordering::Relaxed);
            // lint:allow(determinism) — wall-clock deadline for a blocking
            // acquire; back-pressure timing never feeds computed results.
            let deadline = std::time::Instant::now() + timeout;
            while *avail == 0 {
                // lint:allow(blocking) — bounded condvar wait; releases
                // `available` atomically while parked.
                if self.cond.wait_until(&mut avail, deadline).timed_out() {
                    return false;
                }
            }
        }
        *avail -= 1;
        true
    }

    /// Releases one permit.
    pub fn release(&self) {
        self.release_many(1);
    }

    /// Releases `n` permits at once, waking waiters once rather than per
    /// permit.
    pub fn release_many(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut avail = self.available.lock();
        assert!(*avail + n <= self.limit, "release without matching acquire");
        *avail += n;
        drop(avail);
        if n == 1 {
            self.cond.notify_one();
        } else {
            self.cond.notify_all();
        }
    }

    /// How many acquisitions had to wait (back-pressure engagements).
    pub fn waits(&self) -> u64 {
        self.peak_waits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn acquire_release_cycle() {
        let l = JobLimiter::new(2);
        l.acquire();
        l.acquire();
        assert_eq!(l.available(), 0);
        l.release();
        assert_eq!(l.available(), 1);
        l.release();
        assert_eq!(l.available(), 2);
    }

    #[test]
    fn acquire_timeout_fails_when_exhausted() {
        let l = JobLimiter::new(1);
        l.acquire();
        assert!(!l.acquire_timeout(Duration::from_millis(20)));
        l.release();
        assert!(l.acquire_timeout(Duration::from_millis(20)));
    }

    #[test]
    #[should_panic(expected = "release without matching acquire")]
    fn over_release_panics() {
        let l = JobLimiter::new(1);
        l.release();
    }

    #[test]
    fn release_many_returns_a_burst_of_permits() {
        let l = JobLimiter::new(3);
        l.acquire();
        l.acquire();
        l.release_many(0);
        assert_eq!(l.available(), 1);
        l.release_many(2);
        assert_eq!(l.available(), 3);
    }

    #[test]
    #[should_panic(expected = "release without matching acquire")]
    fn release_many_beyond_acquired_panics() {
        let l = JobLimiter::new(2);
        l.acquire();
        l.release_many(2);
    }

    #[test]
    fn release_many_wakes_every_waiter() {
        let l = Arc::new(JobLimiter::new(2));
        l.acquire();
        l.acquire();
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || l.acquire())
            })
            .collect();
        // Both waiters count themselves before they park.
        while l.waits() < 2 {
            std::thread::yield_now();
        }
        l.release_many(2);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(l.available(), 0);
    }

    #[test]
    fn blocks_until_release() {
        let l = Arc::new(JobLimiter::new(1));
        l.acquire();
        let l2 = Arc::clone(&l);
        let handle = std::thread::spawn(move || {
            l2.acquire(); // blocks until main releases
            l2.release();
        });
        std::thread::sleep(Duration::from_millis(30));
        l.release();
        handle.join().unwrap();
        assert_eq!(l.available(), 1);
        assert!(l.waits() >= 1);
    }

    #[test]
    fn many_threads_respect_limit() {
        let l = Arc::new(JobLimiter::new(4));
        let in_flight = Arc::new(AtomicU64::new(0));
        let max_seen = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (l, in_flight, max_seen) = (
                Arc::clone(&l),
                Arc::clone(&in_flight),
                Arc::clone(&max_seen),
            );
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    l.acquire();
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    max_seen.fetch_max(now, Ordering::SeqCst);
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    l.release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(max_seen.load(Ordering::SeqCst) <= 4);
    }
}
