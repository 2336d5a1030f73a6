//! Wrappers that time the calls into each layer from outside the program:
//! an [`Application`], an [`ObjectStore`] and a [`Backend`] that delegate
//! to the real one and record a span per call. Spans stay in memory until
//! the caller drains them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use bytes::Bytes;
use rocket::core::{
    AppError, Application, Backend, ItemId, Pair, PerfLog, PerfRollup, RocketError, RunReport,
    Scenario,
};
use rocket::storage::{ObjectStore, StorageError};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("span log poisoned by a panicking call")
}

/// One timed call: `[start_ns, end_ns)` since the log's epoch.
pub type Interval = (u64, u64);

/// Spans of one kind of call, timed from a shared epoch.
#[derive(Debug)]
pub struct SpanLog(Mutex<(Instant, Vec<Interval>)>);

impl Default for SpanLog {
    fn default() -> Self {
        Self(Mutex::new((Instant::now(), Vec::new())))
    }
}

impl SpanLog {
    /// Drops recorded spans and measures new ones from `epoch`.
    pub fn reset(&self, epoch: Instant) {
        *lock(&self.0) = (epoch, Vec::new());
    }

    /// Times `f` and records its span.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let mut log = lock(&self.0);
        let epoch = log.0;
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        log.1.push((ns(start), ns(end)));
        out
    }

    pub fn take(&self) -> Vec<Interval> {
        std::mem::take(&mut lock(&self.0).1)
    }
}

/// Calls and busy seconds of a span list.
pub fn calls_busy(spans: &[Interval]) -> (f64, f64) {
    let busy: u64 = spans.iter().map(|(s, e)| e - s).sum();
    (spans.len() as f64, busy as f64 / 1e9)
}

/// Seconds covered by the union of `spans`.
pub fn union_s(spans: &mut [Interval]) -> f64 {
    spans.sort_unstable();
    let mut covered = 0u64;
    let mut open: Option<Interval> = None;
    for &(s, e) in spans.iter() {
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                covered += oe - os;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((os, oe)) = open {
        covered += oe - os;
    }
    covered as f64 / 1e9
}

/// The four application stages, in the order the paper lists them.
pub const STAGES: [&str; 4] = ["parse", "preprocess", "compare", "postprocess"];

/// An [`Application`] that times each stage call of the one it wraps.
pub struct TimedApp<A> {
    inner: Arc<A>,
    /// One log per entry of [`STAGES`].
    pub stages: [SpanLog; 4],
}

impl<A> TimedApp<A> {
    pub fn new(inner: Arc<A>) -> Self {
        Self {
            inner,
            stages: Default::default(),
        }
    }

    pub fn reset(&self, epoch: Instant) {
        self.stages.iter().for_each(|s| s.reset(epoch));
    }
}

impl<A: Application> Application for TimedApp<A> {
    type Output = A::Output;

    fn name(&self) -> &str {
        self.inner.name()
    }
    fn item_count(&self) -> u64 {
        self.inner.item_count()
    }
    fn file_for(&self, item: ItemId) -> String {
        self.inner.file_for(item)
    }
    fn parsed_bytes(&self) -> usize {
        self.inner.parsed_bytes()
    }
    fn item_bytes(&self) -> usize {
        self.inner.item_bytes()
    }
    fn result_bytes(&self) -> usize {
        self.inner.result_bytes()
    }
    fn has_preprocess(&self) -> bool {
        self.inner.has_preprocess()
    }
    fn parse(&self, item: ItemId, raw: &[u8], out: &mut [u8]) -> Result<(), AppError> {
        self.stages[0].time(|| self.inner.parse(item, raw, out))
    }
    fn preprocess(&self, item: ItemId, input: &[u8], out: &mut [u8]) -> Result<(), AppError> {
        self.stages[1].time(|| self.inner.preprocess(item, input, out))
    }
    fn compare(
        &self,
        left: (ItemId, &[u8]),
        right: (ItemId, &[u8]),
        out: &mut [u8],
    ) -> Result<(), AppError> {
        self.stages[2].time(|| self.inner.compare(left, right, out))
    }
    fn postprocess(&self, pair: Pair, raw: &[u8]) -> Self::Output {
        self.stages[3].time(|| self.inner.postprocess(pair, raw))
    }
}

/// An [`ObjectStore`] that times each read of the one it wraps.
pub struct TimedStore {
    inner: Arc<dyn ObjectStore>,
    pub reads: SpanLog,
    read_bytes: AtomicU64,
    errors: AtomicU64,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn ObjectStore>) -> Self {
        Self {
            inner,
            reads: SpanLog::default(),
            read_bytes: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    pub fn reset(&self, epoch: Instant) {
        self.reads.reset(epoch);
        self.read_bytes.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
    }

    /// Bytes read and failed reads since the last reset.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.read_bytes.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
        )
    }
}

impl ObjectStore for TimedStore {
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn size(&self, key: &str) -> Result<u64, StorageError> {
        self.inner.size(key)
    }
    fn read(&self, key: &str) -> Result<Bytes, StorageError> {
        let result = self.reads.time(|| self.inner.read(key));
        match &result {
            Ok(data) => self
                .read_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed),
            Err(_) => self.errors.fetch_add(1, Ordering::Relaxed),
        };
        result
    }
    fn write(&self, key: &str, data: Bytes) -> Result<(), StorageError> {
        self.inner.write(key, data)
    }
}

/// One backend call recorded by [`TimedBackend`].
pub struct CellRun {
    pub scenario: Scenario,
    /// The inner backend's span since the last `take`.
    pub span: Interval,
    /// Seconds of the whole wrapped call, perf roll-up included.
    pub call_s: f64,
    pub report: RunReport,
    pub rollup: PerfRollup,
}

impl CellRun {
    pub fn host_s(&self) -> f64 {
        (self.span.1 - self.span.0) as f64 / 1e9
    }
}

/// A [`Backend`] that times each call into the one it wraps and runs it
/// with a perf log, keeping the report and the log's rollup.
pub struct TimedBackend<B> {
    inner: B,
    cells: Mutex<(Instant, Vec<CellRun>)>,
}

impl<B: Backend> TimedBackend<B> {
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            cells: Mutex::new((Instant::now(), Vec::new())),
        }
    }

    /// The calls recorded since the last `take`, in call order; spans of
    /// later calls count from now.
    pub fn take(&self) -> Vec<CellRun> {
        let mut cells = lock(&self.cells);
        cells.0 = Instant::now();
        std::mem::take(&mut cells.1)
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, scenario: &Scenario) -> Result<RunReport, RocketError> {
        let perf = PerfLog::enabled();
        let start = Instant::now();
        let report = self.inner.run_with_perf(scenario, &perf)?;
        let end = Instant::now();
        let rollup = PerfRollup::from_records(&perf.take());
        let call_s = start.elapsed().as_secs_f64();
        let mut cells = lock(&self.cells);
        let epoch = cells.0;
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        cells.1.push(CellRun {
            scenario: scenario.clone(),
            span: (ns(start), ns(end)),
            call_s,
            report: report.clone(),
            rollup,
        });
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_gaps() {
        let mut spans = vec![(10, 20), (0, 5), (15, 30), (40, 50)];
        assert_eq!(union_s(&mut spans), 35e-9);
        assert_eq!(union_s(&mut []), 0.0);
    }
}
