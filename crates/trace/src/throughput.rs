//! Rolling-average throughput series (the paper's Fig 14).
//!
//! Fig 14 plots per-GPU processing throughput over time, measured as a
//! one-minute rolling average of completed pairs. [`ThroughputSeries`]
//! ingests completion timestamps per source (a GPU) and produces the series.

use std::collections::BTreeMap;

/// Completion events bucketed per source, yielding rolling-average rates.
#[derive(Debug, Clone, Default)]
pub struct ThroughputSeries {
    events: BTreeMap<u32, Vec<u64>>,
}

impl ThroughputSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `source` completed one unit of work at `t_ns`.
    pub fn record(&mut self, source: u32, t_ns: u64) {
        self.events.entry(source).or_default().push(t_ns);
    }

    /// The sources that recorded at least one event.
    pub fn sources(&self) -> Vec<u32> {
        self.events.keys().copied().collect()
    }

    /// Total events for a source.
    pub fn total(&self, source: u32) -> usize {
        self.events.get(&source).map_or(0, Vec::len)
    }

    /// Raw completion timestamps for `source`, in recording order (what a
    /// serializer needs to reconstruct the series exactly).
    pub fn timestamps(&self, source: u32) -> &[u64] {
        self.events.get(&source).map_or(&[], Vec::as_slice)
    }

    /// Rolling-average throughput (events/second) for `source`, sampled every
    /// `step_ns`, averaged over the trailing `window_ns`.
    ///
    /// Returns `(t_seconds, rate)` pairs covering `[0, end_ns]`.
    pub fn rolling(
        &self,
        source: u32,
        window_ns: u64,
        step_ns: u64,
        end_ns: u64,
    ) -> Vec<(f64, f64)> {
        assert!(window_ns > 0 && step_ns > 0);
        let mut times = match self.events.get(&source) {
            Some(v) => v.clone(),
            None => return Vec::new(),
        };
        times.sort_unstable();
        let mut out = Vec::new();
        let mut lo = 0usize; // first event inside the window
        let mut hi = 0usize; // first event after `t`
        let mut t = 0u64;
        while t <= end_ns {
            while hi < times.len() && times[hi] <= t {
                hi += 1;
            }
            let win_start = t.saturating_sub(window_ns);
            while lo < hi && times[lo] <= win_start {
                lo += 1;
            }
            let effective_window = window_ns.min(t.max(1)) as f64 / 1e9;
            let rate = (hi - lo) as f64 / effective_window;
            out.push((t as f64 / 1e9, rate));
            t += step_ns;
        }
        out
    }

    /// Average throughput over the whole run for a source (events/second).
    pub fn average(&self, source: u32, end_ns: u64) -> f64 {
        if end_ns == 0 {
            return 0.0;
        }
        self.total(source) as f64 / (end_ns as f64 / 1e9)
    }

    /// The latest event timestamp over all sources.
    pub fn end_ns(&self) -> u64 {
        self.events
            .values()
            .flat_map(|v| v.iter().copied())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn steady_rate_measured() {
        let mut s = ThroughputSeries::new();
        // 10 events/second for 10 seconds.
        for i in 0..100 {
            s.record(0, i * SEC / 10 + 1);
        }
        let series = s.rolling(0, SEC, SEC, 10 * SEC);
        // After warm-up the rolling rate should sit at ~10/s.
        let late: Vec<f64> = series.iter().skip(3).map(|&(_, r)| r).collect();
        for r in late {
            assert!((r - 10.0).abs() <= 1.0, "rate {r} not ~10");
        }
    }

    #[test]
    fn empty_source_yields_empty_series() {
        let s = ThroughputSeries::new();
        assert!(s.rolling(3, SEC, SEC, 10 * SEC).is_empty());
        assert_eq!(s.average(3, 10 * SEC), 0.0);
    }

    #[test]
    fn sources_and_totals() {
        let mut s = ThroughputSeries::new();
        s.record(1, 10);
        s.record(1, 20);
        s.record(4, 30);
        assert_eq!(s.sources(), vec![1, 4]);
        assert_eq!(s.total(1), 2);
        assert_eq!(s.total(4), 1);
        assert_eq!(s.timestamps(1), &[10, 20]);
        assert_eq!(s.timestamps(9), &[] as &[u64]);
        assert_eq!(s.end_ns(), 30);
    }

    #[test]
    fn average_rate() {
        let mut s = ThroughputSeries::new();
        for i in 0..50 {
            s.record(0, i);
        }
        assert!((s.average(0, 10 * SEC) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rate_drops_after_burst_leaves_window() {
        let mut s = ThroughputSeries::new();
        // Burst of 100 events in the first second, then silence.
        for i in 0..100 {
            s.record(0, i * SEC / 100);
        }
        let series = s.rolling(0, SEC, SEC, 5 * SEC);
        let at_1s = series[1].1;
        let at_5s = series[5].1;
        assert!(at_1s > 50.0, "burst rate {at_1s}");
        assert_eq!(at_5s, 0.0);
    }
}
