//! Online statistics used by characterization and evaluation reports.

use crate::time::{Bandwidth, Time};
use serde::{Deserialize, Serialize};

/// Streaming mean / min / max / variance (Welford's algorithm).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.mean = mean;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Accumulates (bytes, elapsed) samples and reports the aggregate rate
/// and IOPs, matching the throughput metrics the paper collects.
///
/// Meters sit on the per-message path (every fabric message, RPC, local
/// read/write and volume request), so they keep three integer counters
/// and nothing else: recording costs three adds. Latency distributions
/// come from `ioeval_core::obs::Collector`, and only when a run is
/// observed.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferMeter {
    bytes: u64,
    busy: Time,
    ops: u64,
}

impl TransferMeter {
    /// An empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one operation that moved `bytes` over `elapsed`.
    pub fn record(&mut self, bytes: u64, elapsed: Time) {
        self.bytes += bytes;
        self.busy += elapsed;
        self.ops += 1;
    }

    /// Records `n` operations, each moving `bytes` over `elapsed`: the same
    /// totals as `n` calls to [`TransferMeter::record`].
    pub fn record_n(&mut self, bytes: u64, elapsed: Time, n: u64) {
        self.bytes += bytes * n;
        self.busy = self.busy.saturating_add(elapsed.saturating_mul(n));
        self.ops += n;
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of operations.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total time spent inside operations.
    pub fn busy_time(&self) -> Time {
        self.busy
    }

    /// Aggregate rate: total bytes over total in-operation time.
    pub fn rate(&self) -> Bandwidth {
        Bandwidth::measured(self.bytes, self.busy)
    }

    /// Operations per second of in-operation time (the paper's IOPs).
    pub fn iops(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }

    /// Merges another meter into this one.
    pub fn merge(&mut self, other: &TransferMeter) {
        self.bytes += other.bytes;
        self.busy += other.busy;
        self.ops += other.ops;
    }
}

/// A power-of-two bucketed histogram of byte sizes; used to summarize the
/// request-size mix an application generates at each I/O level.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SizeHistogram {
    /// `buckets[i]` counts sizes in `[2^i, 2^(i+1))`; index 0 holds `[0,2)`.
    buckets: Vec<u64>,
    total: u64,
}

impl SizeHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one size.
    pub fn record(&mut self, size: u64) {
        let idx = if size < 2 {
            0
        } else {
            (63 - size.leading_zeros()) as usize
        };
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Iterates `(bucket_floor_bytes, count)` for non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, c))
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &SizeHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.total += other.total;
    }

    /// The floor of the most frequent bucket, or `None` when empty.
    pub fn mode_bucket(&self) -> Option<u64> {
        self.buckets
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| 1u64 << i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MIB;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential_push() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 3.0);
    }

    #[test]
    fn transfer_meter_rates() {
        let mut m = TransferMeter::new();
        m.record(MIB, Time::from_millis(10));
        m.record(MIB, Time::from_millis(10));
        // 2 MiB in 20 ms = 100 MiB/s.
        assert!((m.rate().as_mib_per_sec() - 100.0).abs() < 0.01);
        assert_eq!(m.ops(), 2);
        assert_eq!(m.bytes(), 2 * MIB);
        assert!((m.iops() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_meter_empty() {
        let m = TransferMeter::new();
        assert_eq!(m.rate().bytes_per_sec(), 0);
        assert_eq!(m.iops(), 0.0);
    }

    #[test]
    fn transfer_meter_merge() {
        let mut a = TransferMeter::new();
        a.record(100, Time::from_secs(1));
        let mut b = TransferMeter::new();
        b.record(300, Time::from_secs(1));
        a.merge(&b);
        assert_eq!(a.bytes(), 400);
        assert_eq!(a.ops(), 2);
        assert_eq!(a.rate().bytes_per_sec(), 200);
        // A merged meter equals one meter fed both samples.
        let mut whole = TransferMeter::new();
        whole.record(100, Time::from_secs(1));
        whole.record(300, Time::from_secs(1));
        assert_eq!(a, whole);
    }

    #[test]
    fn size_histogram_buckets() {
        let mut h = SizeHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        h.record(1600);
        h.record(1600);
        let entries: Vec<_> = h.iter().collect();
        // [0,2): 2 items; [2,4): 2 items; [1024,2048): 3 items.
        assert_eq!(entries, vec![(1, 2), (2, 2), (1024, 3)]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.mode_bucket(), Some(1024));
    }

    #[test]
    fn size_histogram_empty_mode() {
        assert_eq!(SizeHistogram::new().mode_bucket(), None);
    }
}
