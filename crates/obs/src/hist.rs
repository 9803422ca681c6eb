//! The fixed-bucket latency histogram, promoted out of the serving crate so
//! every layer shares one bucket geometry and one percentile walk.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets: bucket `i` holds observations of
/// at most `2^i` microseconds, so 26 buckets span 1 µs to ~33 s (the last
/// bucket absorbs anything slower).
pub const LATENCY_BUCKETS: usize = 26;

/// A small fixed-bucket latency histogram: power-of-two microsecond buckets,
/// lock-free to record, summarised as p50/p99 upper bounds.  One heap-free
/// array per metric is all runtime stats need — per-request timing without a
/// timeseries dependency or an unbounded reservoir.  Per-source histograms
/// sum bucket-wise ([`LatencyHistogram::add_counts`]) before the percentile
/// walk, so aggregate percentiles are exact over the merged observations,
/// not an average of per-source percentiles.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        let micros = elapsed.as_micros().min(u64::MAX as u128) as u64;
        self.record_micros(micros);
    }

    /// Records one observation given directly in microseconds.
    pub fn record_micros(&self, micros: u64) {
        // Bucket index = ceil(log2(µs)), so each bucket's upper bound is a
        // power of two; sub-microsecond observations land in bucket 0.
        let index = micros
            .saturating_sub(1)
            .checked_ilog2()
            .map_or(0, |bits| bits as usize + 1)
            .min(LATENCY_BUCKETS - 1);
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulates this histogram's bucket counts into `into` (the
    /// cross-source aggregation primitive).
    pub fn add_counts(&self, into: &mut [u64; LATENCY_BUCKETS]) {
        for (acc, bucket) in into.iter_mut().zip(&self.buckets) {
            *acc += bucket.load(Ordering::Relaxed);
        }
    }

    /// A copy of the current bucket counts.
    pub fn counts(&self) -> [u64; LATENCY_BUCKETS] {
        let mut counts = [0u64; LATENCY_BUCKETS];
        self.add_counts(&mut counts);
        counts
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// The `p`-quantile of this histogram alone; see [`percentile_of`].
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        percentile_of(&self.counts(), p)
    }
}

/// The upper bound of the bucket holding the `p`-quantile observation
/// (e.g. 0.50, 0.99) of summed histogram counts; `None` until something was
/// recorded.
pub fn percentile_of(counts: &[u64; LATENCY_BUCKETS], p: f64) -> Option<Duration> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let target = ((p * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, count) in counts.iter().enumerate() {
        seen += count;
        if seen >= target {
            return Some(Duration::from_micros(1u64 << i));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bucket boundaries: each bucket's upper bound is a power of two, the
    /// boundary observation lands *in* that bucket (closed upper bound), and
    /// one past it lands in the next.
    #[test]
    fn bucket_boundaries_are_closed_powers_of_two() {
        // (observation µs, expected bucket index)
        let cases = [
            (0u64, 0usize), // sub-microsecond
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (1024, 10),
            (1025, 11),
        ];
        for (micros, bucket) in cases {
            let h = LatencyHistogram::new();
            h.record(Duration::from_micros(micros));
            let counts = h.counts();
            assert_eq!(
                counts[bucket], 1,
                "{micros} µs must land in bucket {bucket}, got {counts:?}"
            );
            assert_eq!(counts.iter().sum::<u64>(), 1);
        }
    }

    /// `record` and `record_micros` agree, and the percentile reports the
    /// bucket's upper bound.
    #[test]
    fn record_duration_matches_record_micros() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for micros in [0u64, 1, 7, 100, 4096, 1_000_000] {
            a.record(Duration::from_micros(micros));
            b.record_micros(micros);
        }
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.total(), 6);
    }

    /// `add_counts` merging: percentiles over the merged buckets equal the
    /// percentile of one histogram holding both sets of observations.
    #[test]
    fn add_counts_merges_exactly() {
        let left = LatencyHistogram::new();
        let right = LatencyHistogram::new();
        let all = LatencyHistogram::new();
        for micros in [3u64, 17, 90, 1500] {
            left.record_micros(micros);
            all.record_micros(micros);
        }
        for micros in [5u64, 40_000, 900_000] {
            right.record_micros(micros);
            all.record_micros(micros);
        }
        let mut merged = [0u64; LATENCY_BUCKETS];
        left.add_counts(&mut merged);
        right.add_counts(&mut merged);
        assert_eq!(merged, all.counts());
        for p in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(percentile_of(&merged, p), all.percentile(p), "p={p}");
        }
        assert_eq!(merged.iter().sum::<u64>(), 7);
    }

    /// Quantile edge case: an empty histogram has no percentiles.
    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.percentile(0.99), None);
        assert_eq!(h.total(), 0);
        assert_eq!(percentile_of(&[0; LATENCY_BUCKETS], 0.5), None);
    }

    /// Quantile edge case: with a single sample every percentile (including
    /// p=0, which still must select *an* observation) reports that sample's
    /// bucket upper bound.
    #[test]
    fn single_sample_dominates_every_percentile() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(300)); // bucket 9, upper bound 512 µs
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(p), Some(Duration::from_micros(512)), "p={p}");
        }
    }

    /// Quantile edge case: observations beyond the last bucket's range
    /// saturate into the top bucket, and percentiles report its upper bound
    /// rather than overflowing.
    #[test]
    fn saturated_top_bucket_caps_percentiles() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_secs(3600)); // way past 2^25 µs ≈ 33.6 s
        h.record(Duration::from_secs(7200));
        let counts = h.counts();
        assert_eq!(counts[LATENCY_BUCKETS - 1], 2);
        assert_eq!(
            h.percentile(0.99),
            Some(Duration::from_micros(1u64 << (LATENCY_BUCKETS - 1)))
        );
    }

    /// p50/p99 split across buckets: with 99 fast and 1 slow observation,
    /// p50 reports the fast bucket and p99 still the fast bucket (the 99th
    /// of 100 is the last fast one); p995 tips into the slow bucket.
    #[test]
    fn percentile_walk_selects_correct_bucket() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // bucket 4 (≤ 16 µs)
        }
        h.record(Duration::from_millis(100)); // bucket 17 (≤ 131 ms)
        assert_eq!(h.percentile(0.50), Some(Duration::from_micros(16)));
        assert_eq!(h.percentile(0.99), Some(Duration::from_micros(16)));
        assert_eq!(h.percentile(0.995), Some(Duration::from_micros(1 << 17)));
    }
}
