//! Streaming latency accounting: per-chunk wall-clock latency and real-time
//! factor of an incremental decode.
//!
//! The paper's SoC is judged by whether it keeps up with audio arriving in
//! real time; a *streaming* software reproduction is judged the same way,
//! but in host wall-clock terms: how long did each pushed chunk take to
//! process, and how does the total processing time compare to the audio it
//! covered?  [`StreamTiming`] collects those figures chunk by chunk; the
//! streaming layer returns it beside the decode result, next to the
//! simulated-cycle figures of the SoC model's
//! [`UtteranceReport`](crate::UtteranceReport).

/// Per-chunk latency statistics of one streamed utterance.
///
/// Latencies are recorded in seconds of host wall-clock per pushed chunk;
/// audio time is the duration of the audio (or feature frames × frame shift)
/// each chunk covered.  The ratio of the two is the stream's real-time
/// factor: below 1.0 means the session keeps up with live audio.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamTiming {
    /// Wall-clock seconds spent processing each chunk, in arrival order.
    chunk_latencies_s: Vec<f64>,
    /// Audio seconds covered by all chunks together.
    audio_seconds: f64,
}

impl StreamTiming {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one processed chunk: the wall-clock seconds it took and the
    /// audio seconds it covered.  Negative inputs are clamped to zero (a
    /// non-monotonic clock must not poison the stream's statistics).
    pub fn record_chunk(&mut self, latency_s: f64, audio_s: f64) {
        self.chunk_latencies_s.push(latency_s.max(0.0));
        self.audio_seconds += audio_s.max(0.0);
    }

    /// Number of chunks recorded.
    pub fn chunks(&self) -> usize {
        self.chunk_latencies_s.len()
    }

    /// Audio seconds covered by the stream so far.
    pub fn audio_seconds(&self) -> f64 {
        self.audio_seconds
    }

    /// Total wall-clock seconds spent processing.
    pub fn total_latency_s(&self) -> f64 {
        self.chunk_latencies_s.iter().sum()
    }

    /// Mean per-chunk latency in seconds (0 when nothing was recorded).
    pub fn mean_latency_s(&self) -> f64 {
        if self.chunk_latencies_s.is_empty() {
            0.0
        } else {
            self.total_latency_s() / self.chunk_latencies_s.len() as f64
        }
    }

    /// Worst per-chunk latency in seconds.
    pub fn max_latency_s(&self) -> f64 {
        self.chunk_latencies_s.iter().fold(0.0f64, |a, &b| a.max(b))
    }

    /// Median (p50) per-chunk latency in seconds — the figure the bench gate
    /// tracks, robust against one cold-cache outlier chunk.
    pub fn p50_latency_s(&self) -> f64 {
        self.percentile_latency_s(50.0)
    }

    /// Per-chunk latency at an arbitrary percentile in `[0, 100]`
    /// (nearest-rank; 0 when nothing was recorded).
    pub fn percentile_latency_s(&self, percentile: f64) -> f64 {
        if self.chunk_latencies_s.is_empty() {
            return 0.0;
        }
        let mut sorted = self.chunk_latencies_s.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let p = percentile.clamp(0.0, 100.0) / 100.0;
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// The stream's host real-time factor: total processing wall-clock over
    /// audio seconds.  Below 1.0 means the stream keeps up with live audio;
    /// 0 when no audio time was recorded.
    pub fn real_time_factor(&self) -> f64 {
        if self.audio_seconds <= 0.0 {
            0.0
        } else {
            self.total_latency_s() / self.audio_seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_timing_is_all_zeros() {
        let t = StreamTiming::new();
        assert_eq!(t.chunks(), 0);
        assert_eq!(t.total_latency_s(), 0.0);
        assert_eq!(t.mean_latency_s(), 0.0);
        assert_eq!(t.max_latency_s(), 0.0);
        assert_eq!(t.p50_latency_s(), 0.0);
        assert_eq!(t.real_time_factor(), 0.0);
        assert_eq!(t.audio_seconds(), 0.0);
    }

    #[test]
    fn records_aggregate_and_percentiles_rank() {
        let mut t = StreamTiming::new();
        for &l in &[0.004, 0.001, 0.002, 0.003, 0.010] {
            t.record_chunk(l, 0.1);
        }
        assert_eq!(t.chunks(), 5);
        assert!((t.audio_seconds() - 0.5).abs() < 1e-12);
        assert!((t.total_latency_s() - 0.020).abs() < 1e-12);
        assert!((t.mean_latency_s() - 0.004).abs() < 1e-12);
        assert_eq!(t.max_latency_s(), 0.010);
        // Nearest-rank p50 of {1,2,3,4,10} ms is 3 ms; p100 is the max.
        assert!((t.p50_latency_s() - 0.003).abs() < 1e-12);
        assert_eq!(t.percentile_latency_s(100.0), 0.010);
        assert_eq!(t.percentile_latency_s(0.0), 0.001);
        // 20 ms of work for 500 ms of audio: far faster than real time.
        assert!((t.real_time_factor() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn negative_inputs_are_clamped() {
        let mut t = StreamTiming::new();
        t.record_chunk(-1.0, -2.0);
        assert_eq!(t.total_latency_s(), 0.0);
        assert_eq!(t.audio_seconds(), 0.0);
        assert_eq!(t.real_time_factor(), 0.0);
    }
}
