//! The flash model with bandwidth accounting.
//!
//! "The system uses RAM for the intermediate values and flash memory to store
//! acoustic and language models for speech recognition.  [...] The word decode
//! is implemented in software and it accesses the dictionary (stored in flash
//! memory) through a DMA interface."
//!
//! The model does not store actual data (the parameter values already live
//! in the `asr-acoustic` structures); it accounts for every byte the decoder
//! *would* stream from flash — Gaussian parameters into the OP units and
//! dictionary fetches over the DMA — so the bandwidth claims of the paper
//! can be measured rather than assumed.  The RAM's traffic is not modelled:
//! no reported figure depends on it.

use asr_acoustic::FRAME_PERIOD_S;
use asr_float::MantissaWidth;

/// Counters describing traffic through one memory device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Number of read transactions.
    pub read_transactions: u64,
    /// Number of write transactions.
    pub write_transactions: u64,
}

impl MemoryStats {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Average bandwidth in GB/s given the elapsed time.
    pub fn bandwidth_gb_per_s(&self, elapsed_s: f64) -> f64 {
        if elapsed_s <= 0.0 {
            return 0.0;
        }
        self.total_bytes() as f64 / elapsed_s / 1.0e9
    }
}

/// The flash device storing acoustic model, dictionary and language model.
#[derive(Debug, Clone)]
pub struct FlashMemory {
    /// Width at which Gaussian parameters are stored (the paper's mantissa
    /// sweep changes this and nothing else).
    parameter_width: MantissaWidth,
    stats: MemoryStats,
    /// Per-frame byte counter, reset by [`FlashMemory::begin_frame`].
    frame_bytes: u64,
    /// Completed frames, their summed bytes and the largest single count.
    completed_frames: u64,
    completed_bytes: u64,
    completed_peak: u64,
}

impl FlashMemory {
    /// Creates a flash model storing parameters at the given width.
    pub fn new(parameter_width: MantissaWidth) -> Self {
        FlashMemory {
            parameter_width,
            stats: MemoryStats::default(),
            frame_bytes: 0,
            completed_frames: 0,
            completed_bytes: 0,
            completed_peak: 0,
        }
    }

    /// The parameter storage width.
    pub fn parameter_width(&self) -> MantissaWidth {
        self.parameter_width
    }

    /// Bytes occupied by one stored parameter at the configured width.
    pub fn bytes_per_parameter(&self) -> f64 {
        self.parameter_width.storage_bytes()
    }

    /// Records a read of `count` Gaussian parameters (mean/variance/weight
    /// values streamed into the OP unit).
    pub fn read_parameters(&mut self, count: usize) {
        let bytes = (count as f64 * self.bytes_per_parameter()).ceil() as u64;
        self.stats.bytes_read += bytes;
        self.stats.read_transactions += 1;
        self.frame_bytes += bytes;
    }

    /// Records a raw byte read (dictionary / language-model access over DMA).
    pub fn read_bytes(&mut self, bytes: u64) {
        self.stats.bytes_read += bytes;
        self.stats.read_transactions += 1;
        self.frame_bytes += bytes;
    }

    /// Starts a new 10 ms frame window for bandwidth accounting.
    pub fn begin_frame(&mut self) {
        if self.frame_bytes > 0 || self.completed_frames > 0 {
            self.complete_frame();
        }
        self.frame_bytes = 0;
    }

    /// Finishes the utterance, flushing the current frame counter.
    pub fn end_utterance(&mut self) {
        self.complete_frame();
        self.frame_bytes = 0;
    }

    fn complete_frame(&mut self) {
        self.completed_frames += 1;
        self.completed_bytes += self.frame_bytes;
        self.completed_peak = self.completed_peak.max(self.frame_bytes);
    }

    /// Cumulative traffic statistics.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Bytes read during the worst single frame so far.
    pub fn peak_frame_bytes(&self) -> u64 {
        self.completed_peak.max(self.frame_bytes)
    }

    /// Mean bytes per completed frame.
    pub fn mean_frame_bytes(&self) -> f64 {
        if self.completed_frames == 0 {
            return self.frame_bytes as f64;
        }
        self.completed_bytes as f64 / self.completed_frames as f64
    }

    /// Peak per-frame bandwidth in GB/s over the 10 ms frame.
    pub fn peak_bandwidth_gb_per_s(&self) -> f64 {
        self.peak_frame_bytes() as f64 / FRAME_PERIOD_S / 1.0e9
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        self.stats = MemoryStats::default();
        self.frame_bytes = 0;
        self.completed_frames = 0;
        self.completed_bytes = 0;
        self.completed_peak = 0;
    }
}

impl Default for FlashMemory {
    fn default() -> Self {
        Self::new(MantissaWidth::FULL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_parameter_width_scaling() {
        let full = FlashMemory::new(MantissaWidth::FULL);
        let narrow = FlashMemory::new(MantissaWidth::BITS_12);
        assert_eq!(full.bytes_per_parameter(), 4.0);
        assert!((narrow.bytes_per_parameter() - 21.0 / 8.0).abs() < 1e-12);
        assert_eq!(full.parameter_width(), MantissaWidth::FULL);
        assert_eq!(
            FlashMemory::default().parameter_width(),
            MantissaWidth::FULL
        );
    }

    #[test]
    fn flash_frame_accounting() {
        let mut flash = FlashMemory::new(MantissaWidth::FULL);
        flash.begin_frame();
        flash.read_parameters(1000); // 4000 bytes
        flash.begin_frame();
        flash.read_parameters(500); // 2000 bytes
        flash.read_bytes(100);
        flash.end_utterance();
        assert_eq!(flash.stats().bytes_read, 4000 + 2000 + 100);
        assert_eq!(flash.stats().read_transactions, 3);
        assert_eq!(flash.peak_frame_bytes(), 4000);
        assert!((flash.mean_frame_bytes() - 3050.0).abs() < 1e-9);
        // Peak bandwidth for a 10 ms frame: 4000 B / 0.01 s = 400 kB/s.
        assert!((flash.peak_bandwidth_gb_per_s() - 4.0e-4).abs() < 1e-12);
        flash.reset();
        assert_eq!(flash.stats().total_bytes(), 0);
        assert_eq!(flash.peak_frame_bytes(), 0);
    }

    #[test]
    fn paper_worst_case_bandwidth_from_flash_model() {
        // Stream the full 6000-senone model (3.792M parameters) in one frame.
        let mut flash = FlashMemory::new(MantissaWidth::FULL);
        flash.begin_frame();
        flash.read_parameters(3_792_000);
        flash.end_utterance();
        let gbps = flash.peak_bandwidth_gb_per_s();
        assert!((gbps - 1.5168).abs() < 0.01, "{gbps}");
    }

    #[test]
    fn memory_stats_helpers() {
        let stats = MemoryStats {
            bytes_read: 600,
            bytes_written: 400,
            read_transactions: 2,
            write_transactions: 1,
        };
        assert_eq!(stats.total_bytes(), 1000);
        // 1000 bytes in 1 µs = 1 GB/s.
        assert!((stats.bandwidth_gb_per_s(1.0e-6) - 1.0).abs() < 1e-9);
        assert_eq!(stats.bandwidth_gb_per_s(0.0), 0.0);
    }
}
