//! Flash storage layout and size/bandwidth accounting.
//!
//! The paper stores the acoustic model (and dictionary / language model) in
//! flash memory and streams it into the OP unit every frame.  Its results
//! table reports, for 6 000 senones:
//!
//! | mantissa | memory (MB) | worst-case bandwidth (GB/s) |
//! |---------:|------------:|----------------------------:|
//! | 23 bits  | 15.16       | 1.516                        |
//! | 15 bits  | 11.37       | 1.137                        |
//! | 12 bits  |  9.95       | 0.995                        |
//!
//! assuming every senone is evaluated in every 10 ms frame.
//! [`StorageLayout`] reproduces that accounting from first principles
//! (parameter count × per-value width), and [`FlashImage`] actually packs a
//! model's parameters into a byte image at a chosen width so the numbers are
//! backed by a real serialiser rather than a formula alone.

use crate::model::{AcousticModel, AcousticModelConfig};
use crate::{AcousticError, FRAME_PERIOD_S};
use asr_float::{MantissaWidth, Quantizer};

/// Analytic storage/bandwidth accounting for an acoustic model configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageLayout {
    /// Number of stored Gaussian parameters.
    pub gaussian_params: usize,
    /// Storage width of each parameter.
    pub width: MantissaWidth,
}

impl StorageLayout {
    /// Layout for a model configuration at a given parameter width.
    pub fn for_config(config: &AcousticModelConfig, width: MantissaWidth) -> Self {
        StorageLayout {
            gaussian_params: config.total_gaussian_params(),
            width,
        }
    }

    /// Layout for an instantiated model.
    pub fn for_model(model: &AcousticModel, width: MantissaWidth) -> Self {
        StorageLayout {
            gaussian_params: model.gaussian_param_count(),
            width,
        }
    }

    /// Acoustic-model size in bytes (packed at `width` bits per value).
    pub fn model_bytes(&self) -> f64 {
        Quantizer::new(self.width).storage_bytes(self.gaussian_params)
    }

    /// Acoustic-model size in megabytes (10⁶ bytes, as the paper reports).
    pub fn model_megabytes(&self) -> f64 {
        self.model_bytes() / 1.0e6
    }

    /// Worst-case bandwidth in bytes/second: the whole model streamed once per
    /// frame ("assuming all 6000 senones are evaluated in a frame of 10ms",
    /// [`FRAME_PERIOD_S`]).
    pub fn worst_case_bandwidth_bytes_per_s(&self) -> f64 {
        self.model_bytes() / FRAME_PERIOD_S
    }

    /// Worst-case bandwidth in GB/s (10⁹ bytes, as the paper reports).
    pub fn worst_case_bandwidth_gb_per_s(&self) -> f64 {
        self.worst_case_bandwidth_bytes_per_s() / 1.0e9
    }

    /// Bandwidth when only `active` of `total` senones are evaluated in a
    /// frame — the saving the word-decode feedback provides.
    pub fn active_bandwidth_gb_per_s(&self, active: usize, total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        self.worst_case_bandwidth_gb_per_s() * active as f64 / total as f64
    }
}

/// Magic number identifying a packed acoustic-model flash image.
const FLASH_MAGIC: u32 = 0x4C56_4353; // "LVCS"

/// A packed byte image of an acoustic model's Gaussian parameters, as it
/// would be laid out in the flash device.
///
/// Values are bit-packed at `1 + 8 + mantissa` bits each, so the image size
/// matches the analytic [`StorageLayout`] accounting (up to the final byte of
/// padding and a small fixed header).
#[derive(Debug, Clone, PartialEq)]
pub struct FlashImage {
    width: MantissaWidth,
    param_count: usize,
    bytes: Vec<u8>,
}

impl FlashImage {
    /// Packs every Gaussian parameter of `model` (means, variances, weights)
    /// into a flash image at the given width.
    pub fn pack(model: &AcousticModel, width: MantissaWidth) -> Self {
        let mut values: Vec<f32> = Vec::with_capacity(model.gaussian_param_count());
        for senone in model.senones().iter() {
            let mix = senone.mixture();
            for g in mix.components() {
                values.extend_from_slice(g.mean());
                values.extend_from_slice(g.variance());
            }
            values.extend_from_slice(mix.weights());
        }
        Self::pack_values(&values, width)
    }

    /// Packs an arbitrary list of values (exposed so the lexicon/LM storage
    /// accounting can reuse the same packer).
    pub fn pack_values(values: &[f32], width: MantissaWidth) -> Self {
        let bits_per_value = width.storage_bits();
        let quantizer = Quantizer::new(width);
        let total_bits = values.len() as u64 * bits_per_value as u64;
        let mut bytes = vec![0u8; total_bits.div_ceil(8) as usize + 8];
        // 8-byte header: magic + value count.
        bytes[..4].copy_from_slice(&FLASH_MAGIC.to_le_bytes());
        bytes[4..8].copy_from_slice(&(values.len() as u32).to_le_bytes());
        let mut bit_pos: u64 = 64;
        for &v in values {
            let q = quantizer.quantize(v);
            // Keep sign(1) + exponent(8) + top mantissa bits.
            let raw = q.to_bits() >> (32 - bits_per_value);
            for b in 0..bits_per_value {
                let bit = (raw >> (bits_per_value - 1 - b)) & 1;
                if bit != 0 {
                    let idx = (bit_pos / 8) as usize;
                    bytes[idx] |= 1 << (7 - (bit_pos % 8));
                }
                bit_pos += 1;
            }
        }
        FlashImage {
            width,
            param_count: values.len(),
            bytes,
        }
    }

    /// Unpacks the stored values (each reconstructed at full `f32`, with the
    /// dropped mantissa bits read back as zero).
    ///
    /// # Errors
    ///
    /// Returns [`AcousticError::CorruptImage`] if the header is malformed or
    /// the image is truncated.
    pub fn unpack_values(&self) -> Result<Vec<f32>, AcousticError> {
        if self.bytes.len() < 8 {
            return Err(AcousticError::CorruptImage(
                "image shorter than header".into(),
            ));
        }
        let magic = u32::from_le_bytes(self.bytes[..4].try_into().expect("4 bytes"));
        if magic != FLASH_MAGIC {
            return Err(AcousticError::CorruptImage(format!(
                "bad magic 0x{magic:08x}"
            )));
        }
        let count = u32::from_le_bytes(self.bytes[4..8].try_into().expect("4 bytes")) as usize;
        let bits_per_value = self.width.storage_bits();
        let needed_bits = 64 + count as u64 * bits_per_value as u64;
        if (self.bytes.len() as u64) * 8 < needed_bits {
            return Err(AcousticError::CorruptImage("image truncated".into()));
        }
        let mut out = Vec::with_capacity(count);
        let mut bit_pos: u64 = 64;
        for _ in 0..count {
            let mut raw: u32 = 0;
            for _ in 0..bits_per_value {
                let idx = (bit_pos / 8) as usize;
                let bit = (self.bytes[idx] >> (7 - (bit_pos % 8))) & 1;
                raw = (raw << 1) | bit as u32;
                bit_pos += 1;
            }
            out.push(f32::from_bits(raw << (32 - bits_per_value)));
        }
        Ok(out)
    }

    /// Width the image was packed at.
    pub fn width(&self) -> MantissaWidth {
        self.width
    }

    /// Number of packed values.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The raw flash bytes (header + packed payload).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Payload size in bytes, excluding the fixed header.
    pub fn payload_bytes(&self) -> usize {
        self.bytes.len() - 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AcousticModelConfig;

    #[test]
    fn paper_memory_and_bandwidth_table() {
        // E1: the headline reproduction of the paper's results table.
        let cfg = AcousticModelConfig::paper_default();
        let expect = [
            (MantissaWidth::FULL, 15.16, 1.516),
            (MantissaWidth::BITS_15, 11.37, 1.137),
            (MantissaWidth::BITS_12, 9.95, 0.995),
        ];
        for (width, mb, gbps) in expect {
            let layout = StorageLayout::for_config(&cfg, width);
            assert!(
                (layout.model_megabytes() - mb).abs() < 0.02,
                "{width}: {} MB vs paper {mb} MB",
                layout.model_megabytes()
            );
            assert!(
                (layout.worst_case_bandwidth_gb_per_s() - gbps).abs() < 0.002,
                "{width}: {} GB/s vs paper {gbps} GB/s",
                layout.worst_case_bandwidth_gb_per_s()
            );
        }
    }

    #[test]
    fn active_fraction_scales_bandwidth() {
        let cfg = AcousticModelConfig::paper_default();
        let layout = StorageLayout::for_config(&cfg, MantissaWidth::FULL);
        let half = layout.active_bandwidth_gb_per_s(3000, 6000);
        assert!((half - layout.worst_case_bandwidth_gb_per_s() / 2.0).abs() < 1e-9);
        assert_eq!(layout.active_bandwidth_gb_per_s(10, 0), 0.0);
    }

    #[test]
    fn layout_for_model_matches_config() {
        let cfg = AcousticModelConfig::tiny();
        let model = AcousticModel::untrained(cfg.clone()).unwrap();
        let a = StorageLayout::for_model(&model, MantissaWidth::FULL);
        let b = StorageLayout::for_config(&cfg, MantissaWidth::FULL);
        assert_eq!(a.gaussian_params, b.gaussian_params);
        assert_eq!(a.model_bytes(), b.model_bytes());
    }

    #[test]
    fn flash_image_roundtrip_full_precision() {
        let values = vec![1.5f32, -2.25, 0.0, 1000.125, -0.000123];
        let img = FlashImage::pack_values(&values, MantissaWidth::FULL);
        let back = img.unpack_values().unwrap();
        assert_eq!(values, back);
        assert_eq!(img.param_count(), 5);
        assert_eq!(img.width(), MantissaWidth::FULL);
    }

    #[test]
    fn flash_image_roundtrip_reduced_precision() {
        let values = vec![
            std::f32::consts::PI,
            -std::f32::consts::E,
            123.456,
            -0.001234,
        ];
        for width in [MantissaWidth::BITS_15, MantissaWidth::BITS_12] {
            let img = FlashImage::pack_values(&values, width);
            let back = img.unpack_values().unwrap();
            let bound = 2.0 * width.max_relative_error();
            for (orig, rec) in values.iter().zip(&back) {
                let rel = ((orig - rec).abs() / orig.abs()) as f64;
                assert!(rel <= bound, "{width}: {orig} -> {rec} rel {rel}");
            }
        }
    }

    #[test]
    fn flash_image_size_matches_layout() {
        let cfg = AcousticModelConfig::tiny();
        let model = AcousticModel::untrained(cfg).unwrap();
        for width in MantissaWidth::PAPER_SWEEP {
            let img = FlashImage::pack(&model, width);
            let layout = StorageLayout::for_model(&model, width);
            let analytic = layout.model_bytes();
            let actual = img.payload_bytes() as f64;
            assert!(
                (actual - analytic).abs() <= 1.0,
                "{width}: packed {actual} B vs analytic {analytic} B"
            );
            assert_eq!(img.param_count(), model.gaussian_param_count());
        }
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let values = vec![1.0f32, 2.0];
        let img = FlashImage::pack_values(&values, MantissaWidth::FULL);
        // Bad magic.
        let mut bad = img.clone();
        bad.bytes[0] ^= 0xff;
        assert!(bad.unpack_values().is_err());
        // Truncated.
        let mut short = img.clone();
        short.bytes.truncate(9);
        assert!(short.unpack_values().is_err());
        let mut tiny = img;
        tiny.bytes.truncate(3);
        assert!(tiny.unpack_values().is_err());
    }

    #[test]
    fn model_pack_and_unpack_preserves_values() {
        let model = AcousticModel::untrained(AcousticModelConfig::tiny()).unwrap();
        let img = FlashImage::pack(&model, MantissaWidth::FULL);
        let values = img.unpack_values().unwrap();
        // First packed values are the first senone's first component mean.
        let first_mean = model
            .senones()
            .iter()
            .next()
            .unwrap()
            .mixture()
            .components()[0]
            .mean();
        assert_eq!(&values[..first_mean.len()], first_mean);
    }
}
