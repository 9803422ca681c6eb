//! Signal-processing primitives used by the MFCC pipeline.
//!
//! Everything is implemented from scratch (no external DSP crates): windowing
//! and framing, a radix-2 FFT that gives the power spectrum of a real frame, the
//! mel filter bank and the DCT-II.

pub mod dct;
pub mod fft;
pub mod mel;
pub mod window;

pub use dct::DctII;
pub use fft::Fft;
pub use mel::{hz_to_mel, mel_to_hz, MelFilterBank};
pub use window::{hamming_window, pre_emphasis, FrameIter};
