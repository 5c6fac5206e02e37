//! Signal-processing substrate for the ASAP reproduction.
//!
//! Section 4.3 of the paper prunes ASAP's window search using the series'
//! **autocorrelation function** (ACF), computed by direct lag sums at the
//! search's sizes and with two FFTs above a measured crossover, and
//! Appendix B.2 compares SMA against alternative smoothing functions.
//! This crate provides all of that machinery:
//!
//! * [`acf`] — the biased ACF estimator (direct lag sums below the FFT
//!   crossover, `rustfft` above it) and its brute-force O(n²) oracle, which
//!   both regimes are property-tested against;
//! * [`peaks`] — autocorrelation peak detection (local maxima above a
//!   correlation threshold, falling back to all lags for aperiodic data),
//!   mirroring the reference ASAP implementation;
//! * [`savgol`] — Savitzky–Golay least-squares smoothing filters (SG1/SG4 in
//!   Figure B.2);
//! * [`fft_filter`] — FFT-low and FFT-dominant reconstruction smoothers
//!   (Figure B.2);
//! * [`minmax_filter`] — the min–max aggregation smoother (Figure B.2);
//! * [`convolution`] — direct convolution used by the filters;
//! * [`wavelet`] — Haar DWT and VisuShrink soft-threshold denoising (the
//!   §6 wavelet-transform alternative, added to the Figure B.2 sweep).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acf;
pub mod convolution;
pub mod fft_filter;
pub mod minmax_filter;
pub mod peaks;
pub mod savgol;
pub mod wavelet;

pub use acf::{acf_brute_force, autocorrelation, Acf};
pub use peaks::{find_peaks, PeakConfig};
pub use savgol::SavitzkyGolay;
pub use wavelet::{denoise as wavelet_denoise, haar_forward, haar_inverse, HaarDecomposition};
