//! Time-series kernel for the ASAP reproduction.
//!
//! This crate implements the statistical primitives that Section 3 of
//! *ASAP: Prioritizing Attention via Time Series Smoothing* (Rong & Bailis,
//! VLDB 2017) builds on:
//!
//! * [`stats`] — one-pass central moments: mean, population variance,
//!   standard deviation, and **kurtosis** (the fourth standardized moment,
//!   the paper's trend-preservation measure, §3.2);
//! * [`diff`] — first-difference series and **roughness** (σ of the first
//!   differences, the paper's smoothness measure, §3.1);
//! * [`mod@sma`] — the simple moving average smoothing function (§3.3), in
//!   naive, running-sum and prefix-sum forms;
//! * [`normalize`] — z-score normalization used for all plots in the paper
//!   ("we depict z-scores instead of raw values", §1 fn. 1);
//! * [`series`] — an owned, timestamped series container with sampling
//!   metadata used across the workspace.
//!
//! All moment computations use *population* (biased, ÷N) estimators to match
//! the paper's derivations (Equations 1–4) and its reference kurtosis values
//! (normal = 3, Laplace = 6, uniform = 1.8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod error;
pub mod normalize;
pub mod series;
pub mod sma;
pub mod stats;

pub use diff::{first_differences, roughness};
pub use error::TimeSeriesError;
pub use normalize::{zscore, zscore_in_place};
pub use series::TimeSeries;
pub use sma::{sma, sma_naive, PrefixSum};
pub use stats::{kurtosis, mean, moments, stddev, variance, Moments};

/// Validates that every sample is finite, reporting the first offender.
///
/// The moment kernels themselves accept any `f64` (NaN propagates, which is
/// correct for internal use); public entry points such as
/// `asap_core::Asap::smooth` call this so users get a positioned error
/// instead of a silently-NaN plot.
pub fn validate_finite(data: &[f64]) -> Result<(), TimeSeriesError> {
    match data.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(TimeSeriesError::NonFinite { index }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn validate_finite_accepts_ordinary_data() {
        assert!(validate_finite(&[1.0, -2.5, 0.0, f64::MIN_POSITIVE]).is_ok());
        assert!(validate_finite(&[]).is_ok());
    }

    #[test]
    fn validate_finite_reports_first_offender() {
        assert_eq!(
            validate_finite(&[1.0, f64::NAN, f64::INFINITY]),
            Err(TimeSeriesError::NonFinite { index: 1 })
        );
        assert_eq!(
            validate_finite(&[1.0, 2.0, f64::NEG_INFINITY]),
            Err(TimeSeriesError::NonFinite { index: 2 })
        );
    }
}
