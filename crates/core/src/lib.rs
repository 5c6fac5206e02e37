//! The ASAP operator: automatic smoothing-parameter selection for time
//! series visualization (Rong & Bailis, VLDB 2017, §3–§4).
//!
//! Given a series `X` and a target resolution, ASAP finds the moving-average
//! window
//!
//! ```text
//! ŵ = argmin_w roughness(SMA(X, w))   s.t.   Kurt[SMA(X, w)] ≥ Kurt[X]
//! ```
//!
//! — the smoothest rendering that still preserves large-scale deviations —
//! and finds it fast through three optimizations:
//!
//! 1. **Autocorrelation pruning** (§4.3): only ACF peaks are candidate
//!    windows on periodic data, with lower-bound (Eq. 6) and
//!    roughness-estimate (Eq. 5) pruning; aperiodic data falls back to
//!    binary search (justified by the IID analysis of §4.2).
//! 2. **Pixel-aware preaggregation** (§4.4): the series is first reduced to
//!    one point per target pixel, bounding search cost by the display
//!    resolution rather than the data size.
//! 3. **On-demand streaming updates** (§4.5): in streaming mode the search
//!    re-runs only at human-perceptible refresh intervals, seeded with the
//!    previous answer (Algorithm 3).
//!
//! Entry points: [`Asap`] for one-shot batch smoothing,
//! [`streaming::StreamingAsap`] for streams, and [`search`] for the
//! individual strategies (exhaustive / grid / binary / ASAP) compared in
//! the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod alt_smoothers;
pub mod candidates;
pub mod config;
pub mod devices;
pub mod estimate;
pub mod metrics;
pub mod preagg;
pub mod problem;
pub mod search;
pub mod streaming;

pub use config::{AsapBuilder, AsapConfig};
pub use devices::{Device, DEVICES};
pub use preagg::{preaggregate, point_to_pixel_ratio};
pub use problem::{SearchOutcome, SmoothingResult};
pub use search::{binary, exhaustive, grid, SearchStrategy};
pub use alert::{Alert, AlertGate, DeviationAlerter, Direction};
pub use streaming::{Frame, MultiStreamingAsap, StreamingAsap, StreamingConfig, MIN_WARM_PANES};

use asap_timeseries::TimeSeriesError;

/// One-shot ASAP smoothing with a fixed configuration.
///
/// ```
/// use asap_core::Asap;
///
/// let noisy: Vec<f64> = (0..4000)
///     .map(|i| (i as f64 / 48.0 * std::f64::consts::TAU).sin()
///         + if i % 2 == 0 { 0.4 } else { -0.4 })
///     .collect();
/// let result = Asap::builder().resolution(800).build().smooth(&noisy).unwrap();
/// assert!(result.window >= 1);
/// ```
#[derive(Debug, Clone)]
#[derive(Default)]
pub struct Asap {
    config: AsapConfig,
}

impl Asap {
    /// Starts building an ASAP instance.
    pub fn builder() -> AsapBuilder {
        AsapBuilder::default()
    }

    /// Creates an instance from an explicit configuration.
    pub fn with_config(config: AsapConfig) -> Self {
        Asap { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &AsapConfig {
        &self.config
    }

    /// Smooths `data` end-to-end: pixel-aware preaggregation, ASAP window
    /// search, and final SMA application.
    ///
    /// The returned [`SmoothingResult`] reports the chosen window in both
    /// preaggregated units (`window`) and raw-point units
    /// (`window_raw_points`).
    pub fn smooth(&self, data: &[f64]) -> Result<SmoothingResult, TimeSeriesError> {
        if data.is_empty() {
            return Err(TimeSeriesError::Empty);
        }
        asap_timeseries::validate_finite(data)?;
        let (aggregated, ratio) = if self.config.preaggregate {
            preagg::preaggregate(data, self.config.resolution)
        } else {
            (data.to_vec(), 1)
        };

        let outcome = search::asap::search(&aggregated, &self.config)?;
        let smoothed = if outcome.window <= 1 {
            aggregated.clone()
        } else {
            asap_timeseries::sma(&aggregated, outcome.window)?
        };
        Ok(SmoothingResult {
            window: outcome.window,
            window_raw_points: outcome.window * ratio,
            pixel_ratio: ratio,
            roughness: outcome.roughness,
            kurtosis: outcome.kurtosis,
            candidates_checked: outcome.candidates_checked,
            smoothed,
            aggregated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn periodic_noisy(n: usize, period: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                (std::f64::consts::TAU * i as f64 / period as f64).sin()
                    + 0.35 * if i % 2 == 0 { 1.0 } else { -1.0 }
            })
            .collect()
    }

    #[test]
    fn facade_smooths_and_reports_units() {
        let data = periodic_noisy(8000, 200);
        let res = Asap::builder().resolution(1000).build().smooth(&data).unwrap();
        assert_eq!(res.pixel_ratio, 8);
        assert_eq!(res.window_raw_points, res.window * 8);
        assert!(res.window > 1, "periodic noisy data should be smoothed");
        assert!(res.smoothed.len() <= 1001);
    }

    #[test]
    fn empty_input_errors() {
        assert!(Asap::default().smooth(&[]).is_err());
    }

    #[test]
    fn preaggregation_can_be_disabled() {
        let data = periodic_noisy(2000, 100);
        let res = Asap::builder()
            .resolution(100)
            .preaggregate(false)
            .build()
            .smooth(&data)
            .unwrap();
        assert_eq!(res.pixel_ratio, 1);
        assert_eq!(res.aggregated.len(), data.len());
    }

    /// A flat series has nothing to smooth. Its pixel groups are summed
    /// one by one, so they stay exactly equal: no rounding noise for the
    /// search to smooth, at any value, length or display width.
    #[test]
    fn flat_series_come_out_at_window_one() {
        for v in [0.1, 1.0 / 3.0, -7.3, 1e15, 2.5e-300, 17.02, 0.0] {
            for n in [5_000usize, 150_000, 1_000_003] {
                let data = vec![v; n];
                for resolution in [272usize, 800, 2304] {
                    let asap = Asap::builder().resolution(resolution).build();
                    let res = asap.smooth(&data).unwrap();
                    assert_eq!(res.window, 1, "{v} × {n} points at {resolution} px");
                }
            }
        }
    }

    #[test]
    fn short_series_is_left_alone() {
        let data = vec![1.0, 2.0, 1.5];
        let res = Asap::default().smooth(&data).unwrap();
        assert_eq!(res.window, 1);
        assert_eq!(res.smoothed, data);
    }

    #[test]
    fn non_finite_input_is_rejected_with_position() {
        let mut data = periodic_noisy(100, 10);
        data[42] = f64::NAN;
        assert!(matches!(
            Asap::default().smooth(&data),
            Err(TimeSeriesError::NonFinite { index: 42 })
        ));
        data[42] = f64::INFINITY;
        assert!(Asap::default().smooth(&data).is_err());
    }
}
