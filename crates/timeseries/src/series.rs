//! Owned time-series container with sampling metadata.
//!
//! ASAP operates on *temporally ordered, equi-spaced* data points (§2). The
//! [`TimeSeries`] type bundles the values with the sampling period and an
//! epoch so that window sizes (in points) can be reported back in natural
//! time units ("a weekly average") as the paper's figures do.

use crate::diff::roughness;
use crate::error::TimeSeriesError;
use crate::normalize::zscore;
use crate::stats::Moments;

/// An equi-spaced, temporally ordered series of `f64` samples.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TimeSeries {
    /// Human-readable name ("Taxi", "machine_temp", ...).
    name: String,
    /// Sample values in time order.
    values: Vec<f64>,
    /// Seconds between consecutive samples.
    period_secs: f64,
    /// Seconds since the UNIX epoch of the first sample.
    start_epoch_secs: f64,
}

impl TimeSeries {
    /// Creates a series from raw values with a given sampling period.
    pub fn new(name: impl Into<String>, values: Vec<f64>, period_secs: f64) -> Self {
        TimeSeries {
            name: name.into(),
            values,
            period_secs,
            start_epoch_secs: 0.0,
        }
    }

    /// Sets the epoch of the first sample (builder style).
    pub fn with_start_epoch(mut self, start_epoch_secs: f64) -> Self {
        self.start_epoch_secs = start_epoch_secs;
        self
    }

    /// Series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Underlying values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the series, returning its values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Seconds between consecutive samples.
    pub fn period_secs(&self) -> f64 {
        self.period_secs
    }

    /// Epoch (seconds) of the first sample.
    pub fn start_epoch_secs(&self) -> f64 {
        self.start_epoch_secs
    }

    /// Total covered duration in seconds (`(len−1) · period`), 0 when empty.
    pub fn duration_secs(&self) -> f64 {
        if self.values.len() < 2 {
            0.0
        } else {
            (self.values.len() - 1) as f64 * self.period_secs
        }
    }

    /// Timestamp (epoch seconds) of sample `i`.
    pub fn timestamp(&self, i: usize) -> f64 {
        self.start_epoch_secs + i as f64 * self.period_secs
    }

    /// One-pass moments over the values.
    pub fn moments(&self) -> Result<Moments, TimeSeriesError> {
        if self.values.is_empty() {
            return Err(TimeSeriesError::Empty);
        }
        Ok(Moments::from_slice(&self.values))
    }

    /// ASAP roughness of the series (σ of first differences).
    pub fn roughness(&self) -> Result<f64, TimeSeriesError> {
        roughness(&self.values)
    }

    /// Kurtosis of the series (fourth standardized moment).
    pub fn kurtosis(&self) -> Result<f64, TimeSeriesError> {
        let k = self.moments()?.kurtosis();
        if k.is_nan() {
            Err(TimeSeriesError::ZeroVariance)
        } else {
            Ok(k)
        }
    }

    /// Returns a z-scored copy (the presentation normalization the paper
    /// applies to every figure).
    pub fn zscored(&self) -> Result<TimeSeries, TimeSeriesError> {
        Ok(TimeSeries {
            name: self.name.clone(),
            values: zscore(&self.values)?,
            period_secs: self.period_secs,
            start_epoch_secs: self.start_epoch_secs,
        })
    }

    /// Returns the sub-series of the last `n` points (the "target interval
    /// for visualization" of §2), or the whole series when shorter.
    pub fn tail(&self, n: usize) -> TimeSeries {
        let start = self.values.len().saturating_sub(n);
        TimeSeries {
            name: self.name.clone(),
            values: self.values[start..].to_vec(),
            period_secs: self.period_secs,
            start_epoch_secs: self.start_epoch_secs + start as f64 * self.period_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts() -> TimeSeries {
        TimeSeries::new("t", (0..100).map(|i| i as f64).collect(), 60.0)
            .with_start_epoch(1_000_000.0)
    }

    #[test]
    fn metadata_accessors() {
        let s = ts();
        assert_eq!(s.name(), "t");
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
        assert_eq!(s.period_secs(), 60.0);
        assert_eq!(s.duration_secs(), 99.0 * 60.0);
        assert_eq!(s.timestamp(0), 1_000_000.0);
        assert_eq!(s.timestamp(10), 1_000_600.0);
    }

    #[test]
    fn tail_keeps_alignment() {
        let s = ts();
        let t = s.tail(10);
        assert_eq!(t.len(), 10);
        assert_eq!(t.values()[0], 90.0);
        assert_eq!(t.timestamp(0), s.timestamp(90));
        // Longer than the series: returns everything.
        assert_eq!(s.tail(1000).len(), 100);
    }

    #[test]
    fn stats_delegate_to_kernel() {
        let s = ts();
        assert!(s.roughness().unwrap() < 1e-12); // straight line
        let m = s.moments().unwrap();
        assert!((m.mean() - 49.5).abs() < 1e-9);
        let z = s.zscored().unwrap();
        assert!(z.moments().unwrap().mean().abs() < 1e-10);
        assert_eq!(z.period_secs(), 60.0);
    }

    #[test]
    fn empty_series_errors() {
        let e = TimeSeries::new("e", vec![], 1.0);
        assert!(e.is_empty());
        assert!(e.moments().is_err());
        assert!(e.roughness().is_err());
        assert_eq!(e.duration_secs(), 0.0);
    }

    #[test]
    fn kurtosis_error_on_constant() {
        let c = TimeSeries::new("c", vec![1.0; 10], 1.0);
        assert_eq!(c.kurtosis(), Err(TimeSeriesError::ZeroVariance));
    }

    #[test]
    fn into_values_round_trips() {
        let s = ts();
        let v = s.clone().into_values();
        assert_eq!(v.len(), 100);
        assert_eq!(&v, s.values());
    }
}
