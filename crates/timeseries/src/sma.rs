//! Simple moving average — ASAP's smoothing function (§3.3).
//!
//! `SMA(X, w)` averages every sequential window of `w` points:
//! `yᵢ = (1/w) Σ_{j=0}^{w−1} x_{i+j}`. The paper chooses SMA because it is
//! cheap, incrementally maintainable, and statistically optimal for
//! recovering a trend under normally distributed fluctuations.
//!
//! Two execution strategies are provided:
//!
//! * [`sma_naive`] — the textbook O(N·w) definition, kept as a test oracle;
//! * [`sma`] — O(N) via a running sum with periodic renormalization through
//!   [`PrefixSum`], the strategy ASAP's search uses when evaluating many
//!   candidate windows over the same series.
//!
//! Note on output length: the paper writes `SMA(X,w) = {y₁…y_{N−w}}`; we
//! return all `N−w+1` full windows (the conventional definition — the
//! paper's index set drops the final window; this off-by-one has no effect
//! on the search).

use crate::error::TimeSeriesError;

/// Precomputed prefix sums enabling O(1) window-sum queries, the workhorse
/// behind evaluating many SMA candidates over one series.
///
/// `sums[i]` holds `x₀ + … + x_{i−1}`; the sum of `x[a..b]` is
/// `sums[b] − sums[a]`. Uses compensated (Kahan) accumulation so the error
/// stays bounded for million-point telemetry series.
#[derive(Debug, Clone)]
pub struct PrefixSum {
    sums: Vec<f64>,
}

impl PrefixSum {
    /// Builds prefix sums over `data` in O(N).
    pub fn new(data: &[f64]) -> Self {
        let mut sums = Vec::with_capacity(data.len() + 1);
        sums.push(0.0);
        let mut acc = 0.0f64;
        let mut comp = 0.0f64; // Kahan compensation
        for &x in data {
            let y = x - comp;
            let t = acc + y;
            comp = (t - acc) - y;
            acc = t;
            sums.push(acc);
        }
        PrefixSum { sums }
    }

    /// Number of underlying points.
    pub fn len(&self) -> usize {
        self.sums.len() - 1
    }

    /// True when built over an empty series.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of `data[start..end)`. Panics (debug) on out-of-range input.
    #[inline]
    pub fn range_sum(&self, start: usize, end: usize) -> f64 {
        debug_assert!(start <= end && end < self.sums.len());
        self.sums[end] - self.sums[start]
    }

    /// Computes `SMA(X, w)` with slide 1 in O(N) using the prefix sums.
    pub fn sma(&self, window: usize) -> Result<Vec<f64>, TimeSeriesError> {
        let n = self.len();
        validate_window(window, n)?;
        let out_len = n - window + 1;
        let inv = 1.0 / window as f64;
        let mut out = Vec::with_capacity(out_len);
        for i in 0..out_len {
            out.push(self.range_sum(i, i + window) * inv);
        }
        Ok(out)
    }
}

fn validate_window(window: usize, n: usize) -> Result<(), TimeSeriesError> {
    if window == 0 {
        return Err(TimeSeriesError::InvalidParameter {
            name: "window",
            message: "moving-average window must be at least 1",
        });
    }
    if n < window {
        return Err(TimeSeriesError::TooShort {
            required: window,
            actual: n,
        });
    }
    Ok(())
}

/// Textbook O(N·w) simple moving average; retained as a test oracle for the
/// fast paths.
pub fn sma_naive(data: &[f64], window: usize) -> Result<Vec<f64>, TimeSeriesError> {
    validate_window(window, data.len())?;
    let inv = 1.0 / window as f64;
    Ok(data
        .windows(window)
        .map(|w| w.iter().sum::<f64>() * inv)
        .collect())
}

/// O(N) simple moving average with slide 1.
///
/// Equivalent to [`sma_naive`] up to floating-point rounding; uses a running
/// sum renormalized from scratch every `RENORM_INTERVAL` outputs to keep
/// rounding error from drifting on long streams.
pub fn sma(data: &[f64], window: usize) -> Result<Vec<f64>, TimeSeriesError> {
    validate_window(window, data.len())?;
    if window == 1 {
        return Ok(data.to_vec());
    }
    const RENORM_INTERVAL: usize = 4096;
    let inv = 1.0 / window as f64;
    let out_len = data.len() - window + 1;
    let mut out = Vec::with_capacity(out_len);
    let mut sum: f64 = data[..window].iter().sum();
    out.push(sum * inv);
    for i in 1..out_len {
        if i % RENORM_INTERVAL == 0 {
            sum = data[i..i + window].iter().sum();
        } else {
            sum += data[i + window - 1] - data[i - 1];
        }
        out.push(sum * inv);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * 0.31).sin() * 2.5 + (i as f64) * 0.01).collect()
    }

    #[test]
    fn window_one_is_identity() {
        let data = series(50);
        assert_eq!(sma(&data, 1).unwrap(), data);
        assert_eq!(sma_naive(&data, 1).unwrap(), data);
    }

    #[test]
    fn window_equal_length_yields_single_mean() {
        let data = series(32);
        let out = sma(&data, 32).unwrap();
        assert_eq!(out.len(), 1);
        let mean = data.iter().sum::<f64>() / 32.0;
        assert!((out[0] - mean).abs() < 1e-12);
    }

    #[test]
    fn invalid_windows_error() {
        let data = series(10);
        assert!(sma(&data, 0).is_err());
        assert!(sma(&data, 11).is_err());
        assert!(sma(&[], 1).is_err());
    }

    #[test]
    fn fast_matches_naive() {
        let data = series(1000);
        for w in [2usize, 3, 7, 50, 999, 1000] {
            let a = sma(&data, w).unwrap();
            let b = sma_naive(&data, w).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-9, "w={w}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn prefix_sum_matches_naive() {
        let data = series(513);
        let ps = PrefixSum::new(&data);
        assert_eq!(ps.len(), 513);
        for w in [1usize, 5, 128, 513] {
            let a = ps.sma(w).unwrap();
            let b = sma_naive(&data, w).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn output_length_is_n_minus_w_plus_1() {
        let data = series(100);
        for w in [1usize, 2, 37, 100] {
            assert_eq!(sma(&data, w).unwrap().len(), 100 - w + 1);
        }
    }

    #[test]
    fn smoothing_reduces_roughness_on_noisy_data() {
        // Deterministic "noise": high-frequency oscillation.
        let data: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.05).sin() + 0.5 * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let smoothed = sma(&data, 10).unwrap();
        let r0 = crate::diff::roughness(&data).unwrap();
        let r1 = crate::diff::roughness(&smoothed).unwrap();
        assert!(r1 < r0 / 2.0, "roughness {r0} -> {r1}");
    }

    #[test]
    fn long_stream_running_sum_does_not_drift() {
        // 100k points with large offset stresses the renormalization.
        let data: Vec<f64> = (0..100_000)
            .map(|i| 1.0e6 + ((i as f64) * 0.013).sin())
            .collect();
        let fast = sma(&data, 97).unwrap();
        let ps = PrefixSum::new(&data);
        let exact = ps.sma(97).unwrap();
        let max_err = fast
            .iter()
            .zip(&exact)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-6, "max drift {max_err}");
    }
}
