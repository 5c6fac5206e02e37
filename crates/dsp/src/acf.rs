//! Autocorrelation function (ACF) estimation — §4.3 of the paper.
//!
//! For a weakly stationary series, the lag-τ autocorrelation is
//! `ACF(X,τ) = cov(X_t, X_{t+τ}) / σ²`. ASAP uses the standard biased
//! sample estimator
//!
//! ```text
//! ACF(X,k) = Σ_{i=1}^{N−k} (xᵢ−x̄)(x_{i+k}−x̄) / Σ_{i=1}^{N} (xᵢ−x̄)²
//! ```
//!
//! for lags `0..=L` only, in one of two regimes chosen by cost:
//!
//! * **direct** — each lag is one dot product of the centred series with
//!   itself shifted, O(n·(L+1)). A search asks for `L ≈ n/10` lags of a
//!   series already pre-aggregated to at most one point per pixel, where
//!   this is the cheaper regime;
//! * **FFT** — Wiener–Khinchin: FFT the centred series zero-padded to
//!   `M = next_pow2(n + L + 1)`, take the power spectrum, inverse-FFT.
//!   Padding past `n + L` leaves no circular wrap-around at any kept lag.
//!
//! The direct regime runs while `n·(L+1) ≤ K·M·log2 M` (see
//! `DIRECT_COST_FACTOR` for how `K` was measured). Both regimes normalize
//! by lag 0. A brute-force O(n²) estimator is retained as the test oracle
//! ([`acf_brute_force`]).

use asap_timeseries::TimeSeriesError;
use rustfft::{num_complex::Complex, FftPlanner};

/// Autocorrelation values for lags `0..=max_lag`, plus the series length the
/// estimate was computed from (needed by ASAP's roughness estimate, Eq. 5).
#[derive(Debug, Clone)]
pub struct Acf {
    values: Vec<f64>,
    series_len: usize,
}

impl Acf {
    /// ACF value at `lag`. Panics if `lag` exceeds the computed range.
    #[inline]
    pub fn at(&self, lag: usize) -> f64 {
        self.values[lag]
    }

    /// All computed values, index = lag. `values()[0] == 1.0`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Largest computed lag.
    pub fn max_lag(&self) -> usize {
        self.values.len() - 1
    }

    /// Length of the series the ACF was estimated from.
    pub fn series_len(&self) -> usize {
        self.series_len
    }
}

/// `K` of the crossover: the direct regime runs while
/// `n·(L+1) ≤ K·M·log2 M`, with `M` the FFT length.
///
/// Measured by timing both regimes (release build, baseline x86-64
/// codegen, one core of a shared 2-CPU host) for n from 100 to 16 384 and
/// L from n/10 to n − 1. They break even at `n·(L+1) / (M·log2 M)`
/// between 22 and 40 for n ≥ 1 200; below that the direct sum wins at
/// every lag. At a search's own `L = n/10` the direct sum is 2× (n = 2 304)
/// to 12× (n = 272) faster than the FFT.
const DIRECT_COST_FACTOR: usize = 24;

/// Computes the ACF of `data` for lags `0..=max_lag`, by direct lag sums
/// below the FFT crossover and by two FFTs above it.
///
/// Errors if the series has fewer than 2 points, if `max_lag ≥
/// data.len()`, or if its variance is zero or not finite (a constant
/// series, or one holding NaN, ±inf or values whose squares overflow).
pub fn autocorrelation(data: &[f64], max_lag: usize) -> Result<Acf, TimeSeriesError> {
    let n = data.len();
    if n < 2 {
        return Err(TimeSeriesError::TooShort {
            required: 2,
            actual: n,
        });
    }
    if max_lag >= n {
        return Err(TimeSeriesError::InvalidParameter {
            name: "max_lag",
            message: "max_lag must be smaller than the series length",
        });
    }
    // A constant series: its centred values are all `x − x̄`, which the
    // rounding of `x̄` can make a tiny nonzero constant instead of zero.
    if data.iter().all(|&x| x == data[0]) {
        return Err(TimeSeriesError::ZeroVariance);
    }

    let mean = data.iter().sum::<f64>() / n as f64;
    let centred: Vec<f64> = data.iter().map(|&x| x - mean).collect();
    let mut sums = if direct_is_cheaper(n, max_lag) {
        direct_lag_sums(&centred, max_lag)
    } else {
        fft_lag_sums(&centred, max_lag)
    };

    let r0 = sums[0];
    if r0 <= 0.0 || !r0.is_finite() {
        return Err(TimeSeriesError::ZeroVariance);
    }
    for v in &mut sums {
        *v /= r0;
    }
    Ok(Acf {
        values: sums,
        series_len: n,
    })
}

/// The FFT transform length for `n` points and lags `0..=max_lag`.
fn fft_len(n: usize, max_lag: usize) -> usize {
    (n + max_lag + 1).next_power_of_two()
}

/// Whether `n·(max_lag+1)` multiply-adds cost less than the transforms.
fn direct_is_cheaper(n: usize, max_lag: usize) -> bool {
    let m = fft_len(n, max_lag);
    n.saturating_mul(max_lag + 1) <= DIRECT_COST_FACTOR * m * m.trailing_zeros() as usize
}

/// `Σ cᵢ·c_{i+k}` for `k = 0..=max_lag`, one dot product per lag.
fn direct_lag_sums(centred: &[f64], max_lag: usize) -> Vec<f64> {
    (0..=max_lag)
        .map(|k| dot(&centred[..centred.len() - k], &centred[k..]))
        .collect()
}

/// Dot product over eight independent accumulators, so the additions
/// pipeline (and vectorize) instead of waiting on one another; eight
/// measured 1.8× faster than four.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    const LANES: usize = 8;
    let mut acc = [0.0f64; LANES];
    let (a8, b8) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail: f64 = a8
        .remainder()
        .iter()
        .zip(b8.remainder())
        .map(|(x, y)| x * y)
        .sum();
    for (x, y) in a8.zip(b8) {
        for j in 0..LANES {
            acc[j] += x[j] * y[j];
        }
    }
    acc.iter().sum::<f64>() + tail
}

/// The same lag sums through the Wiener–Khinchin theorem, over a transform
/// of at least `n + max_lag + 1` points (so no kept lag wraps around).
fn fft_lag_sums(centred: &[f64], max_lag: usize) -> Vec<f64> {
    let padded = fft_len(centred.len(), max_lag);
    let mut buf: Vec<Complex<f64>> = Vec::with_capacity(padded);
    buf.extend(centred.iter().map(|&x| Complex::new(x, 0.0)));
    buf.resize(padded, Complex::new(0.0, 0.0));

    let mut planner = FftPlanner::new();
    planner.plan_fft_forward(padded).process(&mut buf);
    for v in buf.iter_mut() {
        *v = Complex::new(v.norm_sqr(), 0.0);
    }
    planner.plan_fft_inverse(padded).process(&mut buf);
    buf[..=max_lag].iter().map(|v| v.re).collect()
}

/// O(n²) reference ACF estimator (same biased normalization).
pub fn acf_brute_force(data: &[f64], max_lag: usize) -> Result<Acf, TimeSeriesError> {
    let n = data.len();
    if n < 2 {
        return Err(TimeSeriesError::TooShort {
            required: 2,
            actual: n,
        });
    }
    if max_lag >= n {
        return Err(TimeSeriesError::InvalidParameter {
            name: "max_lag",
            message: "max_lag must be smaller than the series length",
        });
    }
    let mean = data.iter().sum::<f64>() / n as f64;
    let denom: f64 = data.iter().map(|&x| (x - mean) * (x - mean)).sum();
    if denom <= 0.0 {
        return Err(TimeSeriesError::ZeroVariance);
    }
    let values = (0..=max_lag)
        .map(|k| {
            let num: f64 = (0..n - k)
                .map(|i| (data[i] - mean) * (data[i + k] - mean))
                .sum();
            num / denom
        })
        .collect();
    Ok(Acf {
        values,
        series_len: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_zero_is_one() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        let acf = autocorrelation(&data, 10).unwrap();
        assert!((acf.at(0) - 1.0).abs() < 1e-12);
        assert_eq!(acf.max_lag(), 10);
        assert_eq!(acf.series_len(), 100);
    }

    fn assert_matches_brute_force(data: &[f64], max_lag: usize) {
        let fast = autocorrelation(data, max_lag).unwrap();
        let slow = acf_brute_force(data, max_lag).unwrap();
        assert_eq!(fast.max_lag(), max_lag);
        for k in 0..=max_lag {
            assert!(
                (fast.at(k) - slow.at(k)).abs() <= 1e-9,
                "n={} lag {k} of {max_lag}: {} vs {}",
                data.len(),
                fast.at(k),
                slow.at(k)
            );
        }
    }

    fn mixed(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.21).sin() * 2.0 + (i as f64 * 0.037).cos() + 0.001 * i as f64)
            .collect()
    }

    #[test]
    fn fft_matches_brute_force() {
        let data = mixed(500);
        assert!(direct_is_cheaper(500, 120));
        assert!(!direct_is_cheaper(500, 499));
        assert_matches_brute_force(&data, 120);
        assert_matches_brute_force(&data, 499);
    }

    #[test]
    fn both_regimes_agree_across_the_crossover() {
        for n in [600usize, 1000, 2304, 4096] {
            let first_fft = (0..n)
                .find(|&lag| !direct_is_cheaper(n, lag))
                .expect("long lags of 600 or more points take the FFT");
            assert!(first_fft > 0, "n={n}: lag 0 is one dot product");
            let data = mixed(n);
            for lag in [first_fft - 2, first_fft - 1, first_fft, first_fft + 1] {
                assert_matches_brute_force(&data, lag);
            }
        }
    }

    #[test]
    fn periodic_signal_peaks_at_period() {
        let period = 25usize;
        let data: Vec<f64> = (0..1000)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin())
            .collect();
        let acf = autocorrelation(&data, 100).unwrap();
        // The ACF should be (near-)maximal at the period and its multiples.
        assert!(acf.at(period) > 0.95, "acf at period {}", acf.at(period));
        assert!(acf.at(2 * period) > 0.9);
        // And strongly negative at the half-period.
        assert!(acf.at(period / 2) < -0.9);
    }

    #[test]
    fn alternating_series_is_anticorrelated_at_lag_one() {
        let data: Vec<f64> = (0..400).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let acf = autocorrelation(&data, 4).unwrap();
        assert!(acf.at(1) < -0.99);
        assert!(acf.at(2) > 0.98);
    }

    #[test]
    fn errors_on_degenerate_inputs() {
        assert!(matches!(
            autocorrelation(&[], 0),
            Err(TimeSeriesError::TooShort { actual: 0, .. })
        ));
        assert!(matches!(
            autocorrelation(&[1.0], 0),
            Err(TimeSeriesError::TooShort { actual: 1, .. })
        ));
        assert!(matches!(
            autocorrelation(&[1.0, 2.0, 3.0], 3),
            Err(TimeSeriesError::InvalidParameter {
                name: "max_lag",
                ..
            })
        ));
        assert!(matches!(
            acf_brute_force(&[5.0; 64], 10),
            Err(TimeSeriesError::ZeroVariance)
        ));
        // Every zero or non-finite variance, in the direct regime (lag 10)
        // and the FFT regime (lag n − 1).
        let n = 1024;
        assert!(direct_is_cheaper(n, 10) && !direct_is_cheaper(n, n - 1));
        let overflow: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1e200 } else { -1e200 })
            .collect();
        let mut inputs = vec![
            vec![5.0; n],
            vec![0.1; n],
            vec![-7.3; n],
            vec![0.0; n],
            overflow,
        ];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data = mixed(n);
            data[n / 3] = bad;
            inputs.push(data);
        }
        for data in &inputs {
            for lag in [10, n - 1] {
                let result = autocorrelation(data, lag);
                assert!(
                    matches!(result, Err(TimeSeriesError::ZeroVariance)),
                    "{:?}.. at lag {lag}",
                    &data[..3]
                );
            }
        }
    }

    #[test]
    fn acf_is_bounded_by_one() {
        let data: Vec<f64> = (0..800)
            .map(|i| ((i * 7919) % 101) as f64) // pseudo-random but deterministic
            .collect();
        let acf = autocorrelation(&data, 200).unwrap();
        for (k, &v) in acf.values().iter().enumerate() {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&v), "lag {k}: {v}");
        }
    }

    #[test]
    fn trend_series_has_slowly_decaying_acf() {
        let data: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let acf = autocorrelation(&data, 30).unwrap();
        // A pure trend decays slowly and monotonically over small lags.
        for k in 1..30 {
            assert!(acf.at(k) <= acf.at(k - 1) + 1e-12);
        }
        assert!(acf.at(1) > 0.98);
    }
}
