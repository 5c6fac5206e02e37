//! The "oversmoothed" baseline of the user studies (§5.1).
//!
//! The paper's upper anchor applies an SMA "with a window size of ¼ of the
//! number of points" — deliberately past the kurtosis-preserving sweet
//! spot, so short- and medium-scale structure is erased. It wins only when
//! the deviation of interest is itself extremely long-scale (the Temp
//! dataset's multi-decade warming trend, Figure 7).

use asap_timeseries::{sma, TimeSeriesError};

/// Applies the user-study oversmoothing policy: SMA with `window = n / 4`
/// (at least 2).
pub fn oversmooth(data: &[f64]) -> Result<Vec<f64>, TimeSeriesError> {
    if data.len() < 8 {
        return Err(TimeSeriesError::TooShort {
            required: 8,
            actual: data.len(),
        });
    }
    let window = (data.len() / 4).max(2);
    sma(data, window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_a_quarter_of_length() {
        // SMA output has n − window + 1 points: window 200 at n = 800, 2 at
        // n = 9.
        assert_eq!(oversmooth(&[0.0; 800]).unwrap().len(), 800 - 200 + 1);
        assert_eq!(oversmooth(&[0.0; 9]).unwrap().len(), 9 - 2 + 1);
    }

    #[test]
    fn output_length_matches_sma_contract() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let out = oversmooth(&data).unwrap();
        assert_eq!(out.len(), 100 - 25 + 1);
    }

    #[test]
    fn is_smoother_than_a_kurtosis_preserving_window() {
        let data: Vec<f64> = (0..800)
            .map(|i| {
                (std::f64::consts::TAU * i as f64 / 32.0).sin()
                    + 0.3 * if i % 2 == 0 { 1.0 } else { -1.0 }
            })
            .collect();
        let over = oversmooth(&data).unwrap();
        // A small window not aligned with the period: leaves residue.
        let moderate = sma(&data, 10).unwrap();
        let r_over = asap_timeseries::roughness(&over).unwrap();
        let r_mod = asap_timeseries::roughness(&moderate).unwrap();
        assert!(r_over < r_mod);
    }

    #[test]
    fn oversmoothing_erases_short_anomalies() {
        // The failure mode that motivates the kurtosis constraint: a
        // one-period dip vanishes under a quarter-length window.
        let n = 800;
        let data: Vec<f64> = (0..n)
            .map(|i| if (400..432).contains(&i) { -5.0 } else { 0.0 })
            .collect();
        let over = oversmooth(&data).unwrap();
        let min_over = over.iter().cloned().fold(f64::MAX, f64::min);
        assert!(min_over > -1.0, "dip should be diluted, got {min_over}");
    }

    #[test]
    fn too_short_errors() {
        assert!(oversmooth(&[1.0; 7]).is_err());
    }
}
