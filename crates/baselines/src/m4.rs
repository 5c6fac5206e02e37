//! M4 visualization-oriented aggregation (Jugel et al., VLDB 2014).
//!
//! M4 splits the series into one group per pixel column and keeps, for each
//! group, the **first, last, minimum and maximum** points (with their
//! original time positions). Rasterizing the result reproduces the
//! pixel-perfect line rendering of the raw data — the opposite design goal
//! from ASAP, which deliberately "distorts" the plot to highlight
//! deviations (§6): M4 has near-zero pixel error (Table 4) but does not
//! remove any visual noise.

use asap_timeseries::TimeSeriesError;

/// A retained point: original index plus value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct M4Point {
    /// Index in the original series.
    pub index: usize,
    /// Value at that index.
    pub value: f64,
}

/// Reduces `data` to at most `4 · width` points: first/last/min/max per
/// pixel column, in time order with duplicates removed.
pub fn m4_aggregate(data: &[f64], width: usize) -> Result<Vec<M4Point>, TimeSeriesError> {
    if data.is_empty() {
        return Err(TimeSeriesError::Empty);
    }
    if width == 0 {
        return Err(TimeSeriesError::InvalidParameter {
            name: "width",
            message: "M4 needs at least one pixel column",
        });
    }
    let n = data.len();
    let mut out: Vec<M4Point> = Vec::with_capacity(4 * width.min(n));
    let mut col_start = 0usize;
    for col in 0..width {
        let col_end = ((col + 1) * n).div_ceil(width).min(n);
        if col_start >= col_end {
            continue;
        }
        let slice = &data[col_start..col_end];
        let mut min_i = 0usize;
        let mut max_i = 0usize;
        for (i, &v) in slice.iter().enumerate() {
            if v < slice[min_i] {
                min_i = i;
            }
            if v > slice[max_i] {
                max_i = i;
            }
        }
        let mut picks = [0usize, min_i, max_i, slice.len() - 1];
        picks.sort_unstable();
        for (k, &p) in picks.iter().enumerate() {
            if k > 0 && picks[k - 1] == p {
                continue; // dedup within the column
            }
            out.push(M4Point {
                index: col_start + p,
                value: slice[p],
            });
        }
        col_start = col_end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_extremes_of_every_column() {
        let data: Vec<f64> = (0..100)
            .map(|i| if i == 37 { 100.0 } else if i == 61 { -50.0 } else { (i as f64).sin() })
            .collect();
        let pts = m4_aggregate(&data, 10).unwrap();
        assert!(pts.iter().any(|p| p.value == 100.0 && p.index == 37));
        assert!(pts.iter().any(|p| p.value == -50.0 && p.index == 61));
    }

    #[test]
    fn output_is_time_ordered_and_bounded() {
        let data: Vec<f64> = (0..1000).map(|i| ((i as u64 * 2654435761) % 997) as f64).collect();
        let pts = m4_aggregate(&data, 50).unwrap();
        assert!(pts.len() <= 200);
        for w in pts.windows(2) {
            assert!(w[0].index < w[1].index);
        }
    }

    #[test]
    fn first_and_last_points_survive() {
        let data: Vec<f64> = (0..313).map(|i| i as f64 * 0.5).collect();
        let pts = m4_aggregate(&data, 7).unwrap();
        assert_eq!(pts.first().unwrap().index, 0);
        assert_eq!(pts.last().unwrap().index, 312);
    }

    #[test]
    fn monotone_column_keeps_two_points() {
        // In a monotone column, first == min and last == max: dedup leaves 2.
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let pts = m4_aggregate(&data, 1).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].index, 0);
        assert_eq!(pts[1].index, 9);
    }

    #[test]
    fn width_larger_than_series_keeps_all_points() {
        let data = vec![3.0, 1.0, 2.0];
        let pts = m4_aggregate(&data, 10).unwrap();
        let values: Vec<f64> = pts.iter().map(|p| p.value).collect();
        assert_eq!(values, data);
    }

    #[test]
    fn degenerate_inputs_error() {
        assert!(m4_aggregate(&[], 5).is_err());
        assert!(m4_aggregate(&[1.0], 0).is_err());
    }

    #[test]
    fn m4_preserves_roughness_unlike_smoothing() {
        // M4 is pixel-faithful: it keeps extremes, so the plot stays rough.
        let data: Vec<f64> = (0..800)
            .map(|i| (i as f64 * 0.1).sin() + if i % 2 == 0 { 0.6 } else { -0.6 })
            .collect();
        let m4: Vec<f64> = m4_aggregate(&data, 100).unwrap().iter().map(|p| p.value).collect();
        let sma = asap_timeseries::sma(&data, 8).unwrap();
        let r_m4 = asap_timeseries::roughness(&m4).unwrap();
        let r_sma = asap_timeseries::roughness(&sma).unwrap();
        assert!(r_m4 > 3.0 * r_sma, "M4 {r_m4} vs SMA {r_sma}");
    }
}
