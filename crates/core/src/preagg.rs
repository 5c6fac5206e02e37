//! Pixel-aware preaggregation (§4.4).
//!
//! A plot rendered into `t` pixels cannot show more than `t` distinct
//! points, so ASAP first reduces the series by the **point-to-pixel ratio**
//! `⌈N / t⌉` using disjoint mean windows, then searches windows over the
//! aggregated series (i.e. windows that are integer multiples of the ratio
//! in raw units). Table 1 lists the resulting search-space reductions;
//! Appendix A.2 bounds the roughness penalty by `(w_a + 1) / w_a`.
//!
//! Each group is summed on its own, in order from `+0.0`, and divided by
//! the ratio: one pass over the raw points with nothing kept beside the
//! output. That is the arithmetic of [`Pane::mean`], so the batch
//! operator's groups and the streaming operator's panes (§4.5) are
//! bit-identical, and a flat series stays exactly flat.

use crate::streaming::Pane;

/// The point-to-pixel ratio for `n` points at `resolution` pixels:
/// `max(1, ⌈n / resolution⌉)`.
pub fn point_to_pixel_ratio(n: usize, resolution: usize) -> usize {
    if resolution == 0 {
        return 1;
    }
    n.div_ceil(resolution).max(1)
}

/// Reduces `data` to at most `resolution` points by disjoint mean windows
/// of the point-to-pixel ratio. Returns `(aggregated, ratio)`; when the
/// series already fits (`n ≤ resolution`) it is returned unchanged with
/// ratio 1.
pub fn preaggregate(data: &[f64], resolution: usize) -> (Vec<f64>, usize) {
    let ratio = point_to_pixel_ratio(data.len(), resolution);
    if ratio <= 1 {
        return (data.to_vec(), 1);
    }
    // A trailing partial group is dropped (it would carry a different
    // variance and bias the kurtosis estimate).
    let aggregated = data
        .chunks_exact(ratio)
        .map(|group| {
            let sum = group.iter().fold(0.0, |sum, &x| sum + x);
            Pane { sum, count: ratio }.mean()
        })
        .collect();
    (aggregated, ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_examples_from_the_paper() {
        // §4.4: one week of 1-second readings on a 2304-pixel MacBook
        // yields a 262-point-per-pixel ratio (604800 / 2304 = 262.5 -> 263
        // with ceil; the paper floors, we ceil — same order).
        let r = point_to_pixel_ratio(604_800, 2_304);
        assert!((262..=263).contains(&r));
        // Table 1: 1M points on a 272-pixel Apple Watch ≈ 3676x.
        let r = point_to_pixel_ratio(1_000_000, 272);
        assert!((3676..=3677).contains(&r));
    }

    #[test]
    fn small_series_pass_through() {
        let data = vec![1.0, 2.0, 3.0];
        let (agg, ratio) = preaggregate(&data, 800);
        assert_eq!(ratio, 1);
        assert_eq!(agg, data);
    }

    #[test]
    fn aggregated_length_is_at_most_resolution() {
        for n in [1000usize, 12_345, 100_000] {
            for res in [100usize, 800, 1200] {
                let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let (agg, ratio) = preaggregate(&data, res);
                assert!(agg.len() <= res, "n={n} res={res}: {} pts", agg.len());
                assert_eq!(ratio, n.div_ceil(res));
            }
        }
    }

    #[test]
    fn aggregation_preserves_group_means() {
        let data: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let (agg, ratio) = preaggregate(&data, 3);
        assert_eq!(ratio, 4);
        assert_eq!(agg, vec![1.5, 5.5, 9.5]);
    }

    #[test]
    fn trailing_partial_group_is_dropped() {
        // ratio ⌈10 / 3⌉ = 4: groups [0..4) and [4..8); the tail 8, 9 is
        // not a full group.
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let (agg, ratio) = preaggregate(&data, 3);
        assert_eq!(ratio, 4);
        assert_eq!(agg, vec![1.5, 5.5]);
    }

    #[test]
    fn zero_resolution_degrades_to_identity() {
        let data = vec![1.0, 2.0];
        let (agg, ratio) = preaggregate(&data, 0);
        assert_eq!(ratio, 1);
        assert_eq!(agg, data);
    }

    #[test]
    fn preaggregation_smooths_subpixel_noise() {
        // High-frequency noise entirely within a pixel group disappears,
        // the low-frequency signal survives — the mechanism behind §4.4.
        let n = 80_000;
        let data: Vec<f64> = (0..n)
            .map(|i| {
                (std::f64::consts::TAU * i as f64 / 20_000.0).sin()
                    + if i % 2 == 0 { 0.5 } else { -0.5 }
            })
            .collect();
        let (agg, _) = preaggregate(&data, 800);
        let r_raw = asap_timeseries::roughness(&data).unwrap();
        let r_agg = asap_timeseries::roughness(&agg).unwrap();
        assert!(r_agg < r_raw / 10.0, "{r_raw} -> {r_agg}");
        // The seasonal amplitude survives aggregation.
        let max = agg.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > 0.9);
    }
}
