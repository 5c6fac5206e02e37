//! Property-based tests on the core invariants, spanning crates.
//!
//! These pin the mathematical contracts the paper's derivations rely on
//! (Equations 1–6 and the §4.4 preaggregation analysis) over randomized
//! inputs rather than hand-picked examples.

use asap::core::{preaggregate, AsapConfig, SearchStrategy};
use asap::dsp::{acf_brute_force, autocorrelation};
use asap::timeseries::{kurtosis, roughness, sma, sma_naive, zscore};
use proptest::prelude::*;

/// Bounded, finite series generator: lengths 16..400, values in ±1e3.
fn series_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3f64, 16..400)
}

/// Series with guaranteed variance (not all elements equal).
fn varied_series() -> impl Strategy<Value = Vec<f64>> {
    series_strategy().prop_filter("needs variance", |v| {
        v.iter().any(|&x| (x - v[0]).abs() > 1e-6)
    })
}

/// A series of 2..=4096 points with variance, offset by up to ±1e6, and a
/// `max_lag` drawn from `[0, n − 1]`.
fn acf_case() -> impl Strategy<Value = (Vec<f64>, usize)> {
    (2usize..4097)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(-1e3..1e3f64, n..n + 1),
                0..n,
                -1e6..1e6f64,
            )
        })
        .prop_filter("needs variance", |(v, _, _)| v.iter().any(|&x| x != v[0]))
        .prop_map(|(v, max_lag, offset)| (v.iter().map(|x| x + offset).collect(), max_lag))
}

proptest! {
    /// The O(N) running-sum SMA equals the textbook definition.
    #[test]
    fn sma_fast_equals_naive(data in varied_series(), w in 1usize..50) {
        prop_assume!(w <= data.len());
        let fast = sma(&data, w).unwrap();
        let slow = sma_naive(&data, w).unwrap();
        prop_assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a - b).abs() < 1e-6, "{} vs {}", a, b);
        }
    }

    /// The ACF equals the O(n²) estimator to 1e-9 at every lag, for every
    /// length up to 4096 and every `max_lag` below it: both the direct
    /// regime and the FFT regime above the crossover.
    #[test]
    fn acf_equals_brute_force(case in acf_case()) {
        let (data, max_lag) = case;
        let fast = autocorrelation(&data, max_lag).unwrap();
        let slow = acf_brute_force(&data, max_lag).unwrap();
        for k in 0..=max_lag {
            prop_assert!(
                (fast.at(k) - slow.at(k)).abs() <= 1e-9,
                "n {} lag {} of {}: {} vs {}", data.len(), k, max_lag, fast.at(k), slow.at(k)
            );
        }
    }

    /// Roughness is non-negative, zero exactly on affine series, and
    /// scales linearly.
    #[test]
    fn roughness_axioms(data in varied_series(), scale in 0.1..10.0f64) {
        let r = roughness(&data).unwrap();
        prop_assert!(r >= 0.0);
        let scaled: Vec<f64> = data.iter().map(|x| x * scale).collect();
        let rs = roughness(&scaled).unwrap();
        prop_assert!((rs - scale * r).abs() < 1e-6 * (1.0 + r), "{} vs {}", rs, scale * r);
    }

    /// Kurtosis is affine-invariant (the property that makes the paper's
    /// z-scored presentation legitimate).
    #[test]
    fn kurtosis_affine_invariance(data in varied_series(), a in 0.5..4.0f64, b in -100.0..100.0f64) {
        let k0 = kurtosis(&data).unwrap();
        let mapped: Vec<f64> = data.iter().map(|x| a * x + b).collect();
        let k1 = kurtosis(&mapped).unwrap();
        prop_assert!((k0 - k1).abs() < 1e-5 * k0.abs().max(1.0), "{} vs {}", k0, k1);
    }

    /// Every search strategy returns a window within bounds whose smoothed
    /// series satisfies the kurtosis constraint (when it smooths at all).
    #[test]
    fn searches_respect_the_constraint(data in varied_series()) {
        let config = AsapConfig::default();
        let base_kurt = kurtosis(&data);
        for strat in [SearchStrategy::Exhaustive, SearchStrategy::Binary, SearchStrategy::Asap] {
            let out = strat.search(&data, &config).unwrap();
            prop_assert!(out.window >= 1);
            prop_assert!(out.window < data.len());
            if out.window > 1 {
                let smoothed = sma(&data, out.window).unwrap();
                if let (Ok(k), Ok(k0)) = (kurtosis(&smoothed), base_kurt.clone()) {
                    prop_assert!(k >= k0 - 1e-6, "{}: {} < {}", strat.name(), k, k0);
                }
                let r = roughness(&smoothed).unwrap();
                prop_assert!((r - out.roughness).abs() < 1e-6);
            }
        }
    }

    /// ASAP never returns a rougher plot than plain binary search — the
    /// quality half of Figure 8.
    #[test]
    fn asap_no_rougher_than_binary(data in varied_series()) {
        let config = AsapConfig::default();
        let a = SearchStrategy::Asap.search(&data, &config).unwrap();
        let b = SearchStrategy::Binary.search(&data, &config).unwrap();
        prop_assert!(
            a.roughness <= b.roughness + 1e-9,
            "asap {} vs binary {}", a.roughness, b.roughness
        );
    }

    /// Preaggregation output length and ratio obey the §4.4 contract.
    #[test]
    fn preaggregation_contract(data in varied_series(), resolution in 4usize..64) {
        let (agg, ratio) = preaggregate(&data, resolution);
        prop_assert!(agg.len() <= resolution);
        prop_assert_eq!(ratio, data.len().div_ceil(resolution).max(1));
        if ratio == 1 {
            prop_assert_eq!(&agg, &data);
        } else {
            // Each aggregated point is a mean of `ratio` raw points: it
            // lies within the raw min/max.
            let lo = data.iter().cloned().fold(f64::MAX, f64::min);
            let hi = data.iter().cloned().fold(f64::MIN, f64::max);
            for &v in &agg {
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            }
        }
    }

    /// Z-scoring really produces mean 0 / variance 1 and is idempotent.
    #[test]
    fn zscore_normalizes(data in varied_series()) {
        let z = zscore(&data).unwrap();
        let m = asap::timeseries::moments(&z).unwrap();
        prop_assert!(m.mean().abs() < 1e-7);
        prop_assert!((m.variance() - 1.0).abs() < 1e-7);
        let zz = zscore(&z).unwrap();
        for (a, b) in z.iter().zip(&zz) {
            prop_assert!((a - b).abs() < 1e-7);
        }
    }

    /// M4 always retains the global extremes and the endpoints — the
    /// pixel-fidelity invariant that distinguishes it from ASAP.
    #[test]
    fn m4_retains_extremes_and_endpoints(data in varied_series(), width in 1usize..64) {
        let pts = asap::baselines::m4::m4_aggregate(&data, width).unwrap();
        let values: Vec<f64> = pts.iter().map(|p| p.value).collect();
        let max = data.iter().cloned().fold(f64::MIN, f64::max);
        let min = data.iter().cloned().fold(f64::MAX, f64::min);
        prop_assert!(values.contains(&max));
        prop_assert!(values.contains(&min));
        prop_assert_eq!(pts.first().unwrap().index, 0);
        prop_assert_eq!(pts.last().unwrap().index, data.len() - 1);
        prop_assert!(pts.len() <= 4 * width.min(data.len()));
    }

    /// Visvalingam–Whyatt returns exactly the requested point count, keeps
    /// the endpoints, and stays time-ordered.
    #[test]
    fn visvalingam_contract(data in varied_series(), target in 2usize..64) {
        let pts = asap::baselines::visvalingam(&data, target).unwrap();
        prop_assert_eq!(pts.len(), target.min(data.len()));
        prop_assert_eq!(pts.first().unwrap().index, 0);
        prop_assert_eq!(pts.last().unwrap().index, data.len() - 1);
        for w in pts.windows(2) {
            prop_assert!(w[0].index < w[1].index);
        }
    }

    /// PAA output stays within the input's range and preserves segment
    /// count.
    #[test]
    fn paa_contract(data in varied_series(), segments in 1usize..64) {
        let out = asap::baselines::paa(&data, segments).unwrap();
        prop_assert_eq!(out.len(), segments.min(data.len()));
        let max = data.iter().cloned().fold(f64::MIN, f64::max);
        let min = data.iter().cloned().fold(f64::MAX, f64::min);
        for &v in &out {
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
        }
    }

    /// Pane-based streaming aggregation equals batch preaggregation bit
    /// for bit (the §4.4/§4.5 sub-aggregation correctness).
    #[test]
    fn panes_equal_batch_tumbling(data in varied_series(), resolution in 1usize..64) {
        let (batch, ratio) = preaggregate(&data, resolution);
        let mut agg = asap::core::streaming::PaneAggregator::new(ratio);
        let mut streamed = Vec::new();
        for &x in &data {
            if let Some(p) = agg.push(x) {
                streamed.push(p.mean().to_bits());
            }
        }
        let batch: Vec<u64> = batch.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(streamed, batch);
    }

    /// SMA always reduces (or preserves) roughness relative to the window-1
    /// rendering for windows that evenly divide strong periodicity — and
    /// regardless of structure, the *minimum over all windows* is no worse
    /// than the original.
    #[test]
    fn some_window_is_never_worse_than_raw(data in varied_series()) {
        let base = roughness(&data).unwrap();
        let config = AsapConfig::default();
        let out = SearchStrategy::Exhaustive.search(&data, &config).unwrap();
        prop_assert!(out.roughness <= base + 1e-9);
    }
}

/// Eq. 5 accuracy on weakly stationary (periodic + noise) inputs — the
/// Figure A.1 bound, property-tested over random periods and phases.
#[test]
fn roughness_estimate_tracks_truth_on_stationary_inputs() {
    use asap::timeseries::stddev;
    for (period, amp, noise_amp, n) in [
        (16usize, 1.0, 0.1, 4096usize),
        (24, 2.0, 0.3, 6000),
        (48, 0.5, 0.05, 8000),
    ] {
        let data: Vec<f64> = (0..n)
            .map(|i| {
                amp * (std::f64::consts::TAU * i as f64 / period as f64).sin()
                    + noise_amp * ((((i as u64) * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
            })
            .collect();
        let sigma = stddev(&data).unwrap();
        let acf = autocorrelation(&data, 3 * period).unwrap();
        for w in 2..=(3 * period) {
            let est = asap::core::estimate::roughness_estimate(sigma, n, w, acf.at(w));
            let truth = roughness(&sma(&data, w).unwrap()).unwrap();
            if truth > 1e-6 {
                let rel = (est - truth).abs() / truth;
                assert!(
                    rel < 0.15,
                    "period {period} w {w}: est {est} truth {truth} rel {rel}"
                );
            }
        }
    }
}
