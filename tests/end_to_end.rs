//! Integration tests spanning the whole workspace: datasets → search →
//! smoothing → evaluation, mirroring the paper's batch pipeline.

use asap::core::{preaggregate, AsapConfig, SearchStrategy};
use asap::prelude::*;

/// Table 2's central claim: ASAP finds the same smoothing parameter as
/// exhaustive search while checking far fewer candidates, on every
/// evaluation dataset (large gas_sensor excluded from CI-scale runs).
#[test]
fn asap_matches_exhaustive_on_catalog_datasets() {
    let mut total_ex = 0usize;
    let mut total_asap = 0usize;
    let mut agree = 0usize;
    let mut total = 0usize;
    for info in asap::data::all_datasets() {
        if info.n_points > 100_000 {
            continue; // gas_sensor: exercised in the release-mode benches
        }
        let series = info.generate();
        let (agg, _) = preaggregate(series.values(), 1200);
        let config = AsapConfig {
            resolution: 1200,
            ..AsapConfig::default()
        };
        let ex = SearchStrategy::Exhaustive.search(&agg, &config).unwrap();
        let a = SearchStrategy::Asap.search(&agg, &config).unwrap();
        total += 1;
        total_ex += ex.candidates_checked;
        total_asap += a.candidates_checked;
        if ex.window == a.window {
            agree += 1;
        } else {
            // When windows differ, quality must still be essentially tied
            // (ASAP's guarantee is on roughness, not window identity).
            assert!(
                a.roughness <= ex.roughness * 1.10 + 1e-9,
                "{}: asap w={} r={} vs exhaustive w={} r={}",
                info.name,
                a.window,
                a.roughness,
                ex.window,
                ex.roughness
            );
        }
    }
    assert!(total >= 10, "expected at least 10 datasets, got {total}");
    assert!(
        agree * 10 >= total * 8,
        "windows agreed on only {agree}/{total} datasets"
    );
    assert!(
        total_asap * 3 < total_ex,
        "ASAP should check ~13x fewer candidates: {total_asap} vs {total_ex}"
    );
}

/// The end-user contract: smoothing reduces roughness and never violates
/// the kurtosis constraint, across every smoothable dataset.
#[test]
fn smoothing_contract_holds_across_datasets() {
    for info in asap::data::all_datasets() {
        if info.n_points > 100_000 {
            continue;
        }
        let series = info.generate();
        let result = Asap::builder()
            .resolution(1200)
            .build()
            .smooth(series.values())
            .unwrap();
        let agg_rough = roughness(&result.aggregated).unwrap();
        assert!(
            result.roughness <= agg_rough + 1e-9,
            "{}: smoothing increased roughness",
            info.name
        );
        if result.window > 1 {
            let agg_kurt = kurtosis(&result.aggregated).unwrap();
            assert!(
                result.kurtosis >= agg_kurt - 1e-9,
                "{}: kurtosis constraint violated ({} < {agg_kurt})",
                info.name,
                result.kurtosis
            );
        }
    }
}

/// Streaming and batch execution agree when the stream covers exactly the
/// batch window (the §4.5 equivalence).
#[test]
fn streaming_agrees_with_batch_at_end_of_stream() {
    use asap::core::{StreamingAsap, StreamingConfig};
    let series = asap::data::ramp_traffic();
    let data = series.values();
    let resolution = 288; // ratio 30 -> pane period divides the daily cycle
    let config = StreamingConfig::new(data.len(), resolution, data.len());
    let mut op = StreamingAsap::new(config.clone());
    let mut last = None;
    for &v in data {
        if let Some(f) = op.push(v).unwrap() {
            last = Some(f);
        }
    }
    let frame = match last {
        Some(f) => f,
        None => op.refresh().unwrap(),
    };
    let (agg, _) = preaggregate(data, resolution);
    let batch = SearchStrategy::Asap.search(&agg, &config.asap).unwrap();
    assert_eq!(frame.outcome.window, batch.window);
}

/// Z-scoring the input (the paper's presentation normalization) never
/// changes the chosen window: both metrics are affine-invariant.
#[test]
fn window_choice_is_zscore_invariant() {
    let series = asap::data::power();
    let z = series.zscored().unwrap();
    let smooth = |v: &[f64]| {
        Asap::builder()
            .resolution(1200)
            .build()
            .smooth(v)
            .unwrap()
            .window
    };
    assert_eq!(smooth(series.values()), smooth(z.values()));
}

/// The user-study pipeline runs end to end and reproduces the headline
/// ordering: ASAP is at least as accurate as the raw rendering on average
/// across the five study datasets, with no longer response times.
#[test]
fn observer_study_reproduces_headline_ordering() {
    use asap::eval::{ObserverModel, Technique};
    let model = ObserverModel::default();
    let mut asap_acc = 0.0;
    let mut orig_acc = 0.0;
    let mut asap_time = 0.0;
    let mut orig_time = 0.0;
    let mut cells = 0usize;
    for info in asap::data::user_study_datasets() {
        let a = model.run_cell(&info, Technique::Asap).unwrap();
        let o = model.run_cell(&info, Technique::Original).unwrap();
        asap_acc += a.accuracy;
        orig_acc += o.accuracy;
        asap_time += a.response_time;
        orig_time += o.response_time;
        cells += 1;
    }
    assert_eq!(cells, 5);
    assert!(
        asap_acc > orig_acc,
        "mean accuracy: asap {} vs original {}",
        asap_acc / 5.0,
        orig_acc / 5.0
    );
    assert!(
        asap_time < orig_time,
        "mean time: asap {} vs original {}",
        asap_time / 5.0,
        orig_time / 5.0
    );
}

/// Figure C.1's negative result: the spiky Twitter series must be left
/// unsmoothed end to end.
#[test]
fn twitter_stays_unsmoothed_through_the_facade() {
    let series = asap::data::twitter_aapl();
    let result = Asap::builder()
        .resolution(1200)
        .build()
        .smooth(series.values())
        .unwrap();
    assert!(result.is_unsmoothed(), "window {}", result.window);
    assert_eq!(result.smoothed.len(), result.aggregated.len());
}

/// Translation does not move the window: `window(x + c) == window(x)` on
/// every small catalog dataset at 800 px, for offsets up to 1e12. (At
/// 1e15 the shifted input itself is rounded to steps of 0.125, so no
/// invariance is owed there.)
#[test]
fn window_is_invariant_to_translation() {
    let asap = Asap::builder().resolution(800).build();
    for info in asap::data::all_datasets() {
        if info.n_points > 100_000 {
            continue; // gas_sensor: the one large dataset
        }
        let values = info.generate().into_values();
        let window = asap.smooth(&values).unwrap().window;
        for c in [1e3, 1e6, 1e9, 1e12] {
            let shifted: Vec<f64> = values.iter().map(|v| v + c).collect();
            let moved = asap.smooth(&shifted).unwrap().window;
            assert_eq!(moved, window, "{} shifted by {c}", info.name);
        }
    }
}
