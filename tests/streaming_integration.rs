//! Integration tests for the streaming execution mode: refresh cadence,
//! frame bounds and search accounting of `StreamingAsap` together.

use asap::core::{StreamingAsap, StreamingConfig};

fn telemetry(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            (std::f64::consts::TAU * i as f64 / 480.0).sin()
                + 0.3 * ((((i as u64) * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
                + if i > 3 * n / 4 { 2.0 } else { 0.0 }
        })
        .collect()
}

/// Frames arrive exactly at the configured cadence once the pane window
/// has warmed up, and each frame's data fits the target resolution.
#[test]
fn refresh_cadence_and_resolution_bounds() {
    let data = telemetry(20_000);
    let resolution = 200;
    let refresh = 4_000;
    let mut op = StreamingAsap::new(StreamingConfig::new(10_000, resolution, refresh));
    let mut frame_points = Vec::new();
    for &v in &data {
        if let Some(f) = op.push(v).unwrap() {
            frame_points.push(f.points_ingested);
            assert!(f.smoothed.len() <= resolution);
        }
    }
    assert_eq!(frame_points, vec![4_000, 8_000, 12_000, 16_000, 20_000]);
}

/// A regime change (level shift entering the window) is eventually
/// reflected: the final frame's smoothed tail sits clearly above the
/// initial baseline.
#[test]
fn regime_change_is_visible_in_final_frame() {
    let data = telemetry(40_000);
    let mut op = StreamingAsap::new(StreamingConfig::new(40_000, 400, 8_000));
    let mut last = None;
    for &v in &data {
        if let Some(f) = op.push(v).unwrap() {
            last = Some(f);
        }
    }
    let frame = last.expect("frames fired");
    let m = frame.smoothed.len();
    let head: f64 = frame.smoothed[..m / 4].iter().sum::<f64>() / (m / 4) as f64;
    let tail: f64 = frame.smoothed[7 * m / 8..].iter().sum::<f64>() / (m - 7 * m / 8) as f64;
    assert!(
        tail > head + 1.0,
        "shift not visible: head {head}, tail {tail}"
    );
}

/// Searches are shared work: the operator runs exactly one search per
/// refresh, never per point.
#[test]
fn search_count_equals_refresh_count() {
    let data = telemetry(10_000);
    let mut op = StreamingAsap::new(StreamingConfig::new(5_000, 100, 1_000));
    let mut frames = 0u64;
    for &v in &data {
        if op.push(v).unwrap().is_some() {
            frames += 1;
        }
    }
    assert_eq!(op.searches_run(), frames);
    assert_eq!(op.points_ingested(), 10_000);
}
