//! Figure 10: streaming ASAP throughput vs refresh interval (log-log),
//! target resolution 2000 px, on the traffic and machine-temp datasets.
//!
//! Paper: throughput is linear in the refresh interval — refreshing half
//! as often doubles the points processed per second.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- fig10_streaming_refresh`

use asap_core::{StreamingAsap, StreamingConfig};
use asap_eval::{report, Table};
use std::time::Instant;

fn throughput(series_values: &[f64], resolution: usize, interval: usize) -> f64 {
    let config = StreamingConfig::new(series_values.len(), resolution, interval);
    let mut op = StreamingAsap::new(config);
    let start = Instant::now();
    for &v in series_values {
        let _ = std::hint::black_box(op.push(v));
    }
    series_values.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

pub fn run() {
    println!("== Figure 10: throughput vs refresh interval (2000 px) ==\n");
    let datasets = [asap_data::traffic_data(), asap_data::machine_temp()];
    // Refresh intervals in preaggregated points, converted to raw points by
    // the pane ratio (the figure's x-axis is "# points").
    let intervals = [1usize, 4, 16, 64, 256, 1024];

    let mut table = Table::new(
        std::iter::once("interval (agg pts)".to_string())
            .chain(datasets.iter().map(|d| d.name().to_string()))
            .collect::<Vec<_>>(),
    );
    let mut results: Vec<Vec<f64>> = Vec::new();
    for &iv in &intervals {
        let mut row = vec![iv.to_string()];
        let mut tps = Vec::new();
        for d in &datasets {
            let ratio = asap_core::point_to_pixel_ratio(d.len(), 2000);
            let tp = throughput(d.values(), 2000, iv * ratio.max(1));
            row.push(report::eng(tp));
            tps.push(tp);
        }
        results.push(tps);
        table.row(row);
    }
    print!("{table}");

    // Check log-log linearity: throughput(interval) ≈ c · interval.
    for (col, d) in datasets.iter().enumerate() {
        let first = results[0][col];
        let last = results[results.len() - 1][col];
        let interval_gain = intervals[intervals.len() - 1] as f64 / intervals[0] as f64;
        println!(
            "\n{}: {:.0}x interval -> {:.0}x throughput (linear slope ≈ {:.2})",
            d.name(),
            interval_gain,
            last / first,
            (last / first).ln() / interval_gain.ln()
        );
    }
    println!("\npaper: linear relationship between refresh interval and throughput");
    println!("(slope 1.0 in log-log space until non-search costs dominate)");
}
