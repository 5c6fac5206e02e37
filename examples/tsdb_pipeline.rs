//! Full storage-to-screen pipeline: line protocol → TSDB → ASAP → chart.
//!
//! Run with: `cargo run --release --example tsdb_pipeline`
//!
//! The paper (§2) positions ASAP downstream of time-series databases "such
//! as InfluxDB". This example runs that whole deployment in-process:
//!
//! 1. simulate a fleet of hosts emitting InfluxDB line-protocol telemetry
//!    (a noisy daily-periodic request rate, with one host developing a
//!    sustained sub-threshold degradation);
//! 2. ingest it into the embedded Gorilla-compressed [`asap::tsdb::Tsdb`];
//! 3. tier it with a retention policy (raw TTL + hourly rollups);
//! 4. answer a dashboard request with [`asap::tsdb::smooth_query`] — a
//!    bucketed range query whose result ASAP smooths automatically;
//! 5. draw raw vs smoothed with the terminal renderer.

use asap::core::Asap;
use asap::tsdb::{
    ingest, smooth_query, Aggregator, Compactor, RangeQuery, RetentionPolicy, RollupLevel,
    SeriesKey, Tsdb,
};
use asap::viz::TerminalChart;

/// Seconds per simulated sample.
const STEP: i64 = 60;
/// Simulated days of telemetry.
const DAYS: i64 = 10;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Tsdb::new();
    let n_points = DAYS * 86_400 / STEP;

    // 1+2. Emit and ingest line-protocol batches, one host at a time.
    for host in ["web-1", "web-2", "web-3"] {
        let mut doc = String::with_capacity(64 * n_points as usize);
        for i in 0..n_points {
            let ts = i * STEP;
            let day_phase = (ts % 86_400) as f64 / 86_400.0 * std::f64::consts::TAU;
            let mut rate = 420.0 + 160.0 * day_phase.sin();
            // Deterministic per-host jitter (hash-noise, ±40).
            let h = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(host.len() as u64)
                >> 33;
            rate += ((h % 800) as f64 / 10.0) - 40.0;
            // web-3 degrades quietly over the final three days.
            if host == "web-3" && ts > 7 * 86_400 {
                rate -= 60.0 * ((ts - 7 * 86_400) as f64 / (3.0 * 86_400.0));
            }
            doc.push_str(&format!("requests,host={host} rate={rate:.2} {ts}\n"));
        }
        let written = ingest(&db, &doc, 0)?;
        println!("ingested {written} points for {host}");
    }
    db.flush()?;
    for s in db.stats() {
        println!(
            "  {}: {} points in {} blocks, {:.1} KiB compressed ({:.1} bits/point)",
            s.key,
            s.points,
            s.blocks,
            s.compressed_bytes as f64 / 1024.0,
            8.0 * s.compressed_bytes as f64 / s.points as f64
        );
    }

    // 3. Dashboard request: the full 10 days of web-3 at 5-minute buckets,
    // smoothed by ASAP for a small dashboard panel.
    let key = SeriesKey::metric("requests.rate").with_tag("host", "web-3");
    let (t0, t1) = (0, DAYS * 86_400);
    let asap = Asap::builder().resolution(240).build();
    let frame = smooth_query(&db, &key, &asap, t0, t1, 300)?;
    println!(
        "\nASAP window: {} buckets ({} minutes of telemetry per plotted point)",
        frame.result.window,
        frame.result.window_raw_points * 5
    );

    // 4. Render raw vs smoothed.
    let raw = db.query(&key, RangeQuery::bucketed(t0, t1, 300))?;
    let raw_vals: Vec<f64> = raw.iter().map(|p| p.value).collect();
    let chart = TerminalChart::new(72, 9);
    println!("\nraw 5-minute buckets (web-3, 10 days):");
    print!("{}", chart.clone().title("raw").render(&[&raw_vals])?);
    println!("\nASAP-smoothed (same interval):");
    print!(
        "{}",
        chart.title("asap").render(&[&frame.result.smoothed])?
    );
    let raw_rough = asap::timeseries::roughness(&frame.result.aggregated)?;
    println!(
        "\nroughness: {:.3} raw -> {:.3} smoothed; the day-8 onset of the",
        raw_rough, frame.result.roughness
    );
    // 5. Ops tier: age out raw data (7-day TTL), keep hourly means forever.
    let compactor = Compactor::new(RetentionPolicy {
        raw_ttl: Some(7 * 86_400),
        rollups: vec![RollupLevel {
            bucket: 3_600,
            aggregator: Aggregator::Mean,
            ttl: None,
        }],
    })?;
    let report = compactor.run(&db, DAYS * 86_400)?;
    println!(
        "\ncompaction: {} rollup points materialized, {} raw points evicted",
        report.rolled_up, report.raw_evicted
    );

    println!(
        "history beyond the raw TTL remains queryable as hourly rollups"
    );
    Ok(())
}
