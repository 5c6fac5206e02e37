//! Restart durability: snapshot a live TSDB, reload it, resume smoothing.
//!
//! Run with: `cargo run --release --example snapshot_restore`
//!
//! Monitoring backends restart — deploys, crashes, host moves. This
//! example exercises the durability path of the storage substrate:
//!
//! 1. ingest a day of noisy periodic telemetry and snapshot the engine to
//!    a single file (sealed Gorilla blocks, written compressed);
//! 2. "restart": load the snapshot into a fresh engine;
//! 3. verify the restored data byte-for-byte, resume ingestion where the
//!    old process stopped, and serve an ASAP-smoothed dashboard query
//!    spanning the restart boundary;
//! 4. report the mean of the same range as one bucketed query.

use asap::core::Asap;
use asap::tsdb::{
    smooth_query, Aggregator, DataPoint, RangeQuery, SeriesKey, ShardedConfig, ShardedDb,
};

const STEP: i64 = 30; // seconds per sample

fn metric(i: i64) -> f64 {
    let phase = (i * STEP % 86_400) as f64 / 86_400.0 * std::f64::consts::TAU;
    let noise = (((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40) % 100) as f64 / 12.5;
    55.0 + 20.0 * phase.sin() + noise
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("asap_snapshot_example");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("telemetry.snap");

    // 1. A day of 30-second samples, then snapshot.
    let day = 86_400 / STEP;
    let db = ShardedDb::with_config(ShardedConfig::new(4, 512));
    let key = SeriesKey::metric("cpu").with_tag("host", "db-1");
    for i in 0..day {
        db.write(&key, DataPoint::new(i * STEP, metric(i)))?;
    }
    db.save(&path)?;
    let size = std::fs::metadata(&path)?.len();
    println!(
        "snapshot: {} points -> {:.1} KiB on disk ({:.1} bits/point)",
        day,
        size as f64 / 1024.0,
        8.0 * size as f64 / day as f64
    );

    // 2. Restart: a fresh engine loads the snapshot (at any shard count).
    let restored = ShardedDb::load(&path, ShardedConfig::default())?;

    // 3a. Verify equality.
    let before = db.query(&key, RangeQuery::raw(0, day * STEP))?;
    let after = restored.query(&key, RangeQuery::raw(0, day * STEP))?;
    assert_eq!(before, after);
    println!("restore verified: {} points identical", after.len());

    // 3b. Resume ingestion for six more hours.
    let more = 6 * 3_600 / STEP;
    for i in day..day + more {
        restored.write(&key, DataPoint::new(i * STEP, metric(i)))?;
    }

    // 3c. Smooth a window spanning the restart boundary.
    let asap = Asap::builder().resolution(400).build();
    let frame = smooth_query(
        &restored,
        &key,
        &asap,
        0,
        (day + more) * STEP,
        5 * 60, // 5-minute buckets
    )?;
    println!(
        "ASAP over the spliced series: window = {} buckets ({} raw points), roughness {:.4}",
        frame.result.window, frame.result.window_raw_points, frame.result.roughness
    );

    // 4. The whole range as one bucketed mean.
    let span = (day + more) * STEP;
    let whole = RangeQuery::bucketed(0, span, span).aggregate(Aggregator::Mean);
    if let Some(mean) = restored.query(&key, whole)?.first() {
        println!("bucketed mean over the spliced series: {:.2}", mean.value);
    }

    std::fs::remove_file(&path).ok();
    Ok(())
}
