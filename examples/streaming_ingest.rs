//! Streaming out-of-order ingest: byte stream → reorder stage → ASAP.
//!
//! Run with: `cargo run --release --example streaming_ingest`
//!
//! Real telemetry arrives as an unbounded, mildly out-of-order byte
//! stream — agents retry, UDP reorders, scrapes jitter. This example
//! runs the streaming front-end end to end, twice:
//!
//! 1. **File drain**: write jittered line-protocol telemetry to a real
//!    file, then drain it through [`asap::tsdb::ingest_reader`]
//!    — the chunker reassembles lines across read-buffer boundaries and
//!    the per-shard reorder stage repairs the disorder;
//! 2. **Live handle**: feed the same stream to a long-running
//!    [`asap::tsdb::StreamIngestor`] in small "network packets", polling
//!    its live progress between feeds — the shape a socket listener
//!    plugs into — then `finish()` to flush the reorder buffers;
//!
//! and finally smooths a series straight out of the streamed store with
//! [`asap::tsdb::smooth_query`] to close the paper's pipeline.

use asap::core::Asap;
use asap::tsdb::{
    ingest_reader, smooth_query, IngestConfig, RangeQuery, SeriesKey, ShardedConfig, ShardedDb,
    StreamIngestor,
};
use asap::viz::TerminalChart;

/// Simulated hosts.
const HOSTS: usize = 4;
/// Samples per host.
const SAMPLES: i64 = 4_000;
/// Seconds per sample slot.
const STEP: i64 = 10;
/// Worst-case delivery lateness, in seconds.
const LATENESS: i64 = 5 * STEP;

/// Renders the fleet's telemetry with bounded delivery jitter: each
/// record is displaced from its nominal slot by a deterministic
/// pseudo-jitter strictly below [`LATENESS`].
fn jittered_telemetry() -> String {
    let mut records: Vec<(i64, String)> = Vec::new();
    for i in 0..SAMPLES {
        let t = i * STEP;
        for h in 0..HOSTS {
            let rate = 120.0
                + 40.0 * (std::f64::consts::TAU * t as f64 / 86_400.0).sin()
                + 15.0 * (((i * 37 + h as i64 * 11) % 97) as f64 / 97.0 - 0.5);
            let arrival = t + (i * 13 + h as i64 * 7) % LATENESS;
            records.push((arrival, format!("req,host=h{h} rate={rate:.3} {t}")));
        }
    }
    records.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let mut doc = String::new();
    for (_, line) in records {
        doc.push_str(&line);
        doc.push('\n');
    }
    doc
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let doc = jittered_telemetry();
    let config = IngestConfig {
        lateness: Some(LATENESS),
        ..IngestConfig::default()
    };

    // ── 1. Drain a real file through the streaming pipeline ────────────
    let path = std::env::temp_dir().join(format!("asap_stream_{}.lp", std::process::id()));
    std::fs::write(&path, doc.as_bytes())?;
    let db = ShardedDb::with_config(ShardedConfig::new(4, 512));
    let report = ingest_reader(&db, std::fs::File::open(&path)?, 0, &config)?;
    std::fs::remove_file(&path).ok();
    // IngestReport renders as the stable one-line ops format the server
    // also logs — parseable `key=value` tokens.
    println!("file drain:  {report}");
    assert!(report.is_clean(), "jitter stayed within lateness: {report:?}");
    assert_eq!(report.points, (HOSTS as i64 * SAMPLES) as usize);

    // ── 2. The same stream through a long-running live handle ──────────
    let live = ShardedDb::with_config(ShardedConfig::new(4, 512));
    let mut ingestor = StreamIngestor::new(&live, 0, config)?;
    let packet = 1_400; // one "network packet" worth of bytes
    for (i, piece) in doc.as_bytes().chunks(packet).enumerate() {
        ingestor.feed(piece);
        if i % 64 == 0 {
            // StreamProgress shares the report's one-line format, plus
            // the two live gauges (in-flight chunks, pending reorder).
            println!("live handle: packet {i:>4}: {}", ingestor.progress());
        }
    }
    let live_report = ingestor.finish();
    println!("live handle: finished -> {live_report}");
    assert_eq!(live_report, report, "feed-by-packet ≡ file drain");

    // ── 3. Smooth a dashboard window straight out of the stream ────────
    let key = SeriesKey::metric("req.rate").with_tag("host", "h0");
    let span = SAMPLES * STEP;
    let raw = db.query(&key, RangeQuery::raw(0, span))?;
    let asap = Asap::builder().resolution(200).build();
    let frame = smooth_query(&db, &key, &asap, 0, span, STEP)?;
    println!(
        "\nsmoothed h0: window {} over {} buckets (raw {} pts)",
        frame.result.window,
        frame.result.smoothed.len(),
        raw.len()
    );
    let chart = TerminalChart::new(72, 12);
    print!(
        "{}",
        chart
            .title("req.rate{host=h0}, streamed + smoothed")
            .render(&[&frame.result.smoothed])?
    );
    Ok(())
}
