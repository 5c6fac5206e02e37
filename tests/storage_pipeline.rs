//! Integration tests spanning storage (`asap-tsdb`), the ASAP core, and
//! rendering (`asap-viz`) — the full §2 deployment path: telemetry is
//! ingested into a TSDB, queried onto a display grid, smoothed by ASAP,
//! and drawn.

use asap::core::Asap;
use asap::tsdb::{
    ingest, rollup_key, smooth_query, Aggregator, Compactor, DataPoint, RangeQuery,
    RetentionPolicy, RollupLevel, Selector, SeriesKey, Tsdb, TsdbConfig,
};
use asap::viz::{SvgChart, SvgSeries, TerminalChart};

/// Days of simulated minute-cadence telemetry.
const DAYS: i64 = 8;
const STEP: i64 = 60;

/// A noisy daily-periodic metric with a sustained dip on day 6.
fn seed(db: &Tsdb, key: &SeriesKey) {
    let n = DAYS * 86_400 / STEP;
    let mut points = Vec::with_capacity(n as usize);
    for i in 0..n {
        let ts = i * STEP;
        let phase = (ts % 86_400) as f64 / 86_400.0 * std::f64::consts::TAU;
        let noise = (((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40) % 200) as f64 / 10.0;
        let dip = if (6 * 86_400..7 * 86_400).contains(&ts) {
            -80.0
        } else {
            0.0
        };
        points.push(DataPoint::new(ts, 300.0 + 100.0 * phase.sin() + noise + dip));
    }
    db.write_batch(key, &points).unwrap();
}

#[test]
fn storage_to_smoothed_chart_end_to_end() {
    let db = Tsdb::with_config(TsdbConfig {
        block_capacity: 2048,
    });
    let key = SeriesKey::metric("req_rate").with_tag("host", "a");
    seed(&db, &key);

    // Query → smooth at dashboard resolution.
    let asap = Asap::builder().resolution(400).build();
    let frame = smooth_query(&db, &key, &asap, 0, DAYS * 86_400, 300).unwrap();

    // ASAP flattened the daily cycle: window spans at least half a day of
    // buckets and roughness dropped by an order of magnitude.
    assert!(frame.result.window > 1, "smoothing engaged");
    let raw_rough = asap::timeseries::roughness(&frame.result.aggregated).unwrap();
    assert!(
        frame.result.roughness < raw_rough / 2.0,
        "roughness {} vs raw {}",
        frame.result.roughness,
        raw_rough
    );

    // The dip survives smoothing: the smoothed minimum falls on day 6.
    let (argmin, _) = frame
        .result
        .smoothed
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    let min_ts = frame.smoothed_points[argmin].timestamp;
    assert!(
        (5 * 86_400..8 * 86_400).contains(&min_ts),
        "dip located at ts {min_ts}"
    );

    // Both renderers accept the smoothed output.
    let txt = TerminalChart::new(60, 8)
        .render(&[&frame.result.smoothed])
        .unwrap();
    assert!(txt.lines().count() >= 8);
    let svg = SvgChart::new(640, 200)
        .series(SvgSeries::from_values("asap", &frame.result.smoothed))
        .render()
        .unwrap();
    assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
}

#[test]
fn line_protocol_to_selector_fanout() {
    let db = Tsdb::new();
    let mut doc = String::new();
    for i in 0..200 {
        for host in ["a", "b"] {
            doc.push_str(&format!(
                "cpu,host={host},dc=west usage={} {}\n",
                50.0 + i as f64,
                i * 10
            ));
        }
    }
    let n = ingest(&db, &doc, 0).unwrap();
    assert_eq!(n, 400);
    let results = db
        .query_selector(
            &Selector::metric("cpu.usage").tag_eq("dc", "west"),
            RangeQuery::bucketed(0, 2_000, 100).aggregate(Aggregator::Count),
        )
        .unwrap();
    assert_eq!(results.len(), 2, "both hosts matched");
    for (_, pts) in results {
        assert_eq!(pts.iter().map(|p| p.value).sum::<f64>() as usize, 200);
    }
}

#[test]
fn retention_tiering_preserves_smoothability_of_history() {
    let db = Tsdb::with_config(TsdbConfig {
        block_capacity: 1024,
    });
    let key = SeriesKey::metric("req_rate");
    seed(&db, &key);
    db.flush().unwrap();

    // Roll up to 30-minute means, keep raw for 2 days only.
    let compactor = Compactor::new(RetentionPolicy {
        raw_ttl: Some(2 * 86_400),
        rollups: vec![RollupLevel {
            bucket: 1_800,
            aggregator: Aggregator::Mean,
            ttl: None,
        }],
    })
    .unwrap();
    let report = compactor.run(&db, DAYS * 86_400).unwrap();
    assert!(report.raw_evicted > 0);
    assert_eq!(report.rolled_up as i64, DAYS * 86_400 / 1_800);

    // History is gone raw but present (and ASAP-smoothable) as rollups.
    let raw_day0 = db.query(&key, RangeQuery::raw(0, 86_400)).unwrap();
    assert!(raw_day0.is_empty(), "day 0 raw data aged out");
    let rk = rollup_key(&key, 1_800);
    let asap = Asap::builder().resolution(200).build();
    let frame = smooth_query(&db, &rk, &asap, 0, DAYS * 86_400, 1_800).unwrap();
    assert_eq!(frame.grid_timestamps.len() as i64, DAYS * 86_400 / 1_800);
    assert!(frame.result.window >= 1);
}

#[test]
fn bucketed_query_means_equal_raw_chunk_means() {
    // A bucketed query over a dense stored series answers, per bucket, the
    // arithmetic mean of the raw points it covers: `factor` points per
    // bucket, oldest first.
    let db = Tsdb::new();
    let key = SeriesKey::metric("req_rate");
    seed(&db, &key);
    let all = db.query(&key, RangeQuery::raw(0, DAYS * 86_400)).unwrap();
    let values: Vec<f64> = all.iter().map(|p| p.value).collect();

    let factor = 32;
    let bucket = STEP * factor as i64;
    let q = db
        .query(&key, RangeQuery::bucketed(0, DAYS * 86_400, bucket))
        .unwrap();
    let want: Vec<f64> = values
        .chunks_exact(factor)
        .map(|c| c.iter().sum::<f64>() / factor as f64)
        .collect();
    assert_eq!(values.len() % factor, 0, "no partial trailing bucket");
    assert_eq!(q.len(), want.len());
    for (a, b) in want.iter().zip(&q) {
        assert!((a - b.value).abs() < 1e-9, "raw chunk mean vs query bucket mean");
    }
}

#[test]
fn non_finite_and_out_of_order_telemetry_rejected_at_ingest() {
    let db = Tsdb::new();
    let key = SeriesKey::metric("m");
    db.write(&key, DataPoint::new(100, 1.0)).unwrap();
    assert!(db.write(&key, DataPoint::new(100, 2.0)).is_err());
    assert!(db.write(&key, DataPoint::new(101, f64::NAN)).is_err());
    // The store is unpolluted: exactly one point survives, and ASAP never
    // sees a NaN through the bridge.
    let asap = Asap::builder().resolution(10).build();
    let err = smooth_query(&db, &key, &asap, 0, 99, 10).unwrap_err();
    assert!(matches!(err, asap::tsdb::SmoothQueryError::Smoothing(_)));
    let pts = db.query(&key, RangeQuery::raw(0, 1_000)).unwrap();
    assert_eq!(pts.len(), 1);
}
