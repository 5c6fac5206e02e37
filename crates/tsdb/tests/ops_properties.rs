//! Property-based tests for the operations layer: concurrent ingest,
//! sharded snapshots, and per-shard retention.
//!
//! The central invariant mirrors `sharded_properties.rs`: every parallel
//! operations path is observationally identical to its serial
//! single-shard oracle. No expected value below is baked in; everything
//! is derived from the oracle (so the tests are independent of the rand
//! shim's stream, per the ROADMAP note on golden values).
//!
//! * pipeline ingest (parse on the feeding thread → per-shard bounded
//!   inboxes → per-shard writers) ≡ serial `line_protocol::ingest` into a
//!   [`Tsdb`], for every query shape, at any shard/queue/chunk
//!   configuration;
//! * snapshot save→load ≡ identity across shard counts, with the file
//!   bytes independent of the writer's shard count;
//! * the sharded compactor ≡ the serial compactor: same reports, same
//!   store contents, no double-counted rollup buckets, raw eviction never
//!   ahead of the rollup watermark;
//! * compaction interrupted by a save → load between any two passes and
//!   continued by a new compactor ≡ one compactor running uninterrupted;
//! * saving under concurrent writers neither deadlocks nor produces an
//!   unloadable file, and every loaded series is a prefix of the final
//!   series.

use asap_tsdb::query::Aggregator;
use asap_tsdb::{
    ingest_reader, line_protocol, rollup_key, Compactor, DataPoint, IngestConfig, RangeQuery,
    RetentionPolicy, RollupLevel, Selector, SeriesKey, ShardedConfig, ShardedDb, Tsdb,
    TsdbConfig,
};
use proptest::prelude::*;

/// A generated ingest case: an interleaved line-protocol document plus
/// pipeline and storage knobs.
#[derive(Debug, Clone)]
struct OpsCase {
    doc: String,
    fields: usize,
    shards: usize,
    block_capacity: usize,
    ingest: IngestConfig,
}

const FIELD_NAMES: [&str; 3] = ["usage", "idle", "iowait"];

/// Renders per-series timestamp runs into one interleaved line-protocol
/// document: records round-robin across hosts, each with `fields` field
/// pairs (so one record feeds several series), with comment and blank
/// lines sprinkled deterministically.
fn render_doc(series: &[Vec<DataPoint>], fields: usize) -> String {
    let mut cursors = vec![0usize; series.len()];
    let mut doc = String::new();
    let mut emitted = 0usize;
    loop {
        let mut progressed = false;
        for (h, points) in series.iter().enumerate() {
            let Some(p) = points.get(cursors[h]) else {
                continue;
            };
            cursors[h] += 1;
            progressed = true;
            doc.push_str(&format!("cpu,host=h{h} "));
            for (f, name) in FIELD_NAMES.iter().enumerate().take(fields) {
                if f > 0 {
                    doc.push(',');
                }
                doc.push_str(&format!("{name}={}", p.value + f as f64));
            }
            doc.push_str(&format!(" {}\n", p.timestamp));
            emitted += 1;
            if emitted.is_multiple_of(7) {
                doc.push_str("# interleaved comment\n");
            }
            if emitted.is_multiple_of(11) {
                doc.push('\n');
            }
        }
        if !progressed {
            return doc;
        }
    }
}

/// Strategy: per-series strictly-increasing timestamp runs, a document
/// rendered from them, and pipeline/storage knobs.
fn ops_case() -> impl Strategy<Value = OpsCase> {
    (
        (
            prop::collection::vec(
                prop::collection::vec((1i64..400, -1.0e3..1.0e3f64), 0..60),
                1..5,
            ),
            1usize..4, // fields per record
            1usize..6, // shards
        ),
        (
            1usize..40, // block capacity
            1usize..4,  // queue depth
            1usize..20, // chunk lines
        ),
    )
        .prop_map(
            |((series, fields, shards), (block_capacity, queue_depth, chunk_lines))| {
                let series: Vec<Vec<DataPoint>> = series
                    .into_iter()
                    .map(|gaps| {
                        let mut ts = -1_000i64;
                        gaps.into_iter()
                            .map(|(gap, v)| {
                                ts += gap;
                                DataPoint::new(ts, v)
                            })
                            .collect()
                    })
                    .collect();
                OpsCase {
                    doc: render_doc(&series, fields),
                    fields,
                    shards,
                    block_capacity,
                    ingest: IngestConfig {
                        queue_depth,
                        chunk_lines,
                        lateness: None,
                        ..IngestConfig::default()
                    },
                }
            },
        )
}

/// Ingests the case's document through the pipeline (sharded) and
/// serially (single-shard oracle); the pair must be indistinguishable.
fn twin_ingest(case: &OpsCase) -> (ShardedDb, Tsdb, usize) {
    let sharded = ShardedDb::with_config(ShardedConfig::new(case.shards, case.block_capacity));
    let report = ingest_reader(&sharded, case.doc.as_bytes(), 0, &case.ingest).unwrap();
    assert!(report.is_clean(), "generated docs are valid: {report:?}");
    let oracle = Tsdb::with_config(TsdbConfig {
        block_capacity: case.block_capacity,
    });
    let serial_points = line_protocol::ingest(&oracle, &case.doc, 0).unwrap();
    assert_eq!(report.points, serial_points);
    (sharded, oracle, serial_points)
}

fn full() -> RangeQuery {
    RangeQuery::raw(i64::MIN + 1, i64::MAX)
}

proptest! {
    /// Pipeline-ingested sharded store ≡ serially ingested single-shard
    /// oracle, for every query shape.
    #[test]
    fn pipeline_ingest_matches_serial_oracle(case in ops_case()) {
        let (sharded, oracle, _) = twin_ingest(&case);
        prop_assert_eq!(sharded.series_count(), oracle.series_count());

        let sel = Selector::metric("cpu");
        prop_assert_eq!(sharded.list_series(&sel), oracle.list_series(&sel));
        prop_assert_eq!(
            sharded.query_selector(&sel, full()).unwrap(),
            oracle.query_selector(&sel, full()).unwrap()
        );
        for key in oracle.list_series(&Selector::any()) {
            prop_assert_eq!(
                sharded.query(&key, full()).unwrap(),
                oracle.query(&key, full()).unwrap()
            );
            let bucketed = RangeQuery::bucketed(-1_000, 25_000, 43).aggregate(Aggregator::Max);
            prop_assert_eq!(
                sharded.query(&key, bucketed).unwrap(),
                oracle.query(&key, bucketed).unwrap()
            );
        }

        // Identical seal boundaries and compressed footprint once both
        // engines flush.
        sharded.flush().unwrap();
        oracle.flush().unwrap();
        prop_assert_eq!(sharded.stats(), oracle.stats());
    }

    /// The ingest report itself is deterministic: any two configurations
    /// produce the same report for the same document.
    #[test]
    fn pipeline_report_is_configuration_independent(case in ops_case()) {
        let db_a = ShardedDb::with_config(ShardedConfig::new(case.shards, case.block_capacity));
        let report_a = ingest_reader(&db_a, case.doc.as_bytes(), 0, &case.ingest).unwrap();
        let db_b = ShardedDb::with_config(ShardedConfig::new(1, case.block_capacity));
        let report_b =
            ingest_reader(&db_b, case.doc.as_bytes(), 0, &IngestConfig::default()).unwrap();
        prop_assert_eq!(&report_a, &report_b);
        prop_assert_eq!(report_a.lines, case.doc.lines().count());
        // Every valid record contributes `fields` points.
        prop_assert_eq!(report_a.points % case.fields.min(FIELD_NAMES.len()), 0);
    }

    /// Snapshot save→load is the identity across arbitrary
    /// source/destination shard counts, and the file bytes do not depend
    /// on the writer's shard count.
    #[test]
    fn snapshots_round_trip_across_versions_and_shard_counts(case in ops_case()) {
        let (sharded, oracle, _) = twin_ingest(&case);
        let dir = std::env::temp_dir().join("asap_tsdb_ops_properties");
        std::fs::create_dir_all(&dir).unwrap();
        let stamp = format!("{}_{}", std::process::id(), case.doc.len());

        // An export written by the sharded engine, reloaded at a
        // different shard count, must equal the oracle.
        let export = dir.join(format!("{stamp}_export.snap"));
        sharded.save(&export).unwrap();
        let reload_shards = (case.shards % 6) + 1;
        let restored =
            ShardedDb::load(&export, ShardedConfig::new(reload_shards, case.block_capacity))
                .unwrap();
        prop_assert_eq!(
            restored.query_selector(&Selector::any(), full()).unwrap(),
            oracle.query_selector(&Selector::any(), full()).unwrap()
        );
        // Saving flushed the sharded source, so seal boundaries in the
        // file equal the oracle's post-flush boundaries.
        oracle.flush().unwrap();
        prop_assert_eq!(restored.stats(), oracle.stats());

        // Export bytes are shard-count-invariant: a single-shard engine
        // with the same points writes the identical file.
        let export_single = dir.join(format!("{stamp}_export_single.snap"));
        let single = ShardedDb::with_config(ShardedConfig::new(1, case.block_capacity));
        ingest_reader(&single, case.doc.as_bytes(), 0, &case.ingest).unwrap();
        single.save(&export_single).unwrap();
        prop_assert_eq!(
            std::fs::read(&export).unwrap(),
            std::fs::read(&export_single).unwrap()
        );

        for p in [export, export_single] {
            std::fs::remove_file(p).ok();
        }
    }

    /// The sharded compactor is indistinguishable from the serial one:
    /// same reports at every step, same final store — repeated runs at
    /// the same logical time materialize nothing.
    #[test]
    fn sharded_compaction_matches_serial_oracle(
        case in ops_case(),
        raw_ttl in 50i64..400,
        bucket in 1i64..60,
        rollup_ttl in 100i64..800,
    ) {
        let (sharded, oracle, _) = twin_ingest(&case);
        sharded.flush().unwrap();
        oracle.flush().unwrap();
        let policy = || RetentionPolicy {
            raw_ttl: Some(raw_ttl),
            rollups: vec![
                RollupLevel { bucket, aggregator: Aggregator::Mean, ttl: Some(rollup_ttl) },
                RollupLevel { bucket: bucket * 4, aggregator: Aggregator::Max, ttl: None },
            ],
        };
        let sharded_c = Compactor::new(policy()).unwrap();
        let serial_c = Compactor::new(policy()).unwrap();
        for now in [-500, 0, 0, 700, 700, 2_000, 30_000] {
            let a = sharded_c.run_sharded(&sharded, now).unwrap();
            let b = serial_c.run(&oracle, now).unwrap();
            prop_assert_eq!(a, b, "reports diverge at now={}", now);
            prop_assert_eq!(
                sharded.query_selector(&Selector::any(), full()).unwrap(),
                oracle.query_selector(&Selector::any(), full()).unwrap(),
                "store contents diverge at now={}", now
            );
        }
    }

    /// Raw data outlives its rollup watermark: at every step, every raw
    /// point not yet covered by the materialized rollup is still present,
    /// and repeated runs never double-count buckets.
    #[test]
    fn retention_never_evicts_ahead_of_watermark(
        case in ops_case(),
        raw_ttl in 1i64..100,
        bucket in 1i64..50,
    ) {
        let (sharded, _, _) = twin_ingest(&case);
        sharded.flush().unwrap();
        // Remember every raw point before compaction starts.
        let before = sharded.query_selector(&Selector::any(), full()).unwrap();
        let policy = RetentionPolicy {
            raw_ttl: Some(raw_ttl),
            rollups: vec![RollupLevel { bucket, aggregator: Aggregator::Sum, ttl: None }],
        };
        let c = Compactor::new(policy).unwrap();
        let mut total_rolled = 0usize;
        for now in [-2_000, -900, 100, 100, 1_500] {
            let report = c.run_sharded(&sharded, now).unwrap();
            total_rolled += report.rolled_up;
            // Every surviving-or-evicted raw point past the rollup
            // watermark must still be queryable: compare the raw tail.
            let complete_end = now.div_euclid(bucket) * bucket;
            for (key, points) in &before {
                let tail: Vec<DataPoint> = points
                    .iter()
                    .copied()
                    .filter(|p| p.timestamp >= complete_end)
                    .collect();
                let got = sharded
                    .query(key, RangeQuery::raw(complete_end, i64::MAX))
                    .unwrap_or_default();
                prop_assert_eq!(
                    got, tail,
                    "raw tail past the watermark lost (key {}, now {})", key, now
                );
            }
        }
        // The rollup series across all base series hold exactly one point
        // per materialized bucket: re-running at a repeated `now` added
        // nothing, and buckets are never double-counted.
        let mut rollup_points = 0usize;
        for (key, points) in sharded
            .query_selector(&Selector::any().tag_present(asap_tsdb::ROLLUP_TAG), full())
            .unwrap()
        {
            let mut stamps: Vec<i64> = points.iter().map(|p| p.timestamp).collect();
            stamps.dedup();
            prop_assert_eq!(stamps.len(), points.len(), "duplicate bucket in {}", key);
            rollup_points += points.len();
        }
        prop_assert_eq!(rollup_points, total_rolled);
    }

    /// The compactor's state is the store: passes interrupted by a
    /// `save` → `load` (into any shard count) after any step and carried
    /// on by a new compactor give, pass by pass, the same `Ok` reports
    /// and in the end the same store as one compactor never interrupted.
    /// Each step feeds every series up to `upto`, compacts at
    /// `upto + offset`, and restarts when `restart` names a shard count.
    #[test]
    fn compaction_resumes_from_a_reloaded_store(
        gaps in prop::collection::vec(prop::collection::vec(1i64..30, 0..80), 1..4),
        block_capacity in 1usize..12,
        shards in 1usize..5,
        ttls in (0i64..300, 0i64..300),
        bucket in 1i64..30,
        steps in prop::collection::vec((0i64..2_500, -300i64..300, 0usize..9), 1..8),
    ) {
        let runs: Vec<Vec<DataPoint>> = gaps
            .iter()
            .map(|gaps| {
                let mut ts = 0;
                gaps.iter().map(|gap| { ts += gap; DataPoint::new(ts, (ts % 17) as f64) }).collect()
            })
            .collect();
        let ttl = |t: i64| (t > 0).then_some(t);
        let policy = RetentionPolicy {
            raw_ttl: ttl(ttls.0),
            rollups: vec![
                RollupLevel { bucket, aggregator: Aggregator::Mean, ttl: ttl(ttls.1) },
                RollupLevel { bucket: bucket * 3, aggregator: Aggregator::Max, ttl: None },
            ],
        };
        let config = |shards| ShardedConfig::new(shards, block_capacity);
        let snapshot = std::env::temp_dir()
            .join(format!("asap_ops_compaction_restart_{}.snap", std::process::id()));
        let steady = ShardedDb::with_config(config(shards));
        let steady_c = Compactor::new(policy.clone()).unwrap();
        let mut restarted = ShardedDb::with_config(config(shards));
        let mut restarted_c = Compactor::new(policy.clone()).unwrap();
        let mut fed = vec![0usize; runs.len()];
        for (upto, offset, restart) in steps {
            for (h, run) in runs.iter().enumerate() {
                let key = SeriesKey::metric("cpu").with_tag("host", format!("h{h}"));
                for &p in run[fed[h]..].iter().take_while(|p| p.timestamp < upto) {
                    steady.write(&key, p).unwrap();
                    restarted.write(&key, p).unwrap();
                    fed[h] += 1;
                }
            }
            let now = upto + offset;
            let a = steady_c.run_sharded(&steady, now);
            let b = restarted_c.run_sharded(&restarted, now);
            prop_assert!(a.is_ok() && b.is_ok(), "pass at now={} failed: {:?} / {:?}", now, a, b);
            prop_assert_eq!(a.unwrap(), b.unwrap(), "reports diverge at now={}", now);
            if restart > 4 {
                // `save` seals every memtable; seal the steady store too,
                // so both keep the same block boundaries.
                steady.flush().unwrap();
                restarted.save(&snapshot).unwrap();
                restarted = ShardedDb::load(&snapshot, config(restart - 4)).unwrap();
                restarted_c = Compactor::new(policy.clone()).unwrap();
            }
        }
        std::fs::remove_file(&snapshot).ok();
        prop_assert_eq!(
            restarted.query_selector(&Selector::any(), full()).unwrap(),
            steady.query_selector(&Selector::any(), full()).unwrap()
        );
    }
}

/// A save running against live writers must not deadlock, must produce a
/// loadable file, and every saved series must be a time-prefix of the
/// final series (the per-series consistency point `persist` documents).
#[test]
fn concurrent_writers_during_save_yield_loadable_prefix_snapshots() {
    let dir = std::env::temp_dir().join("asap_tsdb_ops_properties");
    std::fs::create_dir_all(&dir).unwrap();

    let db = ShardedDb::with_config(ShardedConfig::new(4, 16));
    let key = |w: usize| SeriesKey::metric("cpu").with_tag("host", format!("h{w}"));
    const WRITERS: usize = 6;
    const POINTS: i64 = 4_000;

    let mut snapshots = Vec::new();
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let db = db.clone();
            scope.spawn(move || {
                let key = key(w);
                for t in 0..POINTS {
                    db.write(&key, DataPoint::new(t, (t % 97) as f64)).unwrap();
                }
            });
        }
        // Race repeated saves against the writers.
        for round in 0..6 {
            let path = dir.join(format!("live_{}_{round}.snap", std::process::id()));
            db.save(&path).unwrap();
            snapshots.push(path);
        }
    });

    // Writers are done: the final contents are the full runs.
    for path in &snapshots {
        let restored = ShardedDb::load(path, ShardedConfig::new(3, 16)).unwrap();
        for w in 0..WRITERS {
            let k = key(w);
            // A snapshot taken before this series' first seal has no
            // record of it at all — a valid (empty) prefix.
            let saved = restored
                .query(&k, RangeQuery::raw(i64::MIN + 1, i64::MAX))
                .unwrap_or_default();
            let final_points = db.query(&k, RangeQuery::raw(i64::MIN + 1, i64::MAX)).unwrap();
            assert_eq!(final_points.len() as i64, POINTS);
            assert!(
                saved.len() <= final_points.len(),
                "snapshot holds more than was ever written"
            );
            assert_eq!(
                saved.as_slice(),
                &final_points[..saved.len()],
                "saved series is not a prefix of the final series ({k})"
            );
        }
        std::fs::remove_file(path).ok();
    }
}

/// Pipeline ingest races smoothing readers without losing or reordering
/// anything: after the pipeline drains, the store equals the serial
/// oracle even though readers were hammering it throughout.
#[test]
fn pipeline_ingest_under_concurrent_readers_stays_exact() {
    let mut doc = String::new();
    for t in 0..3_000i64 {
        for h in 0..4 {
            doc.push_str(&format!(
                "cpu,host=h{h} usage={} {t}\n",
                (t as f64 / 60.0).sin() + h as f64
            ));
        }
    }
    let db = ShardedDb::with_config(ShardedConfig::new(4, 64));
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for r in 0..3 {
            let db = db.clone();
            let stop = &stop;
            scope.spawn(move || {
                let key = SeriesKey::metric("cpu.usage").with_tag("host", format!("h{}", r % 4));
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    // Readers may see any prefix; they must never error in
                    // a way other than "series not there yet".
                    let _ = db.query(&key, RangeQuery::raw(0, 3_000));
                }
            });
        }
        let report = ingest_reader(
            &db,
            doc.as_bytes(),
            0,
            &IngestConfig {
                queue_depth: 2,
                chunk_lines: 64,
                lateness: None,
                ..IngestConfig::default()
            },
        )
        .unwrap();
        stop.store(true, std::sync::atomic::Ordering::Release);
        assert!(report.is_clean());
        assert_eq!(report.points, 3_000 * 4);
    });

    let oracle = Tsdb::with_config(TsdbConfig { block_capacity: 64 });
    line_protocol::ingest(&oracle, &doc, 0).unwrap();
    assert_eq!(
        db.query_selector(&Selector::any(), full()).unwrap(),
        oracle.query_selector(&Selector::any(), full()).unwrap()
    );
}

/// Rollup keys route to their own shards; after sharded compaction the
/// rollup series are reachable through every query front-end the same
/// way.
#[test]
fn sharded_rollups_land_where_queries_find_them() {
    let db = ShardedDb::with_config(ShardedConfig::new(5, 8));
    for h in 0..8 {
        let key = SeriesKey::metric("net").with_tag("host", format!("h{h}"));
        for t in 0..50 {
            db.write(&key, DataPoint::new(t, t as f64)).unwrap();
        }
    }
    let c = Compactor::new(RetentionPolicy {
        raw_ttl: None,
        rollups: vec![RollupLevel {
            bucket: 10,
            aggregator: Aggregator::Mean,
            ttl: None,
        }],
    })
    .unwrap();
    let report = c.run_sharded(&db, 50).unwrap();
    assert_eq!(report.rolled_up, 8 * 5);
    for h in 0..8 {
        let base = SeriesKey::metric("net").with_tag("host", format!("h{h}"));
        let rk = rollup_key(&base, 10);
        let points = db.query(&rk, full()).unwrap();
        assert_eq!(points.len(), 5);
        // Mean of each 10-wide bucket of 0..50 is midpoint + 0.5-off.
        let expect: Vec<DataPoint> = (0..5)
            .map(|b| DataPoint::new(b * 10, (b * 10) as f64 + 4.5))
            .collect();
        assert_eq!(points, expect);
    }
}
