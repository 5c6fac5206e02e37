//! Property-based tests for the sharded engine.
//!
//! The central invariant: a [`ShardedDb`] is observationally identical to
//! a single-shard [`Tsdb`] holding the same points — for every query
//! shape, under any cross-thread ingest interleaving, at any shard count
//! and block capacity. No expected value below is baked in; everything is
//! derived from the single-shard oracle (so the tests are independent of
//! the rand shim's stream, per the ROADMAP note on golden values).

use asap_core::Asap;
use asap_tsdb::query::Aggregator;
use asap_tsdb::{
    smooth_query, smooth_query_selector, DataPoint, RangeQuery, Selector, SeriesKey,
    ShardedConfig, ShardedDb, Tsdb, TsdbConfig,
};
use proptest::prelude::*;

fn host(i: usize) -> SeriesKey {
    SeriesKey::metric("cpu").with_tag("host", format!("h{i}"))
}

/// Strategy: per-series strictly-increasing timestamp runs with finite
/// values, plus a shard count and a (small) block capacity so seals land
/// in different places on different shards.
fn ingest_case(
    max_series: usize,
    max_len: usize,
) -> impl Strategy<Value = (Vec<Vec<DataPoint>>, usize, usize)> {
    (
        prop::collection::vec(
            prop::collection::vec((1i64..500, -1.0e3..1.0e3f64), 0..max_len),
            1..max_series,
        ),
        1usize..6,
        1usize..40,
    )
        .prop_map(|(series, shards, block_capacity)| {
            let series = series
                .into_iter()
                .map(|gaps| {
                    let mut ts = -2_000i64;
                    gaps.into_iter()
                        .map(|(gap, v)| {
                            ts += gap;
                            DataPoint::new(ts, v)
                        })
                        .collect()
                })
                .collect();
            (series, shards, block_capacity)
        })
}

/// Ingests each series from its own thread (writers race on the sharded
/// map) and serially into the oracle.
fn build_twin(
    series: &[Vec<DataPoint>],
    shards: usize,
    block_capacity: usize,
) -> (ShardedDb, Tsdb) {
    let sharded = ShardedDb::with_config(ShardedConfig::new(shards, block_capacity));
    std::thread::scope(|scope| {
        for (i, points) in series.iter().enumerate() {
            let sharded = &sharded;
            scope.spawn(move || {
                for &p in points {
                    sharded.write(&host(i), p).unwrap();
                }
            });
        }
    });
    let oracle = Tsdb::with_config(TsdbConfig { block_capacity });
    for (i, points) in series.iter().enumerate() {
        for &p in points {
            oracle.write(&host(i), p).unwrap();
        }
    }
    (sharded, oracle)
}

proptest! {
    #[test]
    fn sharded_matches_single_shard_oracle(case in ingest_case(5, 120)) {
        let (series, shards, block_capacity) = case;
        let (sharded, oracle) = build_twin(&series, shards, block_capacity);

        prop_assert_eq!(sharded.series_count(), oracle.series_count());
        let sel = Selector::metric("cpu");
        prop_assert_eq!(sharded.list_series(&sel), oracle.list_series(&sel));

        let full = RangeQuery::raw(i64::MIN, i64::MAX);
        for (i, points) in series.iter().enumerate() {
            if points.is_empty() {
                continue;
            }
            let key = host(i);
            prop_assert_eq!(
                sharded.query(&key, full).unwrap(),
                oracle.query(&key, full).unwrap()
            );
            // Partial range + bucketed aggregation over the same grid.
            let q = RangeQuery::bucketed(-2_000, 30_000, 37).aggregate(Aggregator::Mean);
            prop_assert_eq!(sharded.query(&key, q).unwrap(), oracle.query(&key, q).unwrap());
        }
        prop_assert_eq!(
            sharded.query_selector(&sel, full).unwrap(),
            oracle.query_selector(&sel, full).unwrap()
        );

        // Occupancy statistics agree point-for-point and block-for-block
        // once both engines seal their memtables.
        sharded.flush().unwrap();
        oracle.flush().unwrap();
        prop_assert_eq!(sharded.stats(), oracle.stats());

        // Retention agrees too (cutoff in the middle of the data).
        prop_assert_eq!(sharded.evict_before(500), oracle.evict_before(500));
        prop_assert_eq!(
            sharded.query_selector(&sel, full).unwrap(),
            oracle.query_selector(&sel, full).unwrap()
        );
    }

    #[test]
    fn gorilla_blocks_survive_shard_boundary_splits(case in ingest_case(4, 90)) {
        let (series, shards, block_capacity) = case;
        let (sharded, oracle) = build_twin(&series, shards, block_capacity);
        sharded.flush().unwrap();
        oracle.flush().unwrap();

        for (i, points) in series.iter().enumerate() {
            if points.is_empty() {
                continue;
            }
            let key = host(i);
            let blocks = sharded.export_blocks(&key).unwrap();
            let oracle_blocks = oracle.export_blocks(&key).unwrap();
            prop_assert_eq!(blocks.len(), oracle_blocks.len(), "seal boundaries agree");

            // Every sealed block decodes bit-exactly, and their
            // concatenation reproduces the written series in order —
            // wherever the shard's seals happened to fall.
            let mut decoded = Vec::new();
            for (block, oracle_block) in blocks.iter().zip(&oracle_blocks) {
                let pts = block.decode().unwrap();
                prop_assert_eq!(block.len(), pts.len());
                prop_assert_eq!(&pts, &oracle_block.decode().unwrap());
                decoded.extend(pts);
            }
            prop_assert_eq!(&decoded, points, "round trip through sealed blocks");

            // A rebalancing migration to a different shard count keeps the
            // same bytes queryable.
            let migrated_shards = (shards % 5) + 1;
            let migrated = ShardedDb::with_config(ShardedConfig::new(migrated_shards, block_capacity));
            migrated.import_blocks(&key, blocks).unwrap();
            prop_assert_eq!(
                migrated.query(&key, RangeQuery::raw(i64::MIN, i64::MAX)).unwrap(),
                decoded
            );
        }
    }

    #[test]
    fn sharded_smoothing_equals_oracle(
        case in ingest_case(3, 60),
        period in 8.0..120.0f64,
    ) {
        // Smoothing needs a reasonably long equi-spaced grid; reuse the
        // generated case for shard/capacity diversity but lay down a
        // dense, periodic series per key so ASAP has something to choose.
        let (series, shards, block_capacity) = case;
        let sharded = ShardedDb::with_config(ShardedConfig::new(shards, block_capacity));
        let oracle = Tsdb::with_config(TsdbConfig { block_capacity });
        for (i, _) in series.iter().enumerate() {
            let key = host(i);
            for t in 0..800i64 {
                let v = (std::f64::consts::TAU * t as f64 / period).sin()
                    + 0.3 * if t % 2 == 0 { 1.0 } else { -1.0 };
                let p = DataPoint::new(t * 5, v);
                sharded.write(&key, p).unwrap();
                oracle.write(&key, p).unwrap();
            }
        }
        let asap = Asap::builder().resolution(100).build();
        for (i, _) in series.iter().enumerate() {
            let key = host(i);
            prop_assert_eq!(
                smooth_query(&sharded, &key, &asap, 0, 4_000, 5),
                smooth_query(&oracle, &key, &asap, 0, 4_000, 5)
            );
        }
        // Selector smoothing over the shards equals the single-shard
        // oracle, frames and order alike.
        let sel = Selector::metric("cpu");
        prop_assert_eq!(
            smooth_query_selector(&sharded, &sel, &asap, 0, 4_000, 5),
            smooth_query_selector(&oracle, &sel, &asap, 0, 4_000, 5)
        );
    }
}

/// `WRITERS` threads each append `POINTS` points to a series of their
/// own while another thread evicts everything in a loop; block capacity
/// 1 seals every point at once, so nearly every write races an eviction
/// that empties its series. Once a write returns `Ok`, its point must be
/// either still stored or counted by an eviction:
/// `written == evicted + stored`.
fn assert_evictions_keep_acknowledged_writes(
    write: impl Fn(&SeriesKey, DataPoint) -> bool + Sync,
    evict: impl Fn(&[SeriesKey]) -> usize + Sync,
    stored: impl Fn() -> usize,
) {
    const WRITERS: usize = 3;
    const POINTS: i64 = 100_000;
    let keys: Vec<SeriesKey> = (0..WRITERS).map(host).collect();
    let done = std::sync::atomic::AtomicBool::new(false);
    let (written, evicted) = std::thread::scope(|scope| {
        let evictor = scope.spawn(|| {
            let mut evicted = 0;
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                evicted += evict(&keys);
            }
            evicted
        });
        let writers: Vec<_> = keys
            .iter()
            .map(|key| {
                let write = &write;
                scope.spawn(move || {
                    (0..POINTS)
                        .filter(|&t| write(key, DataPoint::new(t, t as f64)))
                        .count()
                })
            })
            .collect();
        let written: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
        done.store(true, std::sync::atomic::Ordering::Release);
        (written, evictor.join().unwrap())
    });
    assert_eq!(written, WRITERS * POINTS as usize, "every write is in order");
    let stored = stored();
    assert_eq!(
        written,
        evicted + stored,
        "{} acknowledged points neither stored nor evicted",
        written as i64 - (evicted + stored) as i64
    );
}

fn stored_points(stats: Vec<asap_tsdb::SeriesStats>) -> usize {
    stats.iter().map(|s| s.points).sum()
}

#[test]
fn tsdb_series_eviction_never_loses_acknowledged_writes() {
    let db = Tsdb::with_config(TsdbConfig { block_capacity: 1 });
    assert_evictions_keep_acknowledged_writes(
        |key, p| db.write(key, p).is_ok(),
        |keys| keys.iter().map(|k| db.evict_series_before(k, i64::MAX)).sum(),
        || stored_points(db.stats()),
    );
}

#[test]
fn sharded_series_eviction_never_loses_acknowledged_writes() {
    let db = ShardedDb::with_config(ShardedConfig::new(3, 1));
    assert_evictions_keep_acknowledged_writes(
        |key, p| db.write(key, p).is_ok(),
        |keys| keys.iter().map(|k| db.evict_series_before(k, i64::MAX)).sum(),
        || stored_points(db.stats()),
    );
}

#[test]
fn whole_store_eviction_never_loses_acknowledged_writes() {
    let db = ShardedDb::with_config(ShardedConfig::new(3, 1));
    assert_evictions_keep_acknowledged_writes(
        |key, p| db.write(key, p).is_ok(),
        |_| db.evict_before(i64::MAX),
        || stored_points(db.stats()),
    );
}
