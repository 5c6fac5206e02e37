//! The storage partition: an embedded, in-memory, concurrent series map.
//!
//! [`Tsdb`] is the one partition type the engine is built from. Used on
//! its own it is the whole store; [`crate::sharded::ShardedDb`] routes
//! series across many of them by tag-aware hash. Both run this same code
//! on the same per-series stores and differ only in routing, so their
//! query results are byte-identical.
//!
//! Locking model: an outer `RwLock` guards the series map and each
//! [`SeriesStore`] sits behind its own `RwLock`, so ingest into one series
//! never blocks queries of another. Locks are always taken map → store.
//! Writes hold the map read guard across the store mutation, and eviction
//! unlinks a series only under the map write guard after re-checking there
//! that it is empty — so once a write returns `Ok`, its point is either
//! stored or counted by a later eviction.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::block::Block;
use crate::error::TsdbError;
use crate::point::DataPoint;
use crate::query::{RangeQuery, SeriesReader, SeriesWriter};
use crate::series::SeriesStore;
use crate::tags::{Selector, SeriesKey};

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct TsdbConfig {
    /// Points per sealed block (the memtable seal threshold).
    pub block_capacity: usize,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        Self {
            block_capacity: 1024,
        }
    }
}

/// Per-series occupancy statistics, as returned by [`Tsdb::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesStats {
    /// The series identity.
    pub key: SeriesKey,
    /// Total stored points.
    pub points: usize,
    /// Sealed block count.
    pub blocks: usize,
    /// Compressed bytes across sealed blocks.
    pub compressed_bytes: usize,
}

/// Aggregate occupancy of one partition — the per-shard counters live ops
/// endpoints report. Produced by [`Tsdb::occupancy`] /
/// [`crate::sharded::ShardedDb::shard_occupancy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Distinct series resident in the partition.
    pub series: usize,
    /// Total stored points across those series.
    pub points: usize,
    /// Sealed block count across those series.
    pub blocks: usize,
    /// Compressed bytes across sealed blocks.
    pub compressed_bytes: usize,
    /// Newest timestamp across the partition's series (`None` when it is
    /// empty) — the partition's ingest watermark.
    pub watermark: Option<i64>,
}

type SeriesMap = BTreeMap<SeriesKey, Arc<RwLock<SeriesStore>>>;

/// An embedded, in-memory, concurrent time-series database partition.
///
/// Series are keyed by [`SeriesKey`] (metric + tags). Writers append
/// strictly-increasing timestamps per series; the engine seals full
/// memtables into Gorilla-compressed [`Block`]s. Readers run
/// [`RangeQuery`]s against a single series or a [`Selector`] over many.
/// See the module docs for the locking model.
///
/// Cheap to clone: clones share storage.
#[derive(Debug, Clone)]
pub struct Tsdb {
    config: TsdbConfig,
    series: Arc<RwLock<SeriesMap>>,
}

impl Default for Tsdb {
    fn default() -> Self {
        Self::with_config(TsdbConfig::default())
    }
}

impl Tsdb {
    /// Creates an engine with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine with the given configuration.
    pub fn with_config(config: TsdbConfig) -> Self {
        Self {
            config,
            series: Arc::default(),
        }
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.series.read().len()
    }

    /// Writes one point, creating the series on first touch.
    pub fn write(&self, key: &SeriesKey, point: DataPoint) -> Result<(), TsdbError> {
        self.with_store(key, |store| store.append(point))
    }

    /// Writes a batch of points to one series (points must be in order).
    pub fn write_batch(&self, key: &SeriesKey, points: &[DataPoint]) -> Result<(), TsdbError> {
        self.with_store(key, |store| {
            points.iter().try_for_each(|&p| store.append(p))
        })
    }

    /// Imports pre-sealed blocks into a series (snapshot restore), creating
    /// it if needed. Blocks must be strictly after any existing data.
    pub fn import_blocks(&self, key: &SeriesKey, blocks: Vec<Block>) -> Result<(), TsdbError> {
        self.with_store(key, |store| store.import_blocks(blocks))
    }

    /// Applies `mutate` to `key`'s store, creating the series on first
    /// touch. The map guard is held across `mutate`, so eviction cannot
    /// unlink the series between the lookup and the mutation.
    fn with_store<T>(&self, key: &SeriesKey, mutate: impl FnOnce(&mut SeriesStore) -> T) -> T {
        if let Some(store) = self.series.read().get(key) {
            return mutate(&mut store.write());
        }
        let mut map = self.series.write();
        let store = map
            .entry(key.clone())
            .or_insert_with(|| Arc::new(RwLock::new(SeriesStore::new(self.config.block_capacity))));
        let result = mutate(&mut store.write());
        result
    }

    fn store(&self, key: &SeriesKey) -> Result<Arc<RwLock<SeriesStore>>, TsdbError> {
        self.series
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| TsdbError::SeriesNotFound {
                key: key.to_string(),
            })
    }

    /// The `(first, last)` timestamps of one series, read from its block
    /// summaries and memtable without decoding; `None` when it is absent.
    pub(crate) fn time_bounds(&self, key: &SeriesKey) -> Option<(i64, i64)> {
        let map = self.series.read();
        let store = map.get(key)?.read();
        Some((store.first_timestamp()?, store.last_timestamp()?))
    }

    /// Runs a query against one series.
    pub fn query(&self, key: &SeriesKey, query: RangeQuery) -> Result<Vec<DataPoint>, TsdbError> {
        query.validate()?;
        let store = self.store(key)?;
        let raw = store.read().scan(query.start, query.end)?;
        query.shape(&raw)
    }

    /// Runs a query against every series matching `selector`, returning
    /// `(key, shaped points)` pairs in key order.
    pub fn query_selector(
        &self,
        selector: &Selector,
        query: RangeQuery,
    ) -> Result<Vec<(SeriesKey, Vec<DataPoint>)>, TsdbError> {
        query.validate()?;
        let matching: Vec<(SeriesKey, Arc<RwLock<SeriesStore>>)> = self
            .series
            .read()
            .iter()
            .filter(|(k, _)| selector.matches(k))
            .map(|(k, s)| (k.clone(), Arc::clone(s)))
            .collect();
        let mut out = Vec::with_capacity(matching.len());
        for (key, store) in matching {
            let raw = store.read().scan(query.start, query.end)?;
            out.push((key, query.shape(&raw)?));
        }
        Ok(out)
    }

    /// Lists keys of series matching `selector`, in key order.
    pub fn list_series(&self, selector: &Selector) -> Vec<SeriesKey> {
        self.series
            .read()
            .keys()
            .filter(|k| selector.matches(k))
            .cloned()
            .collect()
    }

    /// Seals every series' memtable (e.g. before measuring compression).
    pub fn flush(&self) -> Result<(), TsdbError> {
        let stores: Vec<_> = self.series.read().values().cloned().collect();
        for store in stores {
            store.write().seal_active()?;
        }
        Ok(())
    }

    /// Returns clones of one series' sealed blocks (cheap: payloads are
    /// reference-counted). Used by snapshot persistence; call
    /// [`Tsdb::flush`] first to include memtable contents.
    pub fn export_blocks(&self, key: &SeriesKey) -> Result<Vec<Block>, TsdbError> {
        let store = self.store(key)?;
        let blocks = store.read().blocks().to_vec();
        Ok(blocks)
    }

    /// Evicts sealed blocks older than `cutoff` from every series and drops
    /// series left completely empty. Returns total evicted points.
    pub fn evict_before(&self, cutoff: i64) -> usize {
        let mut evicted = 0;
        let mut emptied = Vec::new();
        for (key, store) in self.series.read().iter() {
            let mut store = store.write();
            evicted += store.evict_before(cutoff);
            if store.is_empty() {
                emptied.push(key.clone());
            }
        }
        self.unlink_empty(&emptied);
        evicted
    }

    /// Evicts sealed blocks older than `cutoff` from one series. The series
    /// is dropped if left completely empty. Returns evicted points; missing
    /// series evict nothing.
    pub fn evict_series_before(&self, key: &SeriesKey, cutoff: i64) -> usize {
        let (evicted, emptied) = {
            let map = self.series.read();
            let Some(store) = map.get(key) else {
                return 0;
            };
            let mut store = store.write();
            (store.evict_before(cutoff), store.is_empty())
        };
        if emptied {
            self.unlink_empty(std::slice::from_ref(key));
        }
        evicted
    }

    /// Drops those of `keys` whose store is still empty under the map
    /// write guard. No write is mid-append while that guard is held, so an
    /// empty store there holds no acknowledged point.
    fn unlink_empty(&self, keys: &[SeriesKey]) {
        if keys.is_empty() {
            return;
        }
        let mut map = self.series.write();
        for key in keys {
            if map.get(key).is_some_and(|store| store.read().is_empty()) {
                map.remove(key);
            }
        }
    }

    /// Aggregate occupancy of this partition: series/point/block totals,
    /// compressed footprint, and the ingest watermark (the newest
    /// timestamp across its series, `None` when empty). One pass under
    /// read locks — the per-shard counters live ops endpoints aggregate
    /// (`STATS`/`HEALTH` in the server layer).
    pub fn occupancy(&self) -> ShardOccupancy {
        let mut occ = ShardOccupancy::default();
        for store in self.series.read().values() {
            let store = store.read();
            occ.series += 1;
            occ.points += store.len();
            occ.blocks += store.block_count();
            occ.compressed_bytes += store.compressed_bytes();
            occ.watermark = occ.watermark.max(store.last_timestamp());
        }
        occ
    }

    /// Per-series occupancy statistics, in key order.
    pub fn stats(&self) -> Vec<SeriesStats> {
        self.series
            .read()
            .iter()
            .map(|(k, s)| {
                let store = s.read();
                SeriesStats {
                    key: k.clone(),
                    points: store.len(),
                    blocks: store.block_count(),
                    compressed_bytes: store.compressed_bytes(),
                }
            })
            .collect()
    }
}

impl SeriesReader for Tsdb {
    fn read_series(&self, key: &SeriesKey, query: RangeQuery) -> Result<Vec<DataPoint>, TsdbError> {
        self.query(key, query)
    }

    fn matching_series(&self, selector: &Selector) -> Vec<SeriesKey> {
        self.list_series(selector)
    }
}

impl SeriesWriter for Tsdb {
    fn write_point(&self, key: &SeriesKey, point: DataPoint) -> Result<(), TsdbError> {
        self.write(key, point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Aggregator, FillPolicy};

    fn cpu(host: &str) -> SeriesKey {
        SeriesKey::metric("cpu").with_tag("host", host)
    }

    #[test]
    fn write_then_query_round_trips() {
        let db = Tsdb::new();
        let key = cpu("a");
        for i in 0..100 {
            db.write(&key, DataPoint::new(i, i as f64)).unwrap();
        }
        let out = db.query(&key, RangeQuery::raw(10, 20)).unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(out[0], DataPoint::new(10, 10.0));
    }

    #[test]
    fn unknown_series_errors() {
        let db = Tsdb::new();
        let err = db.query(&cpu("ghost"), RangeQuery::raw(0, 10)).unwrap_err();
        assert!(matches!(err, TsdbError::SeriesNotFound { .. }));
        assert!(err.to_string().contains("cpu{host=ghost}"));
    }

    #[test]
    fn per_series_ordering_is_independent() {
        let db = Tsdb::new();
        db.write(&cpu("a"), DataPoint::new(100, 1.0)).unwrap();
        // A different series may be behind series `a` in time.
        db.write(&cpu("b"), DataPoint::new(50, 1.0)).unwrap();
        // But series `a` itself cannot go backwards.
        assert!(db.write(&cpu("a"), DataPoint::new(50, 1.0)).is_err());
    }

    #[test]
    fn bucketed_query_through_facade() {
        let db = Tsdb::new();
        let key = cpu("a");
        for i in 0..60 {
            db.write(&key, DataPoint::new(i, 1.0)).unwrap();
        }
        let out = db
            .query(
                &key,
                RangeQuery::bucketed(0, 60, 10).aggregate(Aggregator::Count),
            )
            .unwrap();
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|p| p.value == 10.0));
    }

    #[test]
    fn selector_queries_fan_out_in_key_order() {
        let db = Tsdb::new();
        for host in ["c", "a", "b"] {
            let key = cpu(host);
            for i in 0..10 {
                db.write(&key, DataPoint::new(i, 1.0)).unwrap();
            }
        }
        db.write(&SeriesKey::metric("mem"), DataPoint::new(0, 1.0))
            .unwrap();
        let results = db
            .query_selector(&Selector::metric("cpu"), RangeQuery::raw(0, 10))
            .unwrap();
        let hosts: Vec<_> = results
            .iter()
            .map(|(k, _)| k.tag("host").unwrap().to_string())
            .collect();
        assert_eq!(hosts, vec!["a", "b", "c"]);
        assert!(results.iter().all(|(_, pts)| pts.len() == 10));
    }

    #[test]
    fn flush_then_stats_reports_blocks() {
        let db = Tsdb::with_config(TsdbConfig { block_capacity: 16 });
        let key = cpu("a");
        for i in 0..40 {
            db.write(&key, DataPoint::new(i, 0.0)).unwrap();
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].points, 40);
        assert_eq!(stats[0].blocks, 3, "two full seals plus one flush seal");
        assert!(stats[0].compressed_bytes > 0);
    }

    #[test]
    fn evict_drops_empty_series() {
        let db = Tsdb::with_config(TsdbConfig { block_capacity: 8 });
        let key = cpu("a");
        for i in 0..8 {
            db.write(&key, DataPoint::new(i, 0.0)).unwrap();
        }
        assert_eq!(db.series_count(), 1);
        let evicted = db.evict_before(i64::MAX);
        assert_eq!(evicted, 8);
        assert_eq!(db.series_count(), 0, "fully evicted series disappears");
    }

    #[test]
    fn fill_policies_reach_through_facade() {
        let db = Tsdb::new();
        let key = cpu("a");
        db.write(&key, DataPoint::new(5, 2.0)).unwrap();
        db.write(&key, DataPoint::new(25, 4.0)).unwrap();
        let out = db
            .query(
                &key,
                RangeQuery::bucketed(0, 30, 10).fill(FillPolicy::Linear),
            )
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[1].value, 3.0, "interpolated interior bucket");
    }

    #[test]
    fn concurrent_writers_do_not_interfere() {
        let db = Tsdb::new();
        let mut handles = Vec::new();
        for w in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                let key = cpu(&format!("h{w}"));
                for i in 0..1000i64 {
                    db.write(&key, DataPoint::new(i, w as f64)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.series_count(), 8);
        for w in 0..8 {
            let out = db
                .query(&cpu(&format!("h{w}")), RangeQuery::raw(0, 1000))
                .unwrap();
            assert_eq!(out.len(), 1000);
            assert!(out.iter().all(|p| p.value == w as f64));
        }
    }
}
