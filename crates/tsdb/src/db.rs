//! The database facade: a single-[`Shard`] engine front-end.

use std::sync::Arc;

use crate::error::TsdbError;
use crate::point::DataPoint;
use crate::query::{RangeQuery, SeriesReader, SeriesWriter};
use crate::shard::Shard;
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

/// An embedded, in-memory, concurrent time-series database.
///
/// Series are keyed by [`SeriesKey`] (metric + tags). Writers append
/// strictly-increasing timestamps per series; the engine seals full
/// memtables into Gorilla-compressed [`crate::block::Block`]s. Readers run
/// [`RangeQuery`]s against a single series or a [`Selector`] over many.
///
/// `Tsdb` is a facade over exactly one [`Shard`] — the storage partition
/// type the engine is built from. The horizontally partitioned
/// [`crate::sharded::ShardedDb`] front-end mirrors this API over many
/// shards and, because both run the identical `Shard` code, produces
/// byte-identical query results.
///
/// Concurrency model: a `RwLock` over the series map (series creation is
/// rare), with each store behind its own `RwLock` so unrelated series never
/// contend. Handles are `Arc`-shared; `Tsdb` itself is cheap to clone.
#[derive(Debug, Clone)]
pub struct Tsdb {
    inner: Arc<Shard>,
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
            inner: Arc::new(Shard::new(config)),
        }
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.inner.series_count()
    }

    /// Writes one point, creating the series on first touch.
    pub fn write(&self, key: &SeriesKey, point: DataPoint) -> Result<(), TsdbError> {
        self.inner.write(key, point)
    }

    /// Writes a batch of points to one series (points must be in order).
    pub fn write_batch(&self, key: &SeriesKey, points: &[DataPoint]) -> Result<(), TsdbError> {
        self.inner.write_batch(key, points)
    }

    /// Runs a query against one series.
    pub fn query(&self, key: &SeriesKey, query: RangeQuery) -> Result<Vec<DataPoint>, TsdbError> {
        self.inner.query(key, query)
    }

    /// Runs a query against every series matching `selector`, returning
    /// `(key, shaped points)` pairs in key order.
    pub fn query_selector(
        &self,
        selector: &Selector,
        query: RangeQuery,
    ) -> Result<Vec<(SeriesKey, Vec<DataPoint>)>, TsdbError> {
        self.inner.query_selector(selector, query)
    }

    /// Lists keys of series matching `selector`, in key order.
    pub fn list_series(&self, selector: &Selector) -> Vec<SeriesKey> {
        self.inner.list_series(selector)
    }

    /// Seals every series' memtable (e.g. before measuring compression).
    pub fn flush(&self) -> Result<(), TsdbError> {
        self.inner.flush()
    }

    /// Evicts sealed blocks older than `cutoff` from every series and drops
    /// series left completely empty. Returns total evicted points.
    pub fn evict_before(&self, cutoff: i64) -> usize {
        self.inner.evict_before(cutoff)
    }

    /// Returns clones of one series' sealed blocks (cheap: payloads are
    /// reference-counted). Used by snapshot persistence; call
    /// [`Tsdb::flush`] first to include memtable contents.
    pub fn export_blocks(&self, key: &SeriesKey) -> Result<Vec<crate::block::Block>, TsdbError> {
        self.inner.export_blocks(key)
    }

    /// Imports pre-sealed blocks into a series (snapshot restore), creating
    /// it if needed. Blocks must be strictly after any existing data.
    pub fn import_blocks(
        &self,
        key: &SeriesKey,
        blocks: Vec<crate::block::Block>,
    ) -> Result<(), TsdbError> {
        self.inner.import_blocks(key, blocks)
    }

    /// Evicts sealed blocks older than `cutoff` from one series. The series
    /// is dropped if left completely empty. Returns evicted points; missing
    /// series evict nothing.
    pub fn evict_series_before(&self, key: &SeriesKey, cutoff: i64) -> usize {
        self.inner.evict_series_before(key, cutoff)
    }

    /// Per-series occupancy statistics, in key order.
    pub fn stats(&self) -> Vec<SeriesStats> {
        self.inner.stats()
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
