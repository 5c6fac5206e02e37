//! One storage partition: a locked series map shared by both engine
//! front-ends.
//!
//! [`Shard`] is the unit of concurrency the engine is built from. The
//! single-shard [`crate::db::Tsdb`] facade wraps exactly one; the
//! [`crate::sharded::ShardedDb`] front-end routes series across many by
//! tag-aware hash. Keeping every storage operation here guarantees the two
//! front-ends produce byte-identical results: they run the same code on
//! the same per-series stores and differ only in routing.
//!
//! Locking model: an outer `RwLock` guards the series map (taken briefly —
//! series creation is rare), and each [`SeriesStore`] sits behind its own
//! `RwLock`, so ingest into one series never blocks queries of another.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::block::Block;
use crate::db::{SeriesStats, TsdbConfig};
use crate::error::TsdbError;
use crate::point::DataPoint;
use crate::query::{RangeQuery, SeriesReader, SeriesWriter};
use crate::series::SeriesStore;
use crate::tags::{Selector, SeriesKey};

/// Aggregate occupancy of one shard — the per-shard counters live ops
/// endpoints report. Produced by [`Shard::occupancy`] /
/// [`crate::sharded::ShardedDb::shard_occupancy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Distinct series resident in the shard.
    pub series: usize,
    /// Total stored points across those series.
    pub points: usize,
    /// Sealed block count across those series.
    pub blocks: usize,
    /// Compressed bytes across sealed blocks.
    pub compressed_bytes: usize,
    /// Newest timestamp across the shard's series (`None` when the
    /// shard is empty) — the shard's ingest watermark.
    pub watermark: Option<i64>,
}

/// One partition of the store: a concurrent map from series key to its
/// per-series store.
#[derive(Debug)]
pub struct Shard {
    config: TsdbConfig,
    series: RwLock<BTreeMap<SeriesKey, Arc<RwLock<SeriesStore>>>>,
}

impl Shard {
    /// Creates an empty shard sealing blocks per `config`.
    pub fn new(config: TsdbConfig) -> Self {
        Self {
            config,
            series: RwLock::new(BTreeMap::new()),
        }
    }

    /// The shard's engine configuration.
    pub fn config(&self) -> TsdbConfig {
        self.config
    }

    /// Number of distinct series in this shard.
    pub fn series_count(&self) -> usize {
        self.series.read().len()
    }

    /// Writes one point, creating the series on first touch.
    pub fn write(&self, key: &SeriesKey, point: DataPoint) -> Result<(), TsdbError> {
        let store = self.store_or_create(key);
        let result = store.write().append(point);
        result
    }

    /// Writes a batch of points to one series (points must be in order).
    pub fn write_batch(&self, key: &SeriesKey, points: &[DataPoint]) -> Result<(), TsdbError> {
        let store = self.store_or_create(key);
        let mut guard = store.write();
        for &p in points {
            guard.append(p)?;
        }
        Ok(())
    }

    fn store_or_create(&self, key: &SeriesKey) -> Arc<RwLock<SeriesStore>> {
        if let Some(s) = self.series.read().get(key) {
            return Arc::clone(s);
        }
        let block_capacity = self.config.block_capacity;
        let mut map = self.series.write();
        Arc::clone(
            map.entry(key.clone())
                .or_insert_with(|| Arc::new(RwLock::new(SeriesStore::new(block_capacity)))),
        )
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

    /// Whether this shard holds `key`.
    pub fn contains(&self, key: &SeriesKey) -> bool {
        self.series.read().contains_key(key)
    }

    /// Runs a query against one series.
    pub fn query(&self, key: &SeriesKey, query: RangeQuery) -> Result<Vec<DataPoint>, TsdbError> {
        query.validate()?;
        let store = self.store(key)?;
        let raw = store.read().scan(query.start, query.end)?;
        query.shape(&raw)
    }

    /// Runs a query against every series in this shard matching
    /// `selector`, returning `(key, shaped points)` pairs in key order.
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

    /// Evicts sealed blocks older than `cutoff` from every series and
    /// drops series left completely empty. Returns total evicted points.
    pub fn evict_before(&self, cutoff: i64) -> usize {
        let mut evicted = 0;
        let mut map = self.series.write();
        map.retain(|_, store| {
            let mut guard = store.write();
            evicted += guard.evict_before(cutoff);
            !guard.is_empty()
        });
        evicted
    }

    /// Returns clones of one series' sealed blocks (cheap: payloads are
    /// reference-counted).
    pub fn export_blocks(&self, key: &SeriesKey) -> Result<Vec<Block>, TsdbError> {
        let store = self.store(key)?;
        let guard = store.read();
        Ok(guard.blocks().to_vec())
    }

    /// Imports pre-sealed blocks into a series (snapshot restore),
    /// creating it if needed. Blocks must be strictly after existing data.
    pub fn import_blocks(&self, key: &SeriesKey, blocks: Vec<Block>) -> Result<(), TsdbError> {
        let store = self.store_or_create(key);
        let result = store.write().import_blocks(blocks);
        result
    }

    /// Evicts sealed blocks older than `cutoff` from one series, dropping
    /// it if left empty. Returns evicted points; missing series evict
    /// nothing.
    pub fn evict_series_before(&self, key: &SeriesKey, cutoff: i64) -> usize {
        let store = match self.store(key) {
            Ok(s) => s,
            Err(_) => return 0,
        };
        let (evicted, empty) = {
            let mut guard = store.write();
            let evicted = guard.evict_before(cutoff);
            (evicted, guard.is_empty())
        };
        if empty {
            self.series.write().remove(key);
        }
        evicted
    }

    /// Aggregate occupancy of this shard: series/point/block totals,
    /// compressed footprint, and the shard's ingest watermark (the
    /// newest timestamp across its series, `None` when empty). One pass
    /// under read locks — the per-shard counters live ops endpoints
    /// aggregate (`STATS`/`HEALTH` in the server layer).
    pub fn occupancy(&self) -> ShardOccupancy {
        let mut occ = ShardOccupancy::default();
        for store in self.series.read().values() {
            let guard = store.read();
            occ.series += 1;
            occ.points += guard.len();
            occ.blocks += guard.block_count();
            occ.compressed_bytes += guard.compressed_bytes();
            occ.watermark = match (occ.watermark, guard.last_timestamp()) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        occ
    }

    /// Per-series occupancy statistics of this shard, in key order.
    pub fn stats(&self) -> Vec<SeriesStats> {
        self.series
            .read()
            .iter()
            .map(|(k, s)| {
                let guard = s.read();
                SeriesStats {
                    key: k.clone(),
                    points: guard.len(),
                    blocks: guard.block_count(),
                    compressed_bytes: guard.compressed_bytes(),
                }
            })
            .collect()
    }
}

impl SeriesReader for Shard {
    fn read_series(&self, key: &SeriesKey, query: RangeQuery) -> Result<Vec<DataPoint>, TsdbError> {
        self.query(key, query)
    }

    fn matching_series(&self, selector: &Selector) -> Vec<SeriesKey> {
        self.list_series(selector)
    }
}

impl SeriesWriter for Shard {
    fn write_point(&self, key: &SeriesKey, point: DataPoint) -> Result<(), TsdbError> {
        self.write(key, point)
    }
}
