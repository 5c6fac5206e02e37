//! Horizontally partitioned engine: N [`Tsdb`] partitions behind one
//! router.
//!
//! The paper's deployment story (§2) is a dashboard backend smoothing
//! *many* series for *many* users at once. A single series map — however
//! fine its per-series locks — funnels every write and every query of the
//! process through one lock's cache line. [`ShardedDb`] removes that
//! funnel:
//!
//! * series are partitioned across `shards` independent [`Tsdb`]s by a
//!   deterministic, tag-aware FNV-1a hash of the full series identity
//!   (metric name *and* sorted tags), so `cpu{host=a}` and `cpu{host=b}`
//!   land on different shards and their writers never touch the same map
//!   lock;
//! * ingest (writes) and smoothing queries (reads) proceed concurrently —
//!   each shard is guarded by a `RwLock`, and cross-shard operations touch
//!   one shard at a time;
//! * reads run on the calling thread: selector queries merge per-shard
//!   results into deterministic key order, and smoothing goes through
//!   the same serial [`crate::smooth::smooth_query_selector`] over the
//!   [`SeriesReader`] impl below, so a read never spawns a thread.
//!
//! Every shard is a plain [`Tsdb`], so a `ShardedDb` answers every query
//! byte-for-byte the same as a single `Tsdb` holding the same points —
//! the property the cross-crate test suite pins down with a single-shard
//! oracle.

use std::sync::Arc;

use crate::block::Block;
use crate::db::{SeriesStats, ShardOccupancy, Tsdb, TsdbConfig};
use crate::error::TsdbError;
use crate::point::DataPoint;
use crate::query::{RangeQuery, SeriesReader, SeriesWriter};
use crate::tags::{Selector, SeriesKey};

/// Configuration of a [`ShardedDb`].
///
/// Embeds the whole per-shard [`TsdbConfig`] (rather than copying its
/// fields) so every storage knob automatically applies to each shard —
/// keeping sharded behavior identical to a single-shard [`Tsdb`] built
/// from the same `storage` config.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of storage partitions (default 8). More shards spread lock
    /// and cache contention across writers; a power of two near the
    /// writer thread count is a good default.
    pub shards: usize,
    /// The engine configuration every shard runs with.
    pub storage: TsdbConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            storage: TsdbConfig::default(),
        }
    }
}

impl ShardedConfig {
    /// A configuration with `shards` partitions sealing blocks of
    /// `block_capacity` points.
    pub fn new(shards: usize, block_capacity: usize) -> Self {
        Self {
            shards,
            storage: TsdbConfig { block_capacity },
        }
    }
}

/// A sharded, thread-safe time-series engine mirroring the [`Tsdb`] API,
/// routing each series to one of its [`Tsdb`] partitions.
///
/// Cheap to clone (shards are reference-counted); clones share storage.
///
/// # Example
///
/// ```
/// use asap_tsdb::{DataPoint, RangeQuery, SeriesKey, ShardedConfig, ShardedDb};
///
/// let db = ShardedDb::with_config(ShardedConfig::new(4, 256));
/// for host in ["a", "b", "c"] {
///     let key = SeriesKey::metric("cpu").with_tag("host", host);
///     for i in 0..100 {
///         db.write(&key, DataPoint::new(i, i as f64)).unwrap();
///     }
/// }
/// assert_eq!(db.series_count(), 3);
/// let key = SeriesKey::metric("cpu").with_tag("host", "b");
/// assert_eq!(db.query(&key, RangeQuery::raw(0, 10)).unwrap().len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedDb {
    shards: Arc<[Tsdb]>,
}

impl Default for ShardedDb {
    fn default() -> Self {
        Self::with_config(ShardedConfig::default())
    }
}

/// FNV-1a over the full series identity: metric name and every sorted
/// `key=value` tag pair, with distinct separators so `a`+`bc` and `ab`+`c`
/// cannot collide structurally. Deterministic across runs and platforms —
/// shard placement is stable, so tests and snapshots can rely on it.
fn route_hash(key: &SeriesKey) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    eat(key.metric_name().as_bytes());
    for (k, v) in key.tags() {
        eat(&[0xFF]);
        eat(k.as_bytes());
        eat(&[0xFE]);
        eat(v.as_bytes());
    }
    h
}

impl ShardedDb {
    /// Creates an engine with the default configuration (8 shards).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine with the given configuration.
    ///
    /// # Panics
    /// Panics if `config.shards == 0`.
    pub fn with_config(config: ShardedConfig) -> Self {
        assert!(config.shards > 0, "shard count must be positive");
        Self {
            shards: (0..config.shards)
                .map(|_| Tsdb::with_config(config.storage))
                .collect(),
        }
    }

    /// Number of storage partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The underlying shard array. Crate-internal: the operations layer —
    /// the ingest pipeline and per-shard retention fan their workers out
    /// over it, and the exporter walks it.
    pub(crate) fn shards(&self) -> &[Tsdb] {
        &self.shards
    }

    /// Writes an export of the whole store to `path`: one link-format
    /// file, whose bytes do not depend on the shard count; see
    /// [`crate::persist::save_sharded`].
    pub fn save(&self, path: &std::path::Path) -> Result<(), crate::persist::SnapshotError> {
        crate::persist::save_sharded(self, path)
    }

    /// Loads an export file or checkpoint-chain directory from `path`
    /// into a fresh engine with `config` (series re-route to the new
    /// shard count); see [`crate::persist::load_sharded`]. A retired
    /// on-disk format is an error that names it.
    pub fn load(
        path: &std::path::Path,
        config: ShardedConfig,
    ) -> Result<Self, crate::persist::SnapshotError> {
        crate::persist::load_sharded(path, config)
    }

    /// The shard index `key` routes to — deterministic for a fixed shard
    /// count (tag-aware FNV-1a of metric + tags, mod shard count).
    pub fn shard_of(&self, key: &SeriesKey) -> usize {
        (route_hash(key) % self.shards.len() as u64) as usize
    }

    /// The partition `key` routes to.
    pub(crate) fn shard(&self, key: &SeriesKey) -> &Tsdb {
        &self.shards[self.shard_of(key)]
    }

    /// Number of distinct series across all shards.
    pub fn series_count(&self) -> usize {
        self.shards.iter().map(Tsdb::series_count).sum()
    }

    /// Aggregate occupancy of every shard, in shard-index order — the
    /// per-shard series/point/watermark counters live ops endpoints
    /// (`STATS`/`HEALTH`) report. Index `i` of the result describes
    /// shard `i` (the target of [`ShardedDb::shard_of`]).
    pub fn shard_occupancy(&self) -> Vec<ShardOccupancy> {
        self.shards.iter().map(Tsdb::occupancy).collect()
    }

    /// Writes one point, creating the series on first touch.
    pub fn write(&self, key: &SeriesKey, point: DataPoint) -> Result<(), TsdbError> {
        self.shard(key).write(key, point)
    }

    /// Writes a batch of points to one series (points must be in order).
    pub fn write_batch(&self, key: &SeriesKey, points: &[DataPoint]) -> Result<(), TsdbError> {
        self.shard(key).write_batch(key, points)
    }

    /// Runs a query against one series.
    pub fn query(&self, key: &SeriesKey, query: RangeQuery) -> Result<Vec<DataPoint>, TsdbError> {
        self.shard(key).query(key, query)
    }

    /// Runs a query against every series matching `selector`, returning
    /// `(key, shaped points)` pairs in key order — the same order a
    /// single-shard [`Tsdb`] returns.
    pub fn query_selector(
        &self,
        selector: &Selector,
        query: RangeQuery,
    ) -> Result<Vec<(SeriesKey, Vec<DataPoint>)>, TsdbError> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(shard.query_selector(selector, query)?);
        }
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        Ok(out)
    }

    /// Lists keys of series matching `selector`, in key order across all
    /// shards.
    pub fn list_series(&self, selector: &Selector) -> Vec<SeriesKey> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(shard.list_series(selector));
        }
        out.sort();
        out
    }

    /// Seals every series' memtable in every shard.
    pub fn flush(&self) -> Result<(), TsdbError> {
        for shard in self.shards.iter() {
            shard.flush()?;
        }
        Ok(())
    }

    /// Evicts sealed blocks older than `cutoff` from every series and
    /// drops series left completely empty. Returns total evicted points.
    pub fn evict_before(&self, cutoff: i64) -> usize {
        self.shards.iter().map(|s| s.evict_before(cutoff)).sum()
    }

    /// Evicts sealed blocks older than `cutoff` from one series, dropping
    /// it if left empty. Returns evicted points; missing series evict
    /// nothing.
    pub fn evict_series_before(&self, key: &SeriesKey, cutoff: i64) -> usize {
        self.shard(key).evict_series_before(key, cutoff)
    }

    /// Returns clones of one series' sealed blocks; call
    /// [`ShardedDb::flush`] first to include memtable contents.
    pub fn export_blocks(&self, key: &SeriesKey) -> Result<Vec<Block>, TsdbError> {
        self.shard(key).export_blocks(key)
    }

    /// Imports pre-sealed blocks into a series (snapshot restore),
    /// creating it if needed. Blocks must be strictly after existing data.
    pub fn import_blocks(&self, key: &SeriesKey, blocks: Vec<Block>) -> Result<(), TsdbError> {
        self.shard(key).import_blocks(key, blocks)
    }

    /// Per-series occupancy statistics, in key order across all shards.
    pub fn stats(&self) -> Vec<SeriesStats> {
        let mut out: Vec<SeriesStats> = self.shards.iter().flat_map(Tsdb::stats).collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }
}

impl SeriesReader for ShardedDb {
    fn read_series(&self, key: &SeriesKey, query: RangeQuery) -> Result<Vec<DataPoint>, TsdbError> {
        self.query(key, query)
    }

    fn matching_series(&self, selector: &Selector) -> Vec<SeriesKey> {
        self.list_series(selector)
    }
}

impl SeriesWriter for ShardedDb {
    fn write_point(&self, key: &SeriesKey, point: DataPoint) -> Result<(), TsdbError> {
        self.write(key, point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Aggregator;
    use crate::smooth::smooth_query_selector;
    use asap_core::Asap;

    fn cpu(host: &str) -> SeriesKey {
        SeriesKey::metric("cpu").with_tag("host", host)
    }

    /// Seeds the same data into a sharded and a single-shard engine.
    fn twin_dbs(shards: usize, hosts: usize, n: i64) -> (ShardedDb, Tsdb) {
        let sharded = ShardedDb::with_config(ShardedConfig::new(shards, 32));
        let oracle = Tsdb::with_config(TsdbConfig { block_capacity: 32 });
        for h in 0..hosts {
            let key = cpu(&format!("h{h}"));
            for i in 0..n {
                let p = DataPoint::new(i, (i as f64 / 7.0).sin() + h as f64);
                sharded.write(&key, p).unwrap();
                oracle.write(&key, p).unwrap();
            }
        }
        (sharded, oracle)
    }

    #[test]
    fn routing_is_deterministic_and_tag_aware() {
        let db = ShardedDb::with_config(ShardedConfig::new(16, 64));
        let a = cpu("a");
        assert_eq!(db.shard_of(&a), db.shard_of(&a.clone()));
        // Tag order does not matter (keys are canonical)…
        let x = SeriesKey::metric("m").with_tag("p", "1").with_tag("q", "2");
        let y = SeriesKey::metric("m").with_tag("q", "2").with_tag("p", "1");
        assert_eq!(db.shard_of(&x), db.shard_of(&y));
        // …but tag *values* do: distinct hosts spread over shards.
        let placements: std::collections::BTreeSet<usize> =
            (0..64).map(|h| db.shard_of(&cpu(&format!("h{h}")))).collect();
        assert!(placements.len() > 1, "64 hosts all hashed to one shard");
    }

    #[test]
    fn zero_shards_rejected() {
        let result = std::panic::catch_unwind(|| {
            ShardedDb::with_config(ShardedConfig::new(0, 64))
        });
        assert!(result.is_err());
    }

    #[test]
    fn mirrors_single_shard_results() {
        let (sharded, oracle) = twin_dbs(4, 6, 200);
        assert_eq!(sharded.series_count(), oracle.series_count());
        let q = RangeQuery::raw(0, 200);
        for h in 0..6 {
            let key = cpu(&format!("h{h}"));
            assert_eq!(sharded.query(&key, q).unwrap(), oracle.query(&key, q).unwrap());
        }
        let sel = Selector::metric("cpu");
        assert_eq!(
            sharded.query_selector(&sel, q).unwrap(),
            oracle.query_selector(&sel, q).unwrap()
        );
        assert_eq!(sharded.list_series(&sel), oracle.list_series(&sel));
        sharded.flush().unwrap();
        oracle.flush().unwrap();
        assert_eq!(sharded.stats(), oracle.stats());
    }

    #[test]
    fn bucketed_queries_mirror_too() {
        let (sharded, oracle) = twin_dbs(3, 4, 120);
        let q = RangeQuery::bucketed(0, 120, 10).aggregate(Aggregator::Max);
        assert_eq!(
            sharded.query_selector(&Selector::any(), q).unwrap(),
            oracle.query_selector(&Selector::any(), q).unwrap()
        );
    }

    #[test]
    fn eviction_mirrors_and_drops_empty_series() {
        let (sharded, oracle) = twin_dbs(4, 5, 64);
        sharded.flush().unwrap();
        oracle.flush().unwrap();
        assert_eq!(sharded.evict_before(32), oracle.evict_before(32));
        assert_eq!(sharded.evict_before(i64::MAX), oracle.evict_before(i64::MAX));
        assert_eq!(sharded.series_count(), 0);
        // Per-series eviction on a missing key evicts nothing.
        assert_eq!(sharded.evict_series_before(&cpu("ghost"), i64::MAX), 0);
    }

    #[test]
    fn shard_occupancy_totals_match_store_and_track_watermarks() {
        let (sharded, oracle) = twin_dbs(4, 6, 50);
        sharded.flush().unwrap();
        let occ = sharded.shard_occupancy();
        assert_eq!(occ.len(), 4);
        assert_eq!(occ.iter().map(|o| o.series).sum::<usize>(), 6);
        assert_eq!(
            occ.iter().map(|o| o.points).sum::<usize>(),
            oracle.stats().iter().map(|s| s.points).sum::<usize>()
        );
        // Every non-empty shard's watermark is the newest written ts.
        for o in &occ {
            if o.series > 0 {
                assert_eq!(o.watermark, Some(49));
                assert!(o.blocks > 0, "flushed shards hold sealed blocks");
                assert!(o.compressed_bytes > 0);
            } else {
                assert_eq!(*o, ShardOccupancy::default());
            }
        }
        // Occupancy is positional: shard_of(key) indexes into it.
        let key = cpu("h0");
        assert!(occ[sharded.shard_of(&key)].series > 0);
    }

    #[test]
    fn unknown_series_errors_like_tsdb() {
        let db = ShardedDb::new();
        let err = db.query(&cpu("ghost"), RangeQuery::raw(0, 10)).unwrap_err();
        assert!(matches!(err, TsdbError::SeriesNotFound { .. }));
    }

    #[test]
    fn sharded_smoothing_matches_serial_and_is_deterministic() {
        let sharded = ShardedDb::with_config(ShardedConfig::new(4, 256));
        let oracle = Tsdb::with_config(TsdbConfig { block_capacity: 256 });
        for h in 0..6 {
            let key = cpu(&format!("h{h}"));
            for i in 0..2000i64 {
                let v = (std::f64::consts::TAU * i as f64 / (40.0 + h as f64 * 17.0)).sin()
                    + 0.4 * if i % 2 == 0 { 1.0 } else { -1.0 };
                let p = DataPoint::new(i * 5, v);
                sharded.write(&key, p).unwrap();
                oracle.write(&key, p).unwrap();
            }
        }
        let asap = Asap::builder().resolution(200).build();
        let sel = Selector::metric("cpu");
        let frames = smooth_query_selector(&sharded, &sel, &asap, 0, 10_000, 5).unwrap();
        let serial = smooth_query_selector(&oracle, &sel, &asap, 0, 10_000, 5).unwrap();
        assert_eq!(frames.len(), 6);
        assert_eq!(frames, serial, "sharded ≡ single-shard oracle");
        // Re-running is bit-identical.
        let again = smooth_query_selector(&sharded, &sel, &asap, 0, 10_000, 5).unwrap();
        assert_eq!(frames, again);
    }

    #[test]
    fn sharded_smoothing_reports_first_failing_key_in_key_order() {
        let sharded = ShardedDb::with_config(ShardedConfig::new(4, 64));
        // h0 has data only in [5000, 6000): smoothing [0, 1000) fails for
        // it with Empty; other hosts succeed.
        for i in 0..100 {
            sharded
                .write(&cpu("h0"), DataPoint::new(5000 + i, 1.0))
                .unwrap();
            sharded.write(&cpu("h1"), DataPoint::new(i, 1.0)).unwrap();
        }
        let asap = Asap::builder().resolution(50).build();
        let sel = Selector::metric("cpu");
        let err = smooth_query_selector(&sharded, &sel, &asap, 0, 1000, 10).unwrap_err();
        let oracle = Tsdb::new();
        for i in 0..100 {
            oracle.write(&cpu("h0"), DataPoint::new(5000 + i, 1.0)).unwrap();
            oracle.write(&cpu("h1"), DataPoint::new(i, 1.0)).unwrap();
        }
        let serial_err = smooth_query_selector(&oracle, &sel, &asap, 0, 1000, 10).unwrap_err();
        assert_eq!(err, serial_err);
    }
}
