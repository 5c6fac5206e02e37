//! Retention policies and continuous-aggregate rollups.
//!
//! Production monitoring TSDBs keep raw telemetry for a short horizon and
//! downsampled rollups for longer ones (the pattern the ASAP paper's §2
//! dashboards sit on: "the last twelve hours" raw, months downsampled).
//! This module implements that tiering for the embedded engine:
//!
//! * a [`RetentionPolicy`] declares the raw TTL and any number of
//!   [`RollupLevel`]s (bucket width, aggregator, own TTL);
//! * a [`Compactor`] applied periodically (with an explicit `now`, so tests
//!   and simulations drive time) materializes completed rollup buckets into
//!   `__rollup__`-tagged series and evicts expired blocks.
//!
//! The compactor keeps no state of its own: the store is its state. Per
//! `(base series, level)`, three rules decide what a pass does:
//!
//! * **The watermark is read from the store.** It is one bucket past the
//!   newest point of the level's rollup series or, before the first
//!   rollup, the base series' first bucket. A pass reads only the buckets
//!   from there to the newest complete bucket the base series has data
//!   in (its bounds come from block summaries, not a decode), so repeated
//!   runs never double-count, a new compactor over a restarted or
//!   reloaded store carries on where the last one stopped, and a series
//!   that stopped reporting costs no query.
//! * **The TTL floor.** A level never materializes a bucket that is
//!   already past its own TTL, so a rollup series that expires does not
//!   send its watermark back to the base's first bucket.
//! * **A raw point that arrives behind a materialized bucket is never
//!   rolled up.** Raw data is only evicted once every level has covered
//!   it (eviction cutoffs are clamped per series).
//!
//! The compactor works on concrete [`Tsdb`] partitions. [`Compactor::run`]
//! compacts one `Tsdb`; on a sharded store, [`Compactor::run_sharded`]
//! fans the per-series work out across shards on scoped worker threads:
//! each worker owns the base series that route to its shard — those it
//! holds, plus the base of every rollup series whose raw series is gone,
//! so those rollups still expire — and does every read, write and
//! eviction of their rollup series itself, wherever the
//! `__rollup__`-tagged keys route. No two workers touch the same series,
//! and the outcome (report and store state) is identical to the serial
//! [`Compactor::run`] on the same data.

use std::collections::BTreeSet;

use crate::db::Tsdb;
use crate::error::TsdbError;
use crate::query::{Aggregator, RangeQuery};
use crate::sharded::ShardedDb;
use crate::tags::{Selector, SeriesKey};

/// A periodic tick plan for a background compaction driver: a base
/// `interval` displaced by a uniform random `jitter` each tick.
///
/// Fleet-wide schedulers that tick at exactly the same period
/// self-synchronize — every compactor in a deployment fires at once and
/// the stores see correlated load spikes. Jitter decorrelates them: each
/// delay is drawn uniformly from `[interval - jitter, interval + jitter]`.
///
/// The draw takes the RNG **by injection** ([`Schedule::next_delay`]) so
/// callers control determinism: a scheduler thread passes a seeded
/// [`rand::rngs::StdRng`], and tests assert *bounds* on the drawn delays
/// rather than stream-specific values (the workspace's rand shim does not
/// reproduce the real `StdRng` stream — see ROADMAP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Base tick period.
    pub interval: std::time::Duration,
    /// Maximum displacement from `interval`, each side. Zero disables
    /// jitter. Must not exceed `interval` (delays stay positive).
    pub jitter: std::time::Duration,
}

impl Schedule {
    /// A schedule ticking every `interval` with no jitter.
    pub fn every(interval: std::time::Duration) -> Self {
        Self {
            interval,
            jitter: std::time::Duration::ZERO,
        }
    }

    /// Sets the jitter half-width.
    pub fn with_jitter(mut self, jitter: std::time::Duration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Validates the shape: a positive interval, jitter no larger than
    /// the interval (so drawn delays are never zero-or-negative unless
    /// jitter == interval, where the minimum delay is exactly zero).
    pub fn validate(&self) -> Result<(), TsdbError> {
        if self.interval.is_zero() {
            return Err(TsdbError::InvalidParameter {
                name: "interval",
                message: "schedule interval must be positive",
            });
        }
        if self.jitter > self.interval {
            return Err(TsdbError::InvalidParameter {
                name: "jitter",
                message: "schedule jitter must not exceed the interval",
            });
        }
        Ok(())
    }

    /// Draws the delay until the next tick: uniform in
    /// `[interval - jitter, interval + jitter]`, inclusive on both ends.
    /// Deterministic for a given RNG state; a zero-jitter schedule
    /// returns exactly `interval` without consuming randomness.
    pub fn next_delay<R: rand::RngCore>(&self, rng: &mut R) -> std::time::Duration {
        use rand::Rng as _;
        if self.jitter.is_zero() {
            return self.interval;
        }
        let base = self.interval.as_nanos() as u64;
        let jitter = self.jitter.as_nanos() as u64;
        let lo = base.saturating_sub(jitter);
        let hi = base.saturating_add(jitter);
        std::time::Duration::from_nanos(rng.gen_range(lo..=hi))
    }
}

/// Tag key marking materialized rollup series.
pub const ROLLUP_TAG: &str = "__rollup__";

/// One downsampling tier.
#[derive(Debug, Clone, Copy)]
pub struct RollupLevel {
    /// Bucket width in timestamp units.
    pub bucket: i64,
    /// Reduction applied per bucket.
    pub aggregator: Aggregator,
    /// How long rollup points are kept (`None` = forever).
    pub ttl: Option<i64>,
}

/// Raw-data TTL plus the rollup tiers.
#[derive(Debug, Clone, Default)]
pub struct RetentionPolicy {
    /// How long raw points are kept (`None` = forever).
    pub raw_ttl: Option<i64>,
    /// Downsampling tiers (coarser tiers should have longer TTLs).
    pub rollups: Vec<RollupLevel>,
}

impl RetentionPolicy {
    /// Validates tier shapes.
    pub fn validate(&self) -> Result<(), TsdbError> {
        for level in &self.rollups {
            if level.bucket <= 0 {
                return Err(TsdbError::InvalidParameter {
                    name: "bucket",
                    message: "rollup bucket width must be positive",
                });
            }
        }
        if let Some(ttl) = self.raw_ttl {
            if ttl <= 0 {
                return Err(TsdbError::InvalidParameter {
                    name: "raw_ttl",
                    message: "raw TTL must be positive",
                });
            }
        }
        Ok(())
    }
}

/// Returns the key of the rollup series materialized for `base` at `bucket`.
pub fn rollup_key(base: &SeriesKey, bucket: i64) -> SeriesKey {
    base.clone().with_tag(ROLLUP_TAG, bucket.to_string())
}

/// Outcome of one [`Compactor::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Rollup points materialized.
    pub rolled_up: usize,
    /// Raw points evicted.
    pub raw_evicted: usize,
    /// Rollup points evicted.
    pub rollup_evicted: usize,
}

/// Periodic retention/rollup driver for one store: a single [`Tsdb`]
/// ([`Compactor::run`]) or a [`ShardedDb`] ([`Compactor::run_sharded`]).
/// It holds only its policy: every watermark is read from the store.
#[derive(Debug)]
pub struct Compactor {
    policy: RetentionPolicy,
}

/// `t` rounded down to a multiple of `bucket`.
fn align(t: i64, bucket: i64) -> i64 {
    t.div_euclid(bucket) * bucket
}

/// One compaction pass over a set of base series. Per base: roll up every
/// level's completed buckets, evict expired raw blocks (never past what
/// every level has covered) and expired rollup blocks. `db` is the
/// partition the base series route to; `route` returns the partition a
/// rollup series lives in. A base whose raw series is gone only has its
/// rollups expired.
fn compact_series<'a>(
    db: &Tsdb,
    route: impl Fn(&SeriesKey) -> &'a Tsdb,
    bases: &[SeriesKey],
    policy: &RetentionPolicy,
    now: i64,
) -> Result<CompactionReport, TsdbError> {
    let mut report = CompactionReport::default();
    for base in bases {
        if let Some((first, last)) = db.time_bounds(base) {
            // Raw data before `covered` is rolled up at every level (or
            // past the level's TTL), so eviction may reach it.
            let mut covered = i64::MAX;
            for level in &policy.rollups {
                let b = level.bucket;
                let key = rollup_key(base, b);
                let rollups = route(&key);
                // The watermark: one bucket past the newest rollup. The
                // TTL floor, `now - ttl` rounded up to a bucket: never
                // make a bucket that is already expired.
                let watermark = rollups
                    .time_bounds(&key)
                    .map_or(i64::MIN, |(_, newest)| align(newest, b).saturating_add(b));
                let floor = level.ttl.map_or(i64::MIN, |ttl| -align(ttl - now, b));
                let start = watermark.max(align(first, b)).max(floor);
                // Up to the newest complete bucket ([t, t+b) with
                // t+b <= now) that holds raw data.
                let end = align(now, b).min(align(last, b).saturating_add(b));
                if start < end {
                    let query = RangeQuery::bucketed(start, end, b).aggregate(level.aggregator);
                    let buckets = db.query(base, query)?;
                    rollups.write_batch(&key, &buckets)?;
                    report.rolled_up += buckets.len();
                }
                covered = covered.min(start.max(end));
            }
            if let Some(ttl) = policy.raw_ttl {
                report.raw_evicted += db.evict_series_before(base, covered.min(now - ttl));
            }
        }
        for level in &policy.rollups {
            if let Some(ttl) = level.ttl {
                let key = rollup_key(base, level.bucket);
                report.rollup_evicted += route(&key).evict_series_before(&key, now - ttl);
            }
        }
    }
    Ok(report)
}

impl Compactor {
    /// Creates a compactor for `policy`.
    pub fn new(policy: RetentionPolicy) -> Result<Self, TsdbError> {
        policy.validate()?;
        Ok(Self { policy })
    }

    /// Runs one serial compaction pass at logical time `now` over one
    /// [`Tsdb`].
    pub fn run(&self, db: &Tsdb, now: i64) -> Result<CompactionReport, TsdbError> {
        let bases = work_lists(std::slice::from_ref(db), |_| 0).remove(0);
        compact_series(db, |_| db, &bases, &self.policy, now)
    }

    /// Runs one compaction pass at logical time `now` over a sharded
    /// store, fanning out across shards on scoped worker threads — one
    /// worker per shard with work.
    ///
    /// Each worker compacts exactly the base series that route to its
    /// shard: rollup reads and raw eviction hit the shard directly, while
    /// rollup watermark reads, writes and eviction go to the shard `db`
    /// routes the `__rollup__`-tagged key to (it may be a different one).
    /// Every series is touched by one worker only, so the outcome —
    /// report and store state — equals a serial [`Compactor::run`] over
    /// the same data (pinned by `tests/ops_properties.rs`).
    pub fn run_sharded(&self, db: &ShardedDb, now: i64) -> Result<CompactionReport, TsdbError> {
        let policy = &self.policy;
        let lists = work_lists(db.shards(), |key| db.shard_of(key));
        std::thread::scope(|scope| {
            let handles: Vec<_> = db
                .shards()
                .iter()
                .zip(lists)
                .filter(|(_, bases)| !bases.is_empty())
                .map(|(shard, bases)| {
                    scope.spawn(move || {
                        compact_series(shard, |key| db.shard(key), &bases, policy, now)
                    })
                })
                .collect();
            let mut merged = CompactionReport::default();
            for handle in handles {
                let report = handle.join().expect("compaction worker panicked")?;
                merged.rolled_up += report.rolled_up;
                merged.raw_evicted += report.raw_evicted;
                merged.rollup_evicted += report.rollup_evicted;
            }
            Ok(merged)
        })
    }
}

/// Each partition's base series, in key order: the bases it holds, plus
/// the base of every rollup series (in any partition) that `owner` routes
/// to it — so rollups whose raw series is gone still expire.
fn work_lists(partitions: &[Tsdb], owner: impl Fn(&SeriesKey) -> usize) -> Vec<Vec<SeriesKey>> {
    let mut lists = vec![BTreeSet::new(); partitions.len()];
    for partition in partitions {
        for key in partition.list_series(&Selector::any()) {
            let base = key.without_tag(ROLLUP_TAG);
            lists[owner(&base)].insert(base);
        }
    }
    lists
        .into_iter()
        .map(|bases| bases.into_iter().collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::DataPoint;

    fn fill(db: &Tsdb, key: &SeriesKey, ts: impl Iterator<Item = i64>) {
        for t in ts {
            db.write(key, DataPoint::new(t, t as f64)).unwrap();
        }
    }

    fn policy(raw_ttl: i64, bucket: i64) -> RetentionPolicy {
        RetentionPolicy {
            raw_ttl: Some(raw_ttl),
            rollups: vec![RollupLevel {
                bucket,
                aggregator: Aggregator::Mean,
                ttl: None,
            }],
        }
    }

    #[test]
    fn invalid_policies_rejected() {
        assert!(Compactor::new(policy(-1, 10)).is_err());
        assert!(Compactor::new(policy(10, 0)).is_err());
        assert!(Compactor::new(policy(10, 10)).is_ok());
        assert!(Compactor::new(RetentionPolicy::default()).is_ok());
    }

    #[test]
    fn rollup_materializes_only_complete_buckets() {
        let db = Tsdb::new();
        let key = SeriesKey::metric("cpu");
        fill(&db, &key, 0..25);
        let c = Compactor::new(policy(1_000_000, 10)).unwrap();
        let report = c.run(&db, 25).unwrap();
        // Buckets [0,10) and [10,20) complete; [20,30) still open.
        assert_eq!(report.rolled_up, 2);
        let rk = rollup_key(&key, 10);
        let pts = db.query(&rk, RangeQuery::raw(i64::MIN + 1, i64::MAX)).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0], DataPoint::new(0, 4.5));
        assert_eq!(pts[1], DataPoint::new(10, 14.5));
    }

    #[test]
    fn repeated_runs_are_idempotent_per_bucket() {
        let db = Tsdb::new();
        let key = SeriesKey::metric("cpu");
        fill(&db, &key, 0..25);
        let c = Compactor::new(policy(1_000_000, 10)).unwrap();
        assert_eq!(c.run(&db, 25).unwrap().rolled_up, 2);
        assert_eq!(c.run(&db, 25).unwrap().rolled_up, 0, "no double counting");
        // More data completes the third bucket.
        fill(&db, &key, 25..35);
        assert_eq!(c.run(&db, 35).unwrap().rolled_up, 1);
    }

    #[test]
    fn raw_eviction_waits_for_rollup_watermark() {
        let db = Tsdb::with_config(crate::db::TsdbConfig { block_capacity: 5 });
        let key = SeriesKey::metric("cpu");
        fill(&db, &key, 0..40);
        db.flush().unwrap();
        // Raw TTL 10 at now=40 ⇒ naive cutoff 30, but the first run's
        // watermark also reaches 40, so eviction may proceed to 30.
        let c = Compactor::new(policy(10, 10)).unwrap();
        let report = c.run(&db, 40).unwrap();
        assert_eq!(report.rolled_up, 4);
        assert_eq!(report.raw_evicted, 30, "blocks [0..30) evicted");
        // The rollup series retains history beyond the raw horizon.
        let rk = rollup_key(&key, 10);
        let pts = db.query(&rk, RangeQuery::raw(i64::MIN + 1, i64::MAX)).unwrap();
        assert_eq!(pts.len(), 4);
    }

    #[test]
    fn rollup_ttl_evicts_old_rollups() {
        let db = Tsdb::with_config(crate::db::TsdbConfig { block_capacity: 2 });
        let key = SeriesKey::metric("cpu");
        fill(&db, &key, 0..100);
        let pol = RetentionPolicy {
            raw_ttl: None,
            rollups: vec![RollupLevel {
                bucket: 10,
                aggregator: Aggregator::Mean,
                ttl: Some(30),
            }],
        };
        let c = Compactor::new(pol).unwrap();
        c.run(&db, 100).unwrap();
        // Seal the rollup memtable so eviction (block-granular) can bite,
        // then run again at a later logical time.
        db.flush().unwrap();
        let report = c.run(&db, 200).unwrap();
        assert!(report.rollup_evicted > 0, "expired rollup blocks evicted");
    }

    #[test]
    fn rollup_series_are_not_rolled_up_again() {
        let db = Tsdb::new();
        let key = SeriesKey::metric("cpu");
        fill(&db, &key, 0..20);
        let c = Compactor::new(policy(1_000_000, 10)).unwrap();
        c.run(&db, 20).unwrap();
        c.run(&db, 20).unwrap();
        // Exactly two series exist: base + one rollup (no rollup-of-rollup).
        assert_eq!(db.series_count(), 2);
    }

    #[test]
    fn sharded_run_matches_serial_run() {
        let sharded =
            ShardedDb::with_config(crate::sharded::ShardedConfig::new(4, 5));
        let serial = Tsdb::with_config(crate::db::TsdbConfig { block_capacity: 5 });
        for h in 0..6 {
            let key = SeriesKey::metric("cpu").with_tag("host", format!("h{h}"));
            for t in 0..40 {
                let p = DataPoint::new(t, (t + h) as f64);
                sharded.write(&key, p).unwrap();
                serial.write(&key, p).unwrap();
            }
        }
        sharded.flush().unwrap();
        serial.flush().unwrap();
        let cs = Compactor::new(policy(10, 10)).unwrap();
        let co = Compactor::new(policy(10, 10)).unwrap();
        for now in [25, 25, 40, 60] {
            assert_eq!(
                cs.run_sharded(&sharded, now).unwrap(),
                co.run(&serial, now).unwrap(),
                "reports diverge at now={now}"
            );
        }
        let q = RangeQuery::raw(i64::MIN + 1, i64::MAX);
        assert_eq!(
            sharded
                .query_selector(&crate::tags::Selector::any(), q)
                .unwrap(),
            serial
                .query_selector(&crate::tags::Selector::any(), q)
                .unwrap(),
            "store contents diverge after compaction"
        );
    }

    #[test]
    fn sharded_repeated_runs_never_double_count() {
        let db = ShardedDb::with_config(crate::sharded::ShardedConfig::new(3, 8));
        for h in 0..5 {
            let key = SeriesKey::metric("cpu").with_tag("host", format!("h{h}"));
            fill_sharded(&db, &key, 0..25);
        }
        let c = Compactor::new(policy(1_000_000, 10)).unwrap();
        assert_eq!(c.run_sharded(&db, 25).unwrap().rolled_up, 2 * 5);
        assert_eq!(c.run_sharded(&db, 25).unwrap().rolled_up, 0, "no double counting");
        // Every watermark is read from the store: a new compactor at
        // the same `now` materializes nothing either.
        let fresh = Compactor::new(policy(1_000_000, 10)).unwrap();
        assert_eq!(fresh.run_sharded(&db, 25).unwrap().rolled_up, 0);
    }

    #[test]
    fn sharded_raw_eviction_waits_for_rollup_watermark() {
        let db = ShardedDb::with_config(crate::sharded::ShardedConfig::new(4, 5));
        let key = SeriesKey::metric("cpu").with_tag("host", "a");
        fill_sharded(&db, &key, 0..40);
        db.flush().unwrap();
        let c = Compactor::new(policy(10, 10)).unwrap();
        let report = c.run_sharded(&db, 40).unwrap();
        assert_eq!(report.rolled_up, 4);
        assert_eq!(report.raw_evicted, 30, "blocks [0..30) evicted");
        let rk = rollup_key(&key, 10);
        let pts = db.query(&rk, RangeQuery::raw(i64::MIN + 1, i64::MAX)).unwrap();
        assert_eq!(pts.len(), 4, "rollup history survives raw eviction");
    }

    #[test]
    fn a_new_compactor_resumes_where_the_store_left_off() {
        let db = Tsdb::new();
        let key = SeriesKey::metric("m.v");
        fill(&db, &key, 0..550);
        let first = Compactor::new(policy(1_000_000, 100)).unwrap();
        assert_eq!(first.run(&db, 550).unwrap().rolled_up, 5);
        // A restart: the watermark is read back from the rollup series.
        let next = Compactor::new(policy(1_000_000, 100)).unwrap();
        assert_eq!(next.run(&db, 550).unwrap().rolled_up, 0);
        fill(&db, &key, 550..700);
        assert_eq!(next.run(&db, 700).unwrap().rolled_up, 2);
        let pts = db
            .query(&rollup_key(&key, 100), RangeQuery::raw(0, i64::MAX))
            .unwrap();
        let expect: Vec<_> = (0..7)
            .map(|b| DataPoint::new(b * 100, (b * 100) as f64 + 49.5))
            .collect();
        assert_eq!(pts, expect);
    }

    #[test]
    fn late_points_behind_the_watermark_are_rolled_up() {
        let db = Tsdb::with_config(crate::db::TsdbConfig { block_capacity: 4 });
        let key = SeriesKey::metric("cpu");
        fill(&db, &key, 0..16);
        let c = Compactor::new(policy(5, 10)).unwrap();
        assert_eq!(c.run(&db, 50).unwrap().rolled_up, 2);
        // Late, but after every stored point: not behind a rollup bucket.
        fill(&db, &key, [25, 35, 45].into_iter());
        db.flush().unwrap();
        let report = c.run(&db, 100).unwrap();
        assert_eq!(report.rolled_up, 3);
        let pts = db
            .query(&rollup_key(&key, 10), RangeQuery::raw(0, i64::MAX))
            .unwrap();
        let stamps: Vec<_> = pts.iter().map(|p| p.timestamp).collect();
        assert_eq!(stamps, [0, 10, 20, 30, 40]);
        assert_eq!(pts[1].value, 12.5, "mean of 10..16");
        assert_eq!(report.raw_evicted, 3, "evicted only once rolled up");
    }

    #[test]
    fn an_expired_rollup_series_is_not_made_again() {
        let db = Tsdb::with_config(crate::db::TsdbConfig { block_capacity: 2 });
        let key = SeriesKey::metric("cpu");
        fill(&db, &key, 0..100);
        let c = Compactor::new(RetentionPolicy {
            raw_ttl: None,
            rollups: vec![RollupLevel {
                bucket: 10,
                aggregator: Aggregator::Mean,
                ttl: Some(30),
            }],
        })
        .unwrap();
        c.run(&db, 100).unwrap();
        db.flush().unwrap();
        assert!(c.run(&db, 200).unwrap().rollup_evicted > 0);
        assert_eq!(db.series_count(), 1, "the rollup series expired");
        // No rollup series left, yet its watermark does not fall back to
        // the raw series' first bucket: every bucket is past the TTL.
        for now in [200, 300, 400] {
            assert_eq!(
                c.run(&db, now).unwrap(),
                CompactionReport::default(),
                "now={now}"
            );
        }
    }

    #[test]
    fn rollups_outliving_their_raw_series_still_expire() {
        let db = ShardedDb::with_config(crate::sharded::ShardedConfig::new(4, 2));
        let hosts: Vec<_> = (0..6)
            .map(|h| SeriesKey::metric("cpu").with_tag("host", format!("h{h}")))
            .collect();
        for key in &hosts {
            fill_sharded(&db, key, 0..20);
        }
        let c = Compactor::new(RetentionPolicy {
            raw_ttl: Some(5),
            rollups: vec![RollupLevel {
                bucket: 10,
                aggregator: Aggregator::Mean,
                ttl: Some(1000),
            }],
        })
        .unwrap();
        assert_eq!(c.run_sharded(&db, 20).unwrap().rolled_up, 2 * 6);
        c.run_sharded(&db, 100).unwrap();
        assert!(
            hosts
                .iter()
                .all(|k| db.query(k, RangeQuery::raw(0, 100)).is_err()),
            "raw series evicted and unlinked"
        );
        let report = c.run_sharded(&db, 100_000).unwrap();
        assert_eq!(report.rollup_evicted, 2 * 6);
        assert_eq!(db.series_count(), 0);
    }

    fn fill_sharded(db: &ShardedDb, key: &SeriesKey, ts: impl Iterator<Item = i64>) {
        for t in ts {
            db.write(key, DataPoint::new(t, t as f64)).unwrap();
        }
    }

    #[test]
    fn schedule_validates_shape() {
        use std::time::Duration;
        assert!(Schedule::every(Duration::ZERO).validate().is_err());
        assert!(Schedule::every(Duration::from_secs(10))
            .with_jitter(Duration::from_secs(11))
            .validate()
            .is_err());
        assert!(Schedule::every(Duration::from_secs(10))
            .with_jitter(Duration::from_secs(10))
            .validate()
            .is_ok());
        assert!(Schedule::every(Duration::from_secs(10)).validate().is_ok());
    }

    #[test]
    fn schedule_without_jitter_ticks_exactly_at_interval() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::time::Duration;
        let schedule = Schedule::every(Duration::from_millis(250));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            assert_eq!(schedule.next_delay(&mut rng), Duration::from_millis(250));
        }
    }

    #[test]
    fn schedule_jitter_stays_within_bounds_and_spreads() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::time::Duration;
        // Bounds and spread are asserted, never specific drawn values:
        // the rand shim's stream differs from real StdRng (ROADMAP).
        let schedule = Schedule::every(Duration::from_millis(100))
            .with_jitter(Duration::from_millis(40));
        schedule.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let draws: Vec<Duration> = (0..256).map(|_| schedule.next_delay(&mut rng)).collect();
        let lo = Duration::from_millis(60);
        let hi = Duration::from_millis(140);
        for d in &draws {
            assert!(*d >= lo && *d <= hi, "delay {d:?} escaped [{lo:?}, {hi:?}]");
        }
        // The jitter genuinely decorrelates ticks: many distinct delays,
        // both halves of the window hit.
        let distinct: std::collections::BTreeSet<Duration> = draws.iter().copied().collect();
        assert!(distinct.len() > 100, "only {} distinct delays", distinct.len());
        assert!(draws.iter().any(|d| *d < schedule.interval));
        assert!(draws.iter().any(|d| *d > schedule.interval));
    }

    #[test]
    fn schedule_draws_are_deterministic_for_a_fixed_seed() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::time::Duration;
        let schedule = Schedule::every(Duration::from_millis(100))
            .with_jitter(Duration::from_millis(25));
        let mut a = StdRng::seed_from_u64(1234);
        let mut b = StdRng::seed_from_u64(1234);
        let from_a: Vec<_> = (0..64).map(|_| schedule.next_delay(&mut a)).collect();
        let from_b: Vec<_> = (0..64).map(|_| schedule.next_delay(&mut b)).collect();
        assert_eq!(from_a, from_b, "same seed, same tick plan");
    }

    #[test]
    fn multiple_tiers_materialize_independently() {
        let db = Tsdb::new();
        let key = SeriesKey::metric("cpu");
        fill(&db, &key, 0..100);
        let pol = RetentionPolicy {
            raw_ttl: None,
            rollups: vec![
                RollupLevel {
                    bucket: 10,
                    aggregator: Aggregator::Mean,
                    ttl: None,
                },
                RollupLevel {
                    bucket: 50,
                    aggregator: Aggregator::Max,
                    ttl: None,
                },
            ],
        };
        let c = Compactor::new(pol).unwrap();
        let report = c.run(&db, 100).unwrap();
        assert_eq!(report.rolled_up, 10 + 2);
        let fine = db
            .query(&rollup_key(&key, 10), RangeQuery::raw(i64::MIN + 1, i64::MAX))
            .unwrap();
        let coarse = db
            .query(&rollup_key(&key, 50), RangeQuery::raw(i64::MIN + 1, i64::MAX))
            .unwrap();
        assert_eq!(fine.len(), 10);
        assert_eq!(coarse.len(), 2);
        assert_eq!(coarse[0].value, 49.0, "max over [0,50)");
        assert_eq!(coarse[1].value, 99.0, "max over [50,100)");
    }
}
