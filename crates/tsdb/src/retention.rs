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
//! Rollups are watermarked per `(series, level)`: each run only aggregates
//! buckets that completed since the previous run, so repeated runs never
//! double-count, and raw data is only evicted after it has been rolled up
//! (eviction cutoffs are clamped to the rollup watermark).
//!
//! The compactor works on concrete [`Tsdb`] partitions. [`Compactor::run`]
//! compacts one `Tsdb`; on a sharded store, [`Compactor::run_sharded`]
//! fans the per-series work out across shards on scoped worker threads:
//! each worker rolls up and evicts the base series its shard owns
//! (rollup writes go to whichever shard the `__rollup__`-tagged key
//! routes to, which may be another), and the per-worker watermark
//! updates — disjoint by construction, as every base series lives on
//! exactly one shard — merge back afterwards. The outcome (report and
//! store state) is identical to the serial [`Compactor::run`] on the same
//! data.

use std::collections::HashMap;

use crate::db::Tsdb;
use crate::error::TsdbError;
use crate::point::DataPoint;
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
#[derive(Debug)]
pub struct Compactor {
    policy: RetentionPolicy,
    /// Per `(base series, bucket)` end of the last materialized bucket.
    watermarks: HashMap<(SeriesKey, i64), i64>,
}

/// Looks up the effective watermark for `(base, bucket)`: worker-local
/// updates from this pass shadow the compactor's persisted map.
fn effective_watermark(
    local: &HashMap<(SeriesKey, i64), i64>,
    persisted: &HashMap<(SeriesKey, i64), i64>,
    base: &SeriesKey,
    bucket: i64,
) -> Option<i64> {
    let wm_key = (base.clone(), bucket);
    local.get(&wm_key).or_else(|| persisted.get(&wm_key)).copied()
}

/// The completed, not yet materialized buckets of one level for one base
/// series in `db`. Returns `Some((buckets, new watermark))` when the
/// watermark advances, `None` when there is nothing to do.
fn completed_buckets(
    db: &Tsdb,
    base: &SeriesKey,
    level: &RollupLevel,
    prev_watermark: Option<i64>,
    now: i64,
) -> Result<Option<(Vec<DataPoint>, i64)>, TsdbError> {
    // A bucket [t, t+bucket) is complete when t+bucket <= now.
    let complete_end = now.div_euclid(level.bucket) * level.bucket;
    let start = match prev_watermark {
        Some(wm) => wm,
        // First run: start from the series' oldest point, bucket-aligned.
        None => match db
            .query(base, RangeQuery::raw(i64::MIN + 1, i64::MAX))?
            .first()
        {
            Some(p) => p.timestamp.div_euclid(level.bucket) * level.bucket,
            None => return Ok(None),
        },
    };
    if start >= complete_end {
        return Ok(None);
    }
    let buckets = db.query(
        base,
        RangeQuery::bucketed(start, complete_end, level.bucket).aggregate(level.aggregator),
    )?;
    Ok(Some((buckets, complete_end)))
}

/// One compaction pass over a set of base series: roll up every level,
/// then evict expired raw blocks (clamped to the slowest rollup
/// watermark) and expired rollup blocks. `db` is the partition the base
/// series live in; `route` returns the partition a rollup series lives
/// in. Returns the report and this pass's watermark advances.
#[allow(clippy::type_complexity)]
fn compact_series<'a>(
    db: &Tsdb,
    route: impl Fn(&SeriesKey) -> &'a Tsdb,
    base_series: &[SeriesKey],
    policy: &RetentionPolicy,
    persisted: &HashMap<(SeriesKey, i64), i64>,
    now: i64,
) -> Result<(CompactionReport, Vec<((SeriesKey, i64), i64)>), TsdbError> {
    let mut report = CompactionReport::default();
    let mut advanced: HashMap<(SeriesKey, i64), i64> = HashMap::new();

    // 1. Materialize completed rollup buckets.
    for base in base_series {
        for level in &policy.rollups {
            let prev = effective_watermark(&advanced, persisted, base, level.bucket);
            if let Some((buckets, wm)) = completed_buckets(db, base, level, prev, now)? {
                if !buckets.is_empty() {
                    let key = rollup_key(base, level.bucket);
                    route(&key).write_batch(&key, &buckets)?;
                }
                report.rolled_up += buckets.len();
                advanced.insert((base.clone(), level.bucket), wm);
            }
        }
    }

    // 2. Evict expired raw blocks — but never past the slowest rollup
    // watermark, so data is always rolled up before it disappears.
    if let Some(ttl) = policy.raw_ttl {
        let cutoff = now - ttl;
        for base in base_series {
            let safe_cutoff = policy
                .rollups
                .iter()
                .map(|l| {
                    effective_watermark(&advanced, persisted, base, l.bucket).unwrap_or(i64::MIN)
                })
                .min()
                .map_or(cutoff, |wm| cutoff.min(wm));
            report.raw_evicted += db.evict_series_before(base, safe_cutoff);
        }
    }

    // 3. Evict expired rollup points per tier.
    for level in &policy.rollups {
        if let Some(ttl) = level.ttl {
            let cutoff = now - ttl;
            for base in base_series {
                let key = rollup_key(base, level.bucket);
                report.rollup_evicted += route(&key).evict_series_before(&key, cutoff);
            }
        }
    }
    Ok((report, advanced.into_iter().collect()))
}

impl Compactor {
    /// Creates a compactor for `policy`.
    pub fn new(policy: RetentionPolicy) -> Result<Self, TsdbError> {
        policy.validate()?;
        Ok(Self {
            policy,
            watermarks: HashMap::new(),
        })
    }

    /// Runs one serial compaction pass at logical time `now` over one
    /// [`Tsdb`].
    pub fn run(&mut self, db: &Tsdb, now: i64) -> Result<CompactionReport, TsdbError> {
        let base_series = base_series(db);
        let (report, advanced) = compact_series(
            db,
            |_| db,
            &base_series,
            &self.policy,
            &self.watermarks,
            now,
        )?;
        self.watermarks.extend(advanced);
        Ok(report)
    }

    /// Runs one compaction pass at logical time `now` over a sharded
    /// store, fanning out across shards on scoped worker threads — one
    /// worker per shard that owns base series.
    ///
    /// Each worker compacts exactly the base series its shard holds:
    /// rollup reads and raw eviction hit the shard directly, while
    /// rollup writes and rollup eviction go to the shard `db` routes the
    /// `__rollup__`-tagged key to (it may be a different one). Because
    /// every base series lives on exactly one shard, workers touch
    /// disjoint watermark entries, and the merged outcome — report and
    /// store state — equals a serial [`Compactor::run`] over the same
    /// data (pinned by `tests/ops_properties.rs`).
    pub fn run_sharded(
        &mut self,
        db: &ShardedDb,
        now: i64,
    ) -> Result<CompactionReport, TsdbError> {
        let policy = &self.policy;
        let persisted = &self.watermarks;
        let mut merged = CompactionReport::default();
        let mut advanced: Vec<((SeriesKey, i64), i64)> = Vec::new();
        std::thread::scope(|scope| -> Result<(), TsdbError> {
            let mut handles = Vec::new();
            for shard in db.shards() {
                let base_series = base_series(shard);
                if base_series.is_empty() {
                    continue;
                }
                handles.push(scope.spawn(move || {
                    let route = |key: &SeriesKey| db.shard(key);
                    compact_series(shard, route, &base_series, policy, persisted, now)
                }));
            }
            for handle in handles {
                let (report, wms) = handle.join().expect("compaction worker panicked")?;
                merged.rolled_up += report.rolled_up;
                merged.raw_evicted += report.raw_evicted;
                merged.rollup_evicted += report.rollup_evicted;
                advanced.extend(wms);
            }
            Ok(())
        })?;
        self.watermarks.extend(advanced);
        Ok(merged)
    }
}

/// The base (non-rollup) series of one partition, in key order.
fn base_series(db: &Tsdb) -> Vec<SeriesKey> {
    db.list_series(&Selector::any())
        .into_iter()
        .filter(|k| k.tag(ROLLUP_TAG).is_none())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut c = Compactor::new(policy(1_000_000, 10)).unwrap();
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
        let mut c = Compactor::new(policy(1_000_000, 10)).unwrap();
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
        let mut c = Compactor::new(policy(10, 10)).unwrap();
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
        let mut c = Compactor::new(pol).unwrap();
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
        let mut c = Compactor::new(policy(1_000_000, 10)).unwrap();
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
        let mut cs = Compactor::new(policy(10, 10)).unwrap();
        let mut co = Compactor::new(policy(10, 10)).unwrap();
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
        let mut c = Compactor::new(policy(1_000_000, 10)).unwrap();
        assert_eq!(c.run_sharded(&db, 25).unwrap().rolled_up, 2 * 5);
        assert_eq!(c.run_sharded(&db, 25).unwrap().rolled_up, 0, "no double counting");
        // Serial and sharded passes share watermarks: serial runs over
        // each shard right after also materialize nothing.
        for shard in db.shards() {
            assert_eq!(c.run(shard, 25).unwrap().rolled_up, 0);
        }
    }

    #[test]
    fn sharded_raw_eviction_waits_for_rollup_watermark() {
        let db = ShardedDb::with_config(crate::sharded::ShardedConfig::new(4, 5));
        let key = SeriesKey::metric("cpu").with_tag("host", "a");
        fill_sharded(&db, &key, 0..40);
        db.flush().unwrap();
        let mut c = Compactor::new(policy(10, 10)).unwrap();
        let report = c.run_sharded(&db, 40).unwrap();
        assert_eq!(report.rolled_up, 4);
        assert_eq!(report.raw_evicted, 30, "blocks [0..30) evicted");
        let rk = rollup_key(&key, 10);
        let pts = db.query(&rk, RangeQuery::raw(i64::MIN + 1, i64::MAX)).unwrap();
        assert_eq!(pts.len(), 4, "rollup history survives raw eviction");
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
        let mut c = Compactor::new(pol).unwrap();
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
