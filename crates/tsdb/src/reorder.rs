//! Watermark-based reordering for out-of-order telemetry.
//!
//! The storage engine requires strictly increasing timestamps per series
//! (a consequence of delta-of-delta compression). Real collection
//! pipelines deliver *mostly* ordered data with bounded lateness — agents
//! retry, UDP reorders, scrapes jitter. A [`ReorderBuffer`] absorbs that:
//! it holds each series' recent points in a small buffer and only releases
//! a point once the series' watermark (`max timestamp seen − allowed
//! lateness`) passes it, so anything at most `lateness` late is sorted
//! into place instead of rejected. Points later than the watermark are
//! counted and dropped, mirroring the late-data policy of stream
//! processors.
//!
//! The buffer is generic over the [`SeriesWriter`] sink, so the same
//! reordering stage runs in front of a [`Tsdb`], a whole
//! [`crate::sharded::ShardedDb`], or — as the streaming ingest pipeline
//! does ([`mod@crate::ingest`]) — one shard's [`Tsdb`] per writer
//! thread.
//!
//! # Watermark boundary semantics
//!
//! Both the acceptance rule and the release rule treat the watermark
//! itself as *past*:
//!
//! * release: every pending point with `ts <= watermark` is written out;
//! * acceptance: an arriving point with `ts <= watermark` is **dropped
//!   late** — including a point with timestamp *exactly at* the
//!   watermark.
//!
//! The two must agree: once the watermark reached `w`, a pending point at
//! `w` was already released to the sink, so a newly arriving point at `w`
//! may collide with written data. Dropping exactly-at-watermark arrivals
//! keeps the fate of every timestamp deterministic regardless of whether
//! its twin was pending at the time. The boundary is pinned by
//! `boundary_point_exactly_at_watermark_is_dropped` below.
//!
//! Check order on arrival is also fixed: non-finite values error first,
//! then the lateness test, then the duplicate test — so a late duplicate
//! counts as `dropped_late`, not `dropped_duplicate`.

use std::collections::{BTreeMap, HashMap};

use crate::db::Tsdb;
use crate::error::TsdbError;
use crate::point::DataPoint;
use crate::query::SeriesWriter;
use crate::tags::SeriesKey;

/// Per-series state: pending points keyed by timestamp, plus the maximum
/// timestamp observed (the watermark anchor).
#[derive(Debug)]
struct SeriesBuffer {
    pending: BTreeMap<i64, f64>,
    max_seen: i64,
}

/// Statistics of a [`ReorderBuffer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Points accepted into a buffer.
    pub accepted: usize,
    /// Accepted points that arrived out of order (their timestamp was
    /// below the series' maximum seen at arrival) and were sorted back
    /// into place instead of failing.
    pub reordered: usize,
    /// Points released to the sink.
    pub released: usize,
    /// Points dropped for arriving later than the allowed lateness
    /// (timestamp at or below the series watermark).
    pub dropped_late: usize,
    /// Points dropped as duplicates of a pending timestamp.
    pub dropped_duplicate: usize,
    /// High-water mark of points buffered across all series at once —
    /// the buffer's peak memory footprint, in points.
    pub max_pending: usize,
}

/// Reorders bounded-lateness telemetry in front of a [`SeriesWriter`]
/// sink (a [`Tsdb`] by default).
#[derive(Debug)]
pub struct ReorderBuffer<W: SeriesWriter = Tsdb> {
    sink: W,
    lateness: i64,
    buffers: HashMap<SeriesKey, SeriesBuffer>,
    pending_total: usize,
    stats: ReorderStats,
}

impl<W: SeriesWriter> ReorderBuffer<W> {
    /// Creates a buffer that tolerates up to `lateness` timestamp units of
    /// disorder per series, releasing points into `sink`.
    pub fn new(sink: W, lateness: i64) -> Result<Self, TsdbError> {
        if lateness < 0 {
            return Err(TsdbError::InvalidParameter {
                name: "lateness",
                message: "allowed lateness must be non-negative",
            });
        }
        Ok(Self {
            sink,
            lateness,
            buffers: HashMap::new(),
            pending_total: 0,
            stats: ReorderStats::default(),
        })
    }

    /// Current statistics.
    pub fn stats(&self) -> ReorderStats {
        self.stats
    }

    /// Number of points currently buffered across all series.
    pub fn pending(&self) -> usize {
        self.pending_total
    }

    /// The sink points are released into.
    pub fn sink(&self) -> &W {
        &self.sink
    }

    /// Offers a point, advancing the series watermark and releasing every
    /// pending point at or below it.
    ///
    /// A point with timestamp at or below the watermark — **including
    /// exactly at it** — is dropped as late (see the module docs for why
    /// the boundary lands there). Errors (a non-finite value, or a sink
    /// failure other than out-of-order) leave the buffered points intact:
    /// a later [`ReorderBuffer::flush`] still releases them.
    ///
    /// Returns the number of points released to the sink.
    pub fn offer(&mut self, key: &SeriesKey, point: DataPoint) -> Result<usize, TsdbError> {
        if !point.value.is_finite() {
            return Err(TsdbError::NonFiniteValue {
                timestamp: point.timestamp,
            });
        }
        // Clone the key only for a series seen for the first time.
        let buf = match self.buffers.get_mut(key) {
            Some(buf) => buf,
            None => self.buffers.entry(key.clone()).or_default(),
        };
        // A point is too late once the watermark has passed it — unless
        // this series has seen nothing yet (max_seen still at its i64::MIN
        // sentinel).
        let fresh_series = buf.max_seen == i64::MIN;
        if !fresh_series && point.timestamp <= buf.max_seen.saturating_sub(self.lateness) {
            self.stats.dropped_late += 1;
            return Ok(0);
        }
        if buf.pending.contains_key(&point.timestamp) {
            self.stats.dropped_duplicate += 1;
            return Ok(0);
        }
        if point.timestamp < buf.max_seen {
            self.stats.reordered += 1;
        }
        buf.pending.insert(point.timestamp, point.value);
        buf.max_seen = buf.max_seen.max(point.timestamp);
        self.stats.accepted += 1;
        self.pending_total += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.pending_total);

        // Release everything at or below the watermark, in order.
        let watermark = buf.max_seen.saturating_sub(self.lateness);
        let mut released = 0;
        while let Some((&ts, &v)) = buf.pending.first_key_value() {
            if ts > watermark {
                break;
            }
            buf.pending.remove(&ts);
            self.pending_total -= 1;
            match self.sink.write_point(key, DataPoint::new(ts, v)) {
                Ok(()) => released += 1,
                // Already persisted beyond this timestamp (e.g. pre-existing
                // data in the series): count as late rather than failing.
                Err(TsdbError::OutOfOrder { .. }) => self.stats.dropped_late += 1,
                Err(e) => {
                    self.stats.released += released;
                    return Err(e);
                }
            }
        }
        self.stats.released += released;
        Ok(released)
    }

    /// Flushes every buffered point regardless of watermark (end of
    /// stream). Returns the number of points released.
    pub fn flush(&mut self) -> Result<usize, TsdbError> {
        let mut released = 0;
        for (key, buf) in &mut self.buffers {
            while let Some((&ts, &v)) = buf.pending.first_key_value() {
                buf.pending.remove(&ts);
                self.pending_total -= 1;
                match self.sink.write_point(key, DataPoint::new(ts, v)) {
                    Ok(()) => released += 1,
                    Err(TsdbError::OutOfOrder { .. }) => self.stats.dropped_late += 1,
                    Err(e) => {
                        self.stats.released += released;
                        return Err(e);
                    }
                }
            }
        }
        self.stats.released += released;
        Ok(released)
    }
}

impl Default for SeriesBuffer {
    fn default() -> Self {
        Self {
            pending: BTreeMap::new(),
            max_seen: i64::MIN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::RangeQuery;
    use crate::sharded::{ShardedConfig, ShardedDb};

    fn setup(lateness: i64) -> (Tsdb, ReorderBuffer, SeriesKey) {
        let db = Tsdb::new();
        let rb = ReorderBuffer::new(db.clone(), lateness).unwrap();
        (db, rb, SeriesKey::metric("m"))
    }

    fn stored(db: &Tsdb, key: &SeriesKey) -> Vec<i64> {
        db.query(key, RangeQuery::raw(i64::MIN + 1, i64::MAX))
            .map(|pts| pts.iter().map(|p| p.timestamp).collect())
            .unwrap_or_default()
    }

    #[test]
    fn negative_lateness_rejected() {
        let db = Tsdb::new();
        assert!(ReorderBuffer::new(db, -1).is_err());
    }

    #[test]
    fn bounded_disorder_is_fully_repaired() {
        let (db, mut rb, key) = setup(10);
        // Timestamps shuffled within a ±5 jitter of their slot.
        let ts = [3i64, 1, 2, 7, 5, 4, 9, 6, 8, 12, 10, 11, 20, 15];
        for &t in &ts {
            rb.offer(&key, DataPoint::new(t, t as f64)).unwrap();
        }
        rb.flush().unwrap();
        let mut want: Vec<i64> = ts.to_vec();
        want.sort_unstable();
        assert_eq!(stored(&db, &key), want, "all points, in order");
        assert_eq!(rb.stats().dropped_late, 0);
    }

    #[test]
    fn points_beyond_lateness_are_dropped_not_errors() {
        let (db, mut rb, key) = setup(5);
        rb.offer(&key, DataPoint::new(100, 1.0)).unwrap();
        // Watermark is 95; 90 is too late.
        rb.offer(&key, DataPoint::new(90, 2.0)).unwrap();
        assert_eq!(rb.stats().dropped_late, 1);
        // 96 is within lateness and accepted.
        rb.offer(&key, DataPoint::new(96, 3.0)).unwrap();
        rb.flush().unwrap();
        assert_eq!(stored(&db, &key), vec![96, 100]);
    }

    /// The lateness boundary is deterministic and documented: a point
    /// with timestamp *exactly at* the watermark is dropped, matching the
    /// release rule (which releases pending points at the watermark).
    #[test]
    fn boundary_point_exactly_at_watermark_is_dropped() {
        let (db, mut rb, key) = setup(5);
        rb.offer(&key, DataPoint::new(100, 1.0)).unwrap();
        // Watermark is exactly 95.
        rb.offer(&key, DataPoint::new(95, 2.0)).unwrap();
        assert_eq!(rb.stats().dropped_late, 1, "ts == watermark is late");
        // One unit inside the boundary is accepted…
        rb.offer(&key, DataPoint::new(96, 3.0)).unwrap();
        assert_eq!(rb.stats().dropped_late, 1);
        rb.flush().unwrap();
        assert_eq!(stored(&db, &key), vec![96, 100]);

        // …and the release side of the same boundary: a pending point
        // exactly at the advancing watermark is released, not held.
        let (db, mut rb, key) = setup(5);
        rb.offer(&key, DataPoint::new(10, 0.0)).unwrap();
        let released = rb.offer(&key, DataPoint::new(15, 0.0)).unwrap();
        assert_eq!(released, 1, "watermark 10 releases the point at 10");
        assert_eq!(stored(&db, &key), vec![10]);
    }

    /// With zero lateness the boundary rule makes an exact duplicate of
    /// the maximum a *late* drop (the lateness check runs before the
    /// duplicate check, and ts == max_seen == watermark).
    #[test]
    fn boundary_duplicate_of_max_at_zero_lateness_is_late_not_duplicate() {
        let (_, mut rb, key) = setup(0);
        rb.offer(&key, DataPoint::new(5, 1.0)).unwrap();
        rb.offer(&key, DataPoint::new(5, 2.0)).unwrap();
        assert_eq!(rb.stats().dropped_late, 1);
        assert_eq!(rb.stats().dropped_duplicate, 0);
    }

    /// `offer()` errors must not corrupt the buffer: a rejected
    /// non-finite value and a propagated sink error both leave pending
    /// points releasable by a later `flush()`.
    #[test]
    fn flush_after_offer_errors_still_releases_pending() {
        let (db, mut rb, key) = setup(100);
        rb.offer(&key, DataPoint::new(10, 1.0)).unwrap();
        rb.offer(&key, DataPoint::new(12, 2.0)).unwrap();
        assert!(matches!(
            rb.offer(&key, DataPoint::new(11, f64::NAN)),
            Err(TsdbError::NonFiniteValue { timestamp: 11 })
        ));
        assert_eq!(rb.pending(), 2, "error left the buffer intact");
        assert_eq!(rb.flush().unwrap(), 2);
        assert_eq!(stored(&db, &key), vec![10, 12]);
        // Flush drained everything; stats balance.
        let s = rb.stats();
        assert_eq!(s.released, s.accepted);
        assert_eq!(rb.pending(), 0);
    }

    /// A flush colliding with pre-existing sink data counts the losers as
    /// late instead of erroring, and still drains the buffer.
    #[test]
    fn flush_counts_sink_collisions_as_late() {
        let (db, mut rb, key) = setup(1_000);
        db.write(&key, DataPoint::new(50, 9.0)).unwrap();
        rb.offer(&key, DataPoint::new(10, 1.0)).unwrap();
        rb.offer(&key, DataPoint::new(60, 2.0)).unwrap();
        assert_eq!(rb.flush().unwrap(), 1, "only 60 lands past the existing 50");
        assert_eq!(rb.stats().dropped_late, 1);
        assert_eq!(rb.pending(), 0);
        assert_eq!(stored(&db, &key), vec![50, 60]);
    }

    #[test]
    fn duplicates_within_buffer_dropped() {
        let (db, mut rb, key) = setup(100);
        rb.offer(&key, DataPoint::new(5, 1.0)).unwrap();
        rb.offer(&key, DataPoint::new(5, 2.0)).unwrap();
        assert_eq!(rb.stats().dropped_duplicate, 1);
        rb.flush().unwrap();
        assert_eq!(stored(&db, &key), vec![5]);
        assert_eq!(db.query(&key, RangeQuery::raw(0, 10)).unwrap()[0].value, 1.0);
    }

    #[test]
    fn release_happens_as_watermark_advances() {
        let (db, mut rb, key) = setup(3);
        rb.offer(&key, DataPoint::new(1, 0.0)).unwrap();
        rb.offer(&key, DataPoint::new(2, 0.0)).unwrap();
        assert!(stored(&db, &key).is_empty(), "still within lateness");
        assert_eq!(rb.pending(), 2);
        // max_seen = 10 ⇒ watermark 7 releases 1 and 2.
        let released = rb.offer(&key, DataPoint::new(10, 0.0)).unwrap();
        assert_eq!(released, 2);
        assert_eq!(stored(&db, &key), vec![1, 2]);
        assert_eq!(rb.pending(), 1);
    }

    #[test]
    fn zero_lateness_is_pass_through_ordering_filter() {
        let (db, mut rb, key) = setup(0);
        rb.offer(&key, DataPoint::new(1, 0.0)).unwrap();
        rb.offer(&key, DataPoint::new(3, 0.0)).unwrap();
        rb.offer(&key, DataPoint::new(2, 0.0)).unwrap(); // late, dropped
        rb.flush().unwrap();
        assert_eq!(stored(&db, &key), vec![1, 3]);
        assert_eq!(rb.stats().dropped_late, 1);
    }

    #[test]
    fn per_series_watermarks_are_independent() {
        let db = Tsdb::new();
        let mut rb = ReorderBuffer::new(db.clone(), 5).unwrap();
        let a = SeriesKey::metric("a");
        let b = SeriesKey::metric("b");
        rb.offer(&a, DataPoint::new(1_000, 0.0)).unwrap();
        // Series b starts far behind series a: accepted, not "late".
        rb.offer(&b, DataPoint::new(10, 0.0)).unwrap();
        rb.flush().unwrap();
        assert_eq!(stored(&db, &a), vec![1_000]);
        assert_eq!(stored(&db, &b), vec![10]);
    }

    #[test]
    fn non_finite_rejected_before_buffering() {
        let (_, mut rb, key) = setup(5);
        assert!(matches!(
            rb.offer(&key, DataPoint::new(1, f64::NAN)),
            Err(TsdbError::NonFiniteValue { timestamp: 1 })
        ));
        assert_eq!(rb.pending(), 0);
    }

    #[test]
    fn stats_account_for_every_offer() {
        let (_, mut rb, key) = setup(4);
        let ts = [5i64, 3, 9, 2, 9, 14, 1];
        for &t in &ts {
            let _ = rb.offer(&key, DataPoint::new(t, 0.0));
        }
        rb.flush().unwrap();
        let s = rb.stats();
        assert_eq!(
            s.accepted + s.dropped_late + s.dropped_duplicate,
            ts.len(),
            "every offer accounted for"
        );
        assert_eq!(s.released, s.accepted, "flush drains everything accepted");
    }

    #[test]
    fn reordered_counts_only_backward_arrivals() {
        let (_, mut rb, key) = setup(100);
        // 5 forward, 3 backward, 8 forward, 6 backward, 7 backward.
        for &t in &[5i64, 3, 8, 6, 7] {
            rb.offer(&key, DataPoint::new(t, 0.0)).unwrap();
        }
        assert_eq!(rb.stats().reordered, 3);
        assert_eq!(rb.stats().accepted, 5);
    }

    #[test]
    fn max_pending_tracks_high_water() {
        let (_, mut rb, key) = setup(3);
        rb.offer(&key, DataPoint::new(1, 0.0)).unwrap();
        rb.offer(&key, DataPoint::new(2, 0.0)).unwrap();
        rb.offer(&key, DataPoint::new(3, 0.0)).unwrap();
        assert_eq!(rb.stats().max_pending, 3);
        // The releasing offer itself is buffered before the release runs,
        // so the true peak footprint is 4 — then watermark 7 drains 1..3.
        rb.offer(&key, DataPoint::new(10, 0.0)).unwrap();
        assert_eq!(rb.pending(), 1);
        assert_eq!(rb.stats().max_pending, 4);
    }

    /// The generic sink: the same buffer runs in front of a sharded
    /// engine, and the result matches the single-shard sink point for
    /// point.
    #[test]
    fn generic_sink_runs_in_front_of_sharded_engine() {
        let sharded = ShardedDb::with_config(ShardedConfig::new(4, 16));
        let mut rb = ReorderBuffer::new(sharded.clone(), 10).unwrap();
        let (oracle_db, mut oracle_rb, _) = setup(10);
        for h in 0..4 {
            let key = SeriesKey::metric("cpu").with_tag("host", format!("h{h}"));
            for &t in &[3i64, 1, 2, 7, 5, 4, 9, 6, 8, 30] {
                rb.offer(&key, DataPoint::new(t + h, t as f64)).unwrap();
                oracle_rb.offer(&key, DataPoint::new(t + h, t as f64)).unwrap();
            }
        }
        rb.flush().unwrap();
        oracle_rb.flush().unwrap();
        assert_eq!(rb.stats(), oracle_rb.stats());
        let q = RangeQuery::raw(i64::MIN + 1, i64::MAX);
        let sel = crate::tags::Selector::any();
        assert_eq!(
            rb.sink().query_selector(&sel, q).unwrap(),
            oracle_db.query_selector(&sel, q).unwrap()
        );
    }
}
