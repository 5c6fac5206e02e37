//! The query → ASAP bridge: smooth straight out of storage.
//!
//! This is the end-to-end pipeline the paper's §2 describes — a dashboard
//! backend queries its time-series database for a visualization interval,
//! and ASAP picks the smoothing window before rendering. The bridge:
//!
//! 1. runs a [`RangeQuery`] against a stored series;
//! 2. aligns the result onto an equi-spaced grid (ASAP's SMA model
//!    requires it) with a gap-fill policy;
//! 3. hands the values to [`asap_core::Asap::smooth`];
//! 4. re-attaches timestamps to the smoothed series so the caller can plot
//!    time on the x-axis.
//!
//! The functions here are generic over [`SeriesReader`], so one serial
//! code path serves a single [`crate::db::Tsdb`], a whole
//! [`crate::sharded::ShardedDb`] (the server's `SMOOTH`), and every test
//! oracle alike.

use asap_core::{Asap, SmoothingResult};
use asap_timeseries::TimeSeriesError;

use crate::error::TsdbError;
use crate::point::DataPoint;
use crate::query::{FillPolicy, RangeQuery, SeriesReader};
use crate::tags::{Selector, SeriesKey};

/// A smoothed visualization frame produced from storage.
#[derive(Debug, Clone, PartialEq)]
pub struct SmoothedFrame {
    /// The ASAP outcome (window choice, metrics, smoothed values).
    pub result: SmoothingResult,
    /// Timestamp of each input grid point handed to ASAP.
    pub grid_timestamps: Vec<i64>,
    /// `(timestamp, value)` pairs of the smoothed series, timestamps taken
    /// from the leading edge of each SMA window on the input grid.
    pub smoothed_points: Vec<DataPoint>,
}

/// Error of the storage→ASAP pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum SmoothQueryError {
    /// The storage side failed.
    Storage(TsdbError),
    /// The smoothing side failed.
    Smoothing(TimeSeriesError),
}

impl std::fmt::Display for SmoothQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmoothQueryError::Storage(e) => write!(f, "storage: {e}"),
            SmoothQueryError::Smoothing(e) => write!(f, "smoothing: {e}"),
        }
    }
}

impl std::error::Error for SmoothQueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SmoothQueryError::Storage(e) => Some(e),
            SmoothQueryError::Smoothing(e) => Some(e),
        }
    }
}

impl From<TsdbError> for SmoothQueryError {
    fn from(e: TsdbError) -> Self {
        SmoothQueryError::Storage(e)
    }
}

impl From<TimeSeriesError> for SmoothQueryError {
    fn from(e: TimeSeriesError) -> Self {
        SmoothQueryError::Smoothing(e)
    }
}

/// Queries `[start, end)` of `key` at grid step `bucket` and smooths the
/// result with `asap`.
///
/// Gaps in the stored data are linearly interpolated ([`FillPolicy::Linear`])
/// so the grid handed to ASAP is complete; use [`smooth_query_with_fill`] to
/// choose a different policy.
pub fn smooth_query<D: SeriesReader + ?Sized>(
    db: &D,
    key: &SeriesKey,
    asap: &Asap,
    start: i64,
    end: i64,
    bucket: i64,
) -> Result<SmoothedFrame, SmoothQueryError> {
    smooth_query_with_fill(db, key, asap, start, end, bucket, FillPolicy::Linear)
}

/// [`smooth_query`] with an explicit gap-fill policy.
///
/// [`FillPolicy::Skip`] is rejected: it produces a non-equi-spaced grid,
/// which would silently violate ASAP's SMA model.
pub fn smooth_query_with_fill<D: SeriesReader + ?Sized>(
    db: &D,
    key: &SeriesKey,
    asap: &Asap,
    start: i64,
    end: i64,
    bucket: i64,
    fill: FillPolicy,
) -> Result<SmoothedFrame, SmoothQueryError> {
    if matches!(fill, FillPolicy::Skip) {
        return Err(SmoothQueryError::Storage(TsdbError::InvalidParameter {
            name: "fill",
            message: "Skip produces an irregular grid; ASAP requires equi-spaced input",
        }));
    }
    let grid = db.read_series(key, RangeQuery::bucketed(start, end, bucket).fill(fill))?;
    if grid.is_empty() {
        return Err(SmoothQueryError::Smoothing(TimeSeriesError::Empty));
    }
    let values: Vec<f64> = grid.iter().map(|p| p.value).collect();
    let result = asap.smooth(&values)?;

    // Re-attach time: the smoothed series lives on the preaggregated grid
    // (pixel ratio × bucket per step), each output point anchored at the
    // leading edge of its SMA window.
    let step = bucket * result.pixel_ratio as i64;
    let smoothed_points = result
        .smoothed
        .iter()
        .enumerate()
        .map(|(i, &v)| DataPoint::new(start + i as i64 * step, v))
        .collect();
    Ok(SmoothedFrame {
        grid_timestamps: grid.iter().map(|p| p.timestamp).collect(),
        smoothed_points,
        result,
    })
}

/// Smooths every series matching `selector` over `[start, end)` at grid
/// step `bucket`, serially, returning `(key, frame)` pairs in key order.
///
/// Fails on the first failing key in key order — e.g. a matching series
/// with no data in the interval reports
/// [`TimeSeriesError::Empty`]. Over a [`crate::sharded::ShardedDb`] the
/// keys come back merged across shards in the same order, so frames and
/// errors equal those of a single-shard store holding the same points.
pub fn smooth_query_selector<D: SeriesReader + ?Sized>(
    db: &D,
    selector: &Selector,
    asap: &Asap,
    start: i64,
    end: i64,
    bucket: i64,
) -> Result<Vec<(SeriesKey, SmoothedFrame)>, SmoothQueryError> {
    db.matching_series(selector)
        .into_iter()
        .map(|key| smooth_query(db, &key, asap, start, end, bucket).map(|f| (key, f)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Tsdb;

    /// A noisy periodic series long enough for ASAP to smooth confidently.
    fn seed_db(n: i64, step: i64) -> (Tsdb, SeriesKey) {
        let db = Tsdb::new();
        let key = SeriesKey::metric("cpu").with_tag("host", "a");
        for i in 0..n {
            let v = (std::f64::consts::TAU * i as f64 / 48.0).sin()
                + 0.4 * if i % 2 == 0 { 1.0 } else { -1.0 };
            db.write(&key, DataPoint::new(i * step, v)).unwrap();
        }
        (db, key)
    }

    #[test]
    fn end_to_end_pipeline_smooths() {
        let (db, key) = seed_db(4000, 10);
        let asap = Asap::builder().resolution(400).build();
        let frame = smooth_query(&db, &key, &asap, 0, 40_000, 10).unwrap();
        assert!(frame.result.window > 1, "noisy periodic data gets smoothed");
        assert_eq!(frame.grid_timestamps.len(), 4000);
        assert_eq!(frame.smoothed_points.len(), frame.result.smoothed.len());
        // Timestamps advance by bucket × pixel ratio.
        let step = 10 * frame.result.pixel_ratio as i64;
        assert_eq!(frame.smoothed_points[1].timestamp - frame.smoothed_points[0].timestamp, step);
        // Smoothing reduced roughness versus the aggregated input.
        let raw_rough = asap_timeseries::roughness(&frame.result.aggregated).unwrap();
        assert!(frame.result.roughness <= raw_rough);
    }

    #[test]
    fn coarser_buckets_shrink_the_grid() {
        let (db, key) = seed_db(4000, 10);
        let asap = Asap::builder().resolution(400).build();
        let frame = smooth_query(&db, &key, &asap, 0, 40_000, 100).unwrap();
        assert_eq!(frame.grid_timestamps.len(), 400);
    }

    #[test]
    fn gaps_are_filled_before_smoothing() {
        let db = Tsdb::new();
        let key = SeriesKey::metric("cpu");
        // Write data with a hole in the middle third.
        for i in (0..1000).chain(2000..3000) {
            let v = (i as f64 / 25.0).sin() + 0.3 * if i % 2 == 0 { 1.0 } else { -1.0 };
            db.write(&key, DataPoint::new(i, v)).unwrap();
        }
        let asap = Asap::builder().resolution(300).build();
        let frame = smooth_query(&db, &key, &asap, 0, 3000, 10).unwrap();
        assert_eq!(frame.grid_timestamps.len(), 300, "hole interpolated, grid total");
    }

    #[test]
    fn skip_fill_rejected() {
        let (db, key) = seed_db(100, 1);
        let asap = Asap::builder().resolution(50).build();
        let err =
            smooth_query_with_fill(&db, &key, &asap, 0, 100, 1, FillPolicy::Skip).unwrap_err();
        assert!(matches!(
            err,
            SmoothQueryError::Storage(TsdbError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn empty_range_reports_smoothing_empty() {
        let (db, key) = seed_db(100, 1);
        let asap = Asap::builder().resolution(50).build();
        let err = smooth_query(&db, &key, &asap, 5_000, 6_000, 10).unwrap_err();
        assert_eq!(err, SmoothQueryError::Smoothing(TimeSeriesError::Empty));
    }

    #[test]
    fn selector_smoothing_returns_key_ordered_frames() {
        let db = Tsdb::new();
        for host in ["b", "a", "c"] {
            let key = SeriesKey::metric("cpu").with_tag("host", host);
            for i in 0..2000i64 {
                let v = (std::f64::consts::TAU * i as f64 / 48.0).sin()
                    + 0.4 * if i % 2 == 0 { 1.0 } else { -1.0 };
                db.write(&key, DataPoint::new(i * 10, v)).unwrap();
            }
        }
        let asap = Asap::builder().resolution(200).build();
        let frames =
            smooth_query_selector(&db, &Selector::metric("cpu"), &asap, 0, 20_000, 10).unwrap();
        let hosts: Vec<_> = frames.iter().map(|(k, _)| k.tag("host").unwrap()).collect();
        assert_eq!(hosts, vec!["a", "b", "c"]);
        // Each frame equals the single-series entry point's output.
        for (key, frame) in &frames {
            let single = smooth_query(&db, key, &asap, 0, 20_000, 10).unwrap();
            assert_eq!(*frame, single);
        }
    }

    #[test]
    fn flat_stored_series_is_left_unsmoothed() {
        let db = Tsdb::new();
        let key = SeriesKey::metric("temp");
        for i in 0..5_000 {
            db.write(&key, DataPoint::new(i, 0.1)).unwrap();
        }
        let asap = Asap::builder().resolution(800).build();
        let frame = smooth_query(&db, &key, &asap, 0, 5_000, 1).unwrap();
        assert_eq!(frame.result.pixel_ratio, 7);
        assert_eq!(frame.result.window, 1);
        let smoothed = &frame.result.smoothed;
        assert!(smoothed.iter().all(|&v| v == smoothed[0]));
    }

    #[test]
    fn missing_series_reports_storage_error() {
        let db = Tsdb::new();
        let asap = Asap::builder().resolution(50).build();
        let err = smooth_query(&db, &SeriesKey::metric("ghost"), &asap, 0, 100, 10).unwrap_err();
        assert!(matches!(
            err,
            SmoothQueryError::Storage(TsdbError::SeriesNotFound { .. })
        ));
    }
}
