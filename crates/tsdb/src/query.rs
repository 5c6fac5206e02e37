//! Range queries, bucketed aggregation, and grid alignment.
//!
//! The ASAP operator consumes an *equi-spaced* series (§3.3's SMA model).
//! Raw telemetry rarely is: cadence jitters and collection gaps appear. The
//! query layer closes that gap: a [`RangeQuery`] scans `[start, end)`,
//! optionally groups points into fixed-width buckets reduced by an
//! [`Aggregator`], and aligns the buckets onto a regular grid with a
//! [`FillPolicy`] for empty buckets.

use crate::error::TsdbError;
use crate::point::DataPoint;
use crate::tags::{Selector, SeriesKey};

/// A queryable series store — the engine-side contract the query→ASAP
/// bridge ([`crate::smooth`]) is written against.
///
/// Implemented by the storage partition [`crate::db::Tsdb`] and the
/// partitioned [`crate::sharded::ShardedDb`], so smoothing code runs
/// identically over one partition or many.
pub trait SeriesReader {
    /// Runs a query against one series.
    fn read_series(&self, key: &SeriesKey, query: RangeQuery) -> Result<Vec<DataPoint>, TsdbError>;

    /// Lists keys of series matching `selector`, in key order.
    fn matching_series(&self, selector: &Selector) -> Vec<SeriesKey>;
}

/// A writable series store — the engine-side contract ingest-side
/// adapters (notably [`crate::reorder::ReorderBuffer`]) are written
/// against, mirroring [`SeriesReader`] on the write path.
///
/// Implemented by the storage partition [`crate::db::Tsdb`] and the
/// partitioned [`crate::sharded::ShardedDb`], so reordering and other
/// write-side stages run identically in front of one partition or many.
pub trait SeriesWriter {
    /// Writes one point, creating the series on first touch. Timestamps
    /// must be strictly increasing per series.
    fn write_point(&self, key: &SeriesKey, point: DataPoint) -> Result<(), TsdbError>;
}

/// Reduction applied to the points that fall in one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregator {
    /// Arithmetic mean (the paper's preaggregation choice, §4.4).
    Mean,
    /// Smallest value.
    Min,
    /// Largest value.
    Max,
    /// Sum of values.
    Sum,
    /// Number of points.
    Count,
    /// Value of the earliest point.
    First,
    /// Value of the latest point.
    Last,
}

impl Aggregator {
    /// Reduces the values of a non-empty run of points.
    fn reduce(self, run: &[DataPoint]) -> f64 {
        debug_assert!(!run.is_empty());
        let values = run.iter().map(|p| p.value);
        match self {
            Aggregator::Mean => values.sum::<f64>() / run.len() as f64,
            Aggregator::Min => values.fold(f64::INFINITY, f64::min),
            Aggregator::Max => values.fold(f64::NEG_INFINITY, f64::max),
            Aggregator::Sum => values.sum(),
            Aggregator::Count => run.len() as f64,
            Aggregator::First => run[0].value,
            Aggregator::Last => run[run.len() - 1].value,
        }
    }
}

/// How to fill grid buckets that received no points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FillPolicy {
    /// Drop empty buckets (output may be shorter than the grid).
    Skip,
    /// Repeat the previous bucket's value (leading gaps take the first
    /// observed value).
    Previous,
    /// Linearly interpolate between the neighbouring non-empty buckets
    /// (edge gaps clamp to the nearest observed value).
    Linear,
    /// Emit a constant.
    Constant(f64),
}

/// A bucketed-aggregation query over `[start, end)`.
///
/// `start` is the grid origin: bucket `i` covers
/// `[start + i*bucket, start + (i+1)*bucket)`.
#[derive(Debug, Clone, Copy)]
pub struct RangeQuery {
    /// Inclusive start of the scan and origin of the bucket grid.
    pub start: i64,
    /// Exclusive end of the scan.
    pub end: i64,
    /// Bucket width in timestamp units; `None` returns raw points.
    pub bucket: Option<i64>,
    /// Per-bucket reduction (ignored for raw scans).
    pub aggregator: Aggregator,
    /// Empty-bucket policy (ignored for raw scans).
    pub fill: FillPolicy,
}

impl RangeQuery {
    /// Raw scan of `[start, end)`.
    pub fn raw(start: i64, end: i64) -> Self {
        Self {
            start,
            end,
            bucket: None,
            aggregator: Aggregator::Mean,
            fill: FillPolicy::Skip,
        }
    }

    /// Mean-aggregated scan with the given bucket width.
    pub fn bucketed(start: i64, end: i64, bucket: i64) -> Self {
        Self {
            start,
            end,
            bucket: Some(bucket),
            aggregator: Aggregator::Mean,
            fill: FillPolicy::Skip,
        }
    }

    /// Sets the aggregator.
    pub fn aggregate(mut self, aggregator: Aggregator) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// Sets the fill policy.
    pub fn fill(mut self, fill: FillPolicy) -> Self {
        self.fill = fill;
        self
    }

    /// Validates the query shape.
    pub fn validate(&self) -> Result<(), TsdbError> {
        if self.start >= self.end {
            return Err(TsdbError::InvalidParameter {
                name: "range",
                message: "start must be before end",
            });
        }
        if let Some(b) = self.bucket {
            if b <= 0 {
                return Err(TsdbError::InvalidParameter {
                    name: "bucket",
                    message: "bucket width must be positive",
                });
            }
            // The grid math needs the span as a positive i64; a range
            // like [i64::MIN+1, i64::MAX) would wrap the subtraction.
            if self.end.checked_sub(self.start).is_none() {
                return Err(TsdbError::InvalidParameter {
                    name: "range",
                    message: "bucketed span overflows the timestamp domain",
                });
            }
        }
        Ok(())
    }

    /// Applies bucketing, aggregation, and fill to raw scanned points.
    ///
    /// `points` must be time-ordered and within `[start, end)` — the
    /// contract of [`crate::series::SeriesStore::scan`].
    pub fn shape(&self, points: &[DataPoint]) -> Result<Vec<DataPoint>, TsdbError> {
        self.validate()?;
        let bucket = match self.bucket {
            None => return Ok(points.to_vec()),
            Some(b) => b,
        };
        // Number of grid buckets covering [start, end).
        let span = (self.end - self.start) as u64;
        let n_buckets = span.div_ceil(bucket as u64) as usize;
        let mut grid: Vec<Option<f64>> = vec![None; n_buckets];
        let index = |p: &DataPoint| {
            debug_assert!(p.timestamp >= self.start && p.timestamp < self.end);
            ((p.timestamp - self.start) / bucket) as usize
        };
        // Time-ordered points put each bucket's points in one run.
        for run in points.chunk_by(|a, b| index(a) == index(b)) {
            grid[index(&run[0])] = Some(self.aggregator.reduce(run));
        }
        Ok(self.fill_grid(grid, bucket))
    }

    fn fill_grid(&self, grid: Vec<Option<f64>>, bucket: i64) -> Vec<DataPoint> {
        let ts = |i: usize| self.start + i as i64 * bucket;
        match self.fill {
            FillPolicy::Skip => grid
                .into_iter()
                .enumerate()
                .filter_map(|(i, v)| v.map(|v| DataPoint::new(ts(i), v)))
                .collect(),
            FillPolicy::Constant(c) => grid
                .into_iter()
                .enumerate()
                .map(|(i, v)| DataPoint::new(ts(i), v.unwrap_or(c)))
                .collect(),
            FillPolicy::Previous => {
                let mut out = Vec::with_capacity(grid.len());
                // Leading gaps take the first observed value so the output
                // is total whenever any bucket observed data.
                let first = grid.iter().flatten().next().copied();
                let mut prev = match first {
                    Some(v) => v,
                    None => return Vec::new(),
                };
                for (i, v) in grid.into_iter().enumerate() {
                    if let Some(v) = v {
                        prev = v;
                    }
                    out.push(DataPoint::new(ts(i), prev));
                }
                out
            }
            FillPolicy::Linear => {
                let filled: Vec<(usize, f64)> = grid
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| v.map(|v| (i, v)))
                    .collect();
                if filled.is_empty() {
                    return Vec::new();
                }
                let mut out = Vec::with_capacity(grid.len());
                let mut seg = 0; // index into `filled` of the segment start
                for i in 0..grid.len() {
                    while seg + 1 < filled.len() && filled[seg + 1].0 <= i {
                        seg += 1;
                    }
                    let (i0, v0) = filled[seg];
                    let v = if i <= i0 {
                        v0 // clamp before the first observation
                    } else if seg + 1 < filled.len() {
                        let (i1, v1) = filled[seg + 1];
                        let t = (i - i0) as f64 / (i1 - i0) as f64;
                        // Convex-combination form: `v0 + (v1-v0)*t` overflows
                        // when v0 and v1 sit near opposite f64 extremes.
                        v0 * (1.0 - t) + v1 * t
                    } else {
                        v0 // clamp after the last observation
                    };
                    out.push(DataPoint::new(ts(i), v));
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(i64, f64)]) -> Vec<DataPoint> {
        v.iter().map(|&(t, x)| DataPoint::new(t, x)).collect()
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        assert!(RangeQuery::raw(10, 10).validate().is_err());
        assert!(RangeQuery::raw(10, 5).validate().is_err());
        assert!(RangeQuery::bucketed(0, 10, 0).validate().is_err());
        assert!(RangeQuery::bucketed(0, 10, -5).validate().is_err());
        assert!(RangeQuery::bucketed(0, 10, 3).validate().is_ok());
    }

    #[test]
    fn bucketed_span_overflow_is_rejected_not_wrapped() {
        // end - start wraps i64 for the full timestamp domain: the grid
        // math must never see it. Raw scans of the same range stay fine
        // (no grid).
        let q = RangeQuery::bucketed(i64::MIN + 1, i64::MAX, 10);
        assert!(q.validate().is_err());
        assert!(q.shape(&[]).is_err());
        assert!(RangeQuery::raw(i64::MIN + 1, i64::MAX).validate().is_ok());
    }

    #[test]
    fn raw_query_passes_through() {
        let p = pts(&[(0, 1.0), (3, 2.0), (7, 3.0)]);
        let out = RangeQuery::raw(0, 10).shape(&p).unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn aggregators_reduce_correctly() {
        let p = pts(&[(0, 1.0), (1, 3.0), (2, 2.0)]);
        let q = |a| {
            RangeQuery::bucketed(0, 3, 3)
                .aggregate(a)
                .shape(&p)
                .unwrap()[0]
                .value
        };
        assert_eq!(q(Aggregator::Mean), 2.0);
        assert_eq!(q(Aggregator::Min), 1.0);
        assert_eq!(q(Aggregator::Max), 3.0);
        assert_eq!(q(Aggregator::Sum), 6.0);
        assert_eq!(q(Aggregator::Count), 3.0);
        assert_eq!(q(Aggregator::First), 1.0);
        assert_eq!(q(Aggregator::Last), 2.0);
    }

    #[test]
    fn buckets_align_to_start_not_epoch() {
        let p = pts(&[(103, 1.0), (104, 3.0), (108, 5.0)]);
        let out = RangeQuery::bucketed(100, 110, 5).shape(&p).unwrap();
        // Buckets [100,105) and [105,110).
        assert_eq!(out, pts(&[(100, 2.0), (105, 5.0)]));
    }

    #[test]
    fn skip_fill_drops_empty_buckets() {
        let p = pts(&[(0, 1.0), (25, 5.0)]);
        let out = RangeQuery::bucketed(0, 30, 10).shape(&p).unwrap();
        assert_eq!(out, pts(&[(0, 1.0), (20, 5.0)]));
    }

    #[test]
    fn constant_fill_emits_total_grid() {
        let p = pts(&[(0, 1.0), (25, 5.0)]);
        let out = RangeQuery::bucketed(0, 30, 10)
            .fill(FillPolicy::Constant(0.0))
            .shape(&p)
            .unwrap();
        assert_eq!(out, pts(&[(0, 1.0), (10, 0.0), (20, 5.0)]));
    }

    #[test]
    fn previous_fill_carries_forward_and_backfills_leading_gap() {
        let p = pts(&[(15, 2.0), (35, 6.0)]);
        let out = RangeQuery::bucketed(0, 50, 10)
            .fill(FillPolicy::Previous)
            .shape(&p)
            .unwrap();
        assert_eq!(
            out,
            pts(&[(0, 2.0), (10, 2.0), (20, 2.0), (30, 6.0), (40, 6.0)])
        );
    }

    #[test]
    fn linear_fill_interpolates_interior_and_clamps_edges() {
        let p = pts(&[(10, 0.0), (40, 3.0)]);
        let out = RangeQuery::bucketed(0, 60, 10)
            .fill(FillPolicy::Linear)
            .shape(&p)
            .unwrap();
        assert_eq!(
            out,
            pts(&[(0, 0.0), (10, 0.0), (20, 1.0), (30, 2.0), (40, 3.0), (50, 3.0)])
        );
    }

    #[test]
    fn fill_on_fully_empty_grid_is_empty() {
        let out = RangeQuery::bucketed(0, 100, 10)
            .fill(FillPolicy::Previous)
            .shape(&[])
            .unwrap();
        assert!(out.is_empty());
        let out = RangeQuery::bucketed(0, 100, 10)
            .fill(FillPolicy::Linear)
            .shape(&[])
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn ragged_final_bucket_is_included() {
        // Range of 25 with bucket 10 yields 3 buckets, the last covering [20,25).
        let p = pts(&[(24, 7.0)]);
        let out = RangeQuery::bucketed(0, 25, 10).shape(&p).unwrap();
        assert_eq!(out, pts(&[(20, 7.0)]));
    }
}
