//! Sealed, immutable storage blocks.
//!
//! A [`Block`] is a compressed run of consecutive points of one series plus
//! the summary metadata (time span, count) that lets queries skip
//! non-overlapping blocks without decompressing them.

use crate::error::TsdbError;
use crate::gorilla::{CompressedChunk, GorillaEncoder};
use crate::point::DataPoint;

/// Summary statistics of a sealed block, computed at seal time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSummary {
    /// Timestamp of the first point.
    pub start: i64,
    /// Timestamp of the last point (inclusive).
    pub end: i64,
    /// Number of points.
    pub count: usize,
}

/// An immutable compressed run of points with skip-scan metadata.
#[derive(Debug, Clone)]
pub struct Block {
    summary: BlockSummary,
    chunk: CompressedChunk,
}

impl Block {
    /// Seals `points` (strictly increasing timestamps, all finite values)
    /// into a compressed block.
    ///
    /// # Errors
    ///
    /// Returns [`TsdbError::InvalidParameter`] on empty input; ordering and
    /// finiteness are the ingestion path's invariants and are debug-asserted.
    pub fn seal(points: &[DataPoint]) -> Result<Self, TsdbError> {
        let (first, last) = match (points.first(), points.last()) {
            (Some(f), Some(l)) => (f, l),
            _ => {
                return Err(TsdbError::InvalidParameter {
                    name: "points",
                    message: "cannot seal an empty block",
                })
            }
        };
        let mut enc = GorillaEncoder::new();
        let mut prev_ts = None;
        for &p in points {
            debug_assert!(p.value.is_finite(), "ingestion must reject non-finite values");
            if let Some(prev) = prev_ts {
                debug_assert!(p.timestamp > prev, "ingestion must reject out-of-order points");
            }
            prev_ts = Some(p.timestamp);
            enc.append(p);
        }
        Ok(Self {
            summary: BlockSummary {
                start: first.timestamp,
                end: last.timestamp,
                count: points.len(),
            },
            chunk: enc.finish(),
        })
    }

    /// Rebuilds a block from its compressed payload, recomputing the
    /// summary by decoding (which also validates the payload).
    pub fn from_chunk(chunk: CompressedChunk) -> Result<Self, TsdbError> {
        let points = chunk.decode()?;
        let block = Self::seal(&points)?;
        // Keep the original payload rather than the re-encoded one; they
        // are byte-identical for a valid chunk, and this avoids surprises
        // if future encoder versions change bit layouts.
        Ok(Self {
            summary: block.summary,
            chunk,
        })
    }

    /// The block's summary metadata.
    pub fn summary(&self) -> &BlockSummary {
        &self.summary
    }

    /// The compressed payload (used by snapshot persistence).
    pub fn chunk(&self) -> &CompressedChunk {
        &self.chunk
    }

    /// Number of points in the block.
    pub fn len(&self) -> usize {
        self.summary.count
    }

    /// Always false: empty blocks cannot be sealed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Compressed payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.chunk.size_bytes()
    }

    /// Mean compressed cost per point, in bits.
    pub fn bits_per_point(&self) -> f64 {
        self.chunk.bits_per_point()
    }

    /// True when the block's time span intersects `[start, end)`.
    pub fn overlaps(&self, start: i64, end: i64) -> bool {
        self.summary.start < end && self.summary.end >= start
    }

    /// Decompresses the whole block.
    pub fn decode(&self) -> Result<Vec<DataPoint>, TsdbError> {
        self.chunk.decode()
    }

    /// Decompresses only the points with timestamps in `[start, end)`.
    pub fn decode_range(&self, start: i64, end: i64) -> Result<Vec<DataPoint>, TsdbError> {
        let mut out = Vec::new();
        for p in self.chunk.iter() {
            let p = p?;
            if p.timestamp >= end {
                break; // points are time-ordered; nothing later can match
            }
            if p.timestamp >= start {
                out.push(p);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: i64) -> Vec<DataPoint> {
        (0..n).map(|i| DataPoint::new(i * 10, (i as f64) * 0.5)).collect()
    }

    #[test]
    fn seal_empty_errors() {
        assert!(matches!(
            Block::seal(&[]),
            Err(TsdbError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn summary_matches_input() {
        let pts = sample(100);
        let b = Block::seal(&pts).unwrap();
        let s = b.summary();
        assert_eq!(s.start, 0);
        assert_eq!(s.end, 990);
        assert_eq!(s.count, 100);
        assert_eq!(b.len(), 100);
        assert!(!b.is_empty());
    }

    #[test]
    fn decode_round_trips() {
        let pts = sample(257);
        let b = Block::seal(&pts).unwrap();
        assert_eq!(b.decode().unwrap(), pts);
    }

    #[test]
    fn overlaps_is_half_open() {
        let b = Block::seal(&sample(10)).unwrap(); // spans [0, 90]
        assert!(b.overlaps(0, 1));
        assert!(b.overlaps(90, 91));
        assert!(b.overlaps(-5, 5));
        assert!(b.overlaps(50, 60));
        assert!(!b.overlaps(91, 200), "starts after the last point");
        assert!(!b.overlaps(-10, 0), "end bound is exclusive");
    }

    #[test]
    fn decode_range_filters_half_open() {
        let pts = sample(20); // ts 0,10,...,190
        let b = Block::seal(&pts).unwrap();
        let got = b.decode_range(30, 70).unwrap();
        let ts: Vec<_> = got.iter().map(|p| p.timestamp).collect();
        assert_eq!(ts, vec![30, 40, 50, 60]);
        assert!(b.decode_range(200, 300).unwrap().is_empty());
        assert_eq!(b.decode_range(0, i64::MAX).unwrap(), pts);
    }

    #[test]
    fn single_point_block() {
        let b = Block::seal(&[DataPoint::new(7, 3.5)]).unwrap();
        assert_eq!(b.summary().start, 7);
        assert_eq!(b.summary().end, 7);
        assert_eq!(b.decode().unwrap(), vec![DataPoint::new(7, 3.5)]);
    }

    #[test]
    fn compression_is_effective_on_telemetry() {
        let pts = sample(4096);
        let b = Block::seal(&pts).unwrap();
        let raw_bytes = 16 * pts.len();
        assert!(
            b.size_bytes() < raw_bytes / 2,
            "compressed {} vs raw {}",
            b.size_bytes(),
            raw_bytes
        );
    }
}
