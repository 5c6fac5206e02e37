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

/// The refusal of a block with no points.
const EMPTY_BLOCK: TsdbError = TsdbError::InvalidParameter {
    name: "points",
    message: "cannot seal an empty block",
};

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
        let (Some(first), Some(last)) = (points.first(), points.last()) else {
            return Err(EMPTY_BLOCK);
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

    /// Rebuilds a block from its compressed payload, building the summary
    /// and validating the payload in one decode pass.
    ///
    /// # Errors
    ///
    /// Returns [`TsdbError::CorruptBlock`] when the payload does not
    /// decode, or decodes to timestamps that are not strictly increasing
    /// or to a non-finite value — the invariants [`Block::seal`] holds
    /// its input to — and [`TsdbError::InvalidParameter`] when it holds
    /// no points.
    pub fn from_chunk(chunk: CompressedChunk) -> Result<Self, TsdbError> {
        let mut span: Option<(i64, i64)> = None;
        for p in chunk.iter() {
            let p = p?;
            if !p.value.is_finite() {
                return Err(TsdbError::CorruptBlock {
                    reason: "non-finite value",
                });
            }
            span = match span {
                Some((_, last)) if p.timestamp <= last => {
                    return Err(TsdbError::CorruptBlock {
                        reason: "timestamps not strictly increasing",
                    })
                }
                Some((first, _)) => Some((first, p.timestamp)),
                None => Some((p.timestamp, p.timestamp)),
            };
        }
        let (start, end) = span.ok_or(EMPTY_BLOCK)?;
        Ok(Self {
            summary: BlockSummary {
                start,
                end,
                count: chunk.count,
            },
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitWriter;

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
    fn from_chunk_keeps_payload_and_summary() {
        let b = Block::seal(&sample(100)).unwrap();
        let loaded = Block::from_chunk(b.chunk().clone()).unwrap();
        assert_eq!(loaded.summary(), b.summary());
        assert_eq!(loaded.chunk(), b.chunk());
        assert!(matches!(
            Block::from_chunk(GorillaEncoder::new().finish()),
            Err(TsdbError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn from_chunk_refuses_non_finite_values() {
        let mut enc = GorillaEncoder::new();
        enc.append(DataPoint::new(0, 1.0));
        enc.append(DataPoint::new(10, f64::NAN));
        assert!(matches!(
            Block::from_chunk(enc.finish()),
            Err(TsdbError::CorruptBlock { .. })
        ));
    }

    #[test]
    fn from_chunk_refuses_backwards_timestamps() {
        // Header (ts 100, value 1.0), then one record whose delta-of-delta
        // takes the 64-bit bucket (`1111`) and steps back to ts 50, with
        // an unchanged value (`0`). The encoder never writes this.
        let mut bits = BitWriter::new();
        bits.write_bits(100, 64);
        bits.write_bits(1.0f64.to_bits(), 64);
        bits.write_bits(0b1111, 4);
        bits.write_bits(-50i64 as u64, 64);
        bits.write_bit(false);
        let (data, len_bits) = bits.finish();
        let chunk = CompressedChunk {
            data,
            len_bits,
            count: 2,
        };
        let points = chunk.decode().unwrap();
        assert_eq!(points[1], DataPoint::new(50, 1.0), "the payload decodes");
        assert!(matches!(
            Block::from_chunk(chunk),
            Err(TsdbError::CorruptBlock { .. })
        ));
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
