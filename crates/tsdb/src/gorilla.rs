//! Gorilla-style time-series compression.
//!
//! Implements the streaming compression scheme of Facebook's Gorilla TSDB
//! (Pelkonen et al., VLDB 2015 — reference \[51\] of the ASAP paper):
//! timestamps are stored as **delta-of-delta** with a variable-width tag
//! ladder, values as the **XOR** against the previous value with reuse of
//! the previous meaningful-bit window. Telemetry streams — near-constant
//! sampling intervals, slowly varying values — compress to a few bits per
//! point, which is what lets the ingestion tier hold the raw streams that
//! ASAP later smooths.
//!
//! Deviations from the paper, chosen for losslessness on arbitrary input:
//!
//! * the final delta-of-delta bucket (tag `1111`) stores a full 64-bit
//!   value instead of 32, so any `i64` timestamp sequence round-trips;
//! * blocks are not bounded to a two-hour wall-clock window — the caller
//!   (the memtable) decides when to seal.

use crate::bits::{BitReader, BitWriter};
use crate::error::TsdbError;
use crate::point::DataPoint;

use bytes::Bytes;

/// Sentinel "previous leading zeros" that forces the first XOR record to
/// open a new meaningful-bit window (no previous window can be reused).
const NO_WINDOW: u8 = u8::MAX;

/// Streaming Gorilla encoder for one `(timestamp, value)` sequence.
///
/// Points must be appended in strictly increasing timestamp order; the
/// caller ([`crate::memtable::MemTable`]) enforces that invariant and this
/// type debug-asserts it.
#[derive(Debug)]
pub struct GorillaEncoder {
    bits: BitWriter,
    count: usize,
    first_ts: i64,
    prev_ts: i64,
    prev_delta: i64,
    prev_value: u64,
    prev_leading: u8,
    prev_trailing: u8,
}

impl GorillaEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self {
            bits: BitWriter::with_capacity(256),
            count: 0,
            first_ts: 0,
            prev_ts: 0,
            prev_delta: 0,
            prev_value: 0,
            prev_leading: NO_WINDOW,
            prev_trailing: 0,
        }
    }

    /// Number of points appended so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no points have been appended.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Compressed size so far, in bits.
    pub fn size_bits(&self) -> usize {
        self.bits.len_bits()
    }

    /// Appends one point.
    pub fn append(&mut self, point: DataPoint) {
        debug_assert!(
            self.count == 0 || point.timestamp > self.prev_ts,
            "encoder requires strictly increasing timestamps"
        );
        if self.count == 0 {
            // Header: raw first timestamp and raw first value.
            self.first_ts = point.timestamp;
            self.bits.write_bits(point.timestamp as u64, 64);
            self.bits.write_bits(point.value.to_bits(), 64);
            self.prev_ts = point.timestamp;
            self.prev_delta = 0;
            self.prev_value = point.value.to_bits();
        } else {
            self.append_timestamp(point.timestamp);
            self.append_value(point.value);
        }
        self.count += 1;
    }

    fn append_timestamp(&mut self, ts: i64) {
        let delta = ts - self.prev_ts;
        let dod = delta - self.prev_delta;
        match dod {
            0 => self.bits.write_bit(false),
            -63..=64 => {
                self.bits.write_bits(0b10, 2);
                self.bits.write_bits((dod + 63) as u64, 7);
            }
            -255..=256 => {
                self.bits.write_bits(0b110, 3);
                self.bits.write_bits((dod + 255) as u64, 9);
            }
            -2047..=2048 => {
                self.bits.write_bits(0b1110, 4);
                self.bits.write_bits((dod + 2047) as u64, 12);
            }
            _ => {
                self.bits.write_bits(0b1111, 4);
                self.bits.write_bits(dod as u64, 64);
            }
        }
        self.prev_ts = ts;
        self.prev_delta = delta;
    }

    fn append_value(&mut self, value: f64) {
        let bits = value.to_bits();
        let xor = bits ^ self.prev_value;
        if xor == 0 {
            self.bits.write_bit(false);
        } else {
            self.bits.write_bit(true);
            // Cap leading zeros at 31 so the count fits 5 bits.
            let leading = (xor.leading_zeros() as u8).min(31);
            let trailing = xor.trailing_zeros() as u8;
            if self.prev_leading != NO_WINDOW
                && leading >= self.prev_leading
                && trailing >= self.prev_trailing
            {
                // Reuse the previous window.
                self.bits.write_bit(false);
                let width = 64 - self.prev_leading - self.prev_trailing;
                self.bits
                    .write_bits(xor >> self.prev_trailing, width);
            } else {
                // New window: 5 bits of leading count, 6 bits of length.
                self.bits.write_bit(true);
                let width = 64 - leading - trailing;
                debug_assert!((1..=64).contains(&width));
                self.bits.write_bits(u64::from(leading), 5);
                // Store width-1 so 64 fits in 6 bits.
                self.bits.write_bits(u64::from(width - 1), 6);
                self.bits.write_bits(xor >> trailing, width);
                self.prev_leading = leading;
                self.prev_trailing = trailing;
            }
        }
        self.prev_value = bits;
    }

    /// Seals the stream, returning the compressed payload.
    pub fn finish(self) -> CompressedChunk {
        let count = self.count;
        let (data, len_bits) = self.bits.finish();
        CompressedChunk {
            data,
            len_bits,
            count,
        }
    }
}

impl Default for GorillaEncoder {
    fn default() -> Self {
        Self::new()
    }
}

/// An immutable compressed payload plus the metadata needed to decode it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedChunk {
    /// Packed bit stream.
    pub data: Bytes,
    /// Number of valid bits in `data`.
    pub len_bits: usize,
    /// Number of points encoded.
    pub count: usize,
}

impl CompressedChunk {
    /// Compressed size in bytes (including final-byte padding).
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Mean compressed cost per point in bits, or 0 for an empty chunk.
    pub fn bits_per_point(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.len_bits as f64 / self.count as f64
        }
    }

    /// Returns a decoding iterator over the chunk.
    pub fn iter(&self) -> GorillaDecoder<'_> {
        GorillaDecoder::new(self)
    }

    /// Decodes the whole chunk into a vector, validating every record.
    pub fn decode(&self) -> Result<Vec<DataPoint>, TsdbError> {
        let mut out = Vec::with_capacity(self.count);
        for p in self.iter() {
            out.push(p?);
        }
        Ok(out)
    }
}

/// Streaming decoder over a [`CompressedChunk`].
#[derive(Debug)]
pub struct GorillaDecoder<'a> {
    bits: BitReader<'a>,
    remaining: usize,
    started: bool,
    prev_ts: i64,
    prev_delta: i64,
    prev_value: u64,
    prev_leading: u8,
    prev_trailing: u8,
    poisoned: bool,
}

impl<'a> GorillaDecoder<'a> {
    fn new(chunk: &'a CompressedChunk) -> Self {
        Self {
            bits: BitReader::new(&chunk.data, chunk.len_bits),
            remaining: chunk.count,
            started: false,
            prev_ts: 0,
            prev_delta: 0,
            prev_value: 0,
            prev_leading: 0,
            prev_trailing: 0,
            poisoned: false,
        }
    }

    fn next_point(&mut self) -> Result<DataPoint, TsdbError> {
        if !self.started {
            self.started = true;
            let ts = self.bits.read_bits(64)? as i64;
            let value = f64::from_bits(self.bits.read_bits(64)?);
            self.prev_ts = ts;
            self.prev_delta = 0;
            self.prev_value = value.to_bits();
            return Ok(DataPoint::new(ts, value));
        }
        let ts = self.next_timestamp()?;
        let value = self.next_value()?;
        Ok(DataPoint::new(ts, value))
    }

    fn next_timestamp(&mut self) -> Result<i64, TsdbError> {
        let dod = if !self.bits.read_bit()? {
            0
        } else if !self.bits.read_bit()? {
            self.bits.read_bits(7)? as i64 - 63
        } else if !self.bits.read_bit()? {
            self.bits.read_bits(9)? as i64 - 255
        } else if !self.bits.read_bit()? {
            self.bits.read_bits(12)? as i64 - 2047
        } else {
            self.bits.read_bits(64)? as i64
        };
        // Wrapping, as in a release build: a corrupt delta must decode to
        // a wrong timestamp (which the caller's checks reject), never
        // panic a debug build.
        self.prev_delta = self.prev_delta.wrapping_add(dod);
        self.prev_ts = self.prev_ts.wrapping_add(self.prev_delta);
        Ok(self.prev_ts)
    }

    fn next_value(&mut self) -> Result<f64, TsdbError> {
        if self.bits.read_bit()? {
            if self.bits.read_bit()? {
                // New meaningful-bit window.
                let leading = self.bits.read_bits(5)? as u8;
                let width = self.bits.read_bits(6)? as u8 + 1;
                if u32::from(leading) + u32::from(width) > 64 {
                    return Err(TsdbError::CorruptBlock {
                        reason: "XOR window exceeds 64 bits",
                    });
                }
                self.prev_leading = leading;
                self.prev_trailing = 64 - leading - width;
                let xor = self.bits.read_bits(width)? << self.prev_trailing;
                self.prev_value ^= xor;
            } else {
                // Reused window.
                let width = 64 - self.prev_leading - self.prev_trailing;
                let xor = self.bits.read_bits(width)? << self.prev_trailing;
                self.prev_value ^= xor;
            }
        }
        Ok(f64::from_bits(self.prev_value))
    }
}

impl Iterator for GorillaDecoder<'_> {
    type Item = Result<DataPoint, TsdbError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 || self.poisoned {
            return None;
        }
        self.remaining -= 1;
        let r = self.next_point();
        if r.is_err() {
            // Stop after the first corruption; later records are garbage.
            self.poisoned = true;
        }
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.poisoned {
            (0, Some(0))
        } else {
            (self.remaining, Some(self.remaining))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(points: &[DataPoint]) {
        let mut enc = GorillaEncoder::new();
        for &p in points {
            enc.append(p);
        }
        let chunk = enc.finish();
        assert_eq!(chunk.count, points.len());
        let decoded = chunk.decode().expect("decode");
        assert_eq!(decoded.len(), points.len());
        for (a, b) in decoded.iter().zip(points) {
            assert_eq!(a.timestamp, b.timestamp);
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "bit-exact values");
        }
    }

    #[test]
    fn empty_chunk_decodes_to_nothing() {
        let chunk = GorillaEncoder::new().finish();
        assert_eq!(chunk.count, 0);
        assert!(chunk.decode().unwrap().is_empty());
        assert_eq!(chunk.bits_per_point(), 0.0);
    }

    #[test]
    fn single_point_round_trips() {
        round_trip(&[DataPoint::new(1_600_000_000, 42.5)]);
    }

    #[test]
    fn regular_interval_constant_value_is_tiny() {
        // The ideal telemetry stream: fixed 10s cadence, constant value.
        // After the header each point costs 2 bits (dod=0, xor=0).
        let points: Vec<_> = (0..1000)
            .map(|i| DataPoint::new(1_600_000_000 + i * 10, 73.0))
            .collect();
        let mut enc = GorillaEncoder::new();
        for &p in &points {
            enc.append(p);
        }
        let chunk = enc.finish();
        // Header 128 bits + first delta record + ~2 bits for the rest.
        assert!(
            chunk.bits_per_point() < 3.0,
            "expected ~2 bits/point, got {}",
            chunk.bits_per_point()
        );
        round_trip(&points);
    }

    #[test]
    fn irregular_timestamps_round_trip() {
        let ts = [0i64, 1, 3, 100, 101, 4_000, 4_001, 1_000_000, 1_000_060];
        let points: Vec<_> = ts
            .iter()
            .enumerate()
            .map(|(i, &t)| DataPoint::new(t, i as f64 * 0.1))
            .collect();
        round_trip(&points);
    }

    #[test]
    fn extreme_timestamp_jumps_round_trip() {
        let points = [
            DataPoint::new(i64::MIN / 2, 1.0),
            DataPoint::new(0, 2.0),
            DataPoint::new(i64::MAX / 2, 3.0),
        ];
        round_trip(&points);
    }

    #[test]
    fn negative_timestamps_round_trip() {
        let points: Vec<_> = (-50..50).map(|i| DataPoint::new(i * 7, i as f64)).collect();
        round_trip(&points);
    }

    #[test]
    fn special_float_values_round_trip() {
        // NaN is rejected at the DB boundary, but the codec itself must be
        // bit-lossless for every f64 including negative zero and subnormals.
        let values = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0, // subnormal
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
            std::f64::consts::PI,
        ];
        let points: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| DataPoint::new(i as i64, v))
            .collect();
        round_trip(&points);
    }

    #[test]
    fn window_reuse_and_reset_paths_both_exercised() {
        // Slowly varying values reuse the XOR window; a sudden magnitude
        // change forces a new window record.
        let mut points = Vec::new();
        for i in 0..100 {
            points.push(DataPoint::new(i, 1000.0 + (i as f64) * 0.001));
        }
        points.push(DataPoint::new(100, 1.0e-300)); // new window
        for i in 101..200 {
            points.push(DataPoint::new(i, 1000.0 + (i as f64) * 0.001));
        }
        round_trip(&points);
    }

    #[test]
    fn truncated_payload_reports_corruption_not_panic() {
        let points: Vec<_> = (0..100)
            .map(|i| DataPoint::new(i * 5, (i as f64).sin()))
            .collect();
        let mut enc = GorillaEncoder::new();
        for &p in &points {
            enc.append(p);
        }
        let chunk = enc.finish();
        // Chop the payload but keep the declared count.
        let truncated = CompressedChunk {
            data: chunk.data.slice(0..chunk.data.len() / 2),
            len_bits: chunk.len_bits / 2,
            count: chunk.count,
        };
        let result = truncated.decode();
        assert!(matches!(result, Err(TsdbError::CorruptBlock { .. })));
        // The iterator stops after the first error rather than spinning.
        let errors: Vec<_> = truncated.iter().filter(|r| r.is_err()).collect();
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn compression_beats_raw_on_realistic_telemetry() {
        // A noisy-but-smooth CPU-style metric at fixed cadence: Gorilla
        // should do substantially better than 128 bits/point raw.
        let points: Vec<_> = (0..10_000)
            .map(|i| {
                let v = 50.0 + 10.0 * ((i as f64) / 300.0).sin();
                DataPoint::new(1_600_000_000 + i * 15, (v * 100.0).round() / 100.0)
            })
            .collect();
        let mut enc = GorillaEncoder::new();
        for &p in &points {
            enc.append(p);
        }
        let chunk = enc.finish();
        assert!(
            chunk.bits_per_point() < 64.0,
            "expected < 64 bits/point, got {:.1}",
            chunk.bits_per_point()
        );
        round_trip(&points);
    }

    #[test]
    fn size_hint_is_exact() {
        let points: Vec<_> = (0..10).map(|i| DataPoint::new(i, 0.5)).collect();
        let mut enc = GorillaEncoder::new();
        for &p in &points {
            enc.append(p);
        }
        let chunk = enc.finish();
        let it = chunk.iter();
        assert_eq!(it.size_hint(), (10, Some(10)));
        assert_eq!(it.count(), 10);
    }
}
