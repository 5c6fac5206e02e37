//! Property-based tests for the storage substrate.
//!
//! Invariants checked:
//! * Gorilla compression is bit-lossless for arbitrary ordered `(i64, f64)`
//!   streams (including negative zero and subnormals);
//! * a Gorilla chunk cut at any bit decodes to exactly its clean prefix
//!   and then one "bit stream exhausted mid-record" error, and a chunk
//!   with any one bit flipped decodes to at most `count` items, the only
//!   error last, without a panic — the errors a word-at-a-time bit reader
//!   (ROADMAP direction 1a) must reproduce exactly;
//! * a [`SeriesStore`] scan equals the brute-force filter of the written
//!   points regardless of where block seals fall;
//! * bucketed mean aggregation equals the brute-force per-bucket mean;
//! * fill policies produce complete grids with the declared semantics.

use asap_tsdb::query::{Aggregator, FillPolicy, RangeQuery};
use asap_tsdb::series::SeriesStore;
use asap_tsdb::{CompressedChunk, DataPoint, GorillaEncoder, TsdbError};
use bytes::Bytes;
use proptest::prelude::*;

/// Strategy: a strictly-increasing timestamp sequence with finite values.
fn ordered_points(max_len: usize) -> impl Strategy<Value = Vec<DataPoint>> {
    prop::collection::vec(
        (
            1i64..10_000,                   // positive gap to the previous point
            prop::num::f64::NORMAL | prop::num::f64::SUBNORMAL | prop::num::f64::ZERO,
        ),
        0..max_len,
    )
    .prop_map(|gaps| {
        let mut ts = -5_000i64; // exercise negative timestamps too
        gaps.into_iter()
            .map(|(gap, v)| {
                ts += gap;
                DataPoint::new(ts, v)
            })
            .collect()
    })
}

/// Encodes `points`, returning the chunk and the bit offset at which
/// each point's record ends.
fn encode_with_record_ends(points: &[DataPoint]) -> (CompressedChunk, Vec<usize>) {
    let mut enc = GorillaEncoder::new();
    let ends = points
        .iter()
        .map(|&p| {
            enc.append(p);
            enc.size_bits()
        })
        .collect();
    (enc.finish(), ends)
}

proptest! {
    #[test]
    fn truncated_chunks_decode_the_clean_prefix_then_one_error(points in ordered_points(24)) {
        let (chunk, ends) = encode_with_record_ends(&points);
        for len_bits in 0..=chunk.len_bits {
            let cut = CompressedChunk {
                data: Bytes::from(chunk.data[..len_bits.div_ceil(8)].to_vec()),
                len_bits,
                count: chunk.count,
            };
            let decoded: Vec<_> = cut.iter().collect();
            let clean = ends.iter().take_while(|&&end| end <= len_bits).count();
            prop_assert_eq!(decoded.len(), clean + usize::from(clean < points.len()));
            for (got, want) in decoded.iter().zip(&points).take(clean) {
                let got = got.as_ref().expect("a clean record decodes");
                prop_assert_eq!(got.timestamp, want.timestamp);
                prop_assert_eq!(got.value.to_bits(), want.value.to_bits());
            }
            if clean < points.len() {
                prop_assert_eq!(
                    decoded[clean].clone(),
                    Err(TsdbError::CorruptBlock { reason: "bit stream exhausted mid-record" })
                );
            }
        }
    }

    #[test]
    fn bit_flipped_chunks_yield_at_most_one_trailing_error(points in ordered_points(24)) {
        let (chunk, _) = encode_with_record_ends(&points);
        for bit in 0..chunk.len_bits {
            let mut data = chunk.data.to_vec();
            data[bit / 8] ^= 0x80 >> (bit % 8);
            let flipped = CompressedChunk { data: Bytes::from(data), ..chunk.clone() };
            let decoded: Vec<_> = flipped.iter().collect();
            prop_assert!(decoded.len() <= chunk.count);
            let errors = decoded.iter().filter(|r| r.is_err()).count();
            prop_assert!(errors <= 1, "bit {}: {} errors", bit, errors);
            if errors == 1 {
                let last_is_err = decoded.last().is_some_and(Result::is_err);
                prop_assert!(last_is_err, "bit {}: error not last", bit);
            }
        }
    }

    #[test]
    fn gorilla_round_trips_bit_exactly(points in ordered_points(300)) {
        let mut enc = GorillaEncoder::new();
        for &p in &points {
            enc.append(p);
        }
        let chunk = enc.finish();
        let decoded = chunk.decode().unwrap();
        prop_assert_eq!(decoded.len(), points.len());
        for (a, b) in decoded.iter().zip(&points) {
            prop_assert_eq!(a.timestamp, b.timestamp);
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn store_scan_equals_brute_force(
        points in ordered_points(300),
        block_capacity in 1usize..64,
        window in (0i64..20_000).prop_flat_map(|a| (Just(a - 6_000), a - 6_000..15_000)),
    ) {
        let (start, end) = window;
        let mut store = SeriesStore::new(block_capacity);
        for &p in &points {
            store.append(p).unwrap();
        }
        let got = store.scan(start, end).unwrap();
        let want: Vec<DataPoint> = points
            .iter()
            .copied()
            .filter(|p| p.timestamp >= start && p.timestamp < end)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn store_len_and_eviction_conserve_points(
        points in ordered_points(300),
        block_capacity in 1usize..32,
        cutoff in -6_000i64..20_000,
    ) {
        let mut store = SeriesStore::new(block_capacity);
        for &p in &points {
            store.append(p).unwrap();
        }
        prop_assert_eq!(store.len(), points.len());
        store.seal_active().unwrap();
        let evicted = store.evict_before(cutoff);
        prop_assert_eq!(evicted + store.len(), points.len());
        // Everything surviving is visible, and nothing before any sealed
        // block's end can have been lost within retained blocks.
        let survivors = store.scan(i64::MIN, i64::MAX).unwrap();
        prop_assert_eq!(survivors.len(), store.len());
        // Block-granular retention never evicts a point at/after cutoff.
        for p in &points {
            if p.timestamp >= cutoff {
                prop_assert!(survivors.contains(p));
            }
        }
    }

    #[test]
    fn bucketed_mean_equals_brute_force(
        points in ordered_points(200),
        bucket in 1i64..500,
    ) {
        let start = -5_000i64;
        let end = 15_000i64;
        let q = RangeQuery::bucketed(start, end, bucket);
        let inside: Vec<DataPoint> = points
            .iter()
            .copied()
            .filter(|p| p.timestamp >= start && p.timestamp < end)
            .collect();
        let got = q.shape(&inside).unwrap();
        for dp in &got {
            let lo = dp.timestamp;
            let hi = lo + bucket;
            let bucket_vals: Vec<f64> = inside
                .iter()
                .filter(|p| p.timestamp >= lo && p.timestamp < hi)
                .map(|p| p.value)
                .collect();
            prop_assert!(!bucket_vals.is_empty(), "emitted bucket must be non-empty");
            let mean = bucket_vals.iter().sum::<f64>() / bucket_vals.len() as f64;
            let tol = 1e-9 * mean.abs().max(1.0);
            prop_assert!((dp.value - mean).abs() <= tol);
        }
        // Skip fill: one output bucket per non-empty input bucket.
        let distinct: std::collections::BTreeSet<i64> = inside
            .iter()
            .map(|p| (p.timestamp - start).div_euclid(bucket))
            .collect();
        prop_assert_eq!(got.len(), distinct.len());
    }

    #[test]
    fn total_fill_policies_produce_complete_grids(
        points in ordered_points(200),
        bucket in 1i64..500,
    ) {
        let start = -5_000i64;
        let end = 15_000i64;
        let inside: Vec<DataPoint> = points
            .iter()
            .copied()
            .filter(|p| p.timestamp >= start && p.timestamp < end)
            .collect();
        let n_buckets = ((end - start) as u64).div_ceil(bucket as u64) as usize;
        for fill in [FillPolicy::Previous, FillPolicy::Linear, FillPolicy::Constant(0.0)] {
            let got = RangeQuery::bucketed(start, end, bucket)
                .fill(fill)
                .shape(&inside)
                .unwrap();
            if inside.is_empty() && !matches!(fill, FillPolicy::Constant(_)) {
                prop_assert!(got.is_empty());
            } else {
                prop_assert_eq!(got.len(), n_buckets, "{:?}", fill);
                // Grid timestamps are exactly start + i*bucket.
                for (i, dp) in got.iter().enumerate() {
                    prop_assert_eq!(dp.timestamp, start + i as i64 * bucket);
                    prop_assert!(dp.value.is_finite());
                }
            }
        }
    }

    #[test]
    fn count_aggregation_conserves_points(
        points in ordered_points(200),
        bucket in 1i64..500,
    ) {
        let start = -5_000i64;
        let end = 15_000i64;
        let inside: Vec<DataPoint> = points
            .iter()
            .copied()
            .filter(|p| p.timestamp >= start && p.timestamp < end)
            .collect();
        let got = RangeQuery::bucketed(start, end, bucket)
            .aggregate(Aggregator::Count)
            .shape(&inside)
            .unwrap();
        let total: f64 = got.iter().map(|p| p.value).sum();
        prop_assert_eq!(total as usize, inside.len());
    }
}

proptest! {
    /// Any stream whose disorder is bounded by the buffer's allowed
    /// lateness is fully repaired: every unique point lands, in order.
    #[test]
    fn reorder_buffer_repairs_bounded_disorder(
        jitters in prop::collection::vec(0i64..8, 1..200),
        lateness in 8i64..64,
    ) {
        use asap_tsdb::{ReorderBuffer, SeriesKey, Tsdb};
        // Slot i nominally sits at 10*i; each point arrives displaced
        // backwards by jitter < 8 <= lateness, so nothing is ever dropped.
        let db = Tsdb::new();
        let mut rb = ReorderBuffer::new(db.clone(), 10 * lateness).unwrap();
        let key = SeriesKey::metric("m");
        let mut expect: Vec<i64> = Vec::new();
        // Emit in arrival order: slot i+jitter's point arrives at step i.
        let mut arrivals: Vec<(usize, i64)> = jitters
            .iter()
            .enumerate()
            .map(|(i, &j)| (i, 10 * i as i64 + j))
            .collect();
        // Bounded shuffle: swap adjacent pairs deterministically.
        for w in (0..arrivals.len().saturating_sub(1)).step_by(2) {
            arrivals.swap(w, w + 1);
        }
        for &(_, ts) in &arrivals {
            let _ = rb.offer(&key, asap_tsdb::DataPoint::new(ts, 1.0)).unwrap();
            if !expect.contains(&ts) {
                expect.push(ts);
            }
        }
        rb.flush().unwrap();
        expect.sort_unstable();
        let got: Vec<i64> = db
            .query(&key, asap_tsdb::RangeQuery::raw(i64::MIN + 1, i64::MAX))
            .map(|pts| pts.iter().map(|p| p.timestamp).collect())
            .unwrap_or_default();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(rb.stats().dropped_late, 0);
    }
}
