//! Per-series storage: a run of sealed blocks plus the mutable memtable.

use crate::block::Block;
use crate::error::TsdbError;
use crate::memtable::MemTable;
use crate::point::DataPoint;

/// Storage for one series: time-ordered sealed [`Block`]s plus the
/// [`MemTable`] holding the newest points.
///
/// Writes append to the memtable; when it fills, it is sealed into a block.
/// Reads merge the overlapping blocks (skipped via summary metadata when
/// disjoint from the query range) with the memtable tail.
#[derive(Debug)]
pub struct SeriesStore {
    blocks: Vec<Block>,
    memtable: MemTable,
}

impl SeriesStore {
    /// Creates an empty store sealing blocks of `block_capacity` points.
    pub fn new(block_capacity: usize) -> Self {
        Self {
            blocks: Vec::new(),
            memtable: MemTable::new(block_capacity),
        }
    }

    /// Total number of stored points (sealed + buffered).
    pub fn len(&self) -> usize {
        self.blocks.iter().map(Block::len).sum::<usize>() + self.memtable.len()
    }

    /// True when the store holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sealed blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Sealed blocks, oldest first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Compressed bytes across all sealed blocks (excludes the memtable).
    pub fn compressed_bytes(&self) -> usize {
        self.blocks.iter().map(Block::size_bytes).sum()
    }

    /// Timestamp of the newest stored point, if any.
    pub fn last_timestamp(&self) -> Option<i64> {
        self.memtable
            .last_timestamp()
            .or_else(|| self.blocks.last().map(|b| b.summary().end))
    }

    /// Timestamp of the oldest stored point, if any.
    pub fn first_timestamp(&self) -> Option<i64> {
        self.blocks
            .first()
            .map(|b| b.summary().start)
            .or_else(|| self.memtable.points().first().map(|p| p.timestamp))
    }

    /// Appends one point, sealing the memtable into a block when full.
    pub fn append(&mut self, point: DataPoint) -> Result<(), TsdbError> {
        // The memtable checks ordering against its own tail; when it is
        // empty (e.g. right after a seal) check against the sealed blocks.
        if self.memtable.is_empty() {
            if let Some(end) = self.blocks.last().map(|b| b.summary().end) {
                if point.timestamp <= end {
                    return Err(TsdbError::OutOfOrder {
                        last: end,
                        got: point.timestamp,
                    });
                }
            }
        }
        self.memtable.append(point)?;
        if self.memtable.is_full() {
            self.seal_active()?;
        }
        Ok(())
    }

    /// Seals the memtable into a block immediately (no-op when empty).
    pub fn seal_active(&mut self) -> Result<(), TsdbError> {
        if let Some(block) = self.memtable.seal() {
            self.blocks.push(block?);
        }
        Ok(())
    }

    /// All points with timestamps in `[start, end)`, oldest first.
    ///
    /// Each overlapping block is decoded straight into the output, and
    /// its decode stops at the first point at or past `end`.
    pub fn scan(&self, start: i64, end: i64) -> Result<Vec<DataPoint>, TsdbError> {
        if start >= end {
            return Ok(Vec::new());
        }
        let overlapping = || self.blocks.iter().filter(move |b| b.overlaps(start, end));
        let tail = self.memtable.range(start, end);
        let mut out = Vec::with_capacity(overlapping().map(Block::len).sum::<usize>() + tail.len());
        for block in overlapping() {
            for p in block.chunk().iter() {
                let p = p?;
                if p.timestamp >= end {
                    break;
                }
                if p.timestamp >= start {
                    out.push(p);
                }
            }
        }
        out.extend_from_slice(tail);
        Ok(out)
    }

    /// Appends pre-sealed blocks (snapshot restore). Blocks must be
    /// internally ordered, mutually ordered, and strictly after all
    /// existing data.
    pub fn import_blocks(&mut self, blocks: Vec<Block>) -> Result<(), TsdbError> {
        self.seal_active()?;
        let mut last = self.last_timestamp();
        for block in &blocks {
            if let Some(l) = last {
                if block.summary().start <= l {
                    return Err(TsdbError::OutOfOrder {
                        last: l,
                        got: block.summary().start,
                    });
                }
            }
            last = Some(block.summary().end);
        }
        self.blocks.extend(blocks);
        Ok(())
    }

    /// Drops whole sealed blocks whose newest point is older than `cutoff`.
    ///
    /// Retention works at block granularity (as in production TSDBs): a
    /// block is evicted only when *all* its points have expired, so a scan
    /// never loses in-retention data. Returns the number of evicted points.
    pub fn evict_before(&mut self, cutoff: i64) -> usize {
        let mut evicted = 0;
        self.blocks.retain(|b| {
            if b.summary().end < cutoff {
                evicted += b.len();
                false
            } else {
                true
            }
        });
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: i64, block_capacity: usize) -> SeriesStore {
        let mut s = SeriesStore::new(block_capacity);
        for i in 0..n {
            s.append(DataPoint::new(i * 10, i as f64)).unwrap();
        }
        s
    }

    #[test]
    fn append_seals_at_capacity() {
        let s = filled(25, 10);
        assert_eq!(s.block_count(), 2, "two full blocks sealed");
        assert_eq!(s.len(), 25);
        assert_eq!(s.first_timestamp(), Some(0));
        assert_eq!(s.last_timestamp(), Some(240));
    }

    #[test]
    fn ordering_enforced_across_seal_boundary() {
        let mut s = filled(10, 10); // exactly one sealed block, memtable empty
        assert_eq!(s.block_count(), 1);
        assert!(matches!(
            s.append(DataPoint::new(90, 1.0)),
            Err(TsdbError::OutOfOrder { last: 90, got: 90 })
        ));
        s.append(DataPoint::new(91, 1.0)).unwrap();
    }

    #[test]
    fn scan_merges_blocks_and_memtable() {
        let s = filled(25, 10); // blocks [0..90],[100..190], memtable [200..240]
        let all = s.scan(i64::MIN, i64::MAX).unwrap();
        assert_eq!(all.len(), 25);
        let ts: Vec<_> = all.iter().map(|p| p.timestamp).collect();
        let expected: Vec<_> = (0..25).map(|i| i * 10).collect();
        assert_eq!(ts, expected, "time-ordered across block/memtable boundary");

        let mid = s.scan(85, 215).unwrap();
        let ts: Vec<_> = mid.iter().map(|p| p.timestamp).collect();
        assert_eq!(ts, vec![90, 100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200, 210]);
    }

    #[test]
    fn scan_filters_blocks_half_open() {
        let s = filled(20, 20); // one sealed block: ts 0, 10, ..., 190
        assert_eq!(s.block_count(), 1);
        let ts = |start, end| -> Vec<i64> {
            s.scan(start, end).unwrap().iter().map(|p| p.timestamp).collect()
        };
        assert_eq!(ts(30, 70), vec![30, 40, 50, 60]);
        assert!(ts(200, 300).is_empty());
        assert_eq!(s.scan(0, i64::MAX).unwrap(), s.blocks()[0].decode().unwrap());
    }

    #[test]
    fn scan_empty_and_inverted_ranges() {
        let s = filled(25, 10);
        assert!(s.scan(500, 600).unwrap().is_empty());
        assert!(s.scan(100, 100).unwrap().is_empty());
        assert!(s.scan(200, 100).unwrap().is_empty());
    }

    #[test]
    fn seal_active_flushes_partial_memtable() {
        let mut s = filled(25, 10);
        assert_eq!(s.block_count(), 2);
        s.seal_active().unwrap();
        assert_eq!(s.block_count(), 3);
        assert_eq!(s.len(), 25, "seal moves points, never drops them");
        s.seal_active().unwrap();
        assert_eq!(s.block_count(), 3, "empty memtable seal is a no-op");
    }

    #[test]
    fn evict_before_is_block_granular() {
        let mut s = filled(30, 10); // blocks end at 90, 190, 290 (sealed at 30 pts)
        s.seal_active().unwrap();
        assert_eq!(s.block_count(), 3);
        // Cutoff inside the second block: only the first block qualifies.
        let evicted = s.evict_before(150);
        assert_eq!(evicted, 10);
        assert_eq!(s.block_count(), 2);
        let remaining = s.scan(i64::MIN, i64::MAX).unwrap();
        assert_eq!(remaining.first().unwrap().timestamp, 100);
        // Cutoff beyond everything evicts all blocks.
        let evicted = s.evict_before(i64::MAX);
        assert_eq!(evicted, 20);
        assert!(s.is_empty());
    }

    #[test]
    fn compression_accounting_exposed() {
        let s = filled(1000, 256);
        assert!(s.block_count() >= 3);
        assert!(s.compressed_bytes() > 0);
        assert!(
            s.compressed_bytes() < 16 * 1000,
            "sealed blocks beat raw encoding"
        );
    }
}
