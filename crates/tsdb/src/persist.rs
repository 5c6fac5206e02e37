//! Snapshot persistence: serialize an engine to a single file and back.
//!
//! The engine is in-memory (like the hot tier of Gorilla, which keeps 26
//! hours in RAM); snapshots are whole-store copies: flush every series'
//! memtable and write all sealed blocks to disk in a compact binary
//! format. Blocks are stored as their Gorilla-compressed payloads, so a
//! snapshot is roughly the engine's compressed in-memory footprint. A
//! single v2 file is the *export* format (`SNAPSHOT <name>`,
//! [`ShardedDb::save`]) and the base link of a checkpoint chain; the
//! state a server boots from is always a chain directory (below).
//!
//! ## Format version 2 (little-endian)
//!
//! ```text
//! magic "ASAPTSDB" | u32 2 | u32 series_count
//! directory, series sorted by key:
//!   u32 key_len | key bytes (display form: metric{k=v,...})
//!   u32 block_count
//!   u64 payload_offset (from file start) | u64 payload_len
//! payloads, same order; per block:
//!   u64 count | u64 len_bits | u32 byte_len | payload bytes
//! ```
//!
//! Produced by [`save_sharded`]: one worker per shard exports its
//! series concurrently, and the per-shard results are merged into key
//! order before anything touches the file — so the bytes are
//! **independent of the writer's shard count** (a 1-shard and an 8-shard
//! store holding the same points produce identical files). The
//! directory's offsets let the one v2 reader hand each shard worker its
//! own file handle and decode payloads in parallel — every payload is
//! validated before anything is imported; series re-route by hash, so a
//! file loads into any shard count. Any other version number (including
//! the retired sequential version 1) is refused as an unsupported
//! snapshot version.
//!
//! ## Format version 3 — incremental checkpoint chains
//!
//! Version 3 is not a single file but a **directory**: a base v2
//! snapshot plus per-series delta links indexed by a CRC-guarded
//! manifest, written by [`crate::chain::CheckpointChain`] so that online
//! checkpoint cost scales with write activity instead of total data.
//! [`load_sharded`] (and therefore [`recover_sharded`]) folds a chain
//! directory transparently; see the [`crate::chain`] module docs for the
//! layout and crash-safety argument.
//!
//! The display form of [`SeriesKey`] is unambiguous as long as metric and
//! tag tokens exclude the structural characters `{`, `}`, `,`, `=`;
//! saving rejects keys that violate this (line-protocol ingestion can
//! never produce them).
//!
//! ## Consistency under concurrent writers
//!
//! Saving never holds more than one series lock at a time, and each only
//! briefly: the initial flush seals memtables series-by-series, and each
//! series' blocks are then cloned under that series' read lock alone. The
//! snapshot therefore captures a **per-series consistency point** — every
//! series is internally consistent as of the moment its blocks were
//! exported — but not a single cross-series cut: a writer racing the save
//! may land a sealed block in series B after A was exported and before B
//! is. Concretely:
//!
//! * each saved series is a prefix (in time) of that series' final
//!   contents — never torn mid-block;
//! * points accepted after a series' flush stay in its memtable and are
//!   excluded, unless they fill a block first;
//! * series created after the key listing are excluded entirely;
//! * writers are never blocked for the duration of the save and the save
//!   never deadlocks (`tests/ops_properties.rs` races writers against
//!   repeated saves to pin this down).
//!
//! Callers needing a true cross-series cut must quiesce writers first.
//!
//! Writers stage into a sibling `*.tmp` file, fsync it, rename it over
//! `path` and fsync the directory, so a save that fails partway (full
//! disk, crash, unsnapshotable key) never clobbers an existing good
//! snapshot, and a save that returned is on disk before any WAL
//! generation it covers is discarded.

use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use bytes::Bytes;

use crate::block::Block;
use crate::error::TsdbError;
use crate::gorilla::CompressedChunk;
use crate::sharded::{ShardedConfig, ShardedDb};
use crate::tags::{Selector, SeriesKey};
use crate::wal::WalReplayReport;

pub(crate) const MAGIC: &[u8; 8] = b"ASAPTSDB";
pub(crate) const VERSION_V2: u32 = 2;

/// Error of snapshot I/O: either the storage engine or the filesystem.
#[derive(Debug)]
pub enum SnapshotError {
    /// Engine-side failure (corrupt payload, bad key).
    Tsdb(TsdbError),
    /// Filesystem failure.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Tsdb(e) => write!(f, "snapshot: {e}"),
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Tsdb(e) => Some(e),
            SnapshotError::Io(e) => Some(e),
        }
    }
}

impl From<TsdbError> for SnapshotError {
    fn from(e: TsdbError) -> Self {
        SnapshotError::Tsdb(e)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

pub(crate) fn corrupt(reason: &'static str) -> SnapshotError {
    SnapshotError::Tsdb(TsdbError::CorruptBlock { reason })
}

/// Writes a snapshot through `write` into a sibling temp file, fsyncs
/// it, renames it over `path`, then fsyncs the directory — so a save
/// that fails partway (full disk, crash, unsnapshotable key discovered
/// mid-write) never destroys a previous good snapshot at `path`, and a
/// save that returned `Ok` is durable: callers discard the WAL
/// generations a file covers only after this returns.
pub(crate) fn replace_file(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<std::fs::File>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let mut tmp_name = path
        .file_name()
        .map(std::ffi::OsString::from)
        .unwrap_or_else(|| std::ffi::OsString::from("snapshot"));
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut w = BufWriter::new(file);
        write(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()?;
        Ok(())
    })();
    match result {
        Ok(()) => {
            std::fs::rename(&tmp, path)?;
            // The rename is only durable once the directory entry is.
            #[cfg(unix)]
            {
                let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
                std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
            }
            Ok(())
        }
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// Rejects keys whose display form would not parse back.
pub(crate) fn validate_key(key: &SeriesKey) -> Result<(), SnapshotError> {
    let structural = |t: &str| t.contains(['{', '}', ',', '=']);
    if structural(key.metric_name())
        || key.tags().iter().any(|(k, v)| structural(k) || structural(v))
    {
        return Err(SnapshotError::Tsdb(TsdbError::InvalidParameter {
            name: "key",
            message: "series keys containing '{', '}', ',' or '=' are not snapshotable",
        }));
    }
    Ok(())
}

/// Bytes [`write_blocks`] emits for `blocks`.
pub(crate) fn encoded_len(blocks: &[Block]) -> u64 {
    blocks.iter().map(|b| 8 + 8 + 4 + b.chunk().data.len() as u64).sum()
}

/// Writes one series' block records (the payload form v2 files and
/// chain links share).
pub(crate) fn write_blocks(blocks: &[Block], w: &mut impl Write) -> std::io::Result<()> {
    for block in blocks {
        let chunk = block.chunk();
        w.write_all(&(chunk.count as u64).to_le_bytes())?;
        w.write_all(&(chunk.len_bits as u64).to_le_bytes())?;
        w.write_all(&(chunk.data.len() as u32).to_le_bytes())?;
        w.write_all(&chunk.data)?;
    }
    Ok(())
}

/// Reads `block_count` block records (see [`write_blocks`]).
pub(crate) fn read_blocks(r: &mut impl Read, block_count: u32) -> Result<Vec<Block>, SnapshotError> {
    // `block_count` is untrusted input: cap the pre-allocation so a
    // corrupt field yields a clean error once the payload runs out,
    // never an allocator abort.
    let mut blocks = Vec::with_capacity(block_count.min(1 << 16) as usize);
    for _ in 0..block_count {
        let count = read_u64(r)? as usize;
        let len_bits = read_u64(r)? as usize;
        let byte_len = read_u32(r)? as usize;
        if byte_len > 1 << 30 {
            return Err(corrupt("implausible block payload length"));
        }
        if len_bits > byte_len * 8 {
            return Err(corrupt("bit length exceeds payload"));
        }
        let mut payload = vec![0u8; byte_len];
        r.read_exact(&mut payload)?;
        let chunk = CompressedChunk {
            data: Bytes::from(payload),
            len_bits,
            count,
        };
        blocks.push(Block::from_chunk(chunk)?);
    }
    Ok(blocks)
}

/// One exported series: its key and sealed blocks.
pub(crate) type ExportedSeries = (SeriesKey, Vec<Block>);

/// Exports every series' sealed blocks, one worker per non-empty shard,
/// merged into key order — the one exporter behind [`save_sharded`] and
/// the chain writer ([`crate::chain`]). Call after `db.flush()` so
/// memtable contents are included; see the module docs for the
/// consistency point under concurrent writers.
pub(crate) fn export_all(db: &ShardedDb) -> Result<Vec<ExportedSeries>, SnapshotError> {
    let mut all: Vec<ExportedSeries> = Vec::new();
    std::thread::scope(|scope| -> Result<(), SnapshotError> {
        let mut handles = Vec::new();
        for shard in db.shards() {
            if shard.series_count() == 0 {
                continue;
            }
            handles.push(scope.spawn(move || -> Result<Vec<ExportedSeries>, SnapshotError> {
                let mut out = Vec::new();
                for key in shard.list_series(&Selector::any()) {
                    validate_key(&key)?;
                    let blocks = shard.export_blocks(&key)?;
                    out.push((key, blocks));
                }
                Ok(out)
            }));
        }
        for handle in handles {
            all.extend(handle.join().expect("snapshot worker panicked")?);
        }
        Ok(())
    })?;
    all.sort_by(|(a, _), (b, _)| a.cmp(b));
    Ok(all)
}

/// Writes the v2 header + directory + payloads for key-sorted `entries`.
/// Shared between [`save_sharded`] and the chain writer's base links
/// ([`crate::chain`]), which are byte-for-byte plain v2 snapshots.
pub(crate) fn write_v2(entries: &[ExportedSeries], w: &mut impl Write) -> Result<(), SnapshotError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION_V2.to_le_bytes())?;
    w.write_all(&(entries.len() as u32).to_le_bytes())?;

    let names: Vec<String> = entries.iter().map(|(k, _)| k.to_string()).collect();
    let dir_len: usize = names.iter().map(|n| 4 + n.len() + 4 + 8 + 8).sum();
    let mut offset = (MAGIC.len() + 4 + 4 + dir_len) as u64;
    for ((_, blocks), name) in entries.iter().zip(&names) {
        let len = encoded_len(blocks);
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name.as_bytes())?;
        w.write_all(&(blocks.len() as u32).to_le_bytes())?;
        w.write_all(&offset.to_le_bytes())?;
        w.write_all(&len.to_le_bytes())?;
        offset += len;
    }
    for (_, blocks) in entries {
        write_blocks(blocks, w)?;
    }
    Ok(())
}

/// Writes a version-2 snapshot of `db` to `path`, exporting shards in
/// parallel (one worker per non-empty shard) and merging the per-shard
/// results into key order — so the file bytes are independent of the
/// shard count.
///
/// The store is flushed first (memtables sealed into blocks) so the
/// snapshot captures every point accepted before the call; see the
/// module docs for the exact consistency point under concurrent writers.
pub fn save_sharded(db: &ShardedDb, path: &Path) -> Result<(), SnapshotError> {
    db.flush()?;
    let entries = export_all(db)?;
    replace_file(path, |w| write_v2(&entries, w))
}

/// Loads a snapshot from `path` into a fresh [`ShardedDb`] with
/// `config`. Series re-route to `config.shards` partitions regardless of
/// the writer's shard count; payloads are decoded in parallel and
/// imported only once the whole file validated (`read_v2`).
///
/// When `path` is a **directory** it is treated as an incremental
/// checkpoint chain (snapshot v3) and folded transparently via
/// [`crate::chain::load_chain`]: base v2 snapshot, then every delta link
/// the chain manifest lists, degrading to the newest loadable prefix on
/// damage.
pub fn load_sharded(path: &Path, config: ShardedConfig) -> Result<ShardedDb, SnapshotError> {
    if path.is_dir() {
        return crate::chain::load_chain(path, config);
    }
    let db = ShardedDb::with_config(config);
    for (key, blocks) in read_v2(path, &db)? {
        db.import_blocks(&key, blocks)?;
    }
    Ok(db)
}

/// Recovers a store from a snapshot plus its WAL tail.
///
/// Loads `snapshot` if it names an existing file — or an incremental
/// checkpoint-chain directory (a missing snapshot just means "start
/// empty", e.g. the first boot) — then replays every WAL file in
/// `wal_dir`, skipping records the snapshot already covers. Either
/// source may be absent; together they are the complete recovery set a
/// [`crate::chain::CheckpointChain`] checkpoint (or a crash at any
/// point between its steps) leaves behind.
pub fn recover_sharded(
    snapshot: Option<&Path>,
    wal_dir: Option<&Path>,
    config: ShardedConfig,
) -> Result<(ShardedDb, WalReplayReport), SnapshotError> {
    let db = match snapshot {
        Some(path) if path.exists() => load_sharded(path, config)?,
        _ => ShardedDb::with_config(config),
    };
    let report = match wal_dir {
        Some(dir) => crate::wal::replay(dir, &db)?,
        None => WalReplayReport::default(),
    };
    Ok((db, report))
}

/// Checks the magic and returns the format version.
pub(crate) fn read_header(r: &mut impl Read) -> Result<u32, SnapshotError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    read_u32(r)
}

/// One v2 directory entry.
struct DirEntry {
    key: SeriesKey,
    block_count: u32,
    offset: u64,
    len: u64,
}

/// Reads the v2 series directory (assumes the header was consumed).
fn read_directory(r: &mut impl Read) -> Result<Vec<DirEntry>, SnapshotError> {
    let series_count = read_u32(r)?;
    let mut out = Vec::with_capacity(series_count.min(1 << 20) as usize);
    for _ in 0..series_count {
        let key = read_key(r)?;
        let block_count = read_u32(r)?;
        let offset = read_u64(r)?;
        let len = read_u64(r)?;
        if len > 1 << 40 {
            return Err(corrupt("implausible series payload length"));
        }
        out.push(DirEntry {
            key,
            block_count,
            offset,
            len,
        });
    }
    Ok(out)
}

/// Decodes a v2 file **fully** — header, directory, every payload —
/// without importing anything, so a damaged file never half-applies.
/// This is the one v2 reader: [`load_sharded`] on a file and the chain's
/// base link ([`crate::chain`]) both go through it. Payloads decode in
/// parallel, one worker per shard of `db` (the store the caller will
/// import into) that owns any series, each with its own file handle.
pub(crate) fn read_v2(path: &Path, db: &ShardedDb) -> Result<Vec<ExportedSeries>, SnapshotError> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    if read_header(&mut r)? != VERSION_V2 {
        return Err(corrupt("unsupported snapshot version"));
    }
    let mut by_shard: Vec<Vec<DirEntry>> = (0..db.shard_count()).map(|_| Vec::new()).collect();
    for entry in read_directory(&mut r)? {
        by_shard[db.shard_of(&entry.key)].push(entry);
    }
    drop(r);
    let mut all = Vec::new();
    std::thread::scope(|scope| -> Result<(), SnapshotError> {
        let mut handles = Vec::new();
        for entries in by_shard.into_iter().filter(|e| !e.is_empty()) {
            handles.push(scope.spawn(move || -> Result<Vec<ExportedSeries>, SnapshotError> {
                let mut r = BufReader::new(std::fs::File::open(path)?);
                let mut out = Vec::with_capacity(entries.len());
                for entry in entries {
                    r.seek(SeekFrom::Start(entry.offset))?;
                    let mut bounded = (&mut r).take(entry.len);
                    let blocks = read_blocks(&mut bounded, entry.block_count)?;
                    if bounded.limit() != 0 {
                        return Err(corrupt("series payload shorter than directory claims"));
                    }
                    out.push((entry.key, blocks));
                }
                Ok(out)
            }));
        }
        for handle in handles {
            all.extend(handle.join().expect("snapshot load worker panicked")?);
        }
        Ok(())
    })?;
    Ok(all)
}

/// Reads a length-prefixed series key in display form.
pub(crate) fn read_key(r: &mut impl Read) -> Result<SeriesKey, SnapshotError> {
    let key_len = read_u32(r)? as usize;
    if key_len > 1 << 20 {
        return Err(corrupt("implausible key length"));
    }
    let mut key_bytes = vec![0u8; key_len];
    r.read_exact(&mut key_bytes)?;
    let name = String::from_utf8(key_bytes).map_err(|_| corrupt("key is not UTF-8"))?;
    parse_series_key(&name)
}

pub(crate) fn read_u32(r: &mut impl Read) -> Result<u32, SnapshotError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn read_u64(r: &mut impl Read) -> Result<u64, SnapshotError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Parses the display form `metric{k=v,...}` back into a [`SeriesKey`].
/// Shared with [`crate::wal`], whose records carry keys in the same form.
pub(crate) fn parse_series_key(s: &str) -> Result<SeriesKey, SnapshotError> {
    let (metric, tags) = match s.split_once('{') {
        None => (s, None),
        Some((m, rest)) => {
            let inner = rest
                .strip_suffix('}')
                .ok_or_else(|| corrupt("unterminated tag set in key"))?;
            (m, Some(inner))
        }
    };
    if metric.is_empty() {
        return Err(corrupt("empty metric in key"));
    }
    let mut key = SeriesKey::metric(metric);
    if let Some(inner) = tags {
        for pair in inner.split(',') {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| corrupt("malformed tag in key"))?;
            if k.is_empty() || v.is_empty() {
                return Err(corrupt("empty tag key or value in key"));
            }
            key = key.with_tag(k, v);
        }
    }
    Ok(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::DataPoint;
    use crate::query::RangeQuery;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("asap_tsdb_persist_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn seeded(shards: usize) -> ShardedDb {
        let db = ShardedDb::with_config(ShardedConfig::new(shards, 64));
        for host in ["a", "b"] {
            let key = SeriesKey::metric("cpu").with_tag("host", host).with_tag("dc", "west");
            for i in 0..500 {
                db.write(&key, DataPoint::new(i * 3, (i as f64 * 0.1).sin()))
                    .unwrap();
            }
        }
        db.write(&SeriesKey::metric("untagged"), DataPoint::new(7, 1.5))
            .unwrap();
        db
    }

    fn full() -> RangeQuery {
        RangeQuery::raw(i64::MIN + 1, i64::MAX)
    }

    #[test]
    fn round_trip_preserves_every_point() {
        let db = seeded(3);
        let path = tmp("roundtrip.snap");
        save_sharded(&db, &path).unwrap();
        let restored = load_sharded(&path, ShardedConfig::default()).unwrap();
        assert_eq!(restored.series_count(), db.series_count());
        for key in db.list_series(&Selector::any()) {
            let a = db.query(&key, full()).unwrap();
            let b = restored.query(&key, full()).unwrap();
            assert_eq!(a, b, "series {key}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restored_db_accepts_new_writes_in_order() {
        let db = seeded(2);
        let path = tmp("writable.snap");
        save_sharded(&db, &path).unwrap();
        let restored = load_sharded(&path, ShardedConfig::default()).unwrap();
        let key = SeriesKey::metric("cpu").with_tag("host", "a").with_tag("dc", "west");
        // The last timestamp was 499*3; earlier writes must be rejected,
        // later ones accepted.
        assert!(restored.write(&key, DataPoint::new(0, 1.0)).is_err());
        restored.write(&key, DataPoint::new(5_000, 1.0)).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_truncation_rejected() {
        let path = tmp("garbage.snap");
        std::fs::write(&path, b"NOTASNAPSHOT").unwrap();
        assert!(matches!(
            load_sharded(&path, ShardedConfig::default()),
            Err(SnapshotError::Tsdb(TsdbError::CorruptBlock { .. }))
        ));

        // Truncate a valid snapshot mid-payload.
        save_sharded(&seeded(2), &path).unwrap();
        let full_bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full_bytes[..full_bytes.len() / 2]).unwrap();
        assert!(load_sharded(&path, ShardedConfig::default()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn key_display_form_parses_back() {
        for s in ["cpu", "cpu{host=a}", "m{a=1,b=2,c=3}"] {
            let key = parse_series_key(s).unwrap();
            assert_eq!(key.to_string(), s);
        }
        assert!(parse_series_key("cpu{host=a").is_err());
        assert!(parse_series_key("cpu{hosta}").is_err());
        assert!(parse_series_key("{host=a}").is_err());
        assert!(parse_series_key("cpu{=a}").is_err());
    }

    #[test]
    fn snapshot_is_compact() {
        let db = ShardedDb::with_config(ShardedConfig::new(1, 512));
        let key = SeriesKey::metric("flat");
        for i in 0..10_000 {
            db.write(&key, DataPoint::new(i * 10, 42.0)).unwrap();
        }
        let path = tmp("compact.snap");
        save_sharded(&db, &path).unwrap();
        let size = std::fs::metadata(&path).unwrap().len();
        assert!(
            size < 16 * 10_000 / 4,
            "snapshot {size} bytes should be far below raw 160000"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_round_trips_through_sharded_engines() {
        let db = seeded(4);
        let path = tmp("v2_roundtrip.snap");
        save_sharded(&db, &path).unwrap();
        // Reload at several shard counts; all must agree with the source.
        for shards in [1usize, 3, 8] {
            let restored = load_sharded(&path, ShardedConfig::new(shards, 64)).unwrap();
            assert_eq!(restored.shard_count(), shards);
            assert_eq!(
                restored.query_selector(&Selector::any(), full()).unwrap(),
                db.query_selector(&Selector::any(), full()).unwrap()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_bytes_are_independent_of_shard_count() {
        let a = tmp("v2_one_shard.snap");
        let b = tmp("v2_many_shards.snap");
        save_sharded(&seeded(1), &a).unwrap();
        save_sharded(&seeded(7), &b).unwrap();
        assert_eq!(
            std::fs::read(&a).unwrap(),
            std::fs::read(&b).unwrap(),
            "v2 snapshot bytes must not depend on the writer's shard count"
        );
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn v2_truncation_and_bad_version_rejected() {
        let db = seeded(3);
        let path = tmp("v2_truncated.snap");
        save_sharded(&db, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Truncate inside the payload section: directory reads fine, the
        // parallel payload read must fail cleanly.
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(load_sharded(&path, ShardedConfig::default()).is_err());

        // Truncate inside the directory.
        std::fs::write(&path, &bytes[..24]).unwrap();
        assert!(load_sharded(&path, ShardedConfig::default()).is_err());

        // Unknown version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            load_sharded(&path, ShardedConfig::default()),
            Err(SnapshotError::Tsdb(TsdbError::CorruptBlock { .. }))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retired_v1_header_is_an_unsupported_version() {
        // A well-formed version-1 file (empty: zero series) — the format
        // is gone, and must be refused by name rather than misread.
        let path = tmp("v1_header.snap");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes()); // version
        bytes.extend_from_slice(&0u32.to_le_bytes()); // series_count
        std::fs::write(&path, &bytes).unwrap();
        let err = load_sharded(&path, ShardedConfig::default()).unwrap_err();
        assert!(
            err.to_string().contains("unsupported snapshot version"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_sharded_db_round_trips_v2() {
        let db = ShardedDb::with_config(ShardedConfig::new(3, 64));
        let path = tmp("v2_empty.snap");
        save_sharded(&db, &path).unwrap();
        let restored = load_sharded(&path, ShardedConfig::new(2, 64)).unwrap();
        assert_eq!(restored.series_count(), 0);
        std::fs::remove_file(&path).ok();
    }

    /// A store holding `aaa` (snapshotable) and a key whose tag value
    /// contains a structural character (not snapshotable).
    fn store_with_structural_key() -> ShardedDb {
        let db = ShardedDb::with_config(ShardedConfig::new(3, 64));
        db.write(&SeriesKey::metric("aaa"), DataPoint::new(1, 1.0)).unwrap();
        let bad = SeriesKey::metric("cpu").with_tag("host", "a=b");
        db.write(&bad, DataPoint::new(1, 1.0)).unwrap();
        db
    }

    #[test]
    fn structural_keys_rejected_by_both_writers() {
        // The single-file writer and the chain writer share the key
        // check: neither may emit a key that would not parse back.
        let db = store_with_structural_key();
        let path = tmp("badkey.snap");
        assert!(save_sharded(&db, &path).is_err());
        assert!(!path.exists());

        let dir = tmp("badkey.chain");
        std::fs::remove_dir_all(&dir).ok();
        let mut chain = crate::chain::CheckpointChain::open(&dir, 4).unwrap();
        assert!(chain.checkpoint(&db, None).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_preserves_previous_snapshot() {
        let path = tmp("keepold.snap");
        save_sharded(&seeded(2), &path).unwrap();
        let before = std::fs::read(&path).unwrap();

        // A later save that errors (unsnapshotable key) must leave the
        // previous good file untouched.
        assert!(save_sharded(&store_with_structural_key(), &path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before);

        // No stray temp file left behind.
        assert!(!path.with_file_name("keepold.snap.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn implausible_block_count_is_an_error_not_an_abort() {
        // A v2 directory claiming one series with u32::MAX blocks over
        // an empty payload must surface as a clean error (the
        // pre-allocation is capped), not an allocator abort.
        let path = tmp("hugeblocks.snap");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION_V2.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // series_count
        bytes.extend_from_slice(&3u32.to_le_bytes()); // key_len
        bytes.extend_from_slice(b"cpu");
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // block_count
        let payload_offset = (bytes.len() + 16) as u64;
        bytes.extend_from_slice(&payload_offset.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // payload_len
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_sharded(&path, ShardedConfig::default()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_payload_overrun_rejected() {
        // Shrink a directory len field so the payload read overruns the
        // declared extent.
        let db = seeded(2);
        let path = tmp("lenlie.snap");
        save_sharded(&db, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // First directory entry: magic(8) version(4) count(4) key_len(4)
        // + key + block_count(4) + offset(8), then the 8-byte len.
        let key_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let len_pos = 20 + key_len + 4 + 8;
        let len = u64::from_le_bytes(bytes[len_pos..len_pos + 8].try_into().unwrap());
        bytes[len_pos..len_pos + 8].copy_from_slice(&(len - 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_sharded(&path, ShardedConfig::default()).is_err());
        std::fs::remove_file(&path).ok();
    }
}
