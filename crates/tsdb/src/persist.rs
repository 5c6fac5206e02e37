//! The link format: the one file type a store is written to disk in.
//!
//! The engine is in-memory (like the hot tier of Gorilla, which keeps 26
//! hours in RAM); writing it flushes every series' memtable and stores
//! the sealed blocks as their Gorilla-compressed payloads, so a file is
//! roughly the engine's compressed in-memory footprint. One file type —
//! a *link* — plays three roles:
//!
//! * an **export** (`SNAPSHOT <name>`, [`ShardedDb::save`]) is chain 0,
//!   sequence 0, with every entry a replace;
//! * a checkpoint chain's **base** is the same thing under its chain id;
//! * a **delta** holds only the series that changed since the previous
//!   link of its chain ([`crate::chain`]).
//!
//! The state a server boots from is always a chain directory.
//!
//! ## Link format version 4 (little-endian)
//!
//! ```text
//! magic "ASAPTSDB" | u32 4 | u64 chain_id | u64 seq | u32 series_count
//! directory, series sorted by key:
//!   u32 key_len | key bytes (display form: metric{k=v,...})
//!   u8 mode | u32 start_block | u32 block_count
//!   u64 payload_offset (from file start) | u64 payload_len
//! payloads, same order; per block:
//!   u64 count | u64 len_bits | u32 byte_len | payload bytes
//! u32 crc32 of every preceding byte
//! ```
//!
//! `mode` 1 is **replace**: drop the series, then import the entry's
//! blocks (with zero blocks, a tombstone). `mode` 0 is **append**: the
//! blocks extend the series, and `start_block` must equal the series'
//! block count when the link is applied.
//!
//! There is one writer, one reader and one fold:
//!
//! * `write_link` builds the whole link in memory and writes it, CRC
//!   appended, through `replace_file`;
//! * `read_link` reads the file once, checks the CRC and then the
//!   version, parses the directory, and decodes the payloads in
//!   parallel — one worker per shard of the destination store that owns
//!   a series — importing nothing;
//! * `apply_link` cross-checks every append against the store first,
//!   then applies the link all or nothing. [`load_sharded`] on a file
//!   and every link of a chain fold go through it.
//!
//! Entries are merged into key order before writing, so export bytes
//! are **independent of the writer's shard count**; series re-route by
//! hash, so a file loads into any shard count.
//!
//! Versions 1–3 are retired: the sequential v1 file, the unchecksummed
//! v2 export/base and the v3 delta. A file naming one is refused by name
//! with [`TsdbError::InvalidParameter`]; there is no migration code.
//!
//! The display form of [`SeriesKey`] is unambiguous as long as metric and
//! tag tokens exclude the structural characters `{`, `}`, `,`, `=`;
//! writing rejects keys that violate this (line-protocol ingestion can
//! never produce them).
//!
//! ## Consistency under concurrent writers
//!
//! Exporting never holds more than one series lock at a time, and each
//! only briefly: the initial flush seals memtables series-by-series, and
//! each series' blocks are then cloned (reference-counted payloads) under
//! that series' read lock alone. A link therefore captures a
//! **per-series consistency point** — every series is internally
//! consistent as of the moment its blocks were exported — but not a
//! single cross-series cut: a writer racing the export may land a sealed
//! block in series B after A was exported and before B is. Concretely:
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
//! Exporting starts no thread, so a checkpoint pass or a `SNAPSHOT`
//! leaves a server's thread count alone. The link is built in memory
//! before its one write: writing a base or an export holds one extra
//! copy of the compressed store. Files are staged into a sibling `*.tmp`
//! file, fsynced, renamed over `path`, and the directory is fsynced, so a
//! write that fails partway never clobbers an existing good file, and one
//! that returned is on disk before any WAL generation it covers is
//! discarded.

use std::io::{Read, Write};
use std::path::Path;

use bytes::Bytes;

use crate::block::Block;
use crate::error::TsdbError;
use crate::gorilla::CompressedChunk;
use crate::sharded::{ShardedConfig, ShardedDb};
use crate::tags::{Selector, SeriesKey};
use crate::wal::{crc32, WalReplayReport};

const MAGIC: &[u8; 8] = b"ASAPTSDB";
const VERSION: u32 = 4;
/// `magic | version | chain_id | seq | series_count`.
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 4;

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

/// The parameter a [`retired`] refusal names.
const RETIRED: &str = "on-disk format";

/// Refuses a retired on-disk layout by name. Nothing is migrated, so
/// this is a hard error — a chain fold passes it on ([`is_refusal`])
/// rather than degrading past it.
pub(crate) fn retired(message: &'static str) -> SnapshotError {
    SnapshotError::Tsdb(TsdbError::InvalidParameter {
        name: RETIRED,
        message,
    })
}

/// Whether `e` is a [`retired`] refusal rather than damage.
pub(crate) fn is_refusal(e: &SnapshotError) -> bool {
    matches!(e, SnapshotError::Tsdb(TsdbError::InvalidParameter { name, .. }) if *name == RETIRED)
}

/// Writes `body` with its CRC-32 appended into a sibling temp file,
/// fsyncs it, renames it over `path`, then fsyncs the directory — so a
/// write that fails partway (full disk, crash) never destroys a previous
/// good file at `path`, and one that returned `Ok` is durable: callers
/// discard the WAL generations a file covers only after this returns.
/// Returns the bytes written.
pub(crate) fn replace_file(path: &Path, mut body: Vec<u8>) -> Result<u64, SnapshotError> {
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    let mut tmp_name = path
        .file_name()
        .map(std::ffi::OsString::from)
        .unwrap_or_else(|| std::ffi::OsString::from("snapshot"));
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(&body)?;
        file.sync_all()
    });
    if let Err(e) = written {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    std::fs::rename(&tmp, path)?;
    // The rename is only durable once the directory entry is.
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(body.len() as u64)
}

/// The body of a file [`replace_file`] wrote, or `None` when its trailing
/// CRC-32 does not match.
fn checked_body(bytes: &[u8]) -> Option<&[u8]> {
    let (body, crc) = bytes.split_at(bytes.len().checked_sub(4)?);
    (crc32(body).to_le_bytes() == crc).then_some(body)
}

/// Rejects keys whose display form would not parse back.
fn validate_key(key: &SeriesKey) -> Result<(), SnapshotError> {
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
fn encoded_len(blocks: &[Block]) -> u64 {
    blocks.iter().map(|b| 8 + 8 + 4 + b.chunk().data.len() as u64).sum()
}

/// Writes one series' block records (a link entry's payload).
fn write_blocks(blocks: &[Block], w: &mut impl Write) -> std::io::Result<()> {
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
fn read_blocks(r: &mut impl Read, block_count: u32) -> Result<Vec<Block>, SnapshotError> {
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

/// How a link entry's blocks apply to its series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Extend the series; `start_block` is its block count beforehand.
    Append = 0,
    /// Drop the series, then import the blocks.
    Replace = 1,
}

/// One link directory entry with its decoded blocks.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) key: SeriesKey,
    pub(crate) mode: Mode,
    pub(crate) start_block: u32,
    pub(crate) blocks: Vec<Block>,
}

impl Entry {
    pub(crate) fn replace(key: SeriesKey, blocks: Vec<Block>) -> Self {
        Self {
            key,
            mode: Mode::Replace,
            start_block: 0,
            blocks,
        }
    }
}

/// A decoded link: its place in a chain and its entries.
pub(crate) struct Link {
    pub(crate) chain_id: u64,
    pub(crate) seq: u64,
    pub(crate) entries: Vec<Entry>,
}

/// Exports every series' sealed blocks as replace entries in key order —
/// the one exporter behind [`save_sharded`] and the chain writer. It
/// clones block handles under one short series read lock at a time and
/// starts no thread. Call after `db.flush()` so memtable contents are
/// included; see the module docs for the consistency point under
/// concurrent writers.
pub(crate) fn export_all(db: &ShardedDb) -> Result<Vec<Entry>, SnapshotError> {
    let mut all = Vec::new();
    for shard in db.shards() {
        for key in shard.list_series(&Selector::any()) {
            validate_key(&key)?;
            let blocks = shard.export_blocks(&key)?;
            all.push(Entry::replace(key, blocks));
        }
    }
    all.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(all)
}

/// The one link writer: builds the header, the directory and the
/// payloads of key-sorted `entries` in memory, then writes them with
/// their CRC in one [`replace_file`]. Returns the bytes written.
pub(crate) fn write_link(
    path: &Path,
    chain_id: u64,
    seq: u64,
    entries: &[Entry],
) -> Result<u64, SnapshotError> {
    let names: Vec<String> = entries.iter().map(|e| e.key.to_string()).collect();
    let dir_len: usize = names.iter().map(|n| 4 + n.len() + 1 + 4 + 4 + 8 + 8).sum();
    let mut offset = (HEADER_LEN + dir_len) as u64;
    let payload_len: u64 = entries.iter().map(|e| encoded_len(&e.blocks)).sum();
    let mut out = Vec::with_capacity((offset + payload_len) as usize + 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&chain_id.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (entry, name) in entries.iter().zip(&names) {
        let len = encoded_len(&entry.blocks);
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.push(entry.mode as u8);
        out.extend_from_slice(&entry.start_block.to_le_bytes());
        out.extend_from_slice(&(entry.blocks.len() as u32).to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        offset += len;
    }
    for entry in entries {
        write_blocks(&entry.blocks, &mut out)?;
    }
    replace_file(path, out)
}

/// Refuses a retired link by its 12-byte header (magic and version). A
/// retired layout carries no CRC, so this needs nothing past the header;
/// a current link and a damaged one both pass.
pub(crate) fn refuse_retired(header: &[u8]) -> Result<(), SnapshotError> {
    if header.len() < 12 || &header[..8] != MAGIC {
        return Ok(());
    }
    match u32::from_le_bytes(header[8..12].try_into().expect("four bytes")) {
        1 => Err(retired(
            "snapshot format version 1 (the sequential single file) is retired; \
             this build reads link format version 4 only and carries no migration",
        )),
        2 => Err(retired(
            "snapshot format version 2 (an export or chain base without a checksum) \
             is retired; this build reads link format version 4 only and carries no \
             migration",
        )),
        3 => Err(retired(
            "snapshot format version 3 (a delta link without a checksum) is retired; \
             this build reads link format version 4 only and carries no migration",
        )),
        _ => Ok(()),
    }
}

/// The checked body of a link file: a retired version is refused first
/// ([`refuse_retired`]), then the CRC is checked, then the version.
fn link_body(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 12 || &bytes[..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    refuse_retired(bytes)?;
    let body = checked_body(bytes)
        .filter(|body| body.len() >= HEADER_LEN)
        .ok_or_else(|| corrupt("link checksum mismatch"))?;
    if body[8..12] != VERSION.to_le_bytes() {
        return Err(corrupt("unsupported link version"));
    }
    Ok(body)
}

/// The one link reader: reads `path` once, checks it ([`link_body`]),
/// parses the directory, and decodes every payload **without importing
/// anything**, so a damaged link never half-applies. Payloads decode in
/// parallel, one worker per shard of `db` (the store the link will fold
/// into) that owns any of its series.
pub(crate) fn read_link(path: &Path, db: &ShardedDb) -> Result<Link, SnapshotError> {
    let bytes = std::fs::read(path)?;
    let body = link_body(&bytes)?;
    let mut r = &body[12..];
    let chain_id = read_u64(&mut r)?;
    let seq = read_u64(&mut r)?;
    let series_count = read_u32(&mut r)?;
    let mut dir = Vec::with_capacity(series_count.min(1 << 20) as usize);
    for _ in 0..series_count {
        let key = read_key(&mut r)?;
        let mode = match read_u8(&mut r)? {
            0 => Mode::Append,
            1 => Mode::Replace,
            _ => return Err(corrupt("unknown link entry mode")),
        };
        let start_block = read_u32(&mut r)?;
        let block_count = read_u32(&mut r)?;
        let (offset, len) = (read_u64(&mut r)?, read_u64(&mut r)?);
        let payload = usize::try_from(offset)
            .ok()
            .zip(usize::try_from(len).ok())
            .and_then(|(at, len)| body.get(at..at.checked_add(len)?))
            .ok_or_else(|| corrupt("series payload outside the link"))?;
        let entry = Entry {
            key,
            mode,
            start_block,
            blocks: Vec::new(),
        };
        dir.push((entry, block_count, payload));
    }
    if dir.windows(2).any(|w| w[0].0.key >= w[1].0.key) {
        return Err(corrupt("link directory is not key-sorted"));
    }
    let mut by_shard: Vec<Vec<_>> = (0..db.shard_count()).map(|_| Vec::new()).collect();
    for item in dir {
        by_shard[db.shard_of(&item.0.key)].push(item);
    }
    let mut entries = Vec::new();
    std::thread::scope(|scope| -> Result<(), SnapshotError> {
        let handles: Vec<_> = by_shard
            .into_iter()
            .filter(|items| !items.is_empty())
            .map(|items| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(items.len());
                    for (mut entry, block_count, mut payload) in items {
                        entry.blocks = read_blocks(&mut payload, block_count)?;
                        if !payload.is_empty() {
                            return Err(corrupt("series payload longer than its blocks"));
                        }
                        out.push(entry);
                    }
                    Ok(out)
                })
            })
            .collect();
        for handle in handles {
            entries.extend(handle.join().expect("link decode worker panicked")?);
        }
        Ok(())
    })?;
    Ok(Link {
        chain_id,
        seq,
        entries,
    })
}

/// The one fold: applies a decoded link to `db` all or nothing. Every
/// entry is cross-checked first — its blocks mutually ordered, and an
/// append starting at the series' block count and after its last block —
/// so a link that does not extend `db` touches nothing.
pub(crate) fn apply_link(db: &ShardedDb, entries: Vec<Entry>) -> Result<(), SnapshotError> {
    let before = |a: &Block, b: &Block| a.summary().end < b.summary().start;
    for entry in &entries {
        let aligned = entry.mode == Mode::Replace || {
            let held = db.export_blocks(&entry.key).unwrap_or_default();
            held.len() == entry.start_block as usize
                && match (held.last(), entry.blocks.first()) {
                    (Some(last), Some(first)) => before(last, first),
                    _ => true,
                }
        };
        if !aligned || !entry.blocks.windows(2).all(|w| before(&w[0], &w[1])) {
            return Err(corrupt("link does not extend the folded store"));
        }
    }
    for entry in entries {
        if entry.mode == Mode::Replace {
            db.evict_series_before(&entry.key, i64::MAX);
        }
        if !entry.blocks.is_empty() {
            db.import_blocks(&entry.key, entry.blocks)?;
        }
    }
    Ok(())
}

/// Writes an export of `db` to `path`: one link, chain 0, sequence 0,
/// every series a replace — so the file bytes are independent of the
/// shard count.
///
/// The store is flushed first (memtables sealed into blocks) so the
/// export captures every point accepted before the call; see the module
/// docs for the exact consistency point under concurrent writers.
pub fn save_sharded(db: &ShardedDb, path: &Path) -> Result<(), SnapshotError> {
    db.flush()?;
    write_link(path, 0, 0, &export_all(db)?).map(drop)
}

/// Loads a link file from `path` into a fresh [`ShardedDb`] with
/// `config`. Series re-route to `config.shards` partitions regardless of
/// the writer's shard count; the link is read and folded like any chain
/// link, so a damaged or retired file is an error and imports nothing.
///
/// When `path` is a **directory** it is treated as an incremental
/// checkpoint chain and folded via [`crate::chain::load_chain`]: the
/// newest chain whose base loads, degrading to its newest loadable
/// prefix on damage.
pub fn load_sharded(path: &Path, config: ShardedConfig) -> Result<ShardedDb, SnapshotError> {
    if path.is_dir() {
        return crate::chain::load_chain(path, config);
    }
    let db = ShardedDb::with_config(config);
    apply_link(&db, read_link(path, &db)?.entries)?;
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

/// Reads a length-prefixed series key in display form.
fn read_key(r: &mut impl Read) -> Result<SeriesKey, SnapshotError> {
    let key_len = read_u32(r)? as usize;
    if key_len > 1 << 20 {
        return Err(corrupt("implausible key length"));
    }
    let mut key_bytes = vec![0u8; key_len];
    r.read_exact(&mut key_bytes)?;
    let name = String::from_utf8(key_bytes).map_err(|_| corrupt("key is not UTF-8"))?;
    parse_series_key(&name)
}

fn read_u8(r: &mut impl Read) -> Result<u8, SnapshotError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32(r: &mut impl Read) -> Result<u32, SnapshotError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> Result<u64, SnapshotError> {
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

    /// Replaces a link's trailing CRC with the checksum of its edited
    /// body, so a test reaches the check behind the CRC.
    fn reseal(bytes: &mut Vec<u8>) {
        bytes.truncate(bytes.len() - 4);
        let crc = crc32(bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
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
            "export bytes must not depend on the writer's shard count"
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

        // Unknown version, under a valid CRC.
        let mut bad = bytes.clone();
        bad[8] = 99;
        reseal(&mut bad);
        std::fs::write(&path, &bad).unwrap();
        let err = load_sharded(&path, ShardedConfig::default()).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Tsdb(TsdbError::CorruptBlock { .. })),
            "{err}"
        );
        assert!(err.to_string().contains("unsupported link version"), "{err}");
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
        assert!(is_refusal(&err), "{err}");
        assert!(err.to_string().contains("version 1"), "{err}");
        assert!(err.to_string().contains("retired"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retired_v2_export_is_refused_by_name() {
        // A well-formed version-2 export of one empty series: no
        // checksum, no chain position. Refused as a retired format — a
        // typed error naming the version — never read as damage.
        let path = tmp("v2_export.snap");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&2u32.to_le_bytes()); // version
        bytes.extend_from_slice(&1u32.to_le_bytes()); // series_count
        bytes.extend_from_slice(&3u32.to_le_bytes()); // key_len
        bytes.extend_from_slice(b"cpu");
        bytes.extend_from_slice(&0u32.to_le_bytes()); // block_count
        let payload_offset = (bytes.len() + 16) as u64;
        bytes.extend_from_slice(&payload_offset.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // payload_len
        std::fs::write(&path, &bytes).unwrap();
        let err = load_sharded(&path, ShardedConfig::default()).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Tsdb(TsdbError::InvalidParameter { .. })),
            "{err}"
        );
        assert!(err.to_string().contains("format version 2"), "{err}");
        assert!(err.to_string().contains("retired"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "the file was touched");
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
        // Exports and chain links share the one writer's key check:
        // neither may hold a key that would not parse back.
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
        // A CRC-valid link whose directory claims one series with
        // u32::MAX blocks over an empty payload must surface as a clean
        // error (the pre-allocation is capped), not an allocator abort.
        let path = tmp("hugeblocks.snap");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // chain_id
        bytes.extend_from_slice(&0u64.to_le_bytes()); // seq
        bytes.extend_from_slice(&1u32.to_le_bytes()); // series_count
        bytes.extend_from_slice(&3u32.to_le_bytes()); // key_len
        bytes.extend_from_slice(b"cpu");
        bytes.push(Mode::Replace as u8);
        bytes.extend_from_slice(&0u32.to_le_bytes()); // start_block
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // block_count
        let payload_offset = (bytes.len() + 16) as u64;
        bytes.extend_from_slice(&payload_offset.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // payload_len
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_sharded(&path, ShardedConfig::default()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_payload_overrun_rejected() {
        // Shrink a directory len field, under a valid CRC, so the
        // payload read overruns the declared extent.
        let db = seeded(2);
        let path = tmp("lenlie.snap");
        save_sharded(&db, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // First directory entry: the 32-byte header, key_len(4) + key +
        // mode(1) + start_block(4) + block_count(4) + offset(8), then
        // the 8-byte len.
        let key_len = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
        let len_pos = 36 + key_len + 1 + 4 + 4 + 8;
        let len = u64::from_le_bytes(bytes[len_pos..len_pos + 8].try_into().unwrap());
        bytes[len_pos..len_pos + 8].copy_from_slice(&(len - 1).to_le_bytes());
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_sharded(&path, ShardedConfig::default()).is_err());
        std::fs::remove_file(&path).ok();
    }
}
