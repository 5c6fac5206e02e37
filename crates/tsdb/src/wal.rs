//! Per-shard append-only write-ahead log for crash durability.
//!
//! The engine is in-memory; snapshots ([`crate::persist`]) are whole-store
//! copies taken at operator-chosen instants. This module closes the gap
//! between snapshots: every point the ingest pipeline *applies* (i.e. the
//! post-reorder stream that survived watermark drops and duplicate
//! filtering) is appended to a per-shard log file before the write is
//! acknowledged, so a crash loses at most the records behind the
//! configured [`FsyncPolicy`], never the whole store.
//!
//! # Record format
//!
//! Records are length-prefixed and CRC-checked, little-endian throughout:
//!
//! ```text
//! +----------------+----------------+---------------------------------+
//! | u32 payload_len| u32 crc32(pay) | payload                         |
//! +----------------+----------------+---------------------------------+
//! payload = u32 key_len | key display bytes ("metric{k=v,...}")
//!         | i64 timestamp | u64 value bits (f64::to_bits)
//! ```
//!
//! A reader accepts the longest clean prefix of a file: the first torn
//! header, torn payload, implausible length, CRC mismatch, or malformed
//! payload ends the scan for that file. Damage is *reported*, never
//! fatal — a torn tail is exactly what a crash mid-append leaves behind,
//! and everything before it is still good.
//!
//! # Generations, rotation, and checkpoints
//!
//! Files are named `wal-<shard>-<generation>.log`. [`Wal::open`] always
//! starts a fresh generation (max existing + 1), so a prior run's torn
//! tail is never appended to. A *checkpoint* is the coordinated sequence
//!
//! 1. [`Wal::rotate`] — every shard moves to generation *G+1*;
//! 2. chain link written — its rename is the commit, covering everything
//!    in generations ≤ *G*, durably (file and directory fsynced);
//! 3. [`Wal::discard_before`]`(G+1)` — delete the covered generations.
//!
//! A crash between any two steps is safe because [`replay`] is
//! idempotent: records already present in the store (e.g. loaded from the
//! snapshot) are skipped via the engine's strict per-series timestamp
//! ordering. [`crate::chain::CheckpointChain::checkpoint`] packages the
//! sequence; a chain directory plus the WAL directory's surviving files
//! is therefore always a complete recovery set.
//!
//! # Ordering contract
//!
//! [`Wal::log_applied`] holds the shard's log lock *across* the store
//! write and the append, so the per-series record order in the log always
//! equals store apply order, even when concurrent connections write the
//! same series. Within one generation a series lives in exactly one shard
//! file; [`replay`] applies generations in ascending order, so replayed
//! timestamps are strictly increasing per series and re-routing by the
//! store's own hash (which tolerates restarting with a different shard
//! count) never observes out-of-order input except for snapshot overlap.
//!
//! # What is (and is not) logged
//!
//! The WAL captures ingest writes only. Compaction rollups and retention
//! evictions are derived state: after recovery the compactor re-runs and
//! converges. One documented edge: if the log append itself fails (disk
//! full) *after* the store write succeeded, the point is live in memory
//! but missing from the recovery set; the failure surfaces as a per-line
//! write failure in the ingest report so the source can retry.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::error::TsdbError;
use crate::obs::WalMetrics;
use crate::persist::parse_series_key;
use crate::point::DataPoint;
use crate::sharded::ShardedDb;
use crate::tags::SeriesKey;

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) lookup table, built at
/// compile time so the module stays dependency-free.
const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of `bytes`. Detects all single-bit flips and all burst
/// errors shorter than 32 bits, which is what the fault-injection wall
/// leans on.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// How often appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: zero loss window, slowest.
    Always,
    /// `fsync` once per `N` appended records (per shard).
    EveryN(u64),
    /// `fsync` when at least this long has passed since the shard's last
    /// sync, checked at append time.
    Interval(Duration),
}

impl Default for FsyncPolicy {
    /// Every 256 records — a pragmatic middle ground.
    fn default() -> Self {
        FsyncPolicy::EveryN(256)
    }
}

impl fmt::Display for FsyncPolicy {
    /// Renders in the same grammar [`FromStr`] accepts:
    /// `always`, `every=N`, `interval-ms=N`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every={n}"),
            FsyncPolicy::Interval(d) => write!(f, "interval-ms={}", d.as_millis()),
        }
    }
}

impl FromStr for FsyncPolicy {
    type Err = String;

    /// Parses `always`, `every=N` (N ≥ 1), or `interval-ms=N` (N ≥ 1).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "always" {
            return Ok(FsyncPolicy::Always);
        }
        if let Some(n) = s.strip_prefix("every=") {
            let n: u64 = n.parse().map_err(|_| format!("bad record count in {s:?}"))?;
            if n == 0 {
                return Err("every=N requires N >= 1".into());
            }
            return Ok(FsyncPolicy::EveryN(n));
        }
        if let Some(ms) = s.strip_prefix("interval-ms=") {
            let ms: u64 = ms.parse().map_err(|_| format!("bad millisecond count in {s:?}"))?;
            if ms == 0 {
                return Err("interval-ms=N requires N >= 1".into());
            }
            return Ok(FsyncPolicy::Interval(Duration::from_millis(ms)));
        }
        Err(format!(
            "unknown fsync policy {s:?} (expected always, every=N, or interval-ms=N)"
        ))
    }
}

/// Where and how durably to log: pairs a log directory with a
/// [`FsyncPolicy`]. Consumed by the server's configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// Directory holding the `wal-<shard>-<generation>.log` files.
    pub dir: PathBuf,
    /// Sync cadence for appended records.
    pub fsync: FsyncPolicy,
}

impl WalConfig {
    /// A config for `dir` with the default fsync policy.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
        }
    }
}

/// Fixed record header: `u32` payload length + `u32` payload CRC.
const HEADER_LEN: usize = 8;
/// Plausibility cap on one payload; anything larger is treated as
/// corruption (a real key is far below this).
const MAX_PAYLOAD: u32 = 1 << 20;
const FILE_PREFIX: &str = "wal-";
const FILE_SUFFIX: &str = ".log";

/// Encodes one record (header + payload) ready to append.
pub fn encode_record(key: &SeriesKey, point: DataPoint) -> Vec<u8> {
    let key_text = key.to_string();
    let key_bytes = key_text.as_bytes();
    let mut payload = Vec::with_capacity(4 + key_bytes.len() + 16);
    payload.extend_from_slice(&(key_bytes.len() as u32).to_le_bytes());
    payload.extend_from_slice(key_bytes);
    payload.extend_from_slice(&point.timestamp.to_le_bytes());
    payload.extend_from_slice(&point.value.to_bits().to_le_bytes());
    let mut record = Vec::with_capacity(HEADER_LEN + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

/// Encoded size in bytes of the record for `key` — lets tests compute
/// exact record boundaries from the documented format.
pub fn record_len(key: &SeriesKey) -> usize {
    HEADER_LEN + 4 + key.to_string().len() + 16
}

/// One decoded WAL record: the applied point and the series it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Series the point was applied to.
    pub key: SeriesKey,
    /// The applied point.
    pub point: DataPoint,
}

/// Result of scanning one WAL file: the longest clean record prefix plus
/// a description of trailing damage, if the scan stopped early.
#[derive(Debug, Clone)]
pub struct WalSegment {
    /// Records of the clean prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes consumed by the clean prefix.
    pub clean_bytes: u64,
    /// Why the scan stopped before end-of-file, if it did.
    pub damage: Option<String>,
}

/// Reads the longest clean record prefix of the file at `path`.
///
/// Damage (torn tail, CRC mismatch, garbage) ends the scan and is
/// described in [`WalSegment::damage`]; only failing to read the file at
/// all is an error.
pub fn read_records(path: &Path) -> Result<WalSegment, TsdbError> {
    let bytes = fs::read(path).map_err(io_err)?;
    Ok(scan(&bytes))
}

fn scan(bytes: &[u8]) -> WalSegment {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let damaged = |records: Vec<WalRecord>, pos: usize, reason: &str| WalSegment {
        records,
        clean_bytes: pos as u64,
        damage: Some(format!("{reason} at byte {pos}")),
    };
    loop {
        if pos == bytes.len() {
            return WalSegment {
                records,
                clean_bytes: pos as u64,
                damage: None,
            };
        }
        let Some(header) = bytes.get(pos..pos + HEADER_LEN) else {
            return damaged(records, pos, "torn record header");
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4-byte slice"));
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4-byte slice"));
        if len > MAX_PAYLOAD {
            return damaged(records, pos, "implausible record length");
        }
        let Some(payload) = bytes.get(pos + HEADER_LEN..pos + HEADER_LEN + len as usize) else {
            return damaged(records, pos, "torn record payload");
        };
        if crc32(payload) != crc {
            return damaged(records, pos, "record CRC mismatch");
        }
        match decode_payload(payload) {
            Some(record) => records.push(record),
            None => return damaged(records, pos, "malformed record payload"),
        }
        pos += HEADER_LEN + len as usize;
    }
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let key_len = u32::from_le_bytes(payload.get(0..4)?.try_into().ok()?) as usize;
    if payload.len() != 4 + key_len + 16 {
        return None;
    }
    let key_text = std::str::from_utf8(payload.get(4..4 + key_len)?).ok()?;
    let key = parse_series_key(key_text).ok()?;
    let timestamp = i64::from_le_bytes(payload.get(4 + key_len..12 + key_len)?.try_into().ok()?);
    let value = f64::from_bits(u64::from_le_bytes(
        payload.get(12 + key_len..20 + key_len)?.try_into().ok()?,
    ));
    if !value.is_finite() {
        return None;
    }
    Some(WalRecord {
        key,
        point: DataPoint { timestamp, value },
    })
}

/// One WAL file discovered in a log directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFileId {
    /// Full path of the file.
    pub path: PathBuf,
    /// Shard index encoded in the file name.
    pub shard: usize,
    /// Generation encoded in the file name.
    pub generation: u64,
}

fn file_name(shard: usize, generation: u64) -> String {
    format!("{FILE_PREFIX}{shard:04}-{generation:08}{FILE_SUFFIX}")
}

fn parse_file_name(name: &str) -> Option<(usize, u64)> {
    let stem = name.strip_prefix(FILE_PREFIX)?.strip_suffix(FILE_SUFFIX)?;
    let (shard, generation) = stem.split_once('-')?;
    Some((shard.parse().ok()?, generation.parse().ok()?))
}

/// Lists the WAL files in `dir`, sorted by (generation, shard) — the
/// order [`replay`] applies them in. Files whose names don't match
/// `wal-<shard>-<generation>.log` are ignored; a missing directory is an
/// empty list.
pub fn wal_files(dir: &Path) -> Result<Vec<WalFileId>, TsdbError> {
    let mut files = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(files),
        Err(e) => return Err(io_err(e)),
    };
    for entry in entries {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some((shard, generation)) = parse_file_name(name) else {
            continue;
        };
        files.push(WalFileId {
            path: entry.path(),
            shard,
            generation,
        });
    }
    files.sort_by_key(|f| (f.generation, f.shard));
    Ok(files)
}

/// Counters from one [`replay`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalReplayReport {
    /// WAL files scanned.
    pub files: usize,
    /// Records applied to the store.
    pub applied: u64,
    /// Records the store already held (snapshot overlap after a crash
    /// between checkpoint steps) — skipped, by design.
    pub skipped: u64,
    /// Files whose tail was dropped because of a torn write or
    /// corruption. Never fatal.
    pub damaged: usize,
}

/// Replays every WAL file in `dir` into `db`, generations ascending.
///
/// Routing uses the store's own key hash, so a directory written under
/// one shard count replays correctly into a store with another. Records
/// the store already holds (strict per-series ordering rejects them) are
/// counted as skipped; damaged file tails are dropped and counted. The
/// only errors are real I/O failures reading the directory.
pub fn replay(dir: &Path, db: &ShardedDb) -> Result<WalReplayReport, TsdbError> {
    let mut report = WalReplayReport::default();
    for file in wal_files(dir)? {
        let segment = read_records(&file.path)?;
        report.files += 1;
        if segment.damage.is_some() {
            report.damaged += 1;
        }
        for record in segment.records {
            match db.write(&record.key, record.point) {
                Ok(()) => report.applied += 1,
                Err(TsdbError::OutOfOrder { .. }) => report.skipped += 1,
                Err(e) => return Err(e),
            }
        }
    }
    Ok(report)
}

/// Counter snapshot from [`Wal::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since open.
    pub records: u64,
    /// Bytes appended since open.
    pub bytes: u64,
    /// `fsync` calls issued since open.
    pub fsyncs: u64,
    /// Rotations performed since open.
    pub rotations: u64,
    /// Append/fsync failures since open (see [`Wal::last_error`]).
    pub errors: u64,
}

#[derive(Debug)]
struct ShardFile {
    file: File,
    /// Appends since this shard's last fsync.
    unsynced: u64,
    last_sync: Instant,
}

impl ShardFile {
    fn create(dir: &Path, shard: usize, generation: u64) -> Result<Self, TsdbError> {
        let path = dir.join(file_name(shard, generation));
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        Ok(Self {
            file,
            unsynced: 0,
            last_sync: Instant::now(),
        })
    }
}

#[derive(Debug)]
struct WalInner {
    dir: PathBuf,
    fsync: FsyncPolicy,
    generation: AtomicU64,
    shards: Vec<Mutex<ShardFile>>,
    records: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    rotations: AtomicU64,
    errors: AtomicU64,
    /// Cheap hot-path flag mirroring `last_error.is_some()`, so the
    /// success path pays one relaxed load instead of a mutex.
    has_error: AtomicBool,
    /// Rendering of the most recent append/fsync failure — cleared when
    /// a later append succeeds, matching the schedulers' `last_error`
    /// convention: a populated value means the log is *currently*
    /// failing, not that it once did.
    last_error: Mutex<Option<String>>,
    /// Optional latency instrumentation, installed once by the server.
    metrics: OnceLock<WalMetrics>,
}

/// The live appender: one append-only log file per shard, shared by all
/// writers via cheap clones (an `Arc` inside).
#[derive(Debug, Clone)]
pub struct Wal {
    inner: Arc<WalInner>,
}

impl Wal {
    /// Opens (creating if needed) the log directory for `shards` shard
    /// files under the given fsync policy.
    ///
    /// Always starts a fresh generation — one past the highest already in
    /// the directory — so records from a prior run (including any torn
    /// tail) are left untouched for [`replay`] and never appended to.
    ///
    /// Empty files from prior sealed generations are removed first:
    /// every open creates one file per shard, so a restart-looping
    /// server that writes nothing would otherwise accumulate
    /// `wal-<shard>-<gen>.log` cruft without bound. An empty file holds
    /// no records by construction (appends are atomic under the shard
    /// lock), so deleting it cannot lose data — and the fresh
    /// generation is still numbered past the highest ever seen, empty
    /// or not, keeping generation numbers monotonic.
    pub fn open(dir: &Path, shards: usize, fsync: FsyncPolicy) -> Result<Self, TsdbError> {
        if shards == 0 {
            return Err(TsdbError::InvalidParameter {
                name: "shards",
                message: "WAL shard count must be at least 1",
            });
        }
        if fsync == FsyncPolicy::EveryN(0) {
            return Err(TsdbError::InvalidParameter {
                name: "fsync",
                message: "EveryN fsync policy requires N >= 1",
            });
        }
        fs::create_dir_all(dir).map_err(io_err)?;
        let prior = wal_files(dir)?;
        let highest = prior.iter().map(|f| f.generation).max().unwrap_or(0);
        for file in &prior {
            let empty = fs::metadata(&file.path).map(|m| m.len() == 0).unwrap_or(false);
            if empty {
                fs::remove_file(&file.path).map_err(io_err)?;
            }
        }
        let generation = highest + 1;
        let mut shard_files = Vec::with_capacity(shards);
        for shard in 0..shards {
            shard_files.push(Mutex::new(ShardFile::create(dir, shard, generation)?));
        }
        Ok(Self {
            inner: Arc::new(WalInner {
                dir: dir.to_path_buf(),
                fsync,
                generation: AtomicU64::new(generation),
                shards: shard_files,
                records: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                fsyncs: AtomicU64::new(0),
                rotations: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                has_error: AtomicBool::new(false),
                last_error: Mutex::new(None),
                metrics: OnceLock::new(),
            }),
        })
    }

    /// Number of per-shard log files.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The configured fsync policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.inner.fsync
    }

    /// The generation current appends go to.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::SeqCst)
    }

    /// Installs latency instrumentation (append/fsync histograms).
    /// First call wins; later calls are ignored — the hot path reads
    /// the cell with one atomic load.
    pub fn set_metrics(&self, metrics: WalMetrics) {
        let _ = self.inner.metrics.set(metrics);
    }

    /// Rendering of the most recent append/fsync failure, or `None`
    /// when the latest append succeeded (a later success clears it).
    pub fn last_error(&self) -> Option<String> {
        if !self.inner.has_error.load(Ordering::Relaxed) {
            return None;
        }
        self.inner
            .last_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn note_error(&self, e: &TsdbError) {
        self.inner.errors.fetch_add(1, Ordering::Relaxed);
        *self
            .inner
            .last_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(e.to_string());
        self.inner.has_error.store(true, Ordering::Relaxed);
    }

    fn note_success(&self) {
        if self.inner.has_error.load(Ordering::Relaxed) {
            *self
                .inner
                .last_error
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = None;
            self.inner.has_error.store(false, Ordering::Relaxed);
        }
    }

    /// Runs `apply` (the store write) and, when it succeeds, appends the
    /// applied point to shard `shard`'s log — both under the shard's log
    /// lock, so per-series record order in the log always equals store
    /// apply order even when concurrent writers hit the same series.
    ///
    /// `apply` errors pass through without logging. An append error after
    /// a successful apply leaves the point live in memory but outside the
    /// recovery set; it is returned so the caller can surface a write
    /// failure.
    pub fn log_applied<F>(
        &self,
        shard: usize,
        key: &SeriesKey,
        point: DataPoint,
        apply: F,
    ) -> Result<(), TsdbError>
    where
        F: FnOnce() -> Result<(), TsdbError>,
    {
        let slot = self
            .inner
            .shards
            .get(shard)
            .ok_or(TsdbError::InvalidParameter {
                name: "shard",
                message: "WAL shard index out of range",
            })?;
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        apply()?;
        self.append_locked(&mut guard, key, point)
    }

    /// Appends one record without a paired store write (tooling, tests).
    pub fn append(&self, shard: usize, key: &SeriesKey, point: DataPoint) -> Result<(), TsdbError> {
        self.log_applied(shard, key, point, || Ok(()))
    }

    fn append_locked(
        &self,
        sf: &mut ShardFile,
        key: &SeriesKey,
        point: DataPoint,
    ) -> Result<(), TsdbError> {
        let started = Instant::now();
        let record = encode_record(key, point);
        if let Err(e) = sf.file.write_all(&record).map_err(io_err) {
            self.note_error(&e);
            return Err(e);
        }
        if let Some(metrics) = self.inner.metrics.get() {
            metrics.append.observe_duration(started.elapsed());
        }
        self.inner.records.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes.fetch_add(record.len() as u64, Ordering::Relaxed);
        sf.unsynced += 1;
        let due = match self.inner.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => sf.unsynced >= n,
            FsyncPolicy::Interval(d) => sf.last_sync.elapsed() >= d,
        };
        if due {
            self.sync_shard(sf)?;
        }
        self.note_success();
        Ok(())
    }

    fn sync_shard(&self, sf: &mut ShardFile) -> Result<(), TsdbError> {
        if sf.unsynced == 0 {
            return Ok(());
        }
        let started = Instant::now();
        if let Err(e) = sf.file.sync_data().map_err(io_err) {
            self.note_error(&e);
            return Err(e);
        }
        if let Some(metrics) = self.inner.metrics.get() {
            metrics.fsync.observe_duration(started.elapsed());
        }
        sf.unsynced = 0;
        sf.last_sync = Instant::now();
        self.inner.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes and fsyncs every shard file (drain-time sealing): after
    /// this returns, everything appended so far is on stable storage.
    pub fn seal(&self) -> Result<(), TsdbError> {
        for slot in &self.inner.shards {
            let mut sf = slot.lock().unwrap_or_else(PoisonError::into_inner);
            self.sync_shard(&mut sf)?;
        }
        Ok(())
    }

    /// Moves every shard onto a fresh generation and returns it. Records
    /// appended before the call land in generations `< returned`; a
    /// snapshot saved *after* this call therefore covers those
    /// generations, making them safe to [`Wal::discard_before`].
    pub fn rotate(&self) -> Result<u64, TsdbError> {
        let next = self.inner.generation.fetch_add(1, Ordering::SeqCst) + 1;
        for (shard, slot) in self.inner.shards.iter().enumerate() {
            let mut sf = slot.lock().unwrap_or_else(PoisonError::into_inner);
            self.sync_shard(&mut sf)?;
            *sf = ShardFile::create(&self.inner.dir, shard, next)?;
        }
        self.inner.rotations.fetch_add(1, Ordering::Relaxed);
        Ok(next)
    }

    /// Deletes log files of generations strictly older than `generation`.
    /// Call only after a snapshot covering those generations was durably
    /// written. Returns the number of files removed.
    pub fn discard_before(&self, generation: u64) -> Result<usize, TsdbError> {
        let mut removed = 0;
        for file in wal_files(&self.inner.dir)? {
            if file.generation < generation {
                fs::remove_file(&file.path).map_err(io_err)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Snapshot of the append counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            records: self.inner.records.load(Ordering::Relaxed),
            bytes: self.inner.bytes.load(Ordering::Relaxed),
            fsyncs: self.inner.fsyncs.load(Ordering::Relaxed),
            rotations: self.inner.rotations.load(Ordering::Relaxed),
            errors: self.inner.errors.load(Ordering::Relaxed),
        }
    }
}

fn io_err(e: std::io::Error) -> TsdbError {
    TsdbError::Io {
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::RangeQuery;
    use crate::sharded::{ShardedConfig, ShardedDb};
    use crate::tags::Selector;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "asap-wal-unit-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(name: &str) -> SeriesKey {
        SeriesKey::metric(name).with_tag("host", "a")
    }

    #[test]
    fn crc32_check_value() {
        // The standard CRC-32/ISO-HDLC check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut bytes = b"asap wal record".to_vec();
        let clean = crc32(&bytes);
        for i in 0..bytes.len() * 8 {
            bytes[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&bytes), clean, "flip at bit {i} went undetected");
            bytes[i / 8] ^= 1 << (i % 8);
        }
    }

    #[test]
    fn record_roundtrip_and_len() {
        let k = key("cpu");
        let p = DataPoint::new(-42, 3.5);
        let rec = encode_record(&k, p);
        assert_eq!(rec.len(), record_len(&k));
        let seg = scan(&rec);
        assert!(seg.damage.is_none());
        assert_eq!(seg.clean_bytes, rec.len() as u64);
        assert_eq!(seg.records, vec![WalRecord { key: k, point: p }]);
    }

    #[test]
    fn scan_reports_torn_and_corrupt_tails() {
        let k = key("cpu");
        let mut bytes = encode_record(&k, DataPoint::new(1, 1.0));
        bytes.extend_from_slice(&encode_record(&k, DataPoint::new(2, 2.0)));
        let full = scan(&bytes).records.len();
        assert_eq!(full, 2);
        let first = record_len(&k);
        // Torn header: 5 of the second record's 8 header bytes survive.
        let seg = scan(&bytes[..first + 5]);
        assert_eq!(seg.records.len(), 1);
        assert!(seg.damage.unwrap().contains("torn record header"));
        // Torn payload.
        let seg = scan(&bytes[..bytes.len() - 3]);
        assert_eq!(seg.records.len(), 1);
        assert!(seg.damage.unwrap().contains("torn record payload"));
        // CRC mismatch.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        let seg = scan(&flipped);
        assert_eq!(seg.records.len(), 1);
        assert!(seg.damage.unwrap().contains("CRC mismatch"));
        // Implausible length.
        let mut huge = bytes.clone();
        huge[first..first + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let seg = scan(&huge);
        assert_eq!(seg.records.len(), 1);
        assert!(seg.damage.unwrap().contains("implausible"));
    }

    #[test]
    fn fsync_policy_grammar_roundtrip() {
        for (text, policy) in [
            ("always", FsyncPolicy::Always),
            ("every=64", FsyncPolicy::EveryN(64)),
            ("interval-ms=250", FsyncPolicy::Interval(Duration::from_millis(250))),
        ] {
            assert_eq!(text.parse::<FsyncPolicy>().unwrap(), policy);
            assert_eq!(policy.to_string(), text);
        }
        for bad in ["", "sometimes", "every=0", "every=x", "interval-ms=0"] {
            assert!(bad.parse::<FsyncPolicy>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn file_name_roundtrip_ignores_foreign_names() {
        assert_eq!(parse_file_name(&file_name(3, 17)), Some((3, 17)));
        for foreign in ["wal-1.log", "wal-a-1.log", "snap.bin", "wal-1-2.tmp"] {
            assert_eq!(parse_file_name(foreign), None);
        }
    }

    #[test]
    fn open_starts_a_fresh_generation_and_replays_prior_runs() {
        let dir = temp_dir("gen");
        let wal = Wal::open(&dir, 2, FsyncPolicy::Always).unwrap();
        assert_eq!(wal.generation(), 1);
        wal.append(0, &key("cpu"), DataPoint::new(1, 1.0)).unwrap();
        drop(wal);
        let wal = Wal::open(&dir, 2, FsyncPolicy::Always).unwrap();
        assert_eq!(wal.generation(), 2);
        wal.append(0, &key("cpu"), DataPoint::new(2, 2.0)).unwrap();
        wal.seal().unwrap();

        let db = ShardedDb::with_config(ShardedConfig::new(2, 64));
        let report = replay(&dir, &db).unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.damaged, 0);
        // Both generations' written files exist; gen-1's untouched
        // shard-1 file was empty and is cleaned up by the second open.
        assert_eq!(wal_files(&dir).unwrap().len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_loops_do_not_accumulate_empty_generations() {
        let dir = temp_dir("restart_loop");
        let wal = Wal::open(&dir, 2, FsyncPolicy::Always).unwrap();
        wal.append(0, &key("cpu"), DataPoint::new(1, 1.0)).unwrap();
        wal.seal().unwrap();
        drop(wal);

        // A crash-looping server opens and closes the log many times
        // without writing: the file count must stay bounded (the one
        // written file + the current generation's fresh files), while
        // generation numbers keep climbing past everything ever seen.
        for round in 0..10u64 {
            let wal = Wal::open(&dir, 2, FsyncPolicy::Always).unwrap();
            assert_eq!(wal.generation(), 2 + round);
            assert_eq!(
                wal_files(&dir).unwrap().len(),
                3,
                "round {round} leaked empty generation files"
            );
            wal.seal().unwrap();
        }

        // The surviving record still replays after all that churn.
        let db = ShardedDb::with_config(ShardedConfig::new(2, 64));
        let report = replay(&dir, &db).unwrap();
        assert_eq!((report.applied, report.damaged), (1, 0));
        let oracle = ShardedDb::with_config(ShardedConfig::new(2, 64));
        oracle.write(&key("cpu"), DataPoint::new(1, 1.0)).unwrap();
        assert_eq!(
            db.query_selector(&Selector::any(), RangeQuery::raw(i64::MIN + 1, i64::MAX)).unwrap(),
            oracle.query_selector(&Selector::any(), RangeQuery::raw(i64::MIN + 1, i64::MAX)).unwrap()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_skips_records_already_in_the_store() {
        let dir = temp_dir("skip");
        let wal = Wal::open(&dir, 1, FsyncPolicy::Always).unwrap();
        for ts in 1..=5 {
            wal.append(0, &key("cpu"), DataPoint::new(ts, ts as f64)).unwrap();
        }
        let db = ShardedDb::with_config(ShardedConfig::new(1, 64));
        for ts in 1..=3 {
            db.write(&key("cpu"), DataPoint::new(ts, ts as f64)).unwrap();
        }
        let report = replay(&dir, &db).unwrap();
        assert_eq!(report.skipped, 3);
        assert_eq!(report.applied, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotate_and_discard_keep_only_the_tail() {
        let dir = temp_dir("rotate");
        let wal = Wal::open(&dir, 2, FsyncPolicy::EveryN(100)).unwrap();
        wal.append(0, &key("cpu"), DataPoint::new(1, 1.0)).unwrap();
        let boundary = wal.rotate().unwrap();
        assert_eq!(boundary, 2);
        wal.append(0, &key("cpu"), DataPoint::new(2, 2.0)).unwrap();
        assert_eq!(wal.discard_before(boundary).unwrap(), 2);
        let files = wal_files(&dir).unwrap();
        assert!(files.iter().all(|f| f.generation == boundary));
        wal.seal().unwrap();
        let db = ShardedDb::with_config(ShardedConfig::new(2, 64));
        let report = replay(&dir, &db).unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(wal.stats().rotations, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counters_track_appends_and_fsyncs() {
        let dir = temp_dir("stats");
        let wal = Wal::open(&dir, 1, FsyncPolicy::EveryN(2)).unwrap();
        let k = key("cpu");
        for ts in 1..=4 {
            wal.append(0, &k, DataPoint::new(ts, 0.5)).unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.records, 4);
        assert_eq!(stats.bytes, 4 * record_len(&k) as u64);
        assert_eq!(stats.fsyncs, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_and_fsync_latency_land_in_installed_histograms() {
        let dir = temp_dir("obs");
        let wal = Wal::open(&dir, 1, FsyncPolicy::Always).unwrap();
        let registry = crate::obs::Registry::new();
        wal.set_metrics(crate::obs::WalMetrics::new(&registry));
        for ts in 1..=3 {
            wal.append(0, &key("cpu"), DataPoint::new(ts, 1.0)).unwrap();
        }
        assert_eq!(registry.histogram("wal.append_micros").snapshot().count, 3);
        assert_eq!(registry.histogram("wal.fsync_micros").snapshot().count, 3);
        assert_eq!(wal.stats().errors, 0);
        assert_eq!(wal.last_error(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn last_error_clears_on_a_later_successful_append() {
        let dir = temp_dir("lasterr");
        let wal = Wal::open(&dir, 1, FsyncPolicy::Always).unwrap();
        wal.note_error(&TsdbError::Io {
            message: "disk full".to_owned(),
        });
        assert_eq!(wal.stats().errors, 1);
        assert!(wal.last_error().expect("error recorded").contains("disk full"));
        wal.append(0, &key("cpu"), DataPoint::new(1, 1.0)).unwrap();
        assert_eq!(wal.last_error(), None, "a successful append clears the error");
        assert_eq!(wal.stats().errors, 1, "error history is cumulative");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_degenerate_parameters() {
        let dir = temp_dir("reject");
        assert!(Wal::open(&dir, 0, FsyncPolicy::Always).is_err());
        assert!(Wal::open(&dir, 1, FsyncPolicy::EveryN(0)).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
