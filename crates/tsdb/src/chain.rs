//! Incremental checkpoint chains.
//!
//! A whole-store export ([`crate::persist::save_sharded`]) re-serializes
//! the **entire** store every time, so its cost scales with total data.
//! A long-running server checkpointing every minute needs the opposite:
//! cost proportional to what changed since the last checkpoint. This
//! module provides that as a *chain* — a directory holding one full base
//! plus a sequence of per-series delta links, indexed by a manifest.
//! Every link is one file of [`crate::persist`]'s link format: the base
//! is an export under the chain's id, and a delta holds only the series
//! that changed. The chain directory is the only state a server boots
//! from:
//!
//! ```text
//! <dir>/
//!   MANIFEST                              which links are live, in order
//!   base-<chain_id:016x>-00000000.snap    link seq 0: every series, replaced
//!   delta-<chain_id:016x>-<seq:08>.snap   series that changed since seq-1
//! ```
//!
//! ## Manifest (little-endian)
//!
//! ```text
//! magic "ASAPCHN1" | u32 2 | u64 chain_id | u32 link_count
//! per link: u64 seq          (link 0 is the base, the rest are deltas)
//! u32 crc32 of all preceding bytes
//! ```
//!
//! Manifest version 1 indexed the retired unchecksummed links. A
//! CRC-valid version-1 manifest is refused by name — a hard error from
//! [`load_chain_with_report`] and [`CheckpointChain::open`], never damage
//! that boots an empty store — and nothing on disk is touched.
//!
//! ## Change detection
//!
//! The writer keeps an in-memory fingerprint per series — sealed-block
//! count, total point count, and last block end — of what the chain's
//! files already cover. After the pre-checkpoint flush (which seals
//! every memtable, so watermark advances materialize as new sealed
//! blocks), a series whose current blocks extend a matching prefix
//! yields an append of just the new blocks; anything else yields a
//! replace, and a series the store no longer holds a zero-block replace
//! (a tombstone). Fingerprints are process-local: the first checkpoint
//! after [`CheckpointChain::open`] always writes a fresh base (re-base),
//! which also bounds recovery of a chain left behind by an older process.
//!
//! ## Crash safety
//!
//! Every file is written via tmp+fsync+rename+directory-fsync
//! ([`crate::persist`]'s `replace_file`), and a checkpoint orders its
//! steps so that a kill anywhere leaves a recoverable prefix:
//!
//! 1. rotate the WAL (boundary `g`): nothing discarded yet;
//! 2. write the delta (or, on re-base, the new base under a fresh
//!    chain id): an orphan file no manifest references — ignored;
//! 3. rename the new manifest: the chain now covers everything before
//!    `g`; replay of not-yet-discarded generations is idempotent;
//! 4. (re-base only) delete the previous chain's files: the manifest
//!    stopped referencing them in step 3;
//! 5. discard WAL generations `< g`: every record they hold is in the
//!    chain.
//!
//! The in-memory chain state (links, fingerprints) only advances after
//! step 3 succeeds, so a *failed* step (as opposed to a kill) leaves the
//! writer consistent with the on-disk manifest and the next checkpoint
//! simply overwrites the orphan. A checkpoint pass starts no thread.
//! [`load_chain`] folds the links in manifest order through the one link
//! reader and the one fold, so each link is validated **fully before it
//! is applied**, and degrades to the newest loadable prefix on any
//! damage — the WAL tail (which was only discarded once covered)
//! supplies the rest. `tests/crash_properties.rs` kills a checkpoint
//! between every step, truncates and bit-flips every link, and proves
//! recovery ≡ the surviving-prefix oracle.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::block::Block;
use crate::error::TsdbError;
use crate::persist::{
    apply_link, checked_body, corrupt, export_all, is_refusal, read_link, read_u32, read_u64,
    replace_file, retired, write_link, Entry, Mode, SnapshotError,
};
use crate::sharded::{ShardedConfig, ShardedDb};
use crate::tags::SeriesKey;
use crate::wal::Wal;

const CHAIN_MAGIC: &[u8; 8] = b"ASAPCHN1";
const MANIFEST_VERSION: u32 = 2;
const MANIFEST_NAME: &str = "MANIFEST";

/// The steps of one incremental checkpoint, in execution order. Passed
/// to [`CheckpointChain::checkpoint_until`] by the fault-injection tests
/// to simulate a kill *after* the named step completed (and before the
/// next one started); production code never stops early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStep {
    /// The WAL was rotated onto a fresh generation; nothing written yet.
    Rotated,
    /// The delta link file was renamed into place (delta path).
    DeltaWritten,
    /// The new base file was renamed into place (re-base path).
    BaseWritten,
    /// The new manifest was renamed into place — the commit point.
    ManifestWritten,
    /// The previous chain's files were deleted (re-base path).
    OldChainRemoved,
    /// Covered WAL generations were discarded — the final step.
    Discarded,
}

/// What one [`CheckpointChain::checkpoint`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainCheckpointReport {
    /// The WAL generation boundary this checkpoint covers (None without
    /// a WAL).
    pub boundary: Option<u64>,
    /// Whether this checkpoint wrote a fresh base (chain compaction).
    pub rebased: bool,
    /// Whether a link file was written at all (false when nothing
    /// changed since the previous link — the chain is left untouched).
    pub link_written: bool,
    /// Series serialized into the link (changed series only, for a
    /// delta).
    pub series_written: usize,
    /// Bytes of the link file written.
    pub bytes_written: u64,
    /// Links in the chain after this checkpoint (base + deltas).
    pub links: usize,
    /// WAL files removed by the covered-generation discard.
    pub wal_files_discarded: usize,
    /// False when the checkpoint was stopped early at a kill point.
    pub completed: bool,
}

/// How much of a chain [`load_chain`] managed to fold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainLoadReport {
    /// Links the manifest lists.
    pub links_total: usize,
    /// Links folded before damage (== `links_total` when clean).
    pub links_loaded: usize,
    /// Description of the first damaged link, if any.
    pub damage: Option<String>,
}

/// Per-series fingerprint of the sealed blocks the chain already covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    blocks: usize,
    points: usize,
    end_ts: i64,
}

fn fingerprint(blocks: &[Block]) -> Fingerprint {
    Fingerprint {
        blocks: blocks.len(),
        points: blocks.iter().map(Block::len).sum(),
        end_ts: blocks.last().map_or(i64::MIN, |b| b.summary().end),
    }
}

/// Whether `blocks` still starts with the exact prefix `fp` described —
/// i.e. nothing the chain already serialized was evicted or rewritten.
fn prefix_matches(blocks: &[Block], fp: &Fingerprint) -> bool {
    if fp.blocks == 0 {
        return true;
    }
    if blocks.len() < fp.blocks {
        return false;
    }
    let prefix = &blocks[..fp.blocks];
    prefix.iter().map(Block::len).sum::<usize>() == fp.points
        && prefix[fp.blocks - 1].summary().end == fp.end_ts
}

/// The file name of link `seq` of chain `chain_id`: seq 0 is the base.
fn link_name(chain_id: u64, seq: u64) -> String {
    let role = if seq == 0 { "base" } else { "delta" };
    format!("{role}-{chain_id:016x}-{seq:08}.snap")
}

/// Parses `base-…`/`delta-…` link file names back into their chain id.
fn parse_link_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(".snap")?;
    let rest = stem
        .strip_prefix("base-")
        .or_else(|| stem.strip_prefix("delta-"))?;
    let (chain_id, seq) = rest.split_once('-')?;
    seq.parse::<u64>().ok()?;
    u64::from_str_radix(chain_id, 16).ok()
}

struct Manifest {
    chain_id: u64,
    links: Vec<u64>,
}

/// Checks the CRC, then the version: a damaged manifest is damage, a
/// CRC-valid retired one a refusal.
fn parse_manifest(bytes: &[u8]) -> Result<Manifest, SnapshotError> {
    let damaged = || corrupt("chain manifest is damaged");
    let body = checked_body(bytes).ok_or_else(damaged)?;
    if body.len() < CHAIN_MAGIC.len() + 4 + 8 + 4 || &body[..8] != CHAIN_MAGIC {
        return Err(damaged());
    }
    let mut r = &body[8..];
    match read_u32(&mut r)? {
        MANIFEST_VERSION => {}
        1 => {
            return Err(retired(
                "chain manifest version 1 (a chain of links without checksums) is retired; \
                 this build reads manifest version 2 only and carries no migration",
            ))
        }
        _ => return Err(corrupt("unsupported chain manifest version")),
    }
    let chain_id = read_u64(&mut r)?;
    let count = read_u32(&mut r)? as usize;
    if r.len() != count * 8 {
        return Err(damaged());
    }
    let links = r
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("eight bytes")))
        .collect();
    Ok(Manifest { chain_id, links })
}

/// Reads the manifest; `Ok(None)` means no manifest exists (an empty
/// chain), `Err` means one exists but is damaged or retired.
fn read_manifest(dir: &Path) -> Result<Option<Manifest>, SnapshotError> {
    match std::fs::read(dir.join(MANIFEST_NAME)) {
        Ok(bytes) => parse_manifest(&bytes).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

fn write_manifest(dir: &Path, chain_id: u64, links: &[u64]) -> Result<(), SnapshotError> {
    let mut body = Vec::with_capacity(24 + links.len() * 8 + 4);
    body.extend_from_slice(CHAIN_MAGIC);
    body.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    body.extend_from_slice(&chain_id.to_le_bytes());
    body.extend_from_slice(&(links.len() as u32).to_le_bytes());
    for seq in links {
        body.extend_from_slice(&seq.to_le_bytes());
    }
    replace_file(&dir.join(MANIFEST_NAME), body).map(drop)
}

/// Computes the delta entries between the chain's fingerprints and a
/// fresh export: appends for cleanly-extended series, replaces for new
/// or rewritten ones, zero-block replaces (tombstones) for series the
/// store no longer holds.
fn diff(prev: &BTreeMap<SeriesKey, Fingerprint>, exports: &[Entry]) -> Vec<Entry> {
    let mut entries: Vec<Entry> = prev
        .keys()
        .filter(|key| exports.binary_search_by(|e| e.key.cmp(key)).is_err())
        .map(|key| Entry::replace(key.clone(), Vec::new()))
        .collect();
    for export in exports {
        match prev.get(&export.key) {
            Some(fp) if prefix_matches(&export.blocks, fp) => {
                if export.blocks.len() > fp.blocks {
                    entries.push(Entry {
                        key: export.key.clone(),
                        mode: Mode::Append,
                        start_block: fp.blocks as u32,
                        blocks: export.blocks[fp.blocks..].to_vec(),
                    });
                }
            }
            _ => entries.push(export.clone()),
        }
    }
    entries.sort_by(|a, b| a.key.cmp(&b.key));
    entries
}

/// A regular file where the chain directory belongs is a boot snapshot
/// of the retired single-file layout: refuse it by name rather than
/// misreading it (there is no migration code — the message says how to
/// carry one over).
fn refuse_single_file(dir: &Path) -> Result<(), SnapshotError> {
    if dir.is_file() {
        return Err(SnapshotError::Tsdb(TsdbError::InvalidParameter {
            name: "chain directory",
            message: "the path is a regular file, and single-file boot snapshots are retired: \
                      move it aside, `ShardedDb::load` it, and hand the store to \
                      `Server::start` — the first checkpoint re-bases it into the chain \
                      directory",
        }));
    }
    Ok(())
}

/// Folds a checkpoint-chain directory into a fresh [`ShardedDb`],
/// returning how much of the chain was loadable. Damage — a garbage
/// manifest, a missing, foreign or torn link, a link that does not
/// extend its predecessors — stops the fold at the newest loadable
/// prefix instead of failing: the WAL tail (never discarded past the
/// manifest's coverage) supplies the rest via
/// [`crate::persist::recover_sharded`]. The hard errors are refusals of
/// a retired layout — a regular file at `dir` (a single-file boot
/// snapshot), a version-1 manifest, a version 1–3 link — which boot
/// nothing and touch nothing.
pub fn load_chain_with_report(
    dir: &Path,
    config: ShardedConfig,
) -> Result<(ShardedDb, ChainLoadReport), SnapshotError> {
    refuse_single_file(dir)?;
    let db = ShardedDb::with_config(config);
    let mut report = ChainLoadReport::default();
    let manifest = match read_manifest(dir) {
        Ok(Some(manifest)) => manifest,
        Ok(None) => return Ok((db, report)),
        Err(e) if is_refusal(&e) => return Err(e),
        Err(e) => {
            report.damage = Some(e.to_string());
            return Ok((db, report));
        }
    };
    report.links_total = manifest.links.len();
    for (index, &seq) in manifest.links.iter().enumerate() {
        let path = dir.join(link_name(manifest.chain_id, seq));
        let folded = read_link(&path, &db).and_then(|link| {
            if link.chain_id != manifest.chain_id {
                return Err(corrupt("link belongs to a foreign chain"));
            }
            if link.seq != seq {
                return Err(corrupt("link sequence does not match the manifest"));
            }
            apply_link(&db, link.entries)
        });
        match folded {
            Ok(()) => report.links_loaded += 1,
            Err(e) if is_refusal(&e) => return Err(e),
            Err(e) => {
                report.damage = Some(format!("link {index} (seq {seq}): {e}"));
                break;
            }
        }
    }
    Ok((db, report))
}

/// [`load_chain_with_report`] without the report — the form
/// [`crate::persist::load_sharded`] dispatches to for chain directories.
pub fn load_chain(dir: &Path, config: ShardedConfig) -> Result<ShardedDb, SnapshotError> {
    Ok(load_chain_with_report(dir, config)?.0)
}

/// The writer side of an incremental checkpoint chain: owns the chain
/// directory, the live manifest state, and the per-series fingerprints
/// change detection works from. One instance per store; callers
/// serialize checkpoints (the server holds it behind a mutex and the
/// snapshot gate).
pub struct CheckpointChain {
    dir: PathBuf,
    max_depth: usize,
    chain_id: u64,
    links: Vec<u64>,
    series: Option<BTreeMap<SeriesKey, Fingerprint>>,
    next_chain_id: u64,
}

impl CheckpointChain {
    /// Opens (or creates) a chain directory. `max_depth` is the number
    /// of delta links tolerated before a checkpoint re-bases (writes a
    /// fresh full base and drops the old chain); it must be at least 1.
    ///
    /// Fingerprints do not survive restarts, so the first checkpoint of
    /// a fresh instance always re-bases. A regular file at `dir` (a
    /// retired single-file boot snapshot) and a retired version-1
    /// manifest are refused, before anything on disk is touched.
    pub fn open(dir: &Path, max_depth: usize) -> Result<Self, SnapshotError> {
        refuse_single_file(dir)?;
        if max_depth == 0 {
            return Err(SnapshotError::Tsdb(TsdbError::InvalidParameter {
                name: "max_depth",
                message: "the checkpoint chain depth must be at least 1",
            }));
        }
        let (chain_id, links) = match read_manifest(dir) {
            Ok(Some(manifest)) => (manifest.chain_id, manifest.links),
            Err(e) if is_refusal(&e) => return Err(e),
            // No manifest, or a damaged one: the first checkpoint
            // re-bases under a fresh id anyway.
            _ => (0, Vec::new()),
        };
        std::fs::create_dir_all(dir)?;
        // New chain ids must never collide with any file already in the
        // directory, including orphans from chains whose manifest is
        // gone — scan everything, not just the manifest.
        let mut highest = chain_id;
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            if let Some(chain_id) = name.to_str().and_then(parse_link_name) {
                highest = highest.max(chain_id);
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            max_depth,
            chain_id,
            links,
            series: None,
            next_chain_id: highest + 1,
        })
    }

    /// The chain directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Links currently in the chain (base + deltas).
    pub fn links(&self) -> usize {
        self.links.len()
    }

    /// Takes one incremental checkpoint: rotate `wal` (if present),
    /// write the delta (or re-base), commit the manifest, discard the
    /// covered WAL generations. See the module docs for the ordering's
    /// crash-safety argument.
    pub fn checkpoint(
        &mut self,
        db: &ShardedDb,
        wal: Option<&Wal>,
    ) -> Result<ChainCheckpointReport, SnapshotError> {
        self.checkpoint_until(db, wal, None)
    }

    /// [`Self::checkpoint`] with a kill switch: when `stop_after` names
    /// a step, the checkpoint returns (with `completed == false`) right
    /// after that step, simulating a crash for the fault-injection
    /// tests. The caller must then discard this instance, exactly as a
    /// real crash would.
    pub fn checkpoint_until(
        &mut self,
        db: &ShardedDb,
        wal: Option<&Wal>,
        stop_after: Option<ChainStep>,
    ) -> Result<ChainCheckpointReport, SnapshotError> {
        let stop = |step: ChainStep| stop_after == Some(step);
        let mut report = ChainCheckpointReport {
            links: self.links.len(),
            ..ChainCheckpointReport::default()
        };
        if let Some(wal) = wal {
            report.boundary = Some(wal.rotate()?);
        }
        if stop(ChainStep::Rotated) {
            return Ok(report);
        }

        db.flush()?;
        // A fully evicted series is absent from the chain (a tombstone
        // in a delta), not an empty entry.
        let mut exports = export_all(db)?;
        exports.retain(|e| !e.blocks.is_empty());
        let fingerprints: BTreeMap<SeriesKey, Fingerprint> = exports
            .iter()
            .map(|e| (e.key.clone(), fingerprint(&e.blocks)))
            .collect();

        let deltas = self.links.len().saturating_sub(1);
        if self.series.is_none() || self.links.is_empty() || deltas >= self.max_depth {
            // Re-base: a fresh full base under a fresh chain id.
            report.rebased = true;
            report.link_written = true;
            report.series_written = exports.len();
            let chain_id = self.next_chain_id;
            let base = self.dir.join(link_name(chain_id, 0));
            report.bytes_written = write_link(&base, chain_id, 0, &exports)?;
            if stop(ChainStep::BaseWritten) {
                return Ok(report);
            }

            write_manifest(&self.dir, chain_id, &[0])?;
            self.chain_id = chain_id;
            self.links = vec![0];
            self.next_chain_id = chain_id + 1;
            self.series = Some(fingerprints);
            report.links = 1;
            if stop(ChainStep::ManifestWritten) {
                return Ok(report);
            }

            self.remove_other_chains()?;
            if stop(ChainStep::OldChainRemoved) {
                return Ok(report);
            }
        } else {
            let entries = diff(self.series.as_ref().expect("checked above"), &exports);
            if entries.is_empty() {
                // Nothing changed: no link, but the rotation boundary is
                // still fully covered — fall through to the discard.
                self.series = Some(fingerprints);
            } else {
                let seq = self.links.last().copied().unwrap_or(0) + 1;
                let path = self.dir.join(link_name(self.chain_id, seq));
                report.link_written = true;
                report.series_written = entries.len();
                report.bytes_written = write_link(&path, self.chain_id, seq, &entries)?;
                if stop(ChainStep::DeltaWritten) {
                    return Ok(report);
                }

                let mut links = self.links.clone();
                links.push(seq);
                write_manifest(&self.dir, self.chain_id, &links)?;
                self.links = links;
                self.series = Some(fingerprints);
                report.links = self.links.len();
                if stop(ChainStep::ManifestWritten) {
                    return Ok(report);
                }
            }
        }

        if let (Some(wal), Some(boundary)) = (wal, report.boundary) {
            report.wal_files_discarded = wal.discard_before(boundary)?;
        }
        report.links = self.links.len();
        if stop(ChainStep::Discarded) {
            return Ok(report);
        }
        report.completed = true;
        Ok(report)
    }

    /// Deletes every link file not belonging to the current chain —
    /// the previous chain after a re-base, plus any orphans earlier
    /// kills left behind.
    fn remove_other_chains(&self) -> Result<(), SnapshotError> {
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(chain_id) = name.to_str().and_then(parse_link_name) {
                if chain_id != self.chain_id {
                    std::fs::remove_file(entry.path())?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::DataPoint;
    use crate::query::RangeQuery;
    use crate::tags::Selector;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "asap_chain_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn full() -> RangeQuery {
        RangeQuery::raw(i64::MIN + 1, i64::MAX)
    }

    fn db() -> ShardedDb {
        ShardedDb::with_config(ShardedConfig::new(3, 16))
    }

    fn write_points(db: &ShardedDb, host: &str, t0: i64, count: usize) {
        let key = SeriesKey::metric("cpu").with_tag("host", host);
        for i in 0..count {
            db.write(&key, DataPoint::new(t0 + i as i64 * 5, (i as f64).sin()))
                .unwrap();
        }
    }

    fn assert_fold_matches(dir: &Path, db: &ShardedDb) {
        let (folded, report) = load_chain_with_report(dir, ShardedConfig::new(2, 16)).unwrap();
        assert_eq!(report.damage, None, "clean chain reported damage");
        assert_eq!(report.links_loaded, report.links_total);
        assert_eq!(
            folded.query_selector(&Selector::any(), full()).unwrap(),
            db.query_selector(&Selector::any(), full()).unwrap()
        );
    }

    fn link_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| parse_link_name(n).is_some())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn chain_round_trips_incrementally() {
        let dir = temp_dir("roundtrip");
        let db = db();
        let mut chain = CheckpointChain::open(&dir, 8).unwrap();

        write_points(&db, "a", 0, 100);
        let first = chain.checkpoint(&db, None).unwrap();
        assert!(first.rebased && first.completed && first.link_written);
        assert_fold_matches(&dir, &db);

        write_points(&db, "a", 1_000, 50);
        write_points(&db, "b", 0, 40);
        let second = chain.checkpoint(&db, None).unwrap();
        assert!(!second.rebased && second.link_written);
        assert_eq!(second.series_written, 2);
        assert_eq!(second.links, 2);
        assert_fold_matches(&dir, &db);

        write_points(&db, "b", 1_000, 30);
        let third = chain.checkpoint(&db, None).unwrap();
        assert_eq!(third.series_written, 1, "only the changed series rides the delta");
        assert_eq!(third.links, 3);
        assert_fold_matches(&dir, &db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unchanged_checkpoint_writes_no_link() {
        let dir = temp_dir("idle");
        let db = db();
        write_points(&db, "a", 0, 64);
        let mut chain = CheckpointChain::open(&dir, 8).unwrap();
        chain.checkpoint(&db, None).unwrap();
        let idle = chain.checkpoint(&db, None).unwrap();
        assert!(idle.completed && !idle.link_written);
        assert_eq!(idle.links, 1, "idle checkpoints must not grow the chain");
        assert_fold_matches(&dir, &db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_cost_tracks_write_activity_not_total_data() {
        let dir = temp_dir("cost");
        let db = db();
        write_points(&db, "a", 0, 4_000);
        let mut chain = CheckpointChain::open(&dir, 8).unwrap();
        let base = chain.checkpoint(&db, None).unwrap();

        write_points(&db, "a", 100_000, 32);
        let delta = chain.checkpoint(&db, None).unwrap();
        assert!(
            delta.bytes_written * 10 < base.bytes_written,
            "delta ({} bytes) should be far below the base ({} bytes)",
            delta.bytes_written,
            base.bytes_written
        );
        assert_fold_matches(&dir, &db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebase_at_depth_resets_the_chain_and_removes_old_files() {
        let dir = temp_dir("rebase");
        let db = db();
        write_points(&db, "a", 0, 32);
        let mut chain = CheckpointChain::open(&dir, 2).unwrap();
        chain.checkpoint(&db, None).unwrap();
        for round in 0..2 {
            write_points(&db, "a", 10_000 * (round + 1), 32);
            let report = chain.checkpoint(&db, None).unwrap();
            assert!(!report.rebased);
        }
        assert_eq!(chain.links(), 3);

        write_points(&db, "a", 50_000, 32);
        let rebase = chain.checkpoint(&db, None).unwrap();
        assert!(rebase.rebased);
        assert_eq!(chain.links(), 1);
        let files = link_files(&dir);
        assert_eq!(files.len(), 1, "old chain files must be gone: {files:?}");
        assert!(files[0].starts_with("base-"));
        assert_fold_matches(&dir, &db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tombstone_propagates_full_eviction() {
        let dir = temp_dir("tombstone");
        let db = db();
        write_points(&db, "a", 0, 64);
        write_points(&db, "b", 0, 64);
        let mut chain = CheckpointChain::open(&dir, 8).unwrap();
        chain.checkpoint(&db, None).unwrap();

        let key = SeriesKey::metric("cpu").with_tag("host", "a");
        db.evict_series_before(&key, i64::MAX);
        chain.checkpoint(&db, None).unwrap();
        let (folded, _) = load_chain_with_report(&dir, ShardedConfig::new(2, 16)).unwrap();
        assert!(!folded.list_series(&Selector::any()).contains(&key));
        assert_fold_matches(&dir, &db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_eviction_triggers_a_replace_not_a_bad_append() {
        let dir = temp_dir("evict");
        let db = db();
        write_points(&db, "a", 0, 200);
        let mut chain = CheckpointChain::open(&dir, 8).unwrap();
        chain.checkpoint(&db, None).unwrap();

        // Drop the oldest blocks and add new data: the covered prefix no
        // longer matches, so the delta must replace the series.
        let key = SeriesKey::metric("cpu").with_tag("host", "a");
        assert!(db.evict_series_before(&key, 300) > 0);
        write_points(&db, "a", 10_000, 20);
        chain.checkpoint(&db, None).unwrap();
        assert_fold_matches(&dir, &db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_and_damaged_manifest_fold_to_empty() {
        let dir = temp_dir("empty");
        let (folded, report) = load_chain_with_report(&dir, ShardedConfig::default()).unwrap();
        assert_eq!(folded.series_count(), 0);
        assert_eq!(report.links_total, 0);
        assert!(report.damage.is_none());

        std::fs::write(dir.join(MANIFEST_NAME), b"not a manifest").unwrap();
        let (folded, report) = load_chain_with_report(&dir, ShardedConfig::default()).unwrap();
        assert_eq!(folded.series_count(), 0);
        assert!(report.damage.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_sharded_dispatches_chain_directories() {
        let dir = temp_dir("dispatch");
        let db = db();
        write_points(&db, "a", 0, 80);
        let mut chain = CheckpointChain::open(&dir, 8).unwrap();
        chain.checkpoint(&db, None).unwrap();
        write_points(&db, "a", 10_000, 10);
        chain.checkpoint(&db, None).unwrap();

        let loaded = crate::persist::load_sharded(&dir, ShardedConfig::new(2, 16)).unwrap();
        assert_eq!(
            loaded.query_selector(&Selector::any(), full()).unwrap(),
            db.query_selector(&Selector::any(), full()).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn regular_file_at_the_chain_path_is_a_retired_boot_snapshot() {
        // A well-formed export where the chain directory belongs — the
        // single-file boot layout is gone, and must be refused by name
        // by both the writer and the loader rather than misread.
        let dir = temp_dir("retired");
        let file = dir.join("boot.snap");
        let db = db();
        write_points(&db, "a", 0, 40);
        crate::persist::save_sharded(&db, &file).unwrap();
        let before = std::fs::read(&file).unwrap();

        let opened = CheckpointChain::open(&file, 4).map(|_| ()).unwrap_err();
        let loaded = load_chain_with_report(&file, ShardedConfig::default())
            .map(|_| ())
            .unwrap_err();
        for err in [opened, loaded] {
            assert!(
                err.to_string().contains("single-file boot snapshots are retired"),
                "{err}"
            );
        }
        assert_eq!(std::fs::read(&file).unwrap(), before, "the file was touched");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file in `dir`, by name, with its bytes.
    fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&p).unwrap())
            })
            .collect()
    }

    #[test]
    fn retired_manifest_and_links_are_refused_and_left_alone() {
        let dir = temp_dir("retired-layouts");
        let db = db();
        write_points(&db, "a", 0, 80);
        let mut chain = CheckpointChain::open(&dir, 8).unwrap();
        chain.checkpoint(&db, None).unwrap();
        write_points(&db, "a", 10_000, 10);
        chain.checkpoint(&db, None).unwrap();
        drop(chain);

        // A CRC-valid version-1 manifest: a chain of retired links.
        let manifest = dir.join(MANIFEST_NAME);
        let current = std::fs::read(&manifest).unwrap();
        let mut body = current[..current.len() - 4].to_vec();
        body[8..12].copy_from_slice(&1u32.to_le_bytes());
        let crc = crate::wal::crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&manifest, &body).unwrap();
        let before = dir_bytes(&dir);
        let loaded = load_chain_with_report(&dir, ShardedConfig::default())
            .map(|_| ())
            .unwrap_err();
        let opened = CheckpointChain::open(&dir, 8).map(|_| ()).unwrap_err();
        let via_load = ShardedDb::load(&dir, ShardedConfig::default())
            .map(|_| ())
            .unwrap_err();
        for err in [loaded, opened, via_load] {
            assert!(is_refusal(&err), "{err}");
            assert!(
                err.to_string().contains("chain manifest version 1"),
                "{err}"
            );
        }
        assert_eq!(dir_bytes(&dir), before, "a refusal touched the chain");

        // A current manifest over a version-3 delta: the fold refuses
        // the link instead of degrading past it.
        std::fs::write(&manifest, &current).unwrap();
        let delta = link_files(&dir)
            .into_iter()
            .find(|n| n.starts_with("delta-"))
            .map(|n| dir.join(n))
            .unwrap();
        let mut bytes = std::fs::read(&delta).unwrap();
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&delta, &bytes).unwrap();
        let err = load_chain_with_report(&dir, ShardedConfig::default())
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("format version 3"), "{err}");
        assert_eq!(std::fs::read(&delta).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_chain_rebases_first() {
        let dir = temp_dir("reopen");
        let db = db();
        write_points(&db, "a", 0, 64);
        let mut chain = CheckpointChain::open(&dir, 8).unwrap();
        chain.checkpoint(&db, None).unwrap();
        write_points(&db, "a", 10_000, 10);
        chain.checkpoint(&db, None).unwrap();
        let old_files = link_files(&dir);
        assert_eq!(old_files.len(), 2);
        drop(chain);

        // A fresh instance has no fingerprints: its first checkpoint
        // must write a new base under a new chain id, then clean up.
        let mut chain = CheckpointChain::open(&dir, 8).unwrap();
        assert_eq!(chain.links(), 2, "open reads the existing manifest");
        write_points(&db, "a", 20_000, 10);
        let report = chain.checkpoint(&db, None).unwrap();
        assert!(report.rebased);
        let files = link_files(&dir);
        assert_eq!(files.len(), 1);
        assert_ne!(files, old_files);
        assert_fold_matches(&dir, &db);
        std::fs::remove_dir_all(&dir).ok();
    }
}
