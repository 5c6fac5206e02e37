//! Incremental checkpoint chains.
//!
//! A whole-store export ([`crate::persist::save_sharded`]) re-serializes
//! the **entire** store every time, so its cost scales with total data.
//! A long-running server checkpointing every minute needs the opposite:
//! cost proportional to what changed since the last checkpoint. This
//! module provides that as a *chain* — a directory holding one full base
//! plus a sequence of per-series delta links. Every link is one file of
//! [`crate::persist`]'s link format: the base is an export under the
//! chain's id, and a delta holds only the series that changed. Each link
//! carries its chain id and sequence number under its own CRC, so the
//! directory is its own index — there is no manifest — and it is the
//! only state a server boots from:
//!
//! ```text
//! <dir>/
//!   base-<chain_id:016x>-00000000.snap    link seq 0: every series, replaced
//!   delta-<chain_id:016x>-<seq:08>.snap   series that changed since seq-1
//! ```
//!
//! ## The fold
//!
//! [`load_chain_with_report`] takes the newest chain (the highest id)
//! whose base loads, then folds that chain's deltas in `seq` order while
//! they are contiguous and load. Each link's inner chain id and sequence
//! must match its file name. A damaged newest base falls back to the
//! next older chain still on disk — one that a re-base killed before its
//! cleanup left behind. Other names in the directory — a `*.tmp` file a
//! killed write left, the `MANIFEST` an earlier build indexed its chains
//! with — are ignored, and booting modifies nothing.
//!
//! A retired layout is refused by name, never degraded past: a link of
//! format version 1–3 anywhere in the directory is a hard error from
//! [`load_chain_with_report`] and [`CheckpointChain::open`], found from
//! each link's 12-byte header before anything on disk is touched.
//! Downgrading to a build that reads a `MANIFEST` is unsupported (it
//! would find none and boot empty); the way back is a `SNAPSHOT` export.
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
//! Every link is written via tmp+fsync+rename+directory-fsync
//! ([`crate::persist`]'s `replace_file`), and its rename is the commit
//! point. A checkpoint orders its steps so that a kill anywhere leaves a
//! recoverable prefix:
//!
//! 1. rotate the WAL (boundary `g`): nothing discarded yet;
//! 2. write the delta (or, on re-base, the new base under a fresh chain
//!    id) — the commit: the newest chain now covers everything before
//!    `g`, and replay of not-yet-discarded generations is idempotent;
//! 3. (re-base only) delete every other chain's links, leftover `*.tmp`
//!    files and an earlier build's `MANIFEST`: the new base supersedes
//!    them all;
//! 4. discard WAL generations `< g`: every record they hold is in the
//!    chain.
//!
//! The in-memory chain state (link count, fingerprints) only advances
//! after the link write returns `Ok`. A write that returns `Err` may
//! still have landed, so the writer then drops its fingerprints, and a
//! failed re-base also uses up its chain id: the next checkpoint
//! re-bases under a fresh id, and never writes a delta onto a chain a
//! newer base on disk may have superseded. A checkpoint pass starts no
//! thread. The fold goes through the one link reader and the one fold,
//! so each link is validated **fully before it is applied**, and
//! degrades to the newest loadable prefix on any damage — the WAL tail
//! (which was only discarded once covered) supplies the rest.
//! `tests/crash_properties.rs` kills a checkpoint between every step,
//! truncates and bit-flips every link, and proves recovery ≡ the
//! surviving-prefix oracle.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};

use crate::block::Block;
use crate::error::TsdbError;
use crate::persist::{
    apply_link, corrupt, export_all, is_refusal, read_link, refuse_retired, write_link, Entry,
    Mode, SnapshotError,
};
use crate::sharded::{ShardedConfig, ShardedDb};
use crate::tags::SeriesKey;
use crate::wal::Wal;

/// The chain index an earlier build kept beside the links; removed by
/// the first re-base, ignored until then.
const MANIFEST_NAME: &str = "MANIFEST";

/// The steps of one incremental checkpoint, in execution order. Passed
/// to [`CheckpointChain::checkpoint_until`] by the fault-injection tests
/// to simulate a kill *after* the named step completed (and before the
/// next one started); production code never stops early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStep {
    /// The WAL was rotated onto a fresh generation; nothing written yet.
    Rotated,
    /// The delta link was renamed into place — the commit point (delta
    /// path).
    DeltaWritten,
    /// The new base was renamed into place — the commit point (re-base
    /// path).
    BaseWritten,
    /// Every other chain's links and the leftover files were deleted
    /// (re-base path).
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
    /// Links of the folded chain on disk: its highest link `seq` + 1,
    /// so a missing link in the middle still counts. When every base is
    /// damaged, the oldest chain tried; 0 for a directory with no links.
    pub links_total: usize,
    /// Links folded before damage (== `links_total` when clean).
    pub links_loaded: usize,
    /// Description of the first damaged or missing link, if any —
    /// including a damaged newer base the fold fell back past.
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

/// Parses a name [`link_name`] produced back into `(chain_id, seq)`.
fn parse_link_name(name: &str) -> Option<(u64, u64)> {
    let stem = name.strip_suffix(".snap")?;
    let rest = stem
        .strip_prefix("base-")
        .or_else(|| stem.strip_prefix("delta-"))?;
    let (chain_id, seq) = rest.split_once('-')?;
    let parsed = (u64::from_str_radix(chain_id, 16).ok()?, seq.parse().ok()?);
    (link_name(parsed.0, parsed.1) == name).then_some(parsed)
}

/// The chain directory's only index, shared by the fold and the writer:
/// each chain id on disk with its highest link seq. Other names are
/// ignored. A link of a retired format version is refused by its 12-byte
/// header, so neither a fold nor a re-base's cleanup ever passes over
/// one; a header that cannot be read is left to the fold as damage.
fn scan(dir: &Path) -> Result<BTreeMap<u64, u64>, SnapshotError> {
    let mut chains = BTreeMap::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(chains),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let Some((chain_id, seq)) = entry.file_name().to_str().and_then(parse_link_name) else {
            continue;
        };
        let mut header = Vec::with_capacity(12);
        let read = std::fs::File::open(entry.path())
            .and_then(|file| file.take(12).read_to_end(&mut header));
        if read.is_ok() {
            refuse_retired(&header)?;
        }
        let last = chains.entry(chain_id).or_insert(seq);
        *last = (*last).max(seq);
    }
    Ok(chains)
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
/// returning how much of the chain was loadable. The newest chain whose
/// base loads is folded (see the module docs); damage — a missing,
/// foreign or torn link, a link that does not extend its predecessors —
/// stops the fold at the newest loadable prefix instead of failing: the
/// WAL tail (never discarded past what a committed link covers) supplies
/// the rest via [`crate::persist::recover_sharded`]. The hard errors are
/// refusals of a retired layout — a regular file at `dir` (a single-file
/// boot snapshot), a version 1–3 link — which boot nothing and touch
/// nothing.
pub fn load_chain_with_report(
    dir: &Path,
    config: ShardedConfig,
) -> Result<(ShardedDb, ChainLoadReport), SnapshotError> {
    refuse_single_file(dir)?;
    let mut report = ChainLoadReport::default();
    // Newest chain first: an older one is folded only when every newer
    // base is damaged.
    for (&chain_id, &last) in scan(dir)?.iter().rev() {
        let db = ShardedDb::with_config(config);
        report.links_total = last as usize + 1;
        report.links_loaded = 0;
        for seq in 0..=last {
            let name = link_name(chain_id, seq);
            let folded = read_link(&dir.join(&name), &db).and_then(|link| {
                if link.chain_id != chain_id {
                    return Err(corrupt("link belongs to a foreign chain"));
                }
                if link.seq != seq {
                    return Err(corrupt("link sequence does not match its file name"));
                }
                apply_link(&db, link.entries)
            });
            match folded {
                Ok(()) => report.links_loaded += 1,
                Err(e) if is_refusal(&e) => return Err(e),
                Err(e) => {
                    report.damage.get_or_insert(format!("{name}: {e}"));
                    break;
                }
            }
        }
        if report.links_loaded > 0 {
            return Ok((db, report));
        }
    }
    Ok((ShardedDb::with_config(config), report))
}

/// [`load_chain_with_report`] without the report — the form
/// [`crate::persist::load_sharded`] dispatches to for chain directories.
pub fn load_chain(dir: &Path, config: ShardedConfig) -> Result<ShardedDb, SnapshotError> {
    Ok(load_chain_with_report(dir, config)?.0)
}

/// The writer side of an incremental checkpoint chain: owns the chain
/// directory, the id and link count of the chain it extends, and the
/// per-series fingerprints change detection works from. One instance
/// per store; callers serialize checkpoints (the server holds it behind
/// a mutex and the snapshot gate).
pub struct CheckpointChain {
    dir: PathBuf,
    max_depth: usize,
    chain_id: u64,
    links: usize,
    /// `None` until a link write returns `Ok`: the next checkpoint
    /// re-bases.
    series: Option<BTreeMap<SeriesKey, Fingerprint>>,
    next_chain_id: u64,
}

impl CheckpointChain {
    /// Opens (or creates) a chain directory. `max_depth` is the number
    /// of delta links tolerated before a checkpoint re-bases (writes a
    /// fresh full base and drops the old chain); it must be at least 1.
    ///
    /// Fingerprints do not survive restarts, so the first checkpoint of
    /// a fresh instance always re-bases, under an id above every chain
    /// in the directory. A regular file at `dir` (a retired single-file
    /// boot snapshot) and a directory holding a link of a retired format
    /// version are refused, before anything on disk is touched.
    pub fn open(dir: &Path, max_depth: usize) -> Result<Self, SnapshotError> {
        refuse_single_file(dir)?;
        if max_depth == 0 {
            return Err(SnapshotError::Tsdb(TsdbError::InvalidParameter {
                name: "max_depth",
                message: "the checkpoint chain depth must be at least 1",
            }));
        }
        let (chain_id, links) = scan(dir)?
            .pop_last()
            .map_or((0, 0), |(id, last)| (id, last as usize + 1));
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            max_depth,
            chain_id,
            links,
            series: None,
            next_chain_id: chain_id + 1,
        })
    }

    /// The chain directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Links currently in the chain (base + deltas).
    pub fn links(&self) -> usize {
        self.links
    }

    /// Takes one incremental checkpoint: rotate `wal` (if present),
    /// write the delta (or re-base) — the commit —, discard the covered
    /// WAL generations. See the module docs for the ordering's
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
            links: self.links,
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

        // The fingerprints come back only once a link write (or an empty
        // diff) returns `Ok`.
        match self.series.take() {
            Some(prev) if self.links <= self.max_depth => {
                let entries = diff(&prev, &exports);
                // An empty diff writes no link, but the rotation boundary
                // is still fully covered — fall through to the discard.
                if !entries.is_empty() {
                    let seq = self.links as u64;
                    let path = self.dir.join(link_name(self.chain_id, seq));
                    report.bytes_written = write_link(&path, self.chain_id, seq, &entries)?;
                    report.link_written = true;
                    report.series_written = entries.len();
                    self.links += 1;
                }
                self.series = Some(fingerprints);
                report.links = self.links;
                if report.link_written && stop(ChainStep::DeltaWritten) {
                    return Ok(report);
                }
            }
            _ => {
                // Re-base: a fresh full base under a fresh chain id, used
                // up even when the write fails.
                let chain_id = self.next_chain_id;
                self.next_chain_id += 1;
                let base = self.dir.join(link_name(chain_id, 0));
                report.bytes_written = write_link(&base, chain_id, 0, &exports)?;
                (self.chain_id, self.links) = (chain_id, 1);
                self.series = Some(fingerprints);
                report.rebased = true;
                report.link_written = true;
                report.series_written = exports.len();
                report.links = 1;
                if stop(ChainStep::BaseWritten) {
                    return Ok(report);
                }

                self.remove_other_chains()?;
                if stop(ChainStep::OldChainRemoved) {
                    return Ok(report);
                }
            }
        }

        if let (Some(wal), Some(boundary)) = (wal, report.boundary) {
            report.wal_files_discarded = wal.discard_before(boundary)?;
        }
        if stop(ChainStep::Discarded) {
            return Ok(report);
        }
        report.completed = true;
        Ok(report)
    }

    /// Deletes what the current chain's base supersedes: every other
    /// chain's links (the previous chain, and orphans earlier kills left
    /// behind), `*.tmp` files of killed writes, and an earlier build's
    /// `MANIFEST`.
    fn remove_other_chains(&self) -> Result<(), SnapshotError> {
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            let other_chain = parse_link_name(name).is_some_and(|(id, _)| id != self.chain_id);
            if other_chain || name.ends_with(".tmp") || name == MANIFEST_NAME {
                std::fs::remove_file(entry.path())?;
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

        // A garbage `MANIFEST` is not a link: ignored, not damage.
        std::fs::write(dir.join(MANIFEST_NAME), b"not a manifest").unwrap();
        let (folded, report) = load_chain_with_report(&dir, ShardedConfig::default()).unwrap();
        assert_eq!(folded.series_count(), 0);
        assert_eq!(report, ChainLoadReport::default());
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

        // Version 2 in the base's header, version 3 in the delta's: each
        // is refused by name, by the fold and by the writer alike — a
        // writer that opened would delete the links at its first re-base.
        for (role, version) in [("base-", 2u32), ("delta-", 3)] {
            let path = link_files(&dir)
                .into_iter()
                .find(|n| n.starts_with(role))
                .map(|n| dir.join(n))
                .unwrap();
            let current = std::fs::read(&path).unwrap();
            let mut retired = current.clone();
            retired[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &retired).unwrap();
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
                    err.to_string().contains(&format!("format version {version}")),
                    "{err}"
                );
            }
            assert_eq!(dir_bytes(&dir), before, "a refusal touched the chain");
            std::fs::write(&path, &current).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_rebase_uses_up_its_chain_id() {
        let dir = temp_dir("failed-rebase");
        let db = db();
        write_points(&db, "a", 0, 64);
        let mut chain = CheckpointChain::open(&dir, 8).unwrap();
        chain.checkpoint(&db, None).unwrap();
        drop(chain);

        // A fresh writer re-bases first, under chain id 2; a non-empty
        // directory at that base's name makes the write fail.
        let mut chain = CheckpointChain::open(&dir, 8).unwrap();
        let blocker = dir.join(link_name(2, 0));
        std::fs::create_dir_all(blocker.join("occupied")).unwrap();
        write_points(&db, "a", 10_000, 16);
        assert!(chain.checkpoint(&db, None).is_err());
        std::fs::remove_dir_all(&blocker).unwrap();

        // The next checkpoint re-bases again, under a fresh id: never a
        // delta onto chain 1, which a landed base 2 would supersede.
        write_points(&db, "a", 20_000, 16);
        let report = chain.checkpoint(&db, None).unwrap();
        assert!(report.rebased && report.completed, "{report:?}");
        assert_eq!(link_files(&dir), [link_name(3, 0)]);
        assert_fold_matches(&dir, &db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_first_rebase_removes_leftover_tmp_files_and_an_old_manifest() {
        let dir = temp_dir("leftovers");
        let db = db();
        write_points(&db, "a", 0, 64);
        let mut chain = CheckpointChain::open(&dir, 8).unwrap();
        chain.checkpoint(&db, None).unwrap();
        drop(chain);

        // What a kill inside `replace_file` leaves, and the index an
        // earlier build kept: the fold and `open` ignore both and touch
        // nothing; the first re-base deletes both.
        let tmp = dir.join(format!("{}.tmp", link_name(1, 1)));
        let manifest = dir.join(MANIFEST_NAME);
        std::fs::write(&tmp, b"half a link").unwrap();
        std::fs::write(&manifest, b"ASAPCHN1 and a damaged index").unwrap();
        let before = dir_bytes(&dir);
        assert_fold_matches(&dir, &db);
        let mut chain = CheckpointChain::open(&dir, 8).unwrap();
        assert_eq!(dir_bytes(&dir), before, "booting modified the chain directory");

        write_points(&db, "a", 10_000, 16);
        assert!(chain.checkpoint(&db, None).unwrap().rebased);
        assert!(!tmp.exists() && !manifest.exists());
        assert_eq!(dir_bytes(&dir).into_keys().collect::<Vec<_>>(), [link_name(2, 0)]);
        assert_fold_matches(&dir, &db);
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
        assert_eq!(chain.links(), 2, "open scans the existing chain");
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
