//! Fault-injection wall for the write-ahead log: recovery from a
//! damaged WAL is observationally identical to a serial oracle built
//! from the log's surviving clean prefix — for *every* crash point.
//!
//! The harness simulates crashes the brute-force way:
//!
//! * truncate the log at **every byte offset** — a torn tail must drop
//!   cleanly at the last record boundary, never fail, never resurrect a
//!   partial record;
//! * flip **every bit position's byte** — corruption must be caught by
//!   the CRC (or the header plausibility checks) and confined to the
//!   file tail, never applied, never fatal;
//! * kill between the coarse steps of a checkpoint (rotate → save →
//!   discard, the last leg through a real chain checkpoint) — each
//!   intermediate state must recover to the full store, with snapshot
//!   overlap skipped rather than double-applied;
//! * feed garbage, empty, and half-header files — replay reports them
//!   and moves on;
//! * (property) kill a shuffled-lateness `StreamIngestor` run at an
//!   arbitrary per-shard record boundary — replay must equal the prefix
//!   oracle of exactly the records that survived;
//! * kill an **incremental checkpoint chain** after every step
//!   (rotate, delta write, base write — each the commit point —,
//!   old-chain removal, discard — including partial discards and
//!   removals, and a re-base whose new base then rots) — recovery from
//!   chain + WAL tail must equal the full oracle;
//! * fuzz the chain directory, which is its own index — a garbage,
//!   empty or bit-flipped `MANIFEST` left by an earlier build (every-byte
//!   sweep under `CRASH_EXTENDED=1`, a stride otherwise) is ignored; a
//!   missing delta and a delta from a foreign chain degrade the fold to
//!   the newest loadable prefix, never panic, and never lose
//!   acknowledged data while the WAL tail survives;
//! * fuzz every **link** of a base + two-delta chain — truncated at
//!   every byte, one bit flipped at every byte offset (strided unless
//!   `CRASH_EXTENDED=1`) — the link's CRC refuses each case, the fold
//!   loads exactly the links before it, and recovery with the WAL tail
//!   is the full oracle;
//! * flip every single bit of a standalone export — every flip is an
//!   error, never a load of different data;
//! * checkpoint repeatedly **under a live concurrent ingest pipeline**
//!   and recover ≡ the live store.
//!
//! No expected value is baked in (see the ROADMAP note on golden
//! values): every assertion compares the recovered store against an
//! oracle replayed from the same surviving records, plus the structural
//! claim that surviving records are a *prefix* of what was appended —
//! the non-circular half of the argument.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use asap_tsdb::query::Aggregator;
use asap_tsdb::wal::{read_records, record_len, replay, wal_files};
use asap_tsdb::{
    load_chain_with_report, recover_sharded, ChainStep, CheckpointChain, DataPoint, FsyncPolicy,
    IngestConfig, RangeQuery, Selector, SeriesKey, ShardedConfig, ShardedDb, StreamIngestor, Tsdb,
    TsdbConfig, TsdbError, Wal, WalRecord,
};
use proptest::prelude::*;

/// A fresh scratch directory, unique per call even across threads.
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "asap-crash-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn full() -> RangeQuery {
    RangeQuery::raw(i64::MIN + 1, i64::MAX)
}

/// The serial oracle: the surviving records applied in replay order to a
/// single-shard store, snapshot overlap skipped exactly as `replay` does.
fn oracle_of(records: &[WalRecord], block_capacity: usize) -> Tsdb {
    let oracle = Tsdb::with_config(TsdbConfig { block_capacity });
    for r in records {
        match oracle.write(&r.key, r.point) {
            Ok(()) | Err(TsdbError::OutOfOrder { .. }) => {}
            Err(e) => panic!("oracle write failed: {e:?}"),
        }
    }
    oracle
}

/// Recovered state must equal the oracle for every query shape: the
/// series catalogue, raw ranges, and bucketed aggregation.
/// (Block partitioning is intentionally not compared: snapshot import
/// and live writes may seal at different boundaries.)
fn assert_equiv(recovered: &ShardedDb, oracle: &Tsdb) {
    let any = Selector::any();
    assert_eq!(
        recovered.list_series(&any),
        oracle.list_series(&any),
        "series catalogue diverges"
    );
    let sel = Selector::metric("cpu");
    assert_eq!(
        recovered.query_selector(&sel, full()).unwrap(),
        oracle.query_selector(&sel, full()).unwrap(),
        "selector query diverges"
    );
    for key in oracle.list_series(&any) {
        assert_eq!(
            recovered.query(&key, full()).unwrap(),
            oracle.query(&key, full()).unwrap(),
            "raw range diverges for {key}"
        );
        let bucketed = RangeQuery::bucketed(-1_000, 30_000, 43).aggregate(Aggregator::Max);
        assert_eq!(
            recovered.query(&key, bucketed).unwrap(),
            oracle.query(&key, bucketed).unwrap(),
            "bucketed aggregation diverges for {key}"
        );
    }
}

/// Builds one single-shard WAL of interleaved multi-series appends and
/// returns its raw bytes plus the decoded record sequence.
fn build_single_shard_log(dir: &Path) -> (Vec<u8>, Vec<WalRecord>) {
    let keys = [
        SeriesKey::metric("cpu").with_tag("host", "a"),
        SeriesKey::metric("cpu").with_tag("host", "b").with_tag("dc", "west"),
        SeriesKey::metric("mem"),
    ];
    let wal = Wal::open(dir, 1, FsyncPolicy::EveryN(1 << 20)).unwrap();
    for t in 0..12i64 {
        for (s, key) in keys.iter().enumerate() {
            let point = DataPoint::new(t * 5 + s as i64, (s as f64 * 100.0 + t as f64) * 1.25);
            wal.append(0, key, point).unwrap();
        }
    }
    wal.seal().unwrap();
    let files = wal_files(dir).unwrap();
    assert_eq!(files.len(), 1);
    let bytes = fs::read(&files[0].path).unwrap();
    let segment = read_records(&files[0].path).unwrap();
    assert!(segment.damage.is_none());
    assert_eq!(segment.records.len(), 36);
    (bytes, segment.records)
}

/// The byte offsets at which a record ends — the only truncation points
/// that leave no damage, per the documented format.
fn record_boundaries(records: &[WalRecord]) -> Vec<usize> {
    let mut offsets = vec![0usize];
    let mut pos = 0usize;
    for r in records {
        pos += record_len(&r.key);
        offsets.push(pos);
    }
    offsets
}

/// Tentpole sweep #1: truncate the log at **every** byte offset. The
/// clean prefix must decode to a prefix of the appended sequence, replay
/// must never fail, and the recovered store must equal the prefix
/// oracle. Damage is reported exactly when the cut misses a record
/// boundary.
#[test]
fn truncation_at_every_byte_recovers_the_clean_prefix() {
    let src = temp_dir("trunc-src");
    let (bytes, full_records) = build_single_shard_log(&src);
    let boundaries = record_boundaries(&full_records);
    assert_eq!(*boundaries.last().unwrap(), bytes.len());

    let crash = temp_dir("trunc-crash");
    let log = crash.join("wal-0000-00000001.log");
    for cut in 0..=bytes.len() {
        fs::write(&log, &bytes[..cut]).unwrap();

        let segment = read_records(&log).unwrap();
        let n = segment.records.len();
        assert_eq!(
            segment.records,
            full_records[..n],
            "cut at {cut}: survivors are not a prefix of the appended sequence"
        );
        assert_eq!(
            segment.damage.is_none(),
            boundaries.contains(&cut),
            "cut at {cut}: damage report disagrees with record boundaries ({:?})",
            segment.damage
        );

        let db = ShardedDb::with_config(ShardedConfig::new(1, 7));
        let report = replay(&crash, &db).unwrap();
        assert_eq!(report.files, 1);
        assert_eq!(report.applied, n as u64, "cut at {cut}");
        assert_eq!(report.skipped, 0, "cut at {cut}");
        assert_eq!(report.damaged, usize::from(segment.damage.is_some()), "cut at {cut}");
        assert_equiv(&db, &oracle_of(&segment.records, 7));
    }
    fs::remove_dir_all(&src).unwrap();
    fs::remove_dir_all(&crash).unwrap();
}

/// Tentpole sweep #2: flip one bit in **every** byte of the log. The
/// flip must never be applied as data (CRC/plausibility confines it to
/// the tail), never be fatal, and the survivors must still be a prefix
/// of the appended sequence — the flipped record itself always dies.
#[test]
fn single_bit_flips_are_confined_and_never_fatal() {
    let src = temp_dir("flip-src");
    let (bytes, full_records) = build_single_shard_log(&src);

    let crash = temp_dir("flip-crash");
    let log = crash.join("wal-0000-00000001.log");
    for i in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[i] ^= 1 << (i % 8);
        fs::write(&log, &flipped).unwrap();

        let segment = read_records(&log).unwrap();
        let n = segment.records.len();
        assert!(
            segment.damage.is_some(),
            "flip at byte {i} went undetected"
        );
        assert!(n < full_records.len(), "flip at byte {i} lost no record");
        assert_eq!(
            segment.records,
            full_records[..n],
            "flip at byte {i}: survivors are not a prefix"
        );

        let db = ShardedDb::with_config(ShardedConfig::new(1, 16));
        let report = replay(&crash, &db).unwrap();
        assert_eq!(report.applied, n as u64, "flip at byte {i}");
        assert_eq!(report.damaged, 1, "flip at byte {i}");
        assert_equiv(&db, &oracle_of(&segment.records, 16));
    }
    fs::remove_dir_all(&src).unwrap();
    fs::remove_dir_all(&crash).unwrap();
}

/// Writes `batch` through the WAL the way the ingest sink does: store
/// write and log append under the shard's log lock, one fixed shard per
/// series so per-series order is preserved within a generation.
fn apply_batch(db: &ShardedDb, wal: &Wal, batch: &[(usize, SeriesKey, DataPoint)]) {
    for (series, key, point) in batch {
        let shard = series % wal.shard_count();
        wal.log_applied(shard, key, *point, || db.write(key, *point)).unwrap();
    }
}

/// Rows of `(series index, key, point)` with per-series ascending
/// timestamps starting at `t0`.
fn batch(keys: &[SeriesKey], t0: i64, count: i64) -> Vec<(usize, SeriesKey, DataPoint)> {
    let mut rows = Vec::new();
    for t in 0..count {
        for (s, key) in keys.iter().enumerate() {
            rows.push((
                s,
                key.clone(),
                DataPoint::new(t0 + t * 3 + s as i64, (t0 as f64 + t as f64) / (s + 1) as f64),
            ));
        }
    }
    rows
}

fn oracle_of_batches(batches: &[&[(usize, SeriesKey, DataPoint)]]) -> Tsdb {
    let records: Vec<WalRecord> = batches
        .iter()
        .flat_map(|b| b.iter())
        .map(|(_, key, point)| WalRecord {
            key: key.clone(),
            point: *point,
        })
        .collect();
    oracle_of(&records, 32)
}

/// Tentpole sweep #3: kill between the coarse steps of a checkpoint
/// (rotate → save → discard; sweep #4 below kills inside the chain's
/// own steps). Each intermediate
/// on-disk state must recover to the complete store; snapshot overlap is
/// skipped, never double-applied, and recovery also survives restarting
/// with a *different* shard count (replay re-routes by the store hash).
#[test]
fn a_kill_between_any_checkpoint_step_recovers_the_full_store() {
    let keys = [
        SeriesKey::metric("cpu").with_tag("host", "a"),
        SeriesKey::metric("cpu").with_tag("host", "b"),
        SeriesKey::metric("disk").with_tag("dev", "sda"),
    ];
    let a = batch(&keys, 0, 10);
    let b = batch(&keys, 1_000, 8);
    let c = batch(&keys, 2_000, 6);

    // Kill after rotate, before the snapshot save: both generations are
    // on disk, there is no snapshot, and replay must apply everything.
    {
        let root = temp_dir("kill-after-rotate");
        let wal_dir = root.join("wal");
        let db = ShardedDb::with_config(ShardedConfig::new(2, 32));
        let wal = Wal::open(&wal_dir, 2, FsyncPolicy::EveryN(4)).unwrap();
        apply_batch(&db, &wal, &a);
        wal.rotate().unwrap();
        apply_batch(&db, &wal, &b);
        drop((db, wal)); // crash: no seal, no snapshot

        let (recovered, report) =
            recover_sharded(None, Some(&wal_dir), ShardedConfig::new(2, 32)).unwrap();
        assert_eq!(report.applied, (a.len() + b.len()) as u64);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.damaged, 0);
        assert_equiv(&recovered, &oracle_of_batches(&[&a, &b]));
        fs::remove_dir_all(&root).unwrap();
    }

    // Kill after the snapshot save, before discard: the snapshot already
    // covers generation 1, whose records replay as skips — never as
    // duplicates — while the post-rotate generation still applies.
    {
        let root = temp_dir("kill-after-snapshot");
        let wal_dir = root.join("wal");
        let snap = root.join("snap.bin");
        let db = ShardedDb::with_config(ShardedConfig::new(2, 32));
        let wal = Wal::open(&wal_dir, 2, FsyncPolicy::EveryN(4)).unwrap();
        apply_batch(&db, &wal, &a);
        wal.rotate().unwrap();
        apply_batch(&db, &wal, &b);
        db.save(&snap).unwrap();
        drop((db, wal)); // crash: discard_before never ran

        let (recovered, report) =
            recover_sharded(Some(&snap), Some(&wal_dir), ShardedConfig::new(2, 32)).unwrap();
        assert_eq!(report.skipped, (a.len() + b.len()) as u64);
        assert_eq!(report.applied, 0);
        assert_equiv(&recovered, &oracle_of_batches(&[&a, &b]));
        fs::remove_dir_all(&root).unwrap();
    }

    // Full checkpoint, then more writes, then a kill: the chain plus the
    // WAL tail is a complete recovery set — here recovered into a store
    // with a different shard count than the one that wrote the log.
    {
        let root = temp_dir("kill-after-checkpoint");
        let wal_dir = root.join("wal");
        let chain_dir = root.join("chain");
        let db = ShardedDb::with_config(ShardedConfig::new(2, 32));
        let wal = Wal::open(&wal_dir, 2, FsyncPolicy::EveryN(4)).unwrap();
        let mut chain = CheckpointChain::open(&chain_dir, 4).unwrap();
        apply_batch(&db, &wal, &a);
        let checkpoint = chain.checkpoint(&db, Some(&wal)).unwrap();
        let boundary = checkpoint.boundary.expect("a walled checkpoint rotates");
        assert!(checkpoint.completed);
        assert!(wal_files(&wal_dir).unwrap().iter().all(|f| f.generation >= boundary));
        apply_batch(&db, &wal, &c);
        drop((db, wal, chain)); // crash after the tail was written

        let (recovered, report) =
            recover_sharded(Some(&chain_dir), Some(&wal_dir), ShardedConfig::new(5, 32)).unwrap();
        assert_eq!(report.applied, c.len() as u64);
        assert_eq!(report.skipped, 0);
        assert_equiv(&recovered, &oracle_of_batches(&[&a, &c]));
        fs::remove_dir_all(&root).unwrap();
    }
}

/// Garbage in the log directory — empty files, half headers, byte noise,
/// and a clean prefix followed by junk — is reported and dropped, never
/// fatal. Files whose names aren't WAL-shaped are invisible to replay.
#[test]
fn garbage_and_foreign_files_are_reported_never_fatal() {
    let dir = temp_dir("garbage");
    let key = SeriesKey::metric("cpu").with_tag("host", "a");
    // One clean record followed by noise: the record survives.
    let mut mixed = asap_tsdb::wal::encode_record(&key, DataPoint::new(7, 1.5));
    mixed.extend_from_slice(b"not a wal record at all, sorry");
    fs::write(dir.join("wal-0000-00000001.log"), &mixed).unwrap();
    // Empty file: clean, zero records.
    fs::write(dir.join("wal-0001-00000001.log"), b"").unwrap();
    // Half a header: torn, zero records.
    fs::write(dir.join("wal-0000-00000002.log"), [1u8, 2, 3]).unwrap();
    // Foreign names must be ignored entirely.
    fs::write(dir.join("snap.bin"), b"whatever").unwrap();
    fs::write(dir.join("wal-a-1.log"), b"junk").unwrap();

    let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
    let report = replay(&dir, &db).unwrap();
    assert_eq!(report.files, 3);
    assert_eq!(report.applied, 1);
    assert_eq!(report.skipped, 0);
    assert_eq!(report.damaged, 2);
    assert_eq!(db.query(&key, full()).unwrap(), vec![DataPoint::new(7, 1.5)]);
    // The foreign files were not consumed or deleted.
    assert!(dir.join("snap.bin").exists() && dir.join("wal-a-1.log").exists());
    fs::remove_dir_all(&dir).unwrap();
}

/// Whether the exhaustive (slower) sweeps run; CI's release property job
/// sets `CRASH_EXTENDED=1`, local runs use a stride.
fn extended() -> bool {
    std::env::var_os("CRASH_EXTENDED").is_some()
}

fn chain_keys() -> [SeriesKey; 3] {
    [
        SeriesKey::metric("cpu").with_tag("host", "a"),
        SeriesKey::metric("cpu").with_tag("host", "b"),
        SeriesKey::metric("disk").with_tag("dev", "sda"),
    ]
}

/// Tentpole sweep #4: kill an incremental checkpoint chain after every
/// step — on both the delta path and the re-base path — plus the
/// partial-progress states a kill can leave *inside* a step (some
/// covered generations discarded, some old-chain files removed). Every
/// intermediate on-disk state must recover, from chain + WAL tail, to
/// the complete store.
#[test]
fn a_kill_between_any_incremental_chain_step_recovers_the_full_store() {
    let keys = chain_keys();
    let a = batch(&keys, 0, 10);
    let b = batch(&keys, 1_000, 8);
    let c = batch(&keys, 2_000, 6);

    // Delta-path kills: the first checkpoint completes (fresh base),
    // more writes land, then the incremental checkpoint dies after each
    // of its steps in turn.
    for step in [
        ChainStep::Rotated,
        ChainStep::DeltaWritten,
        ChainStep::Discarded,
    ] {
        let root = temp_dir("chain-kill-delta");
        let wal_dir = root.join("wal");
        let chain_dir = root.join("chain");
        let db = ShardedDb::with_config(ShardedConfig::new(2, 32));
        let wal = Wal::open(&wal_dir, 2, FsyncPolicy::EveryN(4)).unwrap();
        let mut chain = CheckpointChain::open(&chain_dir, 4).unwrap();
        apply_batch(&db, &wal, &a);
        let first = chain.checkpoint(&db, Some(&wal)).unwrap();
        assert!(first.rebased && first.completed, "{step:?}");
        apply_batch(&db, &wal, &b);
        let killed = chain.checkpoint_until(&db, Some(&wal), Some(step)).unwrap();
        assert!(!killed.completed, "{step:?}");
        drop((db, wal, chain)); // the kill

        let (recovered, report) =
            recover_sharded(Some(&chain_dir), Some(&wal_dir), ShardedConfig::new(3, 32)).unwrap();
        assert_eq!(report.damaged, 0, "{step:?}");
        assert_equiv(&recovered, &oracle_of_batches(&[&a, &b]));
        fs::remove_dir_all(&root).unwrap();
    }

    // Re-base-path kills: depth 1 forces the third checkpoint to
    // re-base under a fresh chain id; it dies after each step.
    for step in [
        ChainStep::Rotated,
        ChainStep::BaseWritten,
        ChainStep::OldChainRemoved,
        ChainStep::Discarded,
    ] {
        let root = temp_dir("chain-kill-rebase");
        let wal_dir = root.join("wal");
        let chain_dir = root.join("chain");
        let db = ShardedDb::with_config(ShardedConfig::new(2, 32));
        let wal = Wal::open(&wal_dir, 2, FsyncPolicy::EveryN(4)).unwrap();
        let mut chain = CheckpointChain::open(&chain_dir, 1).unwrap();
        apply_batch(&db, &wal, &a);
        chain.checkpoint(&db, Some(&wal)).unwrap(); // base
        apply_batch(&db, &wal, &b);
        chain.checkpoint(&db, Some(&wal)).unwrap(); // delta: depth reached
        apply_batch(&db, &wal, &c);
        let killed = chain.checkpoint_until(&db, Some(&wal), Some(step)).unwrap();
        assert!(!killed.completed, "{step:?}");
        assert!(killed.rebased || step == ChainStep::Rotated, "{step:?}");
        drop((db, wal, chain)); // the kill

        let (recovered, report) =
            recover_sharded(Some(&chain_dir), Some(&wal_dir), ShardedConfig::new(2, 32)).unwrap();
        assert_eq!(report.damaged, 0, "{step:?}");
        assert_equiv(&recovered, &oracle_of_batches(&[&a, &b, &c]));
        fs::remove_dir_all(&root).unwrap();
    }

    // Mid-discard: the delta committed, then the kill landed partway
    // through deleting covered generations — simulate by removing a
    // strict subset of the covered files by hand.
    {
        let root = temp_dir("chain-kill-mid-discard");
        let wal_dir = root.join("wal");
        let chain_dir = root.join("chain");
        let db = ShardedDb::with_config(ShardedConfig::new(2, 32));
        let wal = Wal::open(&wal_dir, 2, FsyncPolicy::EveryN(4)).unwrap();
        let mut chain = CheckpointChain::open(&chain_dir, 4).unwrap();
        apply_batch(&db, &wal, &a);
        chain.checkpoint(&db, Some(&wal)).unwrap();
        apply_batch(&db, &wal, &b);
        let killed = chain
            .checkpoint_until(&db, Some(&wal), Some(ChainStep::DeltaWritten))
            .unwrap();
        let boundary = killed.boundary.unwrap();
        drop((db, wal, chain));
        let covered: Vec<_> = wal_files(&wal_dir)
            .unwrap()
            .into_iter()
            .filter(|f| f.generation < boundary)
            .collect();
        assert!(covered.len() >= 2, "need a strict subset to delete");
        fs::remove_file(&covered[0].path).unwrap(); // partial discard

        let (recovered, _) =
            recover_sharded(Some(&chain_dir), Some(&wal_dir), ShardedConfig::new(2, 32)).unwrap();
        assert_equiv(&recovered, &oracle_of_batches(&[&a, &b]));
        fs::remove_dir_all(&root).unwrap();
    }

    // Mid-removal on the re-base path: the new chain's base is
    // committed, the kill landed partway through deleting the previous
    // chain's files — the leftover orphan must be invisible.
    {
        let root = temp_dir("chain-kill-mid-removal");
        let wal_dir = root.join("wal");
        let chain_dir = root.join("chain");
        let db = ShardedDb::with_config(ShardedConfig::new(2, 32));
        let wal = Wal::open(&wal_dir, 2, FsyncPolicy::EveryN(4)).unwrap();
        let mut chain = CheckpointChain::open(&chain_dir, 1).unwrap();
        apply_batch(&db, &wal, &a);
        chain.checkpoint(&db, Some(&wal)).unwrap();
        apply_batch(&db, &wal, &b);
        chain.checkpoint(&db, Some(&wal)).unwrap();
        apply_batch(&db, &wal, &c);
        let killed = chain
            .checkpoint_until(&db, Some(&wal), Some(ChainStep::BaseWritten))
            .unwrap();
        assert!(killed.rebased);
        drop((db, wal, chain));
        // Delete the old chain's base but leave its delta as an orphan.
        let old_base = fs::read_dir(&chain_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                name.starts_with("base-") && name.contains("0000000000000001")
            })
            .expect("old chain base should still exist before the partial removal");
        fs::remove_file(&old_base).unwrap();

        let (recovered, _) =
            recover_sharded(Some(&chain_dir), Some(&wal_dir), ShardedConfig::new(2, 32)).unwrap();
        assert_equiv(&recovered, &oracle_of_batches(&[&a, &b, &c]));
        fs::remove_dir_all(&root).unwrap();
    }

    // A re-base killed before its cleanup, then one bit of the new base
    // flips: the fold falls back to the previous chain, still whole on
    // disk, and the undiscarded WAL tail supplies the rest.
    {
        let root = temp_dir("chain-kill-rotten-base");
        let wal_dir = root.join("wal");
        let chain_dir = root.join("chain");
        let db = ShardedDb::with_config(ShardedConfig::new(2, 32));
        let wal = Wal::open(&wal_dir, 2, FsyncPolicy::EveryN(4)).unwrap();
        let mut chain = CheckpointChain::open(&chain_dir, 1).unwrap();
        apply_batch(&db, &wal, &a);
        chain.checkpoint(&db, Some(&wal)).unwrap();
        apply_batch(&db, &wal, &b);
        chain.checkpoint(&db, Some(&wal)).unwrap();
        apply_batch(&db, &wal, &c);
        let killed = chain
            .checkpoint_until(&db, Some(&wal), Some(ChainStep::BaseWritten))
            .unwrap();
        assert!(killed.rebased);
        drop((db, wal, chain));
        let new_base = chain_dir.join("base-0000000000000002-00000000.snap");
        let mut bytes = fs::read(&new_base).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x04;
        fs::write(&new_base, &bytes).unwrap();

        let (folded, report) =
            load_chain_with_report(&chain_dir, ShardedConfig::new(2, 32)).unwrap();
        assert_eq!((report.links_total, report.links_loaded), (2, 2), "{report:?}");
        assert!(
            report.damage.as_deref().unwrap_or("").contains("base-0000000000000002"),
            "{report:?}"
        );
        assert_equiv(&folded, &oracle_of_batches(&[&a, &b]));
        let (recovered, _) =
            recover_sharded(Some(&chain_dir), Some(&wal_dir), ShardedConfig::new(2, 32)).unwrap();
        assert_equiv(&recovered, &oracle_of_batches(&[&a, &b, &c]));
        fs::remove_dir_all(&root).unwrap();
    }
}

/// Satellite wall: fuzz the chain directory, which is its own index —
/// a stray `MANIFEST`, a missing link, a link from a foreign chain. The
/// chain is built *without* discarding the WAL, so acknowledged data
/// must always be recoverable — damaged chains degrade to the newest
/// loadable prefix and the log supplies the rest; nothing panics,
/// nothing is silently lost.
#[test]
fn chain_index_fuzz_degrades_to_the_newest_loadable_prefix() {
    let keys = chain_keys();
    let a = batch(&keys, 0, 12);
    let b = batch(&keys, 1_000, 9);
    let c = batch(&keys, 2_000, 5);

    let build = |tag: &str| build_unwalled_chain(tag, &[&a, &b, &c]);
    let full_oracle = oracle_of_batches(&[&a, &b, &c]);

    // A `MANIFEST` beside the links — as an earlier build wrote it,
    // bit-flipped at every byte (strided unless CRASH_EXTENDED=1),
    // garbage or empty: the directory is the index, so the file is
    // ignored and the fold is the whole chain.
    {
        let root = build("chain-fuzz-manifest");
        let manifest = root.join("chain").join("MANIFEST");
        let pristine = legacy_manifest(1, 3);
        let stride = if extended() { 1 } else { 7 };
        let mut flips: Vec<Vec<u8>> = (0..pristine.len())
            .step_by(stride)
            .map(|i| {
                let mut bytes = pristine.clone();
                bytes[i] ^= 1 << (i % 8);
                bytes
            })
            .collect();
        flips.push(pristine);
        flips.push(b"complete garbage".to_vec());
        flips.push(Vec::new());
        for (i, bytes) in flips.iter().enumerate() {
            fs::write(&manifest, bytes).unwrap();
            let (folded, report) =
                load_chain_with_report(&root.join("chain"), ShardedConfig::new(2, 32)).unwrap();
            assert_eq!((report.links_total, report.links_loaded), (3, 3), "fuzz case {i}");
            assert_eq!(report.damage, None, "fuzz case {i}");
            assert_equiv(&folded, &full_oracle);
            let (recovered, _) = recover_sharded(
                Some(&root.join("chain")),
                Some(&root.join("wal")),
                ShardedConfig::new(2, 32),
            )
            .unwrap();
            assert_equiv(&recovered, &full_oracle);
        }
        fs::remove_dir_all(&root).unwrap();
    }

    // A missing delta: the fold stops at the link before the hole —
    // even though a later delta file exists.
    {
        let root = build("chain-fuzz-missing");
        let chain_dir = root.join("chain");
        let missing = fs::read_dir(&chain_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.file_name().unwrap().to_string_lossy().ends_with("-00000001.snap"))
            .expect("first delta exists");
        fs::remove_file(&missing).unwrap();

        let (folded, report) =
            load_chain_with_report(&chain_dir, ShardedConfig::new(2, 32)).unwrap();
        assert_eq!((report.links_total, report.links_loaded), (3, 1));
        assert!(report.damage.is_some());
        assert_equiv(&folded, &oracle_of_batches(&[&a]));

        let (recovered, _) =
            recover_sharded(Some(&chain_dir), Some(&root.join("wal")), ShardedConfig::new(2, 32))
                .unwrap();
        assert_equiv(&recovered, &full_oracle);
        fs::remove_dir_all(&root).unwrap();
    }

    // Delta from a foreign chain renamed into place: the chain-id check
    // stops the fold at the preceding link.
    {
        let root = build("chain-fuzz-foreign");
        let chain_dir = root.join("chain");
        // Build a second, unrelated store whose chain id advanced past 1
        // (a re-base after reopen bumps it), then steal its delta.
        let other_root = temp_dir("chain-fuzz-foreign-other");
        let other_dir = other_root.join("chain");
        let other_db = ShardedDb::with_config(ShardedConfig::new(1, 32));
        apply_batch_unlogged(&other_db, &batch(&keys, 9_000, 4));
        let mut other = CheckpointChain::open(&other_dir, 8).unwrap();
        other.checkpoint(&other_db, None).unwrap();
        drop(other);
        let mut other = CheckpointChain::open(&other_dir, 8).unwrap();
        other.checkpoint(&other_db, None).unwrap(); // re-base: chain id 2
        apply_batch_unlogged(&other_db, &batch(&keys, 12_000, 3));
        other.checkpoint(&other_db, None).unwrap(); // delta under chain 2
        let foreign = fs::read_dir(&other_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("delta-"))
            .expect("foreign delta exists");

        let target = fs::read_dir(&chain_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.file_name().unwrap().to_string_lossy().ends_with("-00000001.snap"))
            .unwrap();
        fs::copy(&foreign, &target).unwrap();

        let (folded, report) =
            load_chain_with_report(&chain_dir, ShardedConfig::new(2, 32)).unwrap();
        assert_eq!((report.links_total, report.links_loaded), (3, 1));
        assert!(report.damage.as_deref().unwrap_or("").contains("foreign"), "{report:?}");
        assert_equiv(&folded, &oracle_of_batches(&[&a]));

        let (recovered, _) =
            recover_sharded(Some(&chain_dir), Some(&root.join("wal")), ShardedConfig::new(2, 32))
                .unwrap();
        assert_equiv(&recovered, &full_oracle);
        fs::remove_dir_all(&root).unwrap();
        fs::remove_dir_all(&other_root).unwrap();
    }
}

/// The chain index an earlier build kept beside the links: `"ASAPCHN1"
/// | u32 2 | u64 chain_id | u32 link count | u64 seq per link | crc32`.
fn legacy_manifest(chain_id: u64, links: u64) -> Vec<u8> {
    let mut bytes = b"ASAPCHN1".to_vec();
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&chain_id.to_le_bytes());
    bytes.extend_from_slice(&(links as u32).to_le_bytes());
    for seq in 0..links {
        bytes.extend_from_slice(&seq.to_le_bytes());
    }
    let crc = asap_tsdb::wal::crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// Builds a chain of one link per batch — base(first) + one delta per
/// later batch — under `<root>/chain`, with a WAL under `<root>/wal`.
/// The chain runs un-walled (no generation is ever discarded), so the
/// log holds every record and acknowledged data stays recoverable
/// whatever happens to the chain. Returns the root.
fn build_unwalled_chain(tag: &str, batches: &[&[(usize, SeriesKey, DataPoint)]]) -> PathBuf {
    let root = temp_dir(tag);
    let db = ShardedDb::with_config(ShardedConfig::new(2, 32));
    let wal = Wal::open(&root.join("wal"), 2, FsyncPolicy::EveryN(4)).unwrap();
    let mut chain = CheckpointChain::open(&root.join("chain"), 8).unwrap();
    for batch in batches {
        apply_batch(&db, &wal, batch);
        chain.checkpoint(&db, None).unwrap();
    }
    wal.seal().unwrap();
    root
}

/// Satellite wall: every link of a base + two-delta chain, truncated at
/// every byte and bit-flipped at every byte offset (strided unless
/// `CRASH_EXTENDED=1`). The link's CRC catches each case: the fold
/// never panics, never applies the damaged link, loads exactly the
/// links before it (≡ the oracle of their batches), and recovery with
/// the WAL tail ≡ the full oracle.
#[test]
fn link_fuzz_folds_to_the_newest_loadable_prefix() {
    let keys = chain_keys();
    let batches = [batch(&keys, 0, 12), batch(&keys, 1_000, 9), batch(&keys, 2_000, 5)];
    let batches: Vec<&[_]> = batches.iter().map(Vec::as_slice).collect();
    let root = build_unwalled_chain("link-fuzz", &batches);
    let chain_dir = root.join("chain");
    let config = ShardedConfig::new(2, 32);
    let full_oracle = oracle_of_batches(&batches);
    // base-… sorts before delta-…-00000001 before delta-…-00000002.
    let mut links: Vec<PathBuf> = fs::read_dir(&chain_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    links.sort();
    assert_eq!(links.len(), 3, "{links:?}");

    let stride = if extended() { 1 } else { 5 };
    for (index, link) in links.iter().enumerate() {
        let prefix_oracle = oracle_of_batches(&batches[..index]);
        let pristine = fs::read(link).unwrap();
        let truncations = (0..pristine.len()).map(|n| pristine[..n].to_vec());
        let flips = (0..pristine.len()).step_by(stride).map(|i| {
            let mut bytes = pristine.clone();
            bytes[i] ^= 1 << (i % 8);
            bytes
        });
        for (case, bytes) in truncations.chain(flips).enumerate() {
            fs::write(link, &bytes).unwrap();
            let (folded, report) = load_chain_with_report(&chain_dir, config).unwrap();
            assert_eq!(
                (report.links_total, report.links_loaded),
                (3, index),
                "link {index}, case {case}: {report:?}"
            );
            assert!(report.damage.is_some(), "link {index}, case {case} went undetected");
            assert_equiv(&folded, &prefix_oracle);
            let (recovered, _) =
                recover_sharded(Some(&chain_dir), Some(&root.join("wal")), config).unwrap();
            assert_equiv(&recovered, &full_oracle);
        }
        fs::write(link, &pristine).unwrap();
    }
    fs::remove_dir_all(&root).unwrap();
}

/// Satellite wall: a standalone export — one 200-point series, the size
/// of a small dashboard panel — with every single bit flipped in turn.
/// Each flip must be refused (`Err`), whether or not it would have
/// changed the data: a snapshot never loads silently wrong.
#[test]
fn every_single_bit_flip_of_an_export_is_refused() {
    let dir = temp_dir("export-flips");
    let path = dir.join("export.snap");
    let db = ShardedDb::with_config(ShardedConfig::new(2, 64));
    let key = SeriesKey::metric("cpu").with_tag("host", "a");
    for t in 0..200i64 {
        db.write(&key, DataPoint::new(t * 10, (t as f64 / 7.0).sin())).unwrap();
    }
    db.save(&path).unwrap();
    let pristine = fs::read(&path).unwrap();
    let original = db.query_selector(&Selector::any(), full()).unwrap();
    let (mut loaded, mut differing) = (0, 0);
    for bit in 0..pristine.len() * 8 {
        let mut bytes = pristine.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        fs::write(&path, &bytes).unwrap();
        if let Ok(db) = ShardedDb::load(&path, ShardedConfig::new(2, 64)) {
            loaded += 1;
            if db.query_selector(&Selector::any(), full()).unwrap() != original {
                differing += 1;
            }
        }
    }
    assert_eq!(
        loaded,
        0,
        "{loaded} of {} single-bit flips of a {}-byte export loaded, {differing} of them \
         with different data",
        pristine.len() * 8,
        pristine.len()
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// Store writes without a WAL — for scratch stores in the fuzz setup.
fn apply_batch_unlogged(db: &ShardedDb, batch: &[(usize, SeriesKey, DataPoint)]) {
    for (_, key, point) in batch {
        db.write(key, *point).unwrap();
    }
}

/// Satellite wall: repeated online checkpoints against a **live**
/// concurrent ingest pipeline, then a kill — recovery from chain + WAL
/// tail must equal the live store, byte for byte in query space.
#[test]
fn checkpoint_under_concurrent_ingest_recovers_to_the_live_store() {
    let root = temp_dir("chain-live");
    let wal_dir = root.join("wal");
    let chain_dir = root.join("chain");
    let shards = 3;
    let db = ShardedDb::with_config(ShardedConfig::new(shards, 16));
    let wal = Wal::open(&wal_dir, shards, FsyncPolicy::EveryN(8)).unwrap();
    let mut chain = CheckpointChain::open(&chain_dir, 3).unwrap();

    let series: Vec<Vec<DataPoint>> = (0..4)
        .map(|h| {
            (0..400)
                .map(|i| DataPoint::new(i * 7 + h, i as f64 * 0.5 + h as f64))
                .collect()
        })
        .collect();
    let doc = render_lines(&series, 2).join("\n") + "\n";
    let config = IngestConfig {
        lateness: Some(10),
        wal: Some(wal.clone()),
        ..IngestConfig::default()
    };
    let mut ingestor = StreamIngestor::new(&db, 0, config).unwrap();
    for (i, slice) in doc.as_bytes().chunks(257).enumerate() {
        ingestor.feed(slice);
        // Checkpoint while the pipeline's writer threads are still
        // applying earlier slices.
        if i % 5 == 4 {
            let report = chain.checkpoint(&db, Some(&wal)).unwrap();
            assert!(report.completed);
        }
    }
    let report = ingestor.finish();
    assert!(report.is_clean(), "{report:?}");
    drop((wal, chain)); // the kill: no seal, records past the last checkpoint live only in the log

    let (recovered, replay_report) =
        recover_sharded(Some(&chain_dir), Some(&wal_dir), ShardedConfig::new(2, 16)).unwrap();
    assert_eq!(replay_report.damaged, 0);
    let any = Selector::any();
    assert_eq!(recovered.list_series(&any), db.list_series(&any));
    assert_eq!(
        recovered.query_selector(&any, full()).unwrap(),
        db.query_selector(&any, full()).unwrap()
    );
    fs::remove_dir_all(&root).unwrap();
}

const FIELD_NAMES: [&str; 3] = ["usage", "idle", "iowait"];

/// Renders per-series timestamp runs into record lines, round-robin
/// across hosts (same shape as `stream_properties.rs`).
fn render_lines(series: &[Vec<DataPoint>], fields: usize) -> Vec<String> {
    let mut cursors = vec![0usize; series.len()];
    let mut lines = Vec::new();
    loop {
        let mut progressed = false;
        for (h, points) in series.iter().enumerate() {
            let Some(p) = points.get(cursors[h]) else {
                continue;
            };
            cursors[h] += 1;
            progressed = true;
            let mut line = format!("cpu,host=h{h} ");
            for (f, name) in FIELD_NAMES.iter().enumerate().take(fields) {
                if f > 0 {
                    line.push(',');
                }
                line.push_str(&format!("{name}={}", p.value + f as f64));
            }
            line.push_str(&format!(" {}", p.timestamp));
            lines.push(line);
        }
        if !progressed {
            return lines;
        }
    }
}

/// A generated kill-the-stream case: a shuffled-within-lateness document,
/// pipeline knobs, and per-shard kill fractions.
#[derive(Debug, Clone)]
struct KilledStreamCase {
    shuffled_doc: String,
    shards: usize,
    block_capacity: usize,
    lateness: i64,
    /// Fraction of each shard's log that survives the kill.
    keep: Vec<f64>,
    /// Shard count of the store the log replays into after the crash.
    recover_shards: usize,
}

fn killed_stream_case() -> impl Strategy<Value = KilledStreamCase> {
    (
        (
            prop::collection::vec(
                prop::collection::vec((1i64..300, -1.0e3..1.0e3f64), 1..40),
                1..4,
            ),
            1usize..4,  // fields
            1usize..5,  // shards
            1usize..32, // block capacity
        ),
        (
            1i64..30, // lateness
            prop::collection::vec(0.0..1.0f64, 1..16), // shuffle jitter draws
            prop::collection::vec(0.0..1.0f64, 5..6),  // per-shard keep fractions
            1usize..5, // recover-time shard count
        ),
    )
        .prop_map(
            |(
                (series, fields, shards, block_capacity),
                (lateness, jitters, keep, recover_shards),
            )| {
                let series: Vec<Vec<DataPoint>> = series
                    .into_iter()
                    .map(|gaps| {
                        let mut ts = -500i64;
                        gaps.into_iter()
                            .map(|(gap, v)| {
                                ts += gap;
                                DataPoint::new(ts, v)
                            })
                            .collect()
                    })
                    .collect();
                let lines = render_lines(&series, fields);
                let mut keyed: Vec<(i64, usize, String)> = lines
                    .into_iter()
                    .enumerate()
                    .map(|(i, line)| {
                        let ts: i64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                        let jitter = (jitters[i % jitters.len()] * lateness as f64) as i64;
                        (ts.saturating_add(jitter.min(lateness - 1)), i, line)
                    })
                    .collect();
                keyed.sort_by_key(|&(key, i, _)| (key, i));
                let shuffled: Vec<String> = keyed.into_iter().map(|(_, _, line)| line).collect();
                KilledStreamCase {
                    shuffled_doc: shuffled.join("\n") + "\n",
                    shards,
                    block_capacity,
                    lateness,
                    keep,
                    recover_shards,
                }
            },
        )
}

proptest! {
    /// Satellite wall: a shuffled-lateness stream through
    /// `StreamIngestor` with the WAL enabled, "killed" at an arbitrary
    /// per-shard record boundary, replays into exactly the prefix oracle
    /// of the surviving records — under any shard count, block capacity,
    /// and kill point, including recovery into a different shard count.
    #[test]
    fn killed_stream_replays_to_the_prefix_oracle(case in killed_stream_case()) {
        let dir = temp_dir("killed-stream");
        let db = ShardedDb::with_config(ShardedConfig::new(case.shards, case.block_capacity));
        let wal = Wal::open(&dir, case.shards, FsyncPolicy::EveryN(1 << 20)).unwrap();
        let config = IngestConfig {
            lateness: Some(case.lateness),
            wal: Some(wal.clone()),
            ..IngestConfig::default()
        };
        let mut ingestor = StreamIngestor::new(&db, 0, config).unwrap();
        ingestor.feed(case.shuffled_doc.as_bytes());
        let report = ingestor.finish();
        prop_assert!(report.is_clean(), "{report:?}");
        prop_assert_eq!(wal.stats().records, report.points as u64);
        drop((db, wal)); // the kill: no seal, no snapshot

        // Truncate each shard's log at a record boundary computed from
        // the documented format (the sum of record_len over the kept
        // prefix), then collect the survivors in replay order.
        let mut survivors: Vec<WalRecord> = Vec::new();
        for file in wal_files(&dir).unwrap() {
            let segment = read_records(&file.path).unwrap();
            prop_assert!(segment.damage.is_none(), "{:?}", segment.damage);
            // Scale by len + 1 so the draw reaches both "lost everything"
            // and "lost nothing" kill points.
            let kept = ((case.keep[file.shard % case.keep.len()]
                * (segment.records.len() + 1) as f64) as usize)
                .min(segment.records.len());
            let cut: usize = segment.records[..kept]
                .iter()
                .map(|r| record_len(&r.key))
                .sum();
            let bytes = fs::read(&file.path).unwrap();
            fs::write(&file.path, &bytes[..cut]).unwrap();
            survivors.extend_from_slice(&segment.records[..kept]);
        }

        let recovered =
            ShardedDb::with_config(ShardedConfig::new(case.recover_shards, case.block_capacity));
        let replay_report = replay(&dir, &recovered).unwrap();
        prop_assert_eq!(replay_report.applied, survivors.len() as u64);
        prop_assert_eq!(replay_report.skipped, 0);
        prop_assert_eq!(replay_report.damaged, 0);
        assert_equiv(&recovered, &oracle_of(&survivors, case.block_capacity));
        fs::remove_dir_all(&dir).unwrap();
    }
}
