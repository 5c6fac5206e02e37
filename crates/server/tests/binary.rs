//! Start-up behaviour of the shipped `asap-server` binary that no
//! in-process test can see: what it logs while booting from a chain,
//! and which configurations it refuses with exit code 2.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use asap_tsdb::{CheckpointChain, DataPoint, SeriesKey, ShardedConfig, ShardedDb};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asap_binary_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn store() -> ShardedDb {
    let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
    let key = SeriesKey::metric("cpu").with_tag("host", "a");
    for t in 0..100 {
        db.write(&key, DataPoint::new(t, t as f64)).unwrap();
    }
    db
}

fn server(flags: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_asap-server"));
    command
        .args(["--ingest", "127.0.0.1:0", "--query", "127.0.0.1:0"])
        .args(flags)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    command
}

/// Runs the binary until it listens, asks `RANGE cpu 0 100`, sends
/// `SHUTDOWN`, and returns (the `RANGE` response, the whole stderr log).
fn boot_query_shutdown(flags: &[&str]) -> (String, String) {
    let mut child = server(flags).spawn().expect("spawn asap-server");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut log = String::new();
    let query_addr: SocketAddr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "asap-server exited before listening:\n{log}"
        );
        log.push_str(&line);
        if line.contains("event=listening") {
            let addr = line.split(' ').find_map(|t| t.strip_prefix("query="));
            break addr.expect("query address").parse().unwrap();
        }
    };
    let mut conn = TcpStream::connect(query_addr).unwrap();
    conn.write_all(b"RANGE cpu 0 100\nSHUTDOWN\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    stderr.read_to_string(&mut log).unwrap();
    assert!(child.wait().unwrap().success(), "{log}");
    (response, log)
}

/// Runs the binary expecting a start-up refusal: exit code 2, and the
/// reason on stderr.
fn refused(flags: &[&str]) -> String {
    let output = server(flags).output().expect("run asap-server");
    let log = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(2), "{log}");
    log
}

fn path_str(path: &Path) -> &str {
    path.to_str().unwrap()
}

/// Writes a chain of two links into `dir` — a base holding `cpu{host=a}`
/// at t = 0..50 and a delta adding t = 50..100 — replacing whatever
/// chain was there.
fn two_link_chain(dir: &Path) {
    let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
    let key = SeriesKey::metric("cpu").with_tag("host", "a");
    let mut chain = CheckpointChain::open(dir, 4).unwrap();
    for half in [0..50, 50..100] {
        for t in half {
            db.write(&key, DataPoint::new(t, t as f64)).unwrap();
        }
        chain.checkpoint(&db, None).unwrap();
    }
}

/// A damaged chain boots (degraded to its loadable prefix) but must say
/// so: one `warn` line with how far the fold got, where a healthy chain
/// logs `snapshot_loaded`.
#[test]
fn damaged_chain_boots_with_a_warning_not_like_a_healthy_one() {
    let dir = temp_dir("damaged");
    let chain_dir = dir.join("chain");
    two_link_chain(&chain_dir);
    let (healthy, log) = boot_query_shutdown(&["--snapshot", path_str(&chain_dir)]);
    assert!(
        healthy.starts_with("OK 1\n") && healthy.contains("\n99 99\n"),
        "{healthy}"
    );
    assert!(log.contains("event=snapshot_loaded"), "{log}");
    assert!(!log.contains("level=warn"), "{log}");

    // The drain re-based the chain: write the two links again, then
    // flip one bit of the delta. The base still loads.
    two_link_chain(&chain_dir);
    let delta = std::fs::read_dir(&chain_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("delta-"))
        .expect("the chain has a delta");
    let mut bytes = std::fs::read(&delta).unwrap();
    bytes[40] ^= 0x10;
    std::fs::write(&delta, &bytes).unwrap();
    let (degraded, log) = boot_query_shutdown(&["--snapshot", path_str(&chain_dir)]);
    assert!(
        degraded.starts_with("OK 1\n")
            && degraded.contains("\n49 49\n")
            && !degraded.contains("\n50 50\n"),
        "{degraded}"
    );
    let warnings: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("event=snapshot_damaged"))
        .collect();
    assert_eq!(warnings.len(), 1, "{log}");
    assert!(
        warnings[0].starts_with("level=warn component=server "),
        "{}",
        warnings[0]
    );
    assert!(
        warnings[0].contains(" links_loaded=1 links_total=2 damage=\"")
            && warnings[0].contains("checksum mismatch"),
        "{}",
        warnings[0]
    );
    assert!(!log.contains("event=snapshot_loaded"), "{log}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression for a data loss: a chain directory holding a damaged
/// `MANIFEST` (the index an earlier build kept beside the links, here
/// with one flipped bit) used to boot an empty store, whose drain
/// re-based and deleted the intact links. The links are the index now:
/// every point is served, before and after a restart.
#[test]
fn a_damaged_manifest_beside_the_chain_loses_nothing() {
    let dir = temp_dir("manifest");
    let chain_dir = dir.join("chain");
    two_link_chain(&chain_dir);
    let mut manifest = b"ASAPCHN1".to_vec();
    manifest.extend_from_slice(&2u32.to_le_bytes()); // version
    manifest.extend_from_slice(&1u64.to_le_bytes()); // chain id
    manifest.extend_from_slice(&2u32.to_le_bytes()); // link count
    manifest.extend_from_slice(&0u64.to_le_bytes()); // the base's seq
    manifest.extend_from_slice(&1u64.to_le_bytes()); // the delta's seq
    let crc = asap_tsdb::wal::crc32(&manifest);
    manifest.extend_from_slice(&crc.to_le_bytes());
    manifest[13] ^= 0x10; // inside the chain id; the CRC no longer matches
    std::fs::write(chain_dir.join("MANIFEST"), &manifest).unwrap();

    for boot in ["first", "second"] {
        let (response, log) = boot_query_shutdown(&["--snapshot", path_str(&chain_dir)]);
        assert!(
            response.starts_with("OK 1\n")
                && response.contains("\n0 0\n")
                && response.contains("\n99 99\n"),
            "{boot} boot: {response}"
        );
        assert!(log.contains("event=snapshot_loaded"), "{boot} boot: {log}");
    }
    assert!(
        !chain_dir.join("MANIFEST").exists(),
        "the first re-base removes the leftover index"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A store with no shards is a usage error (exit 2), not a panic.
#[test]
fn zero_shards_exit_2() {
    let log = refused(&["--shards", "0"]);
    assert!(log.contains("--shards must be at least 1"), "{log}");
    assert!(log.contains("usage: asap-server"), "{log}");
}

/// The retired layouts and the unsafe ones are start-up errors (exit
/// 2) that say what to do, not silent fallbacks.
#[test]
fn retired_and_unsafe_durable_layouts_exit_2() {
    let dir = temp_dir("refused");

    // A regular file at `--snapshot`: the retired single-file boot
    // snapshot. Refused by name; the file is left alone.
    let file = dir.join("boot.snap");
    store().save(&file).unwrap();
    let before = std::fs::read(&file).unwrap();
    let log = refused(&["--snapshot", path_str(&file)]);
    assert!(
        log.contains("single-file boot snapshots are retired"),
        "{log}"
    );
    assert!(log.contains("ShardedDb::load"), "{log}");
    assert_eq!(std::fs::read(&file).unwrap(), before);

    // A chain of the retired layout: a CRC-valid version-1 manifest over
    // a version-2 base. The base is refused by name; no file is touched.
    let v1_chain = dir.join("v1-chain");
    std::fs::create_dir_all(&v1_chain).unwrap();
    let mut manifest = b"ASAPCHN1".to_vec();
    manifest.extend_from_slice(&1u32.to_le_bytes()); // version
    manifest.extend_from_slice(&1u64.to_le_bytes()); // chain id
    manifest.extend_from_slice(&1u32.to_le_bytes()); // link count
    manifest.extend_from_slice(&0u64.to_le_bytes()); // the base's seq
    let crc = asap_tsdb::wal::crc32(&manifest);
    manifest.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(v1_chain.join("MANIFEST"), &manifest).unwrap();
    let mut base = b"ASAPTSDB".to_vec();
    base.extend_from_slice(&2u32.to_le_bytes()); // version
    base.extend_from_slice(&0u32.to_le_bytes()); // series count
    let base_path = v1_chain.join("base-0000000000000001-00000000.snap");
    std::fs::write(&base_path, &base).unwrap();
    let log = refused(&["--snapshot", path_str(&v1_chain)]);
    assert!(log.contains("format version 2"), "{log}");
    assert!(log.contains("retired"), "{log}");
    assert_eq!(std::fs::read(v1_chain.join("MANIFEST")).unwrap(), manifest);
    assert_eq!(std::fs::read(&base_path).unwrap(), base);
    assert_eq!(
        std::fs::read_dir(&v1_chain).unwrap().count(),
        2,
        "a refusal wrote a file"
    );

    // `--snapshot-dir` an ancestor of the chain: `SNAPSHOT
    // chain/base-….snap` would overwrite a link.
    let chain = dir.join("chain");
    let log = refused(&[
        "--snapshot",
        path_str(&chain),
        "--snapshot-dir",
        path_str(&dir),
    ]);
    assert!(log.contains("must be disjoint"), "{log}");
    assert!(!chain.exists(), "a refused configuration touched the disk");
    std::fs::remove_dir_all(&dir).ok();
}
