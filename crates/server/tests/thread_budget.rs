//! Thread-budget wall: ingest connections, self-scrapes, `SMOOTH`,
//! `SNAPSHOT` and background passes cost no threads. The server runs one
//! writer per shard for its whole lifetime, parses ingest bytes on the
//! event worker that read them, smooths on the event worker that read
//! the request, runs a `SNAPSHOT`'s checkpoint pass and export there
//! too, serially, and runs every compaction, checkpoint and self-scrape
//! pass on its one maintenance thread, so after `Server::start` the
//! process thread count stays fixed whatever the number of connections,
//! requests or passes — and the shared writers still give every
//! connection its own exact report.
//!
//! This is a test binary of its own, holding one test that runs its legs
//! one after another: it reads the whole process's thread count
//! (`Threads:` in `/proc/self/status`), which sibling tests running in
//! parallel would move.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use asap_core::Asap;
use asap_server::{
    protocol, CheckpointConfig, CompactionClock, CompactionConfig, Server, ServerConfig,
};
use asap_tsdb::{
    line_protocol, smooth_query_selector, Aggregator, DataPoint, RangeQuery, RetentionPolicy,
    RollupLevel, Schedule, Selector, SeriesKey, ShardedConfig, ShardedDb, Tsdb, SELF_TAG,
};

const CONNECTIONS: usize = 64;
/// Query connections looping `SMOOTH`, one client thread each.
const SMOOTH_CLIENTS: usize = 4;
const SMOOTH_ROUNDS: usize = 25;
/// `SNAPSHOT` requests the snapshot leg's one client sends.
const SNAPSHOT_ROUNDS: usize = 20;
/// Series of the snapshot leg's store: enough that listing and cloning
/// them takes an export measurable time.
const SNAPSHOT_SERIES: usize = 20_000;
/// Passes of each maintenance job the maintenance leg waits for.
const MAINTENANCE_PASSES: i64 = 5;

/// Threads of this process right now.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("`Threads:` in /proc/self/status")
        .trim()
        .parse()
        .expect("numeric thread count")
}

/// Sends `command` and reads its response up to `END` or an `ERR` line.
fn ask(conn: &TcpStream, reader: &mut impl BufRead, command: &str) -> String {
    (&*conn)
        .write_all(format!("{command}\n").as_bytes())
        .expect("send command");
    let mut response = String::new();
    loop {
        let start = response.len();
        assert_ne!(reader.read_line(&mut response).expect("read response"), 0);
        let line = &response[start..];
        if line == "END\n" || line.starts_with("ERR") {
            return response;
        }
    }
}

/// One `STATS` counter, read on a fresh query connection.
fn stat(addr: SocketAddr, key: &str) -> i64 {
    let conn = TcpStream::connect(addr).expect("connect query");
    (&conn).write_all(b"STATS\n").expect("send STATS");
    let prefix = format!("{key} ");
    for line in BufReader::new(&conn).lines() {
        let line = line.expect("read STATS");
        if let Some(value) = line.strip_prefix(&prefix) {
            return value.trim().parse().expect("numeric counter");
        }
        assert_ne!(line, "END", "STATS lacks `{key}`");
    }
    panic!("STATS ended before END");
}

#[test]
fn idle_connections_and_scrapes_add_no_threads() {
    let db = ShardedDb::with_config(ShardedConfig::new(4, 64));
    let server = Server::start(
        db.clone(),
        ServerConfig {
            max_ingest_connections: CONNECTIONS,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let baseline = threads();

    let conns: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| TcpStream::connect(server.ingest_addr()).expect("connect ingest"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while stat(server.query_addr(), "ingest.active_connections") < CONNECTIONS as i64 {
        assert!(Instant::now() < deadline, "connections never became active");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), baseline, "{CONNECTIONS} idle ingest connections");

    for _ in 0..3 {
        server.scrape_now().expect("scrape");
        // Scrapes are stamped in milliseconds; a second one within the
        // same millisecond would collide with the first's samples.
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(threads(), baseline, "three self-scrapes");

    // Each connection sends one line on its own series and half-closes.
    let mut doc = String::new();
    for (i, conn) in conns.iter().enumerate() {
        let line = format!("conn,id=c{i} v={i} {}\n", 1_000 + i);
        (&*conn).write_all(line.as_bytes()).expect("send line");
        conn.shutdown(Shutdown::Write).expect("half-close");
        doc.push_str(&line);
    }
    for mut conn in conns {
        let mut report = String::new();
        conn.read_to_string(&mut report).expect("read report");
        assert_eq!(
            report,
            "lines=1 points=1 reordered=0 dropped_late=0 dropped_duplicate=0 \
             parse_failures=0 write_failures=0 clean=true\n"
        );
    }

    let oracle = Tsdb::new();
    line_protocol::ingest(&oracle, &doc, 0).expect("oracle ingest");
    let user = Selector::any().tag_absent(SELF_TAG);
    let full = RangeQuery::raw(i64::MIN + 1, i64::MAX);
    assert_eq!(
        db.query_selector(&user, full).unwrap(),
        oracle.query_selector(&user, full).unwrap()
    );
    assert_eq!(threads(), baseline, "after every connection closed");

    // One noisy series on each shard, so `SMOOTH *` reads every shard.
    let mut by_shard = BTreeMap::new();
    for host in 0..64 {
        let key = SeriesKey::metric("load").with_tag("host", format!("h{host}"));
        by_shard.entry(db.shard_of(&key)).or_insert(key);
    }
    assert_eq!(by_shard.len(), 4, "64 hosts cover the 4 shards");
    for (shard, key) in &by_shard {
        let points: Vec<DataPoint> = (0..4_000i64)
            .map(|t| {
                let noise = if t % 2 == 0 { 0.3 } else { -0.3 };
                DataPoint::new(t, (t as f64 / (40.0 + *shard as f64)).sin() + noise)
            })
            .collect();
        db.write_batch(key, &points).expect("write load series");
    }
    let (start, end, bucket, resolution) = (0, 4_000, 1, 200);
    let command = format!("SMOOTH * {start} {end} {bucket} {resolution}");
    let asap = Asap::builder().resolution(resolution).build();
    let frames = smooth_query_selector(&db, &user, &asap, start, end, bucket).unwrap();
    assert_eq!(frames.len(), CONNECTIONS + 4);
    let expected = protocol::render_smooth(&frames);
    let peak = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..SMOOTH_CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let conn = TcpStream::connect(server.query_addr()).expect("connect query");
                    let mut reader = BufReader::new(&conn);
                    for _ in 0..SMOOTH_ROUNDS {
                        assert_eq!(ask(&conn, &mut reader, &command), expected);
                    }
                })
            })
            .collect();
        let mut peak = threads();
        while !clients.iter().all(|c| c.is_finished()) {
            peak = peak.max(threads());
            std::thread::sleep(Duration::from_micros(200));
        }
        for client in clients {
            client.join().expect("SMOOTH client");
        }
        peak
    });
    assert!(
        peak <= baseline + SMOOTH_CLIENTS,
        "{SMOOTH_CLIENTS} clients looping `SMOOTH *` peaked at {peak} threads, \
         budget {baseline} + {SMOOTH_CLIENTS}"
    );
    server.shutdown();

    snapshot_leg();
    maintenance_leg();
}

/// A chain-configured 4-shard server answering `SNAPSHOT` in a loop —
/// each request a checkpoint pass plus an export — stays within its
/// post-start thread count plus the one client thread, and the export
/// it leaves holds the store.
fn snapshot_leg() {
    let root = std::env::temp_dir().join(format!("asap-thread-budget-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let exports = root.join("exports");
    std::fs::create_dir_all(&exports).expect("create the export directory");
    let db = ShardedDb::with_config(ShardedConfig::new(4, 64));
    for series in 0..SNAPSHOT_SERIES {
        let key = SeriesKey::metric("disk").with_tag("dev", format!("d{series}"));
        let points: Vec<DataPoint> = (0..16i64)
            .map(|t| DataPoint::new(t, (series as f64 + t as f64).sin()))
            .collect();
        db.write_batch(&key, &points).expect("write disk series");
    }
    let server = Server::start(
        db.clone(),
        ServerConfig {
            checkpoint: Some(CheckpointConfig {
                dir: root.join("chain"),
                schedule: Schedule::every(Duration::from_secs(3_600)),
                ..CheckpointConfig::default()
            }),
            snapshot_dir: Some(exports.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let baseline = threads();
    let peak = std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let conn = TcpStream::connect(server.query_addr()).expect("connect query");
            let mut reader = BufReader::new(&conn);
            for _ in 0..SNAPSHOT_ROUNDS {
                (&conn)
                    .write_all(b"SNAPSHOT export.snap\n")
                    .expect("send SNAPSHOT");
                let mut response = String::new();
                reader
                    .read_line(&mut response)
                    .expect("read SNAPSHOT response");
                assert_eq!(response, "OK snapshot export.snap\n");
            }
        });
        let mut peak = threads();
        while !client.is_finished() {
            peak = peak.max(threads());
            std::thread::yield_now();
        }
        client.join().expect("SNAPSHOT client");
        peak
    });
    assert!(
        peak <= baseline + 1,
        "one client looping `SNAPSHOT` peaked at {peak} threads, budget {baseline} + 1"
    );
    let restored = ShardedDb::load(&exports.join("export.snap"), ShardedConfig::new(2, 64))
        .expect("the export loads");
    let full = RangeQuery::raw(i64::MIN + 1, i64::MAX);
    let disk = Selector::metric("disk");
    assert_eq!(
        restored.query_selector(&disk, full).unwrap(),
        db.query_selector(&disk, full).unwrap()
    );
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// This process's thread count once threads that were just joined have
/// left it: a joined thread can still be counted for a moment after
/// `join` returns.
fn settled_threads() -> usize {
    let mut last = threads();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = threads();
        if now == last {
            return now;
        }
        last = now;
    }
}

/// A 4-shard server compacting, checkpointing into a chain and scraping
/// itself, each every 20 ms, starts exactly one thread beyond its
/// dispatcher, event workers and shard writers, and never another while
/// every job runs at least five passes.
fn maintenance_leg() {
    const SHARDS: usize = 4;
    let root = std::env::temp_dir().join(format!("asap-thread-maint-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let db = ShardedDb::with_config(ShardedConfig::new(SHARDS, 64));
    for host in 0..64 {
        let key = SeriesKey::metric("temp").with_tag("host", format!("h{host}"));
        let points: Vec<DataPoint> = (0..1_000i64)
            .map(|t| DataPoint::new(t, (t as f64 / 50.0).sin() + host as f64))
            .collect();
        db.write_batch(&key, &points).expect("write temp series");
    }
    let tick = Schedule::every(Duration::from_millis(20));
    let config = ServerConfig {
        compaction: Some(CompactionConfig {
            policy: RetentionPolicy {
                raw_ttl: None,
                rollups: vec![RollupLevel {
                    bucket: 100,
                    aggregator: Aggregator::Mean,
                    ttl: None,
                }],
            },
            schedule: tick,
            clock: CompactionClock::DataWatermark,
        }),
        checkpoint: Some(CheckpointConfig {
            dir: root.join("chain"),
            schedule: tick,
            ..CheckpointConfig::default()
        }),
        self_scrape: Some(Duration::from_millis(20)),
        ..ServerConfig::default()
    };
    let budget = 1 + config.event_workers + SHARDS + 1;
    let before = settled_threads();
    let server = Server::start(db, config).expect("server starts");
    let started = threads();
    assert_eq!(
        started - before,
        budget,
        "Server::start added {} threads; 1 dispatcher + event workers + {SHARDS} \
         writers + 1 maintenance thread is {budget}",
        started - before
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut peak = started;
    loop {
        let sampled = Instant::now() + Duration::from_millis(10);
        while Instant::now() < sampled {
            peak = peak.max(threads());
            std::thread::sleep(Duration::from_micros(200));
        }
        let runs = ["compaction.runs", "checkpoint.runs", "scrape.runs"]
            .map(|key| stat(server.query_addr(), key));
        if runs.iter().all(|&n| n >= MAINTENANCE_PASSES) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "passes (compaction, checkpoint, scrape) stuck at {runs:?}"
        );
    }
    assert_eq!(
        peak, started,
        "{MAINTENANCE_PASSES} passes of each job peaked at {peak} threads, {started} after start"
    );
    let report = server.shutdown();
    assert_eq!(report.compaction.errors, 0, "{:?}", report.compaction.last_error);
    assert_eq!(report.checkpoint.errors, 0, "{:?}", report.checkpoint.last_error);
    std::fs::remove_dir_all(&root).ok();
}
