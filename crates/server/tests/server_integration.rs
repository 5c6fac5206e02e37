//! End-to-end tests of the TCP server: real sockets on ephemeral ports,
//! concurrent clients, and — following the repo-wide pattern
//! (`stream_properties.rs`, `ops_properties.rs`) — every expectation
//! derived from a single-shard serial oracle rather than baked in.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use asap_core::Asap;
use asap_server::{
    protocol, CheckpointConfig, CompactionClock, CompactionConfig, Server, ServerConfig,
};
use asap_tsdb::{
    line_protocol, load_chain_with_report, smooth, Aggregator, Compactor, DataPoint, FsyncPolicy, IngestConfig, RangeQuery,
    RetentionPolicy, RollupLevel, Schedule, Selector, SeriesKey, ShardedConfig, ShardedDb, Tsdb,
    TsdbConfig, WalConfig, ROLLUP_TAG,
};

const LATENESS: i64 = 40;

fn full() -> RangeQuery {
    RangeQuery::raw(i64::MIN + 1, i64::MAX)
}

/// The fleet's telemetry, per-series sorted: `hosts` series × `points`
/// samples of a noisy periodic signal ASAP has something to do with.
fn sorted_doc(hosts: usize, points: i64) -> Vec<String> {
    let mut lines = Vec::new();
    for t in 0..points {
        for h in 0..hosts {
            let v = (std::f64::consts::TAU * t as f64 / 48.0).sin()
                + 0.4 * if t % 2 == 0 { 1.0 } else { -1.0 }
                + h as f64;
            lines.push(format!("cpu,host=h{h} usage={v} {t}"));
        }
    }
    lines
}

/// Displaces lines by a deterministic jitter strictly below
/// [`LATENESS`] — bounded disorder the per-connection reorder stage
/// must repair losslessly.
fn shuffle_within_lateness(lines: &[String]) -> Vec<String> {
    let ts_of = |line: &str| -> i64 { line.rsplit(' ').next().unwrap().parse().unwrap() };
    let mut keyed: Vec<(i64, usize, &String)> = lines
        .iter()
        .enumerate()
        .map(|(i, line)| (ts_of(line) + (i as i64 * 13) % LATENESS, i, line))
        .collect();
    keyed.sort_by_key(|&(key, i, _)| (key, i));
    keyed.into_iter().map(|(_, _, line)| line.clone()).collect()
}

/// Streams `doc` to the ingest port in small pieces, half-closes, and
/// returns the server's final report line.
fn ingest_doc(addr: SocketAddr, doc: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect ingest");
    for piece in doc.as_bytes().chunks(113) {
        conn.write_all(piece).expect("write telemetry");
    }
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut report = String::new();
    conn.read_to_string(&mut report).expect("read report");
    report.trim().to_owned()
}

/// Like [`ingest_doc`], but wraps the byte stream in back-to-back
/// `BATCH` frames cut at arbitrary (mostly mid-line) boundaries —
/// framing must be semantically invisible.
fn ingest_doc_framed(addr: SocketAddr, doc: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect ingest");
    for window in doc.as_bytes().chunks(777) {
        conn.write_all(format!("BATCH {}\n", window.len()).as_bytes())
            .expect("write frame header");
        conn.write_all(window).expect("write frame payload");
    }
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut report = String::new();
    conn.read_to_string(&mut report).expect("read report");
    report.trim().to_owned()
}

/// Sends one command line on a fresh query connection and reads the
/// complete response (single line, or `OK …`-to-`END` block).
fn query(addr: SocketAddr, command: &str) -> String {
    let conn = TcpStream::connect(addr).expect("connect query");
    (&conn)
        .write_all(format!("{command}\n").as_bytes())
        .expect("send command");
    let mut reader = BufReader::new(&conn);
    let mut response = String::new();
    let mut first = String::new();
    reader.read_line(&mut first).expect("read response head");
    response.push_str(&first);
    let multi_line = first
        .strip_prefix("OK ")
        .is_some_and(|rest| rest.trim() == "stats" || rest.trim().parse::<usize>().is_ok());
    if multi_line {
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read response body") == 0 {
                panic!("response ended before END: {response}");
            }
            response.push_str(&line);
            if line.trim() == "END" {
                break;
            }
        }
    }
    response
}

/// Extracts one counter from a `STATS` response.
fn stat(stats: &str, key: &str) -> i64 {
    stats
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("STATS lacks `{key}`:\n{stats}"))
        .trim()
        .parse()
        .unwrap()
}

/// Polls `STATS` until `predicate` holds or the deadline passes.
fn wait_for_stats(addr: SocketAddr, what: &str, predicate: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = query(addr, "STATS");
        if predicate(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last STATS:\n{stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The acceptance-criteria wall: N concurrent TCP clients stream a
/// lateness-shuffled document (hosts
/// partitioned across clients, so per-series order stays within one
/// connection's reorder stage); the served store and both protocol
/// responses must be byte-identical to the single-shard serial oracle
/// fed the sorted document. The `framed` variant wraps every client's
/// stream in `BATCH` frames, which must change nothing.
fn multi_client_oracle_wall(framed: bool) {
    const HOSTS: usize = 6;
    const POINTS: i64 = 400;
    const CLIENTS: usize = 3;

    let server = Server::start(
        ShardedDb::with_config(ShardedConfig::new(4, 32)),
        ServerConfig {
            ingest: IngestConfig {
                lateness: Some(LATENESS),
                ..IngestConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Partition hosts across clients: per-series arrival order is only
    // defined within one connection (each has its own reorder stage).
    let all = sorted_doc(HOSTS, POINTS);
    let client_docs: Vec<String> = (0..CLIENTS)
        .map(|c| {
            let mine: Vec<String> = all
                .iter()
                .filter(|line| {
                    let host: usize = line
                        .split("host=h")
                        .nth(1)
                        .unwrap()
                        .split(' ')
                        .next()
                        .unwrap()
                        .parse()
                        .unwrap();
                    host % CLIENTS == c
                })
                .cloned()
                .collect();
            shuffle_within_lateness(&mine).join("\n") + "\n"
        })
        .collect();

    let ingest_addr = server.ingest_addr();
    let send = if framed { ingest_doc_framed } else { ingest_doc };
    let reports: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = client_docs
            .iter()
            .map(|doc| scope.spawn(move || send(ingest_addr, doc)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for report in &reports {
        assert!(report.contains("clean=true"), "dirty client report: {report}");
        assert!(report.contains("dropped_late=0"), "{report}");
    }

    // The serial single-shard oracle over the *sorted* document.
    let oracle = Tsdb::with_config(TsdbConfig { block_capacity: 32 });
    let total = line_protocol::ingest(&oracle, &(all.join("\n") + "\n"), 0).unwrap();
    assert_eq!(total, HOSTS * POINTS as usize);

    // Store identity: every query shape equals the oracle.
    let db = server.db();
    assert_eq!(
        db.query_selector(&Selector::any(), full()).unwrap(),
        oracle.query_selector(&Selector::any(), full()).unwrap()
    );

    // Protocol identity: the TCP responses are byte-identical to the
    // oracle's results rendered through the same protocol.
    let query_addr = server.query_addr();
    // Line protocol keys series as `measurement.field`.
    let range_cmd = format!("RANGE cpu.usage 0 {POINTS}");
    let oracle_range = oracle
        .query_selector(&Selector::metric("cpu.usage"), RangeQuery::raw(0, POINTS))
        .unwrap();
    assert!(
        !oracle_range.is_empty(),
        "oracle RANGE expectation is vacuous"
    );
    assert_eq!(
        query(query_addr, &range_cmd),
        protocol::render_range(&oracle_range)
    );
    let bucketed_cmd = format!("RANGE cpu.usage{{host=h1}} 0 {POINTS} 20 max");
    let oracle_bucketed = oracle
        .query_selector(
            &Selector::metric("cpu.usage").tag_eq("host", "h1"),
            RangeQuery::bucketed(0, POINTS, 20).aggregate(Aggregator::Max),
        )
        .unwrap();
    assert!(
        !oracle_bucketed.is_empty(),
        "oracle bucketed expectation is vacuous"
    );
    assert_eq!(
        query(query_addr, &bucketed_cmd),
        protocol::render_range(&oracle_bucketed)
    );
    let smooth_cmd = format!("SMOOTH cpu.usage 0 {POINTS} 1 100");
    let asap = Asap::builder().resolution(100).build();
    let oracle_frames = smooth::smooth_query_selector(
        &oracle,
        &Selector::metric("cpu.usage"),
        &asap,
        0,
        POINTS,
        1,
    )
    .unwrap();
    assert!(
        !oracle_frames.is_empty(),
        "oracle SMOOTH expectation is vacuous"
    );
    assert_eq!(
        query(query_addr, &smooth_cmd),
        protocol::render_smooth(&oracle_frames)
    );

    // Live counters aggregate the connections' reports.
    let stats = query(query_addr, "STATS");
    assert_eq!(stat(&stats, "ingest.points") as usize, total);
    assert_eq!(stat(&stats, "ingest.lines") as usize, HOSTS * POINTS as usize);
    assert_eq!(stat(&stats, "ingest.total_connections") as usize, CLIENTS);
    assert_eq!(stat(&stats, "ingest.write_failures"), 0);
    assert_eq!(stat(&stats, "ingest.dropped_late"), 0);
    assert_eq!(stat(&stats, "store.points") as usize, total);
    assert_eq!(stat(&stats, "store.watermark"), POINTS - 1);
    assert!(stat(&stats, "ingest.reordered") > 0, "shuffle produced no disorder?");

    let health = query(query_addr, "HEALTH");
    assert!(health.starts_with("OK healthy "), "{health}");
    assert!(health.contains(&format!("points={total}")), "{health}");

    let final_report = server.shutdown();
    assert_eq!(final_report.ingest.points, total);
    assert_eq!(final_report.ingest.in_flight_chunks, 0);
    assert_eq!(final_report.ingest.pending_reorder, 0);
}

#[test]
fn multi_client_tcp_ingest_matches_single_shard_serial_oracle() {
    multi_client_oracle_wall(false);
}

/// The same wall with `BATCH`-framed clients: concurrent framed,
/// lateness-shuffled streams are held to the same oracle.
#[test]
fn batch_framed_multi_client_tcp_ingest_matches_the_oracle() {
    multi_client_oracle_wall(true);
}

/// Graceful shutdown must flush reorder buffers of connections that are
/// still open: points inside the lateness window are applied via
/// `finish()`, not lost.
#[test]
fn graceful_shutdown_flushes_reorder_buffers_of_open_connections() {
    let server = Server::start(
        ShardedDb::with_config(ShardedConfig::new(2, 16)),
        ServerConfig {
            ingest: IngestConfig {
                lateness: Some(1_000),
                ..IngestConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let db = server.db();

    // All three points sit inside the lateness window, so they stay in
    // the reorder buffer until a flush; the connection stays open.
    let conn = TcpStream::connect(server.ingest_addr()).unwrap();
    (&conn)
        .write_all(b"m v=2 2\nm v=1 1\nm v=3 3\n")
        .unwrap();
    wait_for_stats(server.query_addr(), "the server to consume 3 lines", |stats| {
        stat(stats, "ingest.lines") >= 3
    });
    assert_eq!(
        db.query(&SeriesKey::metric("m.v"), full())
            .map(|points| points.len())
            .unwrap_or(0),
        0,
        "points should still be pending in the reorder stage"
    );

    let report = server.shutdown();
    assert_eq!(report.ingest.points, 3, "finish() flushed the buffers");
    assert_eq!(report.ingest.reordered, 1);
    assert_eq!(report.ingest.pending_reorder, 0);
    assert_eq!(
        db.query(&SeriesKey::metric("m.v"), full()).unwrap(),
        vec![
            DataPoint::new(1, 1.0),
            DataPoint::new(2, 2.0),
            DataPoint::new(3, 3.0)
        ],
        "flushed points applied in timestamp order"
    );
    // The drained server handed the report back to the open client too.
    let mut tail = String::new();
    let mut conn = conn;
    conn.read_to_string(&mut tail).unwrap();
    assert!(tail.contains("points=3"), "client report: {tail}");
}

/// Draining a connection mid-stream cuts its bytes at an arbitrary
/// read boundary, so the unterminated tail may be a truncated line
/// (`m v=9 99` cut out of `m v=9 990\n` parses as a valid point with a
/// wrong timestamp). The drain must abort — applying every complete
/// line and flushing reorder buffers, but discarding that tail —
/// instead of finishing it into the store and the final checkpoint.
#[test]
fn drain_discards_the_partial_trailing_line_of_open_connections() {
    let server = Server::start(
        ShardedDb::with_config(ShardedConfig::new(2, 16)),
        ServerConfig {
            ingest: IngestConfig {
                lateness: Some(1_000),
                ..IngestConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let db = server.db();

    // Two complete lines held in the reorder stage, plus an
    // unterminated tail that would parse as a valid (wrong) point.
    let conn = TcpStream::connect(server.ingest_addr()).unwrap();
    (&conn).write_all(b"m v=2 2\nm v=1 1\nm v=9 99").unwrap();
    wait_for_stats(server.query_addr(), "the server to consume 2 lines", |stats| {
        stat(stats, "ingest.lines") >= 2
    });

    let report = server.shutdown();
    assert!(
        report.ingest.points <= 2,
        "truncated tail was ingested: {:?}",
        report.ingest
    );
    assert_eq!(report.ingest.pending_reorder, 0);
    assert_eq!(
        db.query(&SeriesKey::metric("m.v"), full()).unwrap(),
        vec![DataPoint::new(1, 1.0), DataPoint::new(2, 2.0)],
        "drain must flush the complete lines and only those"
    );
    drop(conn);
}

/// A line on the ingest port is bounded like one on the query port:
/// 8 MiB without a newline — a well-formed record but for its length,
/// so an unbounded assembler would buffer it whole and store it — is
/// discarded as it arrives and counted as one parse failure, and the
/// same connection keeps ingesting.
#[test]
fn an_unbounded_ingest_line_is_one_parse_failure_and_the_connection_lives() {
    let server = Server::start(
        ShardedDb::with_config(ShardedConfig::new(2, 16)),
        ServerConfig::default(),
    )
    .unwrap();
    let failures_before = stat(
        &query(server.query_addr(), "STATS"),
        "ingest.parse_failures",
    );

    let mut conn = TcpStream::connect(server.ingest_addr()).unwrap();
    conn.write_all(b"m,t=").unwrap();
    for _ in 0..128 {
        conn.write_all(&[b'x'; 64 * 1024]).unwrap();
    }
    conn.write_all(b" v=9 9").unwrap();
    conn.write_all(b"\nm v=1 1\n").unwrap();
    let stats = wait_for_stats(
        server.query_addr(),
        "the record after the long line",
        |stats| stat(stats, "ingest.points") >= 1,
    );
    assert_eq!(stat(&stats, "ingest.lines"), 2);
    assert_eq!(stat(&stats, "ingest.parse_failures"), failures_before + 1);
    assert_eq!(
        query(server.query_addr(), "RANGE * 0 10"),
        "OK 1\nSERIES m.v 1\n1 1\nEND\n",
        "only the short record is stored"
    );

    conn.write_all(b"m v=2 2\n").unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    let mut report = String::new();
    conn.read_to_string(&mut report).unwrap();
    assert!(
        report.starts_with("lines=3 points=2 ") && report.contains(" parse_failures=1 "),
        "report: {report}"
    );
    server.shutdown();
}

/// Connections over the cap are refused with one `ERR` line and
/// counted; the accepted connection is unaffected.
#[test]
fn connection_cap_rejects_excess_clients() {
    let server = Server::start(
        ShardedDb::with_config(ShardedConfig::new(2, 16)),
        ServerConfig {
            max_ingest_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let first = TcpStream::connect(server.ingest_addr()).unwrap();
    (&first).write_all(b"m v=1 1\n").unwrap();
    wait_for_stats(server.query_addr(), "the first connection to register", |stats| {
        stat(stats, "ingest.active_connections") == 1
    });

    let second = TcpStream::connect(server.ingest_addr()).unwrap();
    let mut rejection = String::new();
    BufReader::new(&second).read_line(&mut rejection).unwrap();
    assert!(
        rejection.starts_with("ERR connection limit reached"),
        "{rejection}"
    );

    first.shutdown(Shutdown::Write).unwrap();
    let mut report = String::new();
    let mut first = first;
    first.read_to_string(&mut report).unwrap();
    assert!(report.contains("points=1"), "{report}");

    let final_report = server.shutdown();
    assert_eq!(final_report.ingest.rejected_connections, 1);
    assert_eq!(final_report.ingest.connections, 1);
    assert_eq!(final_report.ingest.points, 1);
}

/// Malformed requests get single-line `ERR` responses and the
/// connection keeps serving subsequent requests.
#[test]
fn protocol_errors_do_not_poison_the_connection() {
    let server = Server::start(ShardedDb::new(), ServerConfig::default()).unwrap();
    let conn = TcpStream::connect(server.query_addr()).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    fn ask(conn: &TcpStream, reader: &mut impl BufRead, command: &str) -> String {
        (&*conn)
            .write_all(format!("{command}\n").as_bytes())
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }
    assert!(ask(&conn, &mut reader, "FLY me to the moon").starts_with("ERR unknown command"));
    assert!(ask(&conn, &mut reader, "RANGE *").starts_with("ERR usage:"));
    assert!(ask(&conn, &mut reader, "RANGE cpu{open 0 10").starts_with("ERR selector"));
    assert!(ask(&conn, &mut reader, "SMOOTH * 0 100 10 0").starts_with("ERR resolution"));
    // Client-chosen ranges must not size server allocations: a grid of
    // 2^40 buckets is refused before it reaches the engine…
    assert!(
        ask(&conn, &mut reader, "RANGE * 0 1099511627776 1").starts_with("ERR grid of"),
        "giant grid not refused"
    );
    assert!(ask(&conn, &mut reader, "SMOOTH * 0 1099511627776 1 100").starts_with("ERR grid of"));
    // …and a span that overflows i64 is rejected by query validation
    // instead of wrapping.
    assert!(
        ask(
            &conn,
            &mut reader,
            "RANGE * -9223372036854775807 9223372036854775807 5"
        )
        .starts_with("ERR "),
        "overflowing span not rejected"
    );
    // SNAPSHOT is disabled unless the server is configured with a
    // snapshot directory (this server is not).
    assert!(
        ask(&conn, &mut reader, "SNAPSHOT a.bin").starts_with("ERR SNAPSHOT is disabled"),
        "SNAPSHOT served without a configured directory"
    );
    // A selector matching no series is an empty result, not an error…
    assert!(ask(&conn, &mut reader, "RANGE ghost 0 10").starts_with("OK 0"));
    let mut end = String::new();
    reader.read_line(&mut end).unwrap();
    assert_eq!(end.trim(), "END");
    // …and the connection is still healthy.
    assert!(ask(&conn, &mut reader, "HEALTH").starts_with("OK healthy"));

    // A request "line" that never ends is cut off at the length cap
    // with one ERR, not accumulated forever. Exactly cap+1 bytes: the
    // server consumes every byte before refusing, so the close is a
    // clean FIN and the ERR is always readable.
    let mut hog = TcpStream::connect(server.query_addr()).unwrap();
    hog.write_all(&vec![b'x'; 64 * 1024 + 1]).unwrap();
    let mut refused = String::new();
    hog.read_to_string(&mut refused).unwrap();
    assert!(
        refused.starts_with("ERR request line exceeds"),
        "oversized line answer: {refused:?}"
    );
    server.shutdown();
}

/// The query port has its own connection cap — remote clients must not
/// be able to spawn unbounded server threads.
#[test]
fn query_connection_cap_rejects_excess_clients() {
    let server = Server::start(
        ShardedDb::new(),
        ServerConfig {
            max_query_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // The first connection occupies the only slot…
    let held = TcpStream::connect(server.query_addr()).unwrap();
    (&held).write_all(b"HEALTH\n").unwrap();
    let mut ok = String::new();
    BufReader::new(&held).read_line(&mut ok).unwrap();
    assert!(ok.starts_with("OK healthy"), "{ok}");
    // …so the second is refused with one ERR line.
    let second = TcpStream::connect(server.query_addr()).unwrap();
    let mut rejection = String::new();
    BufReader::new(&second).read_line(&mut rejection).unwrap();
    assert!(
        rejection.starts_with("ERR connection limit reached"),
        "{rejection}"
    );
    // Releasing the slot frees it for the next client.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let retry = TcpStream::connect(server.query_addr()).unwrap();
        (&retry).write_all(b"HEALTH\n").unwrap();
        let mut line = String::new();
        BufReader::new(&retry).read_line(&mut line).unwrap();
        if line.starts_with("OK healthy") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slot never freed after drop; last answer: {line}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

/// `SNAPSHOT` writes a loadable export equal to the live store —
/// confined to the configured snapshot directory; escaping targets are
/// refused.
#[test]
fn snapshot_command_round_trips_the_store() {
    let server = Server::start(
        ShardedDb::with_config(ShardedConfig::new(3, 16)),
        ServerConfig {
            snapshot_dir: Some(std::env::temp_dir()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let doc = sorted_doc(3, 50).join("\n") + "\n";
    let report = ingest_doc(server.ingest_addr(), &doc);
    assert!(report.contains("clean=true"), "{report}");

    let name = format!("asap_server_snap_{}.bin", std::process::id());
    let response = query(server.query_addr(), &format!("SNAPSHOT {name}"));
    assert_eq!(response.trim(), format!("OK snapshot {name}"));

    let path = std::env::temp_dir().join(&name);
    let restored = ShardedDb::load(&path, ShardedConfig::new(5, 16)).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        restored.query_selector(&Selector::any(), full()).unwrap(),
        server.db().query_selector(&Selector::any(), full()).unwrap()
    );

    // Unauthenticated clients must not pick arbitrary server paths:
    // absolute targets and `..` escapes are refused before any I/O…
    for escape in ["/nonexistent-dir/x/y.bin", "../escape.bin", "a/../../b"] {
        let refused = query(server.query_addr(), &format!("SNAPSHOT {escape}"));
        assert!(
            refused.starts_with("ERR snapshot target"),
            "`{escape}` -> {refused}"
        );
    }
    // …while an in-directory destination that fails at save time is an
    // ERR, not a dead server.
    let bad = query(server.query_addr(), "SNAPSHOT nonexistent-subdir/x/y.bin");
    assert!(bad.starts_with("ERR "), "{bad}");
    assert!(query(server.query_addr(), "HEALTH").starts_with("OK healthy"));
    server.shutdown();
}

/// The background scheduler's compaction converges to exactly what a
/// serial `Compactor::run` produces on the oracle at the same logical
/// time — and its counters surface through `STATS`.
#[test]
fn background_scheduler_compacts_like_serial_compactor() {
    const POINTS: i64 = 100;
    let policy = RetentionPolicy {
        raw_ttl: None,
        rollups: vec![RollupLevel {
            bucket: 10,
            aggregator: Aggregator::Mean,
            ttl: None,
        }],
    };
    let server = Server::start(
        ShardedDb::with_config(ShardedConfig::new(3, 16)),
        ServerConfig {
            compaction: Some(CompactionConfig {
                policy: policy.clone(),
                schedule: Schedule::every(Duration::from_millis(20))
                    .with_jitter(Duration::from_millis(10)),
                seed: 7,
                clock: CompactionClock::DataWatermark,
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let doc = sorted_doc(2, POINTS).join("\n") + "\n";
    let report = ingest_doc(server.ingest_addr(), &doc);
    assert!(report.contains("clean=true"), "{report}");

    // The oracle: same data, one serial pass at the data watermark.
    let oracle = Tsdb::with_config(TsdbConfig { block_capacity: 16 });
    line_protocol::ingest(&oracle, &doc, 0).unwrap();
    let expected = Compactor::new(policy)
        .unwrap()
        .run(&oracle, POINTS - 1)
        .unwrap();
    assert!(expected.rolled_up > 0, "oracle pass was a no-op");

    let stats = wait_for_stats(
        server.query_addr(),
        "the scheduler to materialize the rollups",
        |stats| stat(stats, "compaction.rolled_up") as usize >= expected.rolled_up,
    );
    assert_eq!(
        stat(&stats, "compaction.rolled_up") as usize,
        expected.rolled_up,
        "repeated scheduled passes must not double-count"
    );
    assert_eq!(stat(&stats, "compaction.errors"), 0);
    assert!(stat(&stats, "compaction.runs") >= 1);

    // Store identity after background compaction ≡ serial oracle.
    assert_eq!(
        server
            .db()
            .query_selector(&Selector::any(), full())
            .unwrap(),
        oracle.query_selector(&Selector::any(), full()).unwrap()
    );

    let final_report = server.shutdown();
    assert_eq!(final_report.compaction.rolled_up, expected.rolled_up);
    assert_eq!(final_report.compaction.errors, 0);
}

/// A server compacting every 20 ms on the data watermark, booted from
/// the chain in `chain_dir` into one shard. One shard's writer applies
/// the stream in order, so every pass sees all series up to the same
/// timestamp and never materializes a bucket whose points are still on
/// the way.
fn boot_compacting(chain_dir: &std::path::Path, policy: &RetentionPolicy) -> Server {
    let (db, report) = load_chain_with_report(chain_dir, ShardedConfig::new(1, 16)).unwrap();
    assert_eq!(report.damage, None);
    let config = ServerConfig {
        checkpoint: Some(CheckpointConfig {
            dir: chain_dir.to_path_buf(),
            ..CheckpointConfig::default()
        }),
        compaction: Some(CompactionConfig {
            policy: policy.clone(),
            schedule: Schedule::every(Duration::from_millis(20)),
            seed: 7,
            clock: CompactionClock::DataWatermark,
        }),
        ..ServerConfig::default()
    };
    Server::start(db, config).unwrap()
}

/// One `Mean` rollup level of `bucket`, no TTLs.
fn rollup_policy(bucket: i64) -> RetentionPolicy {
    RetentionPolicy {
        raw_ttl: None,
        rollups: vec![RollupLevel {
            bucket,
            aggregator: Aggregator::Mean,
            ttl: None,
        }],
    }
}

/// Selects every rollup series.
fn rollup_series() -> Selector {
    Selector::any().tag_present(ROLLUP_TAG)
}

/// The compactor keeps no state outside the store, so a `--rollup`
/// server restarted from its chain goes on compacting where it left
/// off: every pass after the restart is `Ok`, `HEALTH` stays `OK`, and
/// the rollups of old and new data ≡ one serial `Compactor::run` over
/// the final data.
#[test]
fn a_restarted_rollup_server_keeps_compacting() {
    const HOSTS: usize = 2;
    const POINTS: i64 = 100;
    let chain_dir =
        std::env::temp_dir().join(format!("asap_server_rollup_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&chain_dir);
    let policy = rollup_policy(10);
    let lines = sorted_doc(HOSTS, 2 * POINTS);
    let (old, new) = lines.split_at(HOSTS * POINTS as usize);
    let doc = |lines: &[String]| lines.join("\n") + "\n";

    let first = boot_compacting(&chain_dir, &policy);
    assert!(ingest_doc(first.ingest_addr(), &doc(old)).contains("clean=true"));
    let first_rollups = HOSTS * 9; // buckets [0, 90) are complete at now = 99
    wait_for_stats(first.query_addr(), "the first rollups", |stats| {
        stat(stats, "compaction.rolled_up") as usize == first_rollups
    });
    let query_addr = first.query_addr();
    let runner = std::thread::spawn(move || first.run());
    assert_eq!(query(query_addr, "SHUTDOWN").trim(), "OK shutting down");
    let drained = runner.join().unwrap();
    assert_eq!(drained.compaction.errors, 0);
    assert_eq!(drained.checkpoint.last_error, None);

    let next = boot_compacting(&chain_dir, &policy);
    assert!(ingest_doc(next.ingest_addr(), &doc(new)).contains("clean=true"));
    let oracle = Tsdb::with_config(TsdbConfig { block_capacity: 16 });
    line_protocol::ingest(&oracle, &doc(&lines), 0).unwrap();
    let expected = Compactor::new(policy)
        .unwrap()
        .run(&oracle, 2 * POINTS - 1)
        .unwrap();
    let made = expected.rolled_up - first_rollups;
    let stats = wait_for_stats(next.query_addr(), "the rollups of the new data", |stats| {
        stat(stats, "compaction.rolled_up") as usize == made
    });
    // A few more passes over the finished data change nothing.
    let runs = stat(&stats, "compaction.runs");
    let stats = wait_for_stats(next.query_addr(), "two more passes", |stats| {
        stat(stats, "compaction.runs") >= runs + 2
    });
    assert_eq!(stat(&stats, "compaction.errors"), 0);
    assert_eq!(stat(&stats, "compaction.rolled_up") as usize, made);
    assert!(query(next.query_addr(), "HEALTH").starts_with("OK healthy"));
    assert_eq!(
        next.db().query_selector(&rollup_series(), full()).unwrap(),
        oracle.query_selector(&rollup_series(), full()).unwrap()
    );
    assert_eq!(next.shutdown().compaction.errors, 0);
    std::fs::remove_dir_all(&chain_dir).ok();
}

/// A client line carrying the reserved `__rollup__` tag is one parse
/// failure: written, it would land in the compactor's own series ahead
/// of every bucket. The connection lives, and compaction goes on clean
/// with the same rollups as the serial oracle of the other lines.
#[test]
fn a_forged_rollup_line_is_refused_and_compaction_stays_clean() {
    let chain_dir =
        std::env::temp_dir().join(format!("asap_server_forged_rollup_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&chain_dir);
    let policy = rollup_policy(100);
    let server = boot_compacting(&chain_dir, &policy);
    let failures_before = stat(
        &query(server.query_addr(), "STATS"),
        "ingest.parse_failures",
    );
    let clean: String = (0..550).map(|t| format!("m v={} {t}\n", t % 7)).collect();
    let report = ingest_doc(
        server.ingest_addr(),
        &format!("m,__rollup__=100 v=1 1000000\n{clean}"),
    );
    assert!(
        report.contains(" points=550 ") && report.contains(" parse_failures=1 "),
        "report: {report}"
    );

    let oracle = Tsdb::with_config(TsdbConfig { block_capacity: 16 });
    line_protocol::ingest(&oracle, &clean, 0).unwrap();
    let expected = Compactor::new(policy).unwrap().run(&oracle, 549).unwrap();
    assert_eq!(expected.rolled_up, 5);
    let stats = wait_for_stats(server.query_addr(), "the rollups", |stats| {
        stat(stats, "compaction.rolled_up") as usize == expected.rolled_up
    });
    assert_eq!(stat(&stats, "ingest.parse_failures"), failures_before + 1);
    assert_eq!(stat(&stats, "compaction.errors"), 0);
    assert!(query(server.query_addr(), "HEALTH").starts_with("OK healthy"));
    assert_eq!(
        server
            .db()
            .query_selector(&rollup_series(), full())
            .unwrap(),
        oracle.query_selector(&rollup_series(), full()).unwrap()
    );
    server.shutdown();
    std::fs::remove_dir_all(&chain_dir).ok();
}

/// A client's `SHUTDOWN` command ends [`Server::run`], which drains and
/// returns the final report — the binary's lifecycle. The drain's last
/// act is a chain checkpoint: the chain directory alone reloads to the
/// drained store.
#[test]
fn shutdown_command_ends_run() {
    let chain_dir =
        std::env::temp_dir().join(format!("asap_server_final_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&chain_dir);
    let server = Server::start(
        ShardedDb::with_config(ShardedConfig::new(2, 16)),
        ServerConfig {
            checkpoint: Some(CheckpointConfig {
                dir: chain_dir.clone(),
                ..CheckpointConfig::default()
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let ingest_addr = server.ingest_addr();
    let query_addr = server.query_addr();
    let db = server.db();
    let runner = std::thread::spawn(move || server.run());

    let report = ingest_doc(ingest_addr, "m v=1 1\nm v=2 2\n");
    assert!(report.contains("points=2"), "{report}");
    let ack = query(query_addr, "SHUTDOWN");
    assert_eq!(ack.trim(), "OK shutting down");

    let final_report = runner.join().unwrap();
    assert_eq!(final_report.ingest.points, 2);
    assert_eq!(final_report.checkpoint.runs, 1, "the drain checkpoints once");
    assert_eq!(final_report.checkpoint.last_error, None);

    // The final checkpoint captured the drained store.
    let restored = ShardedDb::load(&chain_dir, ShardedConfig::new(2, 16)).unwrap();
    std::fs::remove_dir_all(&chain_dir).ok();
    assert_eq!(
        restored.query_selector(&Selector::any(), full()).unwrap(),
        db.query_selector(&Selector::any(), full()).unwrap()
    );

    // Post-drain, both ports are closed to new work.
    assert!(
        TcpStream::connect(ingest_addr).is_err() || {
            let mut probe = TcpStream::connect(ingest_addr).unwrap();
            probe.write_all(b"m v=9 9\n").ok();
            let mut out = String::new();
            probe.read_to_string(&mut out).is_err() || out.is_empty()
        },
        "ingest port still serving after drain"
    );
}

/// A restart with `--wal-dir` recovers the first process's drained
/// state without any snapshot: the second server replays the sealed log
/// on boot and serves byte-identical `RANGE` and `SMOOTH` responses.
#[test]
fn restart_with_wal_recovers_the_drained_state() {
    const HOSTS: usize = 3;
    const POINTS: i64 = 120;
    let wal_dir = std::env::temp_dir().join(format!("asap_server_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let config = || ServerConfig {
        ingest: IngestConfig {
            lateness: Some(LATENESS),
            ..IngestConfig::default()
        },
        wal: Some(WalConfig {
            dir: wal_dir.clone(),
            fsync: FsyncPolicy::EveryN(8),
        }),
        ..ServerConfig::default()
    };

    let first = Server::start(ShardedDb::with_config(ShardedConfig::new(3, 16)), config()).unwrap();
    let doc = shuffle_within_lateness(&sorted_doc(HOSTS, POINTS)).join("\n") + "\n";
    let report = ingest_doc(first.ingest_addr(), &doc);
    assert!(report.contains("clean=true"), "{report}");
    let total = HOSTS * POINTS as usize;

    let range_cmd = format!("RANGE cpu.usage 0 {POINTS}");
    let smooth_cmd = format!("SMOOTH cpu.usage{{host=h1}} 0 {POINTS} 1 60");
    let before_range = query(first.query_addr(), &range_cmd);
    let before_smooth = query(first.query_addr(), &smooth_cmd);
    assert!(
        before_range.len() > 1_000 && before_range.contains("SERIES cpu.usage"),
        "pre-restart RANGE response is vacuous: {before_range}"
    );
    let stats = query(first.query_addr(), "STATS");
    assert_eq!(stat(&stats, "wal.enabled"), 1);
    assert_eq!(stat(&stats, "wal.records") as usize, total);
    assert!(stat(&stats, "wal.bytes") > 0);
    assert_eq!(stat(&stats, "wal.replay.files"), 0, "a fresh WAL dir has nothing to replay");
    let drained = first.shutdown(); // seals the log
    assert_eq!(drained.ingest.points, total);
    assert_eq!(drained.wal_seal_error, None);

    // Same WAL directory, empty store, different shard count: boot-time
    // replay re-routes by the store hash and rebuilds the drained state.
    let second =
        Server::start(ShardedDb::with_config(ShardedConfig::new(2, 16)), config()).unwrap();
    let replay = second.wal_replay_report();
    assert_eq!(replay.applied as usize, total);
    assert_eq!(replay.skipped, 0);
    assert_eq!(replay.damaged, 0);
    assert_eq!(query(second.query_addr(), &range_cmd), before_range);
    assert_eq!(query(second.query_addr(), &smooth_cmd), before_smooth);
    let stats = query(second.query_addr(), "STATS");
    assert_eq!(stat(&stats, "wal.replay.applied") as usize, total);
    assert_eq!(stat(&stats, "wal.replay.damaged"), 0);
    assert_eq!(stat(&stats, "store.points") as usize, total);
    second.shutdown();
    std::fs::remove_dir_all(&wal_dir).ok();
}

/// The restart wall for the layout without a log: a chain and no WAL.
/// The drain's final checkpoint is the only durable state; folding the
/// chain like the binary does and serving it must answer `RANGE` and
/// `SMOOTH` byte-identically — across a second restart too, whose first
/// checkpoint re-bases the chain a previous process wrote.
#[test]
fn restart_from_the_chain_alone_recovers_the_drained_state() {
    const HOSTS: usize = 3;
    const POINTS: i64 = 120;
    let chain_dir =
        std::env::temp_dir().join(format!("asap_server_chain_only_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&chain_dir);
    let config = || ServerConfig {
        ingest: IngestConfig {
            lateness: Some(LATENESS),
            ..IngestConfig::default()
        },
        checkpoint: Some(CheckpointConfig {
            dir: chain_dir.clone(),
            ..CheckpointConfig::default()
        }),
        ..ServerConfig::default()
    };
    let boot = |shards: usize| {
        let (db, report) =
            load_chain_with_report(&chain_dir, ShardedConfig::new(shards, 16)).unwrap();
        assert_eq!(report.damage, None);
        Server::start(db, config()).unwrap()
    };

    let first = boot(3); // the chain directory does not exist yet
    let doc = shuffle_within_lateness(&sorted_doc(HOSTS, POINTS)).join("\n") + "\n";
    let report = ingest_doc(first.ingest_addr(), &doc);
    assert!(report.contains("clean=true"), "{report}");
    let range_cmd = format!("RANGE cpu.usage 0 {POINTS}");
    let smooth_cmd = format!("SMOOTH cpu.usage{{host=h1}} 0 {POINTS} 1 60");
    let before_range = query(first.query_addr(), &range_cmd);
    let before_smooth = query(first.query_addr(), &smooth_cmd);
    assert!(
        before_range.len() > 1_000 && before_range.contains("SERIES cpu.usage"),
        "pre-restart RANGE response is vacuous: {before_range}"
    );
    let query_addr = first.query_addr();
    let runner = std::thread::spawn(move || first.run());
    assert_eq!(query(query_addr, "SHUTDOWN").trim(), "OK shutting down");
    let drained = runner.join().unwrap();
    assert_eq!(drained.ingest.points, HOSTS * POINTS as usize);
    assert_eq!(drained.checkpoint.last_error, None);

    for shards in [2, 5] {
        let next = boot(shards);
        assert_eq!(query(next.query_addr(), &range_cmd), before_range);
        assert_eq!(query(next.query_addr(), &smooth_cmd), before_smooth);
        let stats = query(next.query_addr(), "STATS");
        assert_eq!(stat(&stats, "store.points") as usize, HOSTS * POINTS as usize);
        let drained = next.shutdown();
        assert_eq!(drained.checkpoint.rebases, 1, "a reopened chain re-bases first");
        assert_eq!(drained.checkpoint.last_error, None);
    }
    std::fs::remove_dir_all(&chain_dir).ok();
}

/// Regression for a data loss: `SNAPSHOT` names are confined to the
/// snapshot directory, which protects nothing when the chain or the
/// log lives under it — `SNAPSHOT chain/MANIFEST` used to answer `OK`,
/// turn the manifest into an export, and let the next boot serve an
/// empty store. Such a configuration is now refused at start-up; with
/// disjoint directories the very same request sequence (ingest →
/// `SNAPSHOT chain/MANIFEST` → `SHUTDOWN` → restart) loses nothing.
#[test]
fn nested_durable_directories_are_refused_at_start_up() {
    let base = std::env::temp_dir().join(format!("asap_nested_dirs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let exports = base.join("exports");
    std::fs::create_dir_all(exports.join("chain")).unwrap();
    let config = |snapshot_dir: &std::path::Path, chain: &str, wal: &str| ServerConfig {
        snapshot_dir: Some(snapshot_dir.to_path_buf()),
        checkpoint: Some(CheckpointConfig {
            dir: base.join(chain),
            ..CheckpointConfig::default()
        }),
        wal: Some(WalConfig {
            dir: base.join(wal),
            fsync: FsyncPolicy::Always,
        }),
        ..ServerConfig::default()
    };
    let store = || ShardedDb::with_config(ShardedConfig::new(2, 16));

    // Ancestor, equal, and descendant — in any pairing of the three.
    for (snapshot_dir, chain, wal) in [
        (base.clone(), "chain", "wal"),
        (base.join("chain"), "chain", "wal"),
        (base.join("wal").join("exports"), "chain", "wal"),
        (exports.clone(), "state", "state/wal"),
        (exports.clone(), "exports/../chain", "./chain"),
    ] {
        let err = match Server::start(store(), config(&snapshot_dir, chain, wal)) {
            Ok(_) => panic!("{snapshot_dir:?} / {chain} / {wal} was accepted"),
            Err(e) => e.to_string(),
        };
        assert!(err.starts_with("config: ") && err.contains("disjoint"), "{err}");
    }
    assert!(
        !base.join("chain").exists() && !base.join("wal").exists(),
        "a refused configuration must not touch the disk"
    );

    // Disjoint directories: the sequence that used to lose the store.
    let first = Server::start(store(), config(&exports, "chain", "wal")).unwrap();
    let report = ingest_doc(first.ingest_addr(), "m v=1 1\nm v=2 2\n");
    assert!(report.contains("points=2"), "{report}");
    assert_eq!(
        query(first.query_addr(), "SNAPSHOT chain/MANIFEST"),
        "OK snapshot chain/MANIFEST\n"
    );
    let range_cmd = "RANGE m.v 0 10";
    let expect = query(first.query_addr(), range_cmd);
    assert!(expect.contains("SERIES m.v") && expect.starts_with("OK 1"), "{expect}");
    first.shutdown();

    let (db, report) =
        load_chain_with_report(&base.join("chain"), ShardedConfig::new(2, 16)).unwrap();
    assert_eq!(report.damage, None, "the export landed on the live chain");
    let second = Server::start(db, config(&exports, "chain", "wal")).unwrap();
    assert_eq!(query(second.query_addr(), range_cmd), expect);
    second.shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// The distinct WAL generations currently on disk, parsed from the
/// `wal-{shard}-{generation}.log` file names.
fn wal_generations(dir: &std::path::Path) -> std::collections::BTreeSet<u64> {
    let mut gens = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir(dir).expect("read wal dir") {
        let name = entry.expect("wal dir entry").file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name.strip_prefix("wal-").and_then(|r| r.strip_suffix(".log")) {
            if let Some((_, gen)) = rest.split_once('-') {
                gens.insert(gen.parse().expect("generation number"));
            }
        }
    }
    gens
}

/// With a WAL and a checkpoint chain configured, `SNAPSHOT <name>` is a
/// real checkpoint, not just an export: it advances the on-disk chain,
/// discards the covered WAL generations, and still writes the named
/// standalone snapshot. A restart from the chain plus the surviving log
/// tail serves byte-identical responses.
#[test]
fn snapshot_with_a_chain_checkpoints_and_truncates_the_wal() {
    const HOSTS: usize = 2;
    const POINTS: i64 = 80;
    let base = std::env::temp_dir().join(format!("asap_snapck_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let wal_dir = base.join("wal");
    let chain_dir = base.join("chain");
    let export_dir = base.join("exports");
    std::fs::create_dir_all(&export_dir).unwrap();
    let config = || ServerConfig {
        ingest: IngestConfig {
            lateness: Some(LATENESS),
            ..IngestConfig::default()
        },
        wal: Some(WalConfig {
            dir: wal_dir.clone(),
            fsync: FsyncPolicy::EveryN(8),
        }),
        checkpoint: Some(CheckpointConfig {
            dir: chain_dir.clone(),
            // An idle schedule: this test drives checkpoints through
            // SNAPSHOT and the drain, not the background thread.
            schedule: Schedule::every(Duration::from_secs(3600)),
            seed: 1,
            chain_depth: 4,
        }),
        snapshot_dir: Some(export_dir.clone()),
        ..ServerConfig::default()
    };

    let first =
        Server::start(ShardedDb::with_config(ShardedConfig::new(3, 16)), config()).unwrap();
    let doc = shuffle_within_lateness(&sorted_doc(HOSTS, POINTS)).join("\n") + "\n";
    let report = ingest_doc(first.ingest_addr(), &doc);
    assert!(report.contains("clean=true"), "{report}");

    let gens_before = wal_generations(&wal_dir);
    assert!(!gens_before.is_empty());
    assert_eq!(query(first.query_addr(), "SNAPSHOT export1"), "OK snapshot export1\n");

    // The checkpoint rotated past every pre-snapshot generation and
    // discarded them: only the fresh live generation remains on disk.
    let gens_after = wal_generations(&wal_dir);
    assert_eq!(gens_after.len(), 1, "covered generations survive: {gens_after:?}");
    assert!(gens_after.iter().min() > gens_before.iter().max());

    let stats = query(first.query_addr(), "STATS");
    assert_eq!(stat(&stats, "checkpoint.enabled"), 1);
    assert_eq!(stat(&stats, "checkpoint.runs"), 1);
    assert_eq!(stat(&stats, "checkpoint.errors"), 0);
    assert!(stat(&stats, "checkpoint.chain_links") >= 1);
    assert!(stat(&stats, "checkpoint.bytes_written") > 0);
    assert_eq!(
        stat(&stats, "checkpoint.wal_files_discarded"),
        3,
        "one covered file per shard"
    );

    // The named export rides along as a complete standalone snapshot of
    // the checkpointed moment.
    let range_cmd = format!("RANGE cpu.usage 0 {POINTS}");
    let live = query(first.query_addr(), &range_cmd);
    let exported =
        ShardedDb::load(&export_dir.join("export1"), ShardedConfig::new(3, 16)).unwrap();
    let rendered = protocol::render_range(
        &exported
            .query_selector(
                &Selector::metric("cpu.usage").tag_absent(ROLLUP_TAG),
                RangeQuery::raw(0, POINTS),
            )
            .unwrap(),
    );
    assert_eq!(rendered, live, "the export diverges from the served store");

    // Post-snapshot writes land in the surviving log tail and the
    // drain's final chain checkpoint — nothing acknowledged is lost.
    let mut tail = String::new();
    for t in POINTS..POINTS + 20 {
        for h in 0..HOSTS {
            tail.push_str(&format!("cpu,host=h{h} usage={} {t}\n", (t % 5) as f64));
        }
    }
    let report = ingest_doc(first.ingest_addr(), &tail);
    assert!(report.contains("clean=true"), "{report}");
    let full_cmd = format!("RANGE cpu.usage 0 {}", POINTS + 20);
    let expect = query(first.query_addr(), &full_cmd);
    let drained = first.shutdown();
    assert_eq!(drained.checkpoint.runs, 2, "the drain takes a final checkpoint");
    assert_eq!(drained.checkpoint.last_error, None);

    // Boot like the binary: fold the chain directory, replay the tail.
    let db = ShardedDb::load(&chain_dir, ShardedConfig::new(2, 16)).unwrap();
    let second = Server::start(db, config()).unwrap();
    assert_eq!(
        second.wal_replay_report().applied,
        0,
        "the final checkpoint left nothing to replay"
    );
    assert_eq!(query(second.query_addr(), &full_cmd), expect);
    second.shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// The ISSUE's steady-state acceptance criterion: with background
/// checkpoints enabled, the on-disk WAL never accumulates with uptime —
/// every pass discards the generations it covers, so distinct
/// generations stay within chain depth + 1 across rounds of ingest, the
/// chain itself re-bases at the configured depth, and a restart folds
/// the chain back into byte-identical query responses.
#[test]
fn background_checkpoints_bound_the_wal_at_steady_state() {
    const DEPTH: usize = 2;
    let base = std::env::temp_dir().join(format!("asap_ckschd_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let wal_dir = base.join("wal");
    let chain_dir = base.join("chain");
    let config = || ServerConfig {
        wal: Some(WalConfig {
            dir: wal_dir.clone(),
            fsync: FsyncPolicy::EveryN(4),
        }),
        checkpoint: Some(CheckpointConfig {
            dir: chain_dir.clone(),
            schedule: Schedule::every(Duration::from_millis(40))
                .with_jitter(Duration::from_millis(10)),
            seed: 7,
            chain_depth: DEPTH,
        }),
        ..ServerConfig::default()
    };

    let first =
        Server::start(ShardedDb::with_config(ShardedConfig::new(2, 16)), config()).unwrap();
    let mut expected_points = 0usize;
    for round in 0..5i64 {
        let mut lines = String::new();
        for t in round * 20..(round + 1) * 20 {
            for h in 0..2 {
                lines.push_str(&format!(
                    "cpu,host=h{h} usage={} {t}\n",
                    (t % 9) as f64 + h as f64
                ));
            }
        }
        expected_points += 40;
        let report = ingest_doc(first.ingest_addr(), &lines);
        assert!(report.contains("clean=true"), "{report}");
        // Let at least one more pass cover this round before the next,
        // so checkpoints see genuine incremental write activity.
        wait_for_stats(first.query_addr(), "another checkpoint pass", |stats| {
            stat(stats, "checkpoint.runs") > round
        });
        let gens = wal_generations(&wal_dir);
        assert!(
            gens.len() <= DEPTH + 1,
            "round {round}: the WAL grew with uptime: {gens:?}"
        );
    }
    let stats = wait_for_stats(first.query_addr(), "a re-base", |stats| {
        stat(stats, "checkpoint.rebases") >= 1
    });
    assert_eq!(stat(&stats, "checkpoint.errors"), 0);
    assert!(stat(&stats, "checkpoint.chain_links") as usize <= DEPTH + 1);
    assert_eq!(stat(&stats, "store.points") as usize, expected_points);

    let range_cmd = "RANGE cpu.usage 0 100";
    let expect = query(first.query_addr(), range_cmd);
    let drained = first.shutdown();
    assert_eq!(drained.checkpoint.last_error, None);
    assert!(drained.checkpoint.runs >= 5);

    // The on-disk chain is bounded too: at most one base plus DEPTH
    // delta links survive the re-bases.
    let links = std::fs::read_dir(&chain_dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            let name = name.to_string_lossy().into_owned();
            name.starts_with("base-") || name.starts_with("delta-")
        })
        .count();
    assert!(links <= DEPTH + 1, "chain holds {links} link files");

    // Boot like the binary: fold the chain, replay the (empty) tail.
    let db = ShardedDb::load(&chain_dir, ShardedConfig::new(3, 16)).unwrap();
    let second = Server::start(db, config()).unwrap();
    assert_eq!(second.wal_replay_report().applied, 0);
    assert_eq!(query(second.query_addr(), range_cmd), expect);
    second.shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// Rollup series (tagged [`ROLLUP_TAG`] by the compactor) are
/// infrastructure: `RANGE`/`SMOOTH` selectors that don't mention the
/// tag — bare `*`, a metric name, or a tag filter — must not see them,
/// while a selector that asks for the tag explicitly still can.
#[test]
fn selectors_hide_rollup_series_unless_asked() {
    let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
    let raw = SeriesKey::metric("cpu").with_tag("host", "h1");
    let rollup = raw.clone().with_tag(ROLLUP_TAG, "10");
    for t in 0..60i64 {
        db.write(&raw, DataPoint::new(t, (t % 7) as f64)).unwrap();
        if t % 10 == 0 {
            db.write(&rollup, DataPoint::new(t, 3.0)).unwrap();
        }
    }
    let server = Server::start(db.clone(), ServerConfig::default()).unwrap();
    let addr = server.query_addr();

    // Expected responses, rendered through the same protocol helpers
    // from explicit selectors against the live store.
    let raw_only = |sel: Selector| {
        protocol::render_range(&db.query_selector(&sel, RangeQuery::raw(0, 60)).unwrap())
    };
    for (cmd, sel) in [
        ("RANGE * 0 60", Selector::any().tag_absent(ROLLUP_TAG)),
        ("RANGE cpu 0 60", Selector::metric("cpu").tag_absent(ROLLUP_TAG)),
        (
            "RANGE cpu{host=h1} 0 60",
            Selector::metric("cpu").tag_eq("host", "h1").tag_absent(ROLLUP_TAG),
        ),
        (
            "RANGE cpu{__rollup__=10} 0 60",
            Selector::metric("cpu").tag_eq(ROLLUP_TAG, "10"),
        ),
        (
            "RANGE cpu{__rollup__=*} 0 60",
            Selector::metric("cpu").tag_present(ROLLUP_TAG),
        ),
    ] {
        let response = query(addr, cmd);
        assert_eq!(response, raw_only(sel), "`{cmd}` leaked or lost series");
        let hidden = cmd.contains("__rollup__") == response.contains("__rollup__");
        assert!(hidden, "`{cmd}` rollup visibility is wrong:\n{response}");
    }

    // SMOOTH applies the same confinement: identical frames to smoothing
    // the raw-only selector directly.
    let asap = Asap::builder().resolution(30).build();
    let frames = smooth::smooth_query_selector(
        &db,
        &Selector::metric("cpu").tag_absent(ROLLUP_TAG),
        &asap,
        0,
        60,
        1,
    )
    .unwrap();
    assert_eq!(
        query(addr, "SMOOTH cpu 0 60 1 30"),
        protocol::render_smooth(&frames)
    );
    assert!(!query(addr, "SMOOTH cpu 0 60 1 30").contains("__rollup__"));
    server.shutdown();
}
