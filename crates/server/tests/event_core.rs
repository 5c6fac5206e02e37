//! Event-core walls: the C10K-style concurrency claim (≥ 1024
//! mostly-idle connections served byte-identically to the serial
//! oracle), `BATCH` framing end-to-end (framed ≡ plain ≡ oracle, frame
//! boundaries crossing line boundaries, one-byte trickle), cap
//! refusals on both ports, pipelined requests answered in full after a
//! half-close, the stalled-reader walls (drain bounded by a wake-up;
//! slot released at the write deadline), and the readiness walls (an
//! idle connection answers at once, an idle server does not wake, a
//! quiet feed reaches the store, a dead half-closed subscriber frees
//! its slot).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use asap_server::{protocol, Server, ServerConfig};
use asap_tsdb::{
    line_protocol, DataPoint, IngestConfig, RangeQuery, Selector, SeriesKey, ShardedConfig,
    ShardedDb, Tsdb, TsdbConfig,
};

fn full() -> RangeQuery {
    RangeQuery::raw(i64::MIN + 1, i64::MAX)
}

/// A small telemetry document (same shape as the integration suite's).
fn doc(hosts: usize, points: i64) -> String {
    let mut lines = String::new();
    for t in 0..points {
        for h in 0..hosts {
            let v = (std::f64::consts::TAU * t as f64 / 48.0).sin() + h as f64;
            lines.push_str(&format!("cpu,host=h{h} usage={v} {t}\n"));
        }
    }
    lines
}

/// Sends one command line on a fresh query connection and reads the
/// complete response.
fn query(addr: SocketAddr, command: &str) -> String {
    let conn = TcpStream::connect(addr).expect("connect query");
    (&conn)
        .write_all(format!("{command}\n").as_bytes())
        .expect("send command");
    read_response(&mut BufReader::new(&conn))
}

/// Reads one response (single line, or `OK …`-to-`END` block) from an
/// established query connection.
fn read_response(reader: &mut impl BufRead) -> String {
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

/// The C10K wall: one event-loop worker pool carries 1024 concurrent,
/// mostly-idle query connections — far past the old
/// thread-per-connection cap — and every `RANGE`/`SMOOTH` response is
/// byte-identical to the serial single-shard oracle rendered through
/// the same protocol.
#[test]
fn event_core_serves_1024_mostly_idle_connections_byte_identically() {
    const CONNECTIONS: usize = 1024;
    const POINTS: i64 = 200;

    let telemetry = doc(1, POINTS);
    let db = ShardedDb::with_config(ShardedConfig::new(4, 64));
    let oracle = Tsdb::with_config(TsdbConfig { block_capacity: 64 });
    line_protocol::ingest(&oracle, &telemetry, 0).unwrap();
    let seeded =
        asap_tsdb::ingest_reader(&db, telemetry.as_bytes(), 0, &IngestConfig::default())
            .unwrap();
    assert_eq!(seeded.points, POINTS as usize);

    let server = Server::start(
        db,
        ServerConfig {
            event_workers: 2,
            max_query_connections: CONNECTIONS + 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.query_addr();

    // Line protocol keys series as `measurement.field`.
    let range_cmd = format!("RANGE cpu.usage 0 {POINTS}");
    let expected_range = protocol::render_range(
        &oracle
            .query_selector(&Selector::metric("cpu.usage"), RangeQuery::raw(0, POINTS))
            .unwrap(),
    );
    let smooth_cmd = format!("SMOOTH cpu.usage 0 {POINTS} 1 50");
    let asap = asap_core::Asap::builder().resolution(50).build();
    let expected_smooth = protocol::render_smooth(
        &asap_tsdb::smooth::smooth_query_selector(
            &oracle,
            &Selector::metric("cpu.usage"),
            &asap,
            0,
            POINTS,
            1,
        )
        .unwrap(),
    );
    // Guard against a vacuous wall: both expectations must carry real
    // payloads, not an empty `OK 0` matching an empty oracle.
    assert!(
        expected_range.contains("SERIES cpu.usage") && expected_range.len() > 1_000,
        "oracle RANGE expectation is trivial:\n{expected_range}"
    );
    assert!(
        expected_smooth.contains("SERIES cpu.usage"),
        "oracle SMOOTH expectation is trivial:\n{expected_smooth}"
    );

    // Open every connection before asking anything: the pool must hold
    // all 1024 sockets at once, nearly all idle at any instant.
    let conns: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|i| {
            TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("connection {i} refused: {e}"))
        })
        .collect();

    // Liveness across the whole registry: every connection answers (a
    // `SMOOTH` for every 16th, `RANGE` for the rest), all in flight
    // together before any response is read.
    for (i, conn) in conns.iter().enumerate() {
        let cmd = if i % 16 == 0 { &smooth_cmd } else { &range_cmd };
        (&*conn)
            .write_all(format!("{cmd}\n").as_bytes())
            .unwrap_or_else(|e| panic!("connection {i}: send failed: {e}"));
    }
    for (i, conn) in conns.iter().enumerate() {
        let response = read_response(&mut BufReader::new(conn));
        let expected = if i % 16 == 0 {
            &expected_smooth
        } else {
            &expected_range
        };
        assert_eq!(&response, expected, "connection {i} diverged from the oracle");
    }

    let stats = query(addr, "STATS");
    assert!(
        stat(&stats, "query.active_connections") >= CONNECTIONS as i64,
        "registry did not hold the fleet:\n{stats}"
    );
    assert_eq!(stat(&stats, "query.rejected_connections"), 0);

    drop(conns);
    let report = server.shutdown();
    assert_eq!(report.query_rejected_connections, 0);
}

/// `BATCH`-framed ingest is semantically invisible: the same document
/// sent through length-prefixed frames — with frame boundaries cutting
/// lines in half, an empty frame, and plain bytes interleaved — lands
/// in the store byte-identically to the plain serial oracle.
#[test]
fn batch_framed_ingest_matches_the_plain_oracle() {
    const HOSTS: usize = 3;
    const POINTS: i64 = 150;
    let telemetry = doc(HOSTS, POINTS);

    let server = Server::start(
        ShardedDb::with_config(ShardedConfig::new(3, 32)),
        ServerConfig::default(),
    )
    .unwrap();

    // A plain prefix, an empty frame, then the rest of the byte stream
    // in back-to-back frames: 997 is coprime to every line length
    // here, so nearly all frame boundaries fall mid-line and every
    // header after the first follows a mid-line payload.
    let split = telemetry.find('\n').unwrap() + 1;
    let (plain, rest) = telemetry.as_bytes().split_at(split);
    let mut framed = plain.to_vec();
    framed.extend_from_slice(b"BATCH 0\n");
    for chunk in rest.chunks(997) {
        framed.extend_from_slice(format!("BATCH {}\n", chunk.len()).as_bytes());
        framed.extend_from_slice(chunk);
    }

    let mut conn = TcpStream::connect(server.ingest_addr()).unwrap();
    for piece in framed.chunks(4096) {
        conn.write_all(piece).unwrap();
    }
    conn.shutdown(Shutdown::Write).unwrap();
    let mut report = String::new();
    conn.read_to_string(&mut report).unwrap();
    assert!(report.contains("clean=true"), "{report}");
    assert!(
        report.contains(&format!("points={}", HOSTS * POINTS as usize)),
        "{report}"
    );
    assert!(report.contains("parse_failures=0"), "{report}");

    let oracle = Tsdb::with_config(TsdbConfig { block_capacity: 32 });
    line_protocol::ingest(&oracle, &telemetry, 0).unwrap();
    assert_eq!(
        server.db().query_selector(&Selector::any(), full()).unwrap(),
        oracle.query_selector(&Selector::any(), full()).unwrap(),
        "framed ingest diverged from the plain oracle"
    );
    server.shutdown();
}

/// The slowest possible client: one byte every few milliseconds, with a
/// `BATCH` frame whose payload ends mid-line so the line must continue
/// seamlessly into the plain stream. Every framing and accumulator
/// state is hit with maximal fragmentation.
#[test]
fn trickled_bytes_across_a_batch_frame_boundary_ingest_exactly() {
    let server = Server::start(
        ShardedDb::with_config(ShardedConfig::new(2, 16)),
        ServerConfig::default(),
    )
    .unwrap();

    // The 14-byte payload ends mid-line after `m v=3`: the line's tail
    // (`0 30\n`) arrives as plain bytes after the frame and must splice
    // into `m v=30 30`.
    let mut stream = Vec::new();
    stream.extend_from_slice(b"m v=1 1\n");
    stream.extend_from_slice(b"BATCH 14\n");
    stream.extend_from_slice(b"m v=2 2\nm v=3");
    stream.extend_from_slice(b"0 30\n");
    stream.extend_from_slice(b"m v=4 44\n");

    let mut conn = TcpStream::connect(server.ingest_addr()).unwrap();
    for &byte in &stream {
        conn.write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_millis(3));
    }
    conn.shutdown(Shutdown::Write).unwrap();
    let mut report = String::new();
    conn.read_to_string(&mut report).unwrap();
    assert!(report.contains("clean=true"), "{report}");
    assert!(report.contains("points=4"), "{report}");
    assert!(report.contains("parse_failures=0"), "{report}");

    assert_eq!(
        server
            .db()
            .query(&SeriesKey::metric("m.v"), full())
            .unwrap(),
        vec![
            DataPoint::new(1, 1.0),
            DataPoint::new(2, 2.0),
            DataPoint::new(30, 30.0),
            DataPoint::new(44, 4.0),
        ],
        "trickled framed stream must land exactly"
    );
    server.shutdown();
}

/// Over-cap refusals: both ports refuse with one `ERR` line, and each
/// port has its own visible counter.
#[test]
fn cap_refusals_are_counted_per_port() {
    let server = Server::start(
        ShardedDb::new(),
        ServerConfig {
            max_ingest_connections: 1,
            max_query_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Occupy the single slot of each port.
    let held_ingest = TcpStream::connect(server.ingest_addr()).unwrap();
    (&held_ingest).write_all(b"m v=1 1\n").unwrap();
    let held_query = TcpStream::connect(server.query_addr()).unwrap();
    (&held_query).write_all(b"HEALTH\n").unwrap();
    let mut reader = BufReader::new(&held_query);
    assert!(read_response(&mut reader).starts_with("OK healthy"));

    // Excess connections on each port get one ERR line.
    for addr in [server.ingest_addr(), server.query_addr()] {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let refused = TcpStream::connect(addr).unwrap();
            let mut line = String::new();
            BufReader::new(&refused).read_line(&mut line).unwrap();
            if line.starts_with("ERR connection limit reached") {
                break;
            }
            // The held connection may still be in the dispatcher's
            // queue; retry until the slot is visibly occupied.
            assert!(
                Instant::now() < deadline,
                "{addr}: refusal never arrived; last answer: {line:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // Both refusals are visible, separately, through the held query
    // connection (the only one the cap admits).
    (&held_query).write_all(b"STATS\n").unwrap();
    let stats = read_response(&mut reader);
    assert!(stat(&stats, "ingest.rejected_connections") >= 1, "{stats}");
    assert!(stat(&stats, "query.rejected_connections") >= 1, "{stats}");
    assert_eq!(stat(&stats, "query.active_connections"), 1);

    drop(held_ingest);
    drop(held_query);
    let report = server.shutdown();
    assert!(report.query_rejected_connections >= 1);
    assert!(report.ingest.rejected_connections >= 1);
}

/// A client that pipelines requests and half-closes is owed every
/// response: each `RANGE` answer here exceeds the connection's output
/// high-water mark, so all but the first request sit queued in the
/// accumulator when the server sees EOF — and must still be executed,
/// in order, each byte-identical to the serial oracle.
#[test]
fn pipelined_requests_are_all_answered_after_a_half_close() {
    const POINTS: i64 = 40_000;
    const REQUESTS: usize = 12;
    let db = ShardedDb::with_config(ShardedConfig::new(2, 1024));
    let oracle = Tsdb::with_config(TsdbConfig {
        block_capacity: 1024,
    });
    let key = SeriesKey::metric("m.v");
    for t in 0..POINTS {
        let point = DataPoint::new(t, f64::from(t as u32 % 997) + 0.5);
        db.write(&key, point).unwrap();
        oracle.write(&key, point).unwrap();
    }
    let expected = protocol::render_range(
        &oracle
            .query_selector(&Selector::metric("m.v"), RangeQuery::raw(0, POINTS))
            .unwrap(),
    );
    assert!(
        expected.len() > 256 * 1024,
        "one response ({} bytes) must exceed the output high-water mark",
        expected.len()
    );

    let server = Server::start(
        db,
        ServerConfig::default(),
    )
    .unwrap();
    let mut conn = TcpStream::connect(server.query_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    conn.write_all(format!("RANGE m.v 0 {POINTS}\n").repeat(REQUESTS).as_bytes())
        .unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    let mut received = String::new();
    conn.read_to_string(&mut received).unwrap();

    assert_eq!(
        received.len(),
        REQUESTS * expected.len(),
        "{} of {REQUESTS} pipelined responses arrived before the close",
        received.len() / expected.len()
    );
    assert!(
        received == expected.repeat(REQUESTS),
        "a pipelined response diverged from the oracle"
    );
    server.shutdown();
}

/// Starts a server over a store whose full `RANGE` response dwarfs any
/// socket buffer, pipelines a few such requests, reads only the first
/// bytes, and stops reading: the server's write path is now wedged
/// against a full receive window.
fn server_with_stalled_reader(write_deadline: Duration) -> (Server, TcpStream) {
    const POINTS: i64 = 300_000;
    let db = ShardedDb::with_config(ShardedConfig::new(1, 4096));
    let key = SeriesKey::metric("flood.v");
    for t in 0..POINTS {
        db.write(&key, DataPoint::new(t, f64::from(t as u32 % 997)))
            .unwrap();
    }
    let server = Server::start(
        db,
        ServerConfig {
            write_deadline,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let conn = TcpStream::connect(server.query_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    (&conn)
        .write_all(format!("RANGE flood.v 0 {POINTS}\n").repeat(4).as_bytes())
        .unwrap();
    // Confirm the (multi-megabyte) response started flowing, then never
    // read again.
    let mut head = [0u8; 16];
    (&conn).read_exact(&mut head).unwrap();
    assert_eq!(&head[..3], b"OK ", "response head: {head:?}");
    assert_ne!(
        &head[..5],
        b"OK 0\n",
        "the flood series matched nothing — the reader has nothing to stall on"
    );
    (server, conn)
}

/// Drain with a stalled reader is bounded by a wake-up, not the write
/// deadline: with a 60s deadline — the owning worker's `poll` timeout,
/// and no traffic to end it sooner — the drain must still finish in
/// seconds, which only the drain's write to the worker's waker can do.
#[test]
fn event_drain_is_bounded_by_a_wake_up_not_the_client() {
    let (server, conn) = server_with_stalled_reader(Duration::from_secs(60));
    let started = Instant::now();
    let report = server.shutdown();
    let elapsed = started.elapsed();
    drop(conn);
    assert_eq!(report.ingest.points, 0);
    assert!(
        elapsed < Duration::from_secs(5),
        "drain took {elapsed:?} with a stalled reader"
    );
}

/// Without a drain, a `RANGE` reader stalled past the write deadline is
/// disconnected and its connection slot released — and while it stalls,
/// fresh connections on the same worker pool are answered.
#[test]
fn stalled_range_reader_is_disconnected_at_the_write_deadline() {
    let (server, conn) = server_with_stalled_reader(Duration::from_millis(300));
    let addr = server.query_addr();

    // The stalled connection does not hold up anyone else.
    assert!(query(addr, "HEALTH").starts_with("OK healthy"));

    // Each STATS poll counts its own connection, hence the baseline 1.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = query(addr, "STATS");
        if stat(&stats, "query.active_connections") == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the stalled reader still holds its slot:\n{stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The client side sees the cut: whatever the kernel had buffered,
    // then a close — not four complete responses.
    let mut rest = Vec::new();
    let _ = (&conn).read_to_end(&mut rest);
    let ends = rest.windows(4).filter(|w| w == b"END\n").count();
    assert!(ends < 4, "all four responses arrived; the reader never stalled");
    server.shutdown();
}

/// Polls `STATS` (a fresh connection each time) until `ready` holds.
fn wait_for_stats(addr: SocketAddr, what: &str, ready: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = query(addr, "STATS");
        if ready(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}:\n{stats}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A request on an idle connection is answered when it arrives, not at
/// the next tick of a timer: under the default configuration 40 round
/// trips, each sent after the worker has gone back to sleep, take a few
/// milliseconds in total (with the 25 ms park this replaced: a second).
#[test]
fn round_trips_on_an_idle_connection_do_not_wait_for_a_timer() {
    let server = Server::start(ShardedDb::new(), ServerConfig::default()).unwrap();
    let conn = TcpStream::connect(server.query_addr()).unwrap();
    let mut reader = BufReader::new(&conn);
    let mut waited = Duration::ZERO;
    for _ in 0..40 {
        // Long enough for the worker to block again, so every request
        // has to wake it.
        std::thread::sleep(Duration::from_millis(2));
        let sent = Instant::now();
        (&conn).write_all(b"HEALTH\n").unwrap();
        assert!(read_response(&mut reader).starts_with("OK healthy"));
        waited += sent.elapsed();
    }
    assert!(
        waited < Duration::from_millis(250),
        "40 idle round trips took {waited:?}"
    );
    server.shutdown();
}

/// How many blocking waits and ticking wake-ups the whole worker pool
/// went through across a 300 ms gap, read over one standing connection
/// (whose own two requests account for a handful).
fn wake_ups_across_a_quiet_gap(probe: &TcpStream) -> (i64, i64) {
    let mut reader = BufReader::new(probe);
    let mut snapshot = || {
        let mut writer = probe;
        writer.write_all(b"STATS\n").unwrap();
        let stats = read_response(&mut reader);
        (stat(&stats, "event.parks"), stat(&stats, "event.sweeps"))
    };
    let (parks, sweeps) = snapshot();
    std::thread::sleep(Duration::from_millis(300));
    let (parks_after, sweeps_after) = snapshot();
    (parks_after - parks, sweeps_after - sweeps)
}

/// Nothing to do means nothing done: with no traffic the workers stay
/// blocked — alone, with a full house of idle connections, and with a
/// standing subscriber that half-closed and receives nothing. The last
/// is the spin guard: its socket is readable (end of stream) for good,
/// so a worker that kept read interest in it would never block again.
#[test]
fn an_idle_server_does_not_wake() {
    const IDLE: usize = 64;
    let server = Server::start(
        ShardedDb::new(),
        ServerConfig {
            max_query_connections: IDLE + 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.query_addr();
    let probe = TcpStream::connect(addr).unwrap();
    let quiet = |what: &str| {
        let (parks, sweeps) = wake_ups_across_a_quiet_gap(&probe);
        assert!(
            parks <= 4 && sweeps <= 4,
            "{what}: {parks} blocking waits and {sweeps} ticking wake-ups in 300 ms of silence"
        );
    };
    quiet("no other connections");

    let idle: Vec<TcpStream> = (0..IDLE).map(|_| TcpStream::connect(addr).unwrap()).collect();
    wait_for_stats(addr, "the idle fleet to be registered", |stats| {
        stat(stats, "query.active_connections") >= IDLE as i64 + 2
    });
    quiet("64 idle connections held");
    drop(idle);
    wait_for_stats(addr, "the idle fleet to be released", |stats| {
        stat(stats, "query.active_connections") == 2
    });

    let sub = TcpStream::connect(addr).unwrap();
    (&sub).write_all(b"SUBSCRIBE nothing.v\n").unwrap();
    let mut ack = String::new();
    BufReader::new(&sub).read_line(&mut ack).unwrap();
    assert!(ack.starts_with("OK subscribed"), "{ack}");
    sub.shutdown(Shutdown::Write).unwrap();
    quiet("a half-closed subscriber standing by");
    let stats = query(addr, "STATS");
    assert_eq!(stat(&stats, "subscriptions.active"), 1, "push-only mode keeps it");

    drop(sub);
    server.shutdown();
}

/// Lines fed on a connection that then goes quiet — and stays open —
/// reach the store: a read pass that drains the socket hands the lines
/// short of a full chunk to the pipeline instead of holding them until
/// 256 have accumulated or the stream ends. `ingest.points` follows,
/// though the idle connection is never ticked again.
#[test]
fn lines_on_a_quiet_open_connection_reach_the_store() {
    let server = Server::start(ShardedDb::new(), ServerConfig::default()).unwrap();
    let addr = server.query_addr();
    let feed = TcpStream::connect(server.ingest_addr()).unwrap();
    let mut sent = 0;
    for burst in [10, 300] {
        let lines: String = (sent..sent + burst)
            .map(|t| format!("quiet v={t} {t}\n"))
            .collect();
        (&feed).write_all(lines.as_bytes()).unwrap();
        sent += burst;
        wait_for_stats(addr, "every line sent so far to be stored", |stats| {
            stat(stats, "store.points") == sent && stat(stats, "ingest.points") == sent
        });
    }
    assert_eq!(
        server
            .db()
            .query(&SeriesKey::metric("quiet.v"), full())
            .unwrap()
            .len(),
        310
    );
    drop(feed);
    server.shutdown();
}
