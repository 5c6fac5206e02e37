//! The subscription wall: `SUBSCRIBE` push streams pinned to the
//! poll-the-store serial oracle under shuffled-lateness concurrent
//! ingest, the stalled-subscriber extension of the stalled-reader wall,
//! and the streaming-lifecycle edges (subscribing before a series
//! exists, series created after the subscription, `UNSUBSCRIBE` racing
//! a frame push, drain-time reorder flush feeding final frames).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use asap_core::{StreamingAsap, StreamingConfig};
use asap_server::{protocol, Server, ServerConfig};
use asap_tsdb::{IngestConfig, RangeQuery, Selector, ShardedConfig, ShardedDb};

use std::collections::BTreeMap;

fn full() -> RangeQuery {
    RangeQuery::raw(i64::MIN + 1, i64::MAX)
}

/// The subscription template every test server uses: pane size 10
/// (400/40), warm after 4 panes = 40 points per series.
const SUB_WINDOW: usize = 400;
const SUB_RESOLUTION: usize = 40;

fn server(lateness: Option<i64>) -> Server {
    Server::start(
        ShardedDb::with_config(ShardedConfig::new(4, 64)),
        ServerConfig {
            subscribe_window: SUB_WINDOW,
            subscribe_resolution: SUB_RESOLUTION,
            ingest: IngestConfig {
                lateness,
                ..IngestConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// A telemetry document with one series per host, points in timestamp
/// order.
fn doc(hosts: &[usize], points: i64) -> String {
    let mut lines = String::new();
    for t in 0..points {
        for &h in hosts {
            let v = (std::f64::consts::TAU * t as f64 / 48.0).sin() + h as f64
                + ((t as u64 * 2654435761 + h as u64) % 100) as f64 / 100.0;
            lines.push_str(&format!("cpu,host=h{h} usage={v} {t}\n"));
        }
    }
    lines
}

/// Bounded-displacement shuffle: reversing disjoint 16-line blocks
/// displaces no line more than 15 positions — safely inside the
/// configured lateness, so the reorder buffer restores exact order and
/// nothing is dropped late.
fn block_shuffle(doc: &str) -> String {
    let mut lines: Vec<&str> = doc.lines().collect();
    for block in lines.chunks_mut(16) {
        block.reverse();
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Streams a document over the ingest port and returns the report line.
fn ingest(addr: SocketAddr, doc: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect ingest");
    conn.write_all(doc.as_bytes()).expect("send document");
    conn.shutdown(Shutdown::Write).unwrap();
    let mut report = String::new();
    conn.read_to_string(&mut report).expect("read report");
    report
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

/// Replays each stored series (timestamp order — identical to apply
/// order when displacement stays inside the lateness bound) through a
/// fresh `StreamingAsap` with the server's template: the serial oracle
/// of what a subscription at `every` must have pushed.
fn oracle_frames(server: &Server, every: usize) -> BTreeMap<String, Vec<String>> {
    let mut expected = BTreeMap::new();
    for (key, points) in server
        .db()
        .query_selector(&Selector::any(), full())
        .unwrap()
    {
        let mut op = StreamingAsap::new(StreamingConfig::new(SUB_WINDOW, SUB_RESOLUTION, every));
        let mut frames = Vec::new();
        for point in points {
            if let Some(frame) = op.push(point.value).unwrap() {
                frames.push(protocol::render_frame(&key, &frame));
            }
        }
        expected.insert(key.to_string(), frames);
    }
    expected
}

/// The headline property wall: a standing `SUBSCRIBE`, registered
/// before any matching series exists, observes — live, over TCP, under
/// two concurrent ingest connections sending shuffled-lateness
/// documents — a frame stream byte-identical to replaying the stored
/// points through the same streaming template serially. Frames ride the
/// ingest apply path post-reorder, so subscription order ≡ store order.
///
/// This is also the wall for the outbox wake-up: after its
/// acknowledgment the subscriber's connection is silent and its worker
/// blocked in `poll` with no timeout, so the only thing that can get a
/// pushed `FRAME` onto the wire is the outbox writing that worker's
/// waker. There is no timer left to rescue a missed wake-up — it would
/// show here as a read timeout, not as latency.
#[test]
fn event_push_stream_matches_the_poll_oracle() {
    const POINTS: i64 = 500;
    const EVERY: usize = 50;
    let server = server(Some(64));

    // Subscribe before a single point exists: the lifecycle edge where
    // every matching series is created later.
    let sub = TcpStream::connect(server.query_addr()).unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    (&sub)
        .write_all(format!("SUBSCRIBE cpu.usage EVERY {EVERY}\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(&sub);
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert!(
        ack.starts_with("OK subscribed 1 every=50 alert=none"),
        "{ack}"
    );

    // Two concurrent ingest clients with partitioned series, each
    // sending a bounded-displacement shuffle of its document — late
    // arrivals exercise the reorder buffers while per-series apply
    // order stays well defined.
    let ingest_addr = server.ingest_addr();
    let clients: Vec<_> = [vec![0usize, 1], vec![2, 3]]
        .into_iter()
        .map(|hosts| {
            let shuffled = block_shuffle(&doc(&hosts, POINTS));
            std::thread::spawn(move || ingest(ingest_addr, &shuffled))
        })
        .collect();
    for client in clients {
        let report = client.join().unwrap();
        assert!(report.contains("clean=true"), "{report}");
        assert!(report.contains("dropped_late=0"), "{report}");
    }

    // Clean EOFs flushed the reorder buffers, so the store and the
    // fanout both saw every point; the final frames are already pushed.
    let stats = query(server.query_addr(), "STATS");
    assert_eq!(stat(&stats, "subscriptions.points_seen"), 4 * POINTS);
    assert_eq!(stat(&stats, "subscriptions.series_tracked"), 4);

    let expected = oracle_frames(&server, EVERY);
    assert_eq!(expected.len(), 4, "all four series must exist");
    let total: usize = expected.values().map(Vec::len).sum();
    for (key, frames) in &expected {
        assert!(frames.len() >= 5, "oracle is trivial for {key}");
    }

    // Collect the pushed stream. Interleaving across series is
    // scheduler-dependent; per series the stream must be byte-identical
    // to the oracle.
    let mut pushed: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for _ in 0..total {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read push line") > 0,
            "stream ended early: got {} of {total} frames",
            pushed.values().map(Vec::len).sum::<usize>()
        );
        let key = line
            .strip_prefix("FRAME ")
            .unwrap_or_else(|| panic!("not a frame line: {line}"))
            .split_whitespace()
            .next()
            .unwrap()
            .to_owned();
        pushed.entry(key).or_default().push(line);
    }
    for (key, frames) in &expected {
        assert_eq!(
            pushed.get(key.as_str()),
            Some(frames),
            "pushed stream diverged from the poll oracle for {key}"
        );
    }

    // UNSUBSCRIBE on the live connection is acknowledged and tears the
    // state down.
    (&sub).write_all(b"UNSUBSCRIBE\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "OK unsubscribed 1\n");
    let stats = query(server.query_addr(), "STATS");
    assert_eq!(stat(&stats, "subscriptions.active"), 0);
    assert_eq!(stat(&stats, "subscriptions.series_tracked"), 0);
    assert_eq!(stat(&stats, "subscriptions.frames_lagged"), 0);

    drop(reader);
    drop(sub);
    server.shutdown();
}

/// A subscriber that stops reading mid-stream must be lag-dropped or
/// disconnected within the write deadline — and must never delay
/// ingest or shutdown. The push extension of the stalled-reader wall.
#[test]
fn event_stalled_subscriber_never_wedges_ingest_or_drain() {
    // ~750 bytes per frame line at one frame per point: tens of
    // megabytes of push traffic, far past what kernel socket buffers
    // can absorb on behalf of a reader that never reads.
    const POINTS: i64 = 60_000;
    let server = Server::start(
        ShardedDb::with_config(ShardedConfig::new(2, 64)),
        ServerConfig {
            write_deadline: Duration::from_millis(500),
            subscribe_window: SUB_WINDOW,
            subscribe_resolution: SUB_RESOLUTION,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Subscribe at the highest cadence, then never read a single byte —
    // not even the acknowledgment.
    let sub = TcpStream::connect(server.query_addr()).unwrap();
    (&sub).write_all(b"SUBSCRIBE flood.v EVERY 1\n").unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // Flood: one frame per point once warm, into a subscriber whose
    // socket fills, whose output buffer hits its high-water mark, and
    // whose outbox then lag-drops. The report must come back clean —
    // ingest never waits on the subscriber.
    let mut flood = String::new();
    for t in 0..POINTS {
        flood.push_str(&format!("flood v={} {t}\n", (t % 97) as f64));
    }
    let started = Instant::now();
    let report = ingest(server.ingest_addr(), &flood);
    let ingest_elapsed = started.elapsed();
    assert!(report.contains("clean=true"), "{report}");
    assert!(report.contains(&format!("points={POINTS}")), "{report}");
    assert!(
        ingest_elapsed < Duration::from_secs(30),
        "ingest took {ingest_elapsed:?} against a stalled subscriber"
    );

    // The stall resolved against the subscriber, not the server: either
    // its outbox overflowed (lag) or the write deadline already
    // disconnected it (tearing down the subscription).
    let stats = query(server.query_addr(), "STATS");
    let lagged = stat(&stats, "subscriptions.frames_lagged");
    let active = stat(&stats, "subscriptions.active");
    assert!(
        lagged > 0 || active == 0,
        "no lag and the subscription still stands:\n{stats}"
    );

    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "drain took {elapsed:?} with a stalled subscriber"
    );
    drop(sub);
}

/// A `watch`-style subscriber half-closes after subscribing and stays in
/// push-only mode; when it then dies, the server must notice without
/// being told by a failed frame write — no ingest runs here, so nothing
/// is ever written to it. Its worker is not reading the socket (the
/// stream already ended), so the reset shows only as `POLLHUP`/`POLLERR`
/// on a connection with no read interest, which must close it and
/// release its slot and its subscriptions.
#[test]
fn a_half_closed_subscriber_that_dies_releases_its_slot_without_ingest() {
    let server = server(None);
    let sub = TcpStream::connect(server.query_addr()).unwrap();
    (&sub).write_all(b"SUBSCRIBE * EVERY 10\n").unwrap();
    // Wait for the acknowledgment without consuming it: closing a
    // socket with unread bytes resets the connection, which is how a
    // killed client looks from the server (a clean close after a
    // half-close sends nothing more at all).
    let mut first = [0u8; 1];
    assert_eq!(sub.peek(&mut first).unwrap(), 1);
    sub.shutdown(Shutdown::Write).unwrap();
    let stats = query(server.query_addr(), "STATS");
    assert_eq!(stat(&stats, "subscriptions.active"), 1, "push-only mode keeps it");
    // Let the server see the end of stream before the reset: either
    // order must release the slot, this one is the one nothing else did.
    std::thread::sleep(Duration::from_millis(100));
    drop(sub);

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        // Each STATS poll counts its own connection, hence the 1.
        let stats = query(server.query_addr(), "STATS");
        if stat(&stats, "subscriptions.active") == 0
            && stat(&stats, "query.active_connections") == 1
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the dead subscriber still holds its slot:\n{stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// A wildcard subscription starts pushing for series that did not exist
/// when it was registered — and for further series created later still.
#[test]
fn wildcard_subscription_tracks_series_created_later() {
    let server = server(None);
    let sub = TcpStream::connect(server.query_addr()).unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    (&sub).write_all(b"SUBSCRIBE * EVERY 10\n").unwrap();
    let mut reader = BufReader::new(&sub);
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert!(ack.starts_with("OK subscribed"), "{ack}");

    let mut first = String::new();
    for t in 0..100 {
        first.push_str(&format!("alpha v={} {t}\n", t as f64));
    }
    assert!(ingest(server.ingest_addr(), &first).contains("clean=true"));
    let mut second = String::new();
    for t in 0..100 {
        second.push_str(&format!("beta v={} {t}\n", (t * 2) as f64));
    }
    assert!(ingest(server.ingest_addr(), &second).contains("clean=true"));

    // Warm at 40, refresh every 10 → 7 frames per 100-point series.
    let mut seen = BTreeMap::new();
    for _ in 0..14 {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "stream ended");
        let key = line
            .strip_prefix("FRAME ")
            .unwrap_or_else(|| panic!("not a frame: {line}"))
            .split_whitespace()
            .next()
            .unwrap()
            .to_owned();
        *seen.entry(key).or_insert(0usize) += 1;
    }
    assert_eq!(seen.get("alpha.v"), Some(&7), "{seen:?}");
    assert_eq!(seen.get("beta.v"), Some(&7), "{seen:?}");
    server.shutdown();
}

/// `UNSUBSCRIBE` racing a concurrent frame push: the acknowledgment
/// arrives (interleaved with in-flight frames), the registry state
/// drops to zero, ingest completes clean, and shutdown stays prompt.
#[test]
fn unsubscribe_races_a_concurrent_frame_push() {
    let server = server(None);
    let sub = TcpStream::connect(server.query_addr()).unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    (&sub).write_all(b"SUBSCRIBE * EVERY 1\n").unwrap();
    let mut reader = BufReader::new(&sub);
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert!(ack.starts_with("OK subscribed"), "{ack}");

    // Flood in the background while the unsubscribe goes out mid-push.
    let ingest_addr = server.ingest_addr();
    let flood = std::thread::spawn(move || {
        let mut doc = String::new();
        for t in 0..5_000i64 {
            doc.push_str(&format!("race v={} {t}\n", (t % 31) as f64));
        }
        ingest(ingest_addr, &doc)
    });
    // Wait for the stream to visibly start, then cancel under fire.
    let mut line = String::new();
    assert!(reader.read_line(&mut line).unwrap() > 0);
    assert!(line.starts_with("FRAME "), "{line}");
    (&sub).write_all(b"UNSUBSCRIBE\n").unwrap();
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection ended before the UNSUBSCRIBE acknowledgment"
        );
        if line.starts_with("FRAME ") {
            continue; // frames already in flight may precede the ack
        }
        assert_eq!(line, "OK unsubscribed 1\n");
        break;
    }
    let report = flood.join().unwrap();
    assert!(report.contains("clean=true"), "{report}");
    let stats = query(server.query_addr(), "STATS");
    assert_eq!(stat(&stats, "subscriptions.active"), 0);
    assert_eq!(stat(&stats, "subscriptions.series_tracked"), 0);

    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain stalled after an unsubscribe race"
    );
}

/// The drain-ordering edge: points still sitting in the reorder buffer
/// at client EOF are flushed into the store *and* into the subscription
/// runtime before the report line, so the final frames cover the whole
/// stream — `points_seen` equals the stored point count, and the frame
/// stream equals the full-series oracle.
#[test]
fn clean_eof_flushes_the_reorder_tail_into_final_frames() {
    const POINTS: i64 = 300;
    const EVERY: usize = 20;
    let server = server(Some(64));
    let sub = TcpStream::connect(server.query_addr()).unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    (&sub)
        .write_all(format!("SUBSCRIBE tail.v EVERY {EVERY}\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(&sub);
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert!(ack.starts_with("OK subscribed"), "{ack}");

    let mut doc = String::new();
    for t in 0..POINTS {
        doc.push_str(&format!("tail v={} {t}\n", (t as f64 / 7.0).sin()));
    }
    // The shuffle leaves a reorder tail pending at EOF; `finish()` must
    // flush it through the hook before reporting.
    let report = ingest(server.ingest_addr(), &block_shuffle(&doc));
    assert!(report.contains("clean=true"), "{report}");
    assert!(report.contains("dropped_late=0"), "{report}");

    let stats = query(server.query_addr(), "STATS");
    assert_eq!(stat(&stats, "subscriptions.points_seen"), POINTS);

    let expected = oracle_frames(&server, EVERY);
    let frames = &expected["tail.v"];
    assert!(frames.len() >= 10, "oracle is trivial ({})", frames.len());
    for want in frames {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "stream ended");
        assert_eq!(&line, want, "pushed frame diverged after the tail flush");
    }
    server.shutdown();
}
