//! Subscription benchmark: live `SUBSCRIBE` frame push vs polling the
//! same smoothing out of the store with `SMOOTH` queries.
//!
//! One subscriber registers `SUBSCRIBE req.rate EVERY <n>` before any
//! data exists; a client then streams the document over loopback TCP
//! while the subscriber tails the pushed `FRAME` lines. The push phase
//! is timed from first ingest byte to the last expected frame read —
//! ingest and delivery overlap, which is the point of push. Before any
//! number is trusted, the pushed stream is asserted byte-identical per
//! series to the serial oracle: the stored points replayed through a
//! fresh `StreamingAsap` with the same template. The poll phase then
//! issues one `SMOOTH` query per refresh tick over the same trailing
//! window against the warmed store — the request/response cost a
//! dashboard pays for the same refresh cadence without `SUBSCRIBE`.
//!
//! Hand-timed wall clock, median of `BENCH_SUBSCRIBE_RUNS` runs.
//! Caveat: on a 1-CPU host the ingest pipeline, the shard-writer fanout,
//! and the subscriber share one core, so push wall time includes
//! serialization that vanishes with real parallelism — compare phases
//! within one run, not across machines.
//!
//! Knobs: `BENCH_SUBSCRIBE_POINTS` (records per series, default
//! 20_000), `BENCH_SUBSCRIBE_SERIES` (default 4),
//! `BENCH_SUBSCRIBE_EVERY` (refresh interval, default 200),
//! `BENCH_SUBSCRIBE_RUNS` (default 3).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use asap_core::{StreamingAsap, StreamingConfig};
use asap_server::{protocol, Server, ServerConfig};
use asap_tsdb::{RangeQuery, Selector, ShardedConfig, ShardedDb};

const SUB_WINDOW: usize = 1_000;
const SUB_RESOLUTION: usize = 100;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn build_doc(series: usize, points: usize) -> String {
    let mut doc = String::with_capacity(series * points * 40);
    for t in 0..points {
        for h in 0..series {
            doc.push_str(&format!(
                "req,host=h{h:02} rate={:.4} {t}\n",
                (std::f64::consts::TAU * t as f64 / 900.0).sin() + h as f64,
            ));
        }
    }
    doc
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Reads one `OK …`-to-`END` response off an established connection.
fn read_block(reader: &mut impl BufRead) -> usize {
    let mut bytes = 0;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "response truncated");
        bytes += n;
        if line.trim() == "END" || line.starts_with("ERR") {
            assert!(!line.starts_with("ERR"), "poll query failed: {line}");
            return bytes;
        }
    }
}

fn main() {
    let points = env_usize("BENCH_SUBSCRIBE_POINTS", 20_000);
    let series = env_usize("BENCH_SUBSCRIBE_SERIES", 4);
    let every = env_usize("BENCH_SUBSCRIBE_EVERY", 200).max(1);
    let runs = env_usize("BENCH_SUBSCRIBE_RUNS", 3).max(1);
    let doc = build_doc(series, points);
    let total_points = series * points;

    println!(
        "subscribe push vs poll: {series} series x {points} records, window {SUB_WINDOW}, \
         refresh every {every}, median of {runs} ({} host cpus)",
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    let config = || ServerConfig {
        subscribe_window: SUB_WINDOW,
        subscribe_resolution: SUB_RESOLUTION,
        subscribe_every: every,
        ..ServerConfig::default()
    };

    let mut push_secs_runs = Vec::new();
    let mut poll_secs_runs = Vec::new();
    let mut expected_total = 0usize;
    let mut polls = 0usize;
    for _ in 0..runs {
        let server = Server::start(
            ShardedDb::with_config(ShardedConfig::new(4, 4096)),
            config(),
        )
        .expect("server start");

        // Subscribe before any series exists.
        let sub = TcpStream::connect(server.query_addr()).expect("connect subscriber");
        sub.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        (&sub)
            .write_all(format!("SUBSCRIBE req.rate EVERY {every}\n").as_bytes())
            .unwrap();
        let mut reader = BufReader::new(&sub);
        let mut ack = String::new();
        reader.read_line(&mut ack).unwrap();
        assert!(ack.starts_with("OK subscribed"), "{ack}");

        // Push phase: ingest streams while the subscriber tails frames.
        // Frames per series for an in-order stream are deterministic, so
        // the reader knows exactly how many lines to await.
        let frames_per_series = {
            let mut op =
                StreamingAsap::new(StreamingConfig::new(SUB_WINDOW, SUB_RESOLUTION, every));
            (0..points)
                .filter(|&t| {
                    op.push((t as f64 / 900.0).sin()).unwrap().is_some()
                })
                .count()
        };
        expected_total = frames_per_series * series;
        let ingest_addr = server.ingest_addr();
        let doc_ref = &doc;
        let t = Instant::now();
        let push_secs = std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut conn = TcpStream::connect(ingest_addr).expect("connect ingest");
                for piece in doc_ref.as_bytes().chunks(64 * 1024) {
                    conn.write_all(piece).expect("send");
                }
                conn.shutdown(Shutdown::Write).expect("half-close");
                let mut report = String::new();
                conn.read_to_string(&mut report).expect("report");
                assert!(report.contains("clean=true"), "{report}");
            });
            let mut pushed: BTreeMap<String, Vec<String>> = BTreeMap::new();
            for _ in 0..expected_total {
                let mut line = String::new();
                assert!(reader.read_line(&mut line).expect("read frame") > 0, "eof");
                let key = line
                    .strip_prefix("FRAME ")
                    .unwrap_or_else(|| panic!("not a frame: {line}"))
                    .split_whitespace()
                    .next()
                    .unwrap()
                    .to_owned();
                pushed.entry(key).or_default().push(line);
            }
            let secs = t.elapsed().as_secs_f64();
            // Correctness gate: pushed stream ≡ serial replay of the
            // stored points through the same template.
            for (key, stored) in server
                .db()
                .query_selector(&Selector::any(), RangeQuery::raw(i64::MIN + 1, i64::MAX))
                .unwrap()
            {
                let mut op =
                    StreamingAsap::new(StreamingConfig::new(SUB_WINDOW, SUB_RESOLUTION, every));
                let mut want = Vec::new();
                for point in stored {
                    if let Some(frame) = op.push(point.value).unwrap() {
                        want.push(protocol::render_frame(&key, &frame));
                    }
                }
                assert_eq!(
                    pushed.get(&key.to_string()),
                    Some(&want),
                    "pushed stream diverged from the serial oracle for {key}"
                );
            }
            secs
        });
        push_secs_runs.push(push_secs);

        // Poll phase: the same refresh cadence paid as request/response
        // against the warmed store — one SMOOTH per refresh tick over
        // the trailing window (one query smooths all matching series).
        polls = frames_per_series;
        let conn = TcpStream::connect(server.query_addr()).expect("connect poller");
        conn.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut poll_reader = BufReader::new(&conn);
        let t = Instant::now();
        for i in 0..polls {
            let end = (points - 1).min(SUB_WINDOW + (i + 1) * every) as i64;
            let start = (end - SUB_WINDOW as i64).max(0);
            (&conn)
                .write_all(
                    format!("SMOOTH req.rate {start} {end} 1 {SUB_RESOLUTION}\n").as_bytes(),
                )
                .unwrap();
            read_block(&mut poll_reader);
        }
        poll_secs_runs.push(t.elapsed().as_secs_f64());
        server.shutdown();
    }

    let push_secs = median(push_secs_runs);
    let poll_secs = median(poll_secs_runs);
    let push_fps = expected_total as f64 / push_secs;
    let poll_qps = polls as f64 / poll_secs;
    println!(
        "push: {expected_total} frames in {:.1} ms ({push_fps:.3e} frames/s, \
         ingest overlapped, {total_points} pts)",
        push_secs * 1e3
    );
    println!(
        "poll: {polls} SMOOTH queries in {:.1} ms ({poll_qps:.3e} queries/s, warmed store)",
        poll_secs * 1e3
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"subscribe_push_vs_poll\",\n");
    json.push_str(
        "  \"note\": \"hand-timed wall clock; push phase times ingest + live frame delivery \
         overlapped (the pushed stream is asserted byte-identical per series to a serial \
         StreamingAsap replay of the stored points before timing is trusted); poll phase times \
         one SMOOTH per refresh tick against the warmed store; on a 1-CPU host ingest, fanout, \
         and the subscriber serialize onto one core, so compare phases within one run, not \
         across machines\",\n",
    );
    json.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    json.push_str(&format!("  \"series\": {series},\n"));
    json.push_str(&format!("  \"records_per_series\": {points},\n"));
    json.push_str(&format!("  \"window_points\": {SUB_WINDOW},\n"));
    json.push_str(&format!("  \"resolution\": {SUB_RESOLUTION},\n"));
    json.push_str(&format!("  \"refresh_every\": {every},\n"));
    json.push_str(&format!("  \"runs\": {runs},\n"));
    json.push_str(&format!(
        "  \"push\": {{\"frames\": {expected_total}, \"wall_ms\": {:.2}, \
         \"frames_per_sec\": {push_fps:.0}}},\n",
        push_secs * 1e3
    ));
    json.push_str(&format!(
        "  \"poll\": {{\"queries\": {polls}, \"wall_ms\": {:.2}, \
         \"queries_per_sec\": {poll_qps:.0}}}\n",
        poll_secs * 1e3
    ));
    json.push_str("}\n");

    let mut file =
        std::fs::File::create("BENCH_subscribe.json").expect("create BENCH_subscribe.json");
    file.write_all(json.as_bytes()).expect("write BENCH_subscribe.json");
    println!("wrote BENCH_subscribe.json");
}
