//! Server benchmark: concurrent TCP line-protocol ingest through
//! `asap-server` vs the in-process `ingest_reader` floor.
//!
//! Measures, per (clients, shards) configuration, the wall-clock
//! throughput of streaming a lateness-shuffled line-protocol document
//! over loopback TCP from N concurrent client threads (series
//! partitioned across clients, each connection running its own
//! `StreamIngestor` with a reorder stage) into a running `asap-server`,
//! against two references on the same data: the serial
//! `line_protocol::ingest` of the *sorted* document, and the in-process
//! `ingest_reader` of the whole shuffled stream (no sockets — the floor
//! that isolates the TCP + connection-fanout cost). Before any number
//! is trusted, the served store is asserted identical to the sorted
//! serial oracle. Results are written to `BENCH_server.json` (see
//! `EXPERIMENTS.md` for the recorded run).
//!
//! A second experiment records the connections-vs-throughput curve of
//! the event core: 16/64/256/1024 mostly-idle query connections held
//! open while a fixed set of active clients works through a `RANGE`
//! budget — the slope is the cost of sweeping an ever-larger readiness
//! registry. Every response is asserted byte-identical to the serial
//! oracle rendering before a row's timing is recorded.
//!
//! Hand-timed wall clock, median of `BENCH_SERVER_RUNS` runs — the
//! criterion shim's budgeted micro-timing is wrong for multi-threaded
//! phases.
//!
//! Knobs: `BENCH_SERVER_POINTS` (records per series, default 20_000),
//! `BENCH_SERVER_SERIES` (default 8), `BENCH_SERVER_RUNS` (default 3),
//! `BENCH_SERVER_LATENESS` (shuffle window, default 64).

use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use asap_server::{protocol, Server, ServerConfig};
use asap_tsdb::{
    ingest_reader, line_protocol, IngestConfig, RangeQuery, Selector, ShardedConfig, ShardedDb,
    Tsdb, TsdbConfig,
};

const BLOCK_CAPACITY: usize = 4096;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One interleaved sorted document: `series` hosts × `points` records.
fn build_sorted_doc(series: usize, points: usize) -> String {
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

/// Displaces lines by a deterministic jitter strictly below `lateness`.
fn shuffle_within(lines: &[&str], lateness: i64) -> String {
    let mut keyed: Vec<(i64, usize, &str)> = lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            let ts: i64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            (ts + (i as i64 * 13) % lateness, i, *line)
        })
        .collect();
    keyed.sort_by_key(|&(key, i, _)| (key, i));
    let mut out = String::with_capacity(lines.len() * 40);
    for (_, _, line) in keyed {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The host index of a record line.
fn line_host(line: &str) -> usize {
    line.split("host=h")
        .nth(1)
        .unwrap()
        .split(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let points = env_usize("BENCH_SERVER_POINTS", 20_000);
    let series = env_usize("BENCH_SERVER_SERIES", 8);
    let runs = env_usize("BENCH_SERVER_RUNS", 3).max(1);
    let lateness = env_usize("BENCH_SERVER_LATENESS", 64).max(1) as i64;
    let sorted = build_sorted_doc(series, points);
    let sorted_lines: Vec<&str> = sorted.lines().collect();
    let shuffled = shuffle_within(&sorted_lines, lateness);
    let total_points = series * points;
    let ingest_config = IngestConfig {
        lateness: Some(lateness),
        ..IngestConfig::default()
    };

    println!(
        "server ingest: {series} series x {points} records = {total_points} pts, \
         disorder window {lateness}, median of {runs} ({} host cpus)",
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    // Serial baseline: parse + write the sorted document on one thread.
    let serial_secs = median(
        (0..runs)
            .map(|_| {
                let db = Tsdb::with_config(TsdbConfig {
                    block_capacity: BLOCK_CAPACITY,
                });
                let t = Instant::now();
                let n = line_protocol::ingest(&db, &sorted, 0).unwrap();
                assert_eq!(n, total_points);
                t.elapsed().as_secs_f64()
            })
            .collect(),
    );
    let serial_pts_per_sec = total_points as f64 / serial_secs;
    println!(
        "{:>7} {:>7} {:>14} {:>12}   (serial baseline, sorted input)",
        "-",
        "-",
        format!("{serial_pts_per_sec:.3e}"),
        format!("{:.1}", serial_secs * 1e3)
    );

    // In-process floor: the same shuffled stream through ingest_reader —
    // one pipeline, no sockets. The gap to the server rows is the cost
    // of TCP plus per-connection pipeline fan-out.
    let floor_secs = median(
        (0..runs)
            .map(|_| {
                let db = ShardedDb::with_config(ShardedConfig::new(4, BLOCK_CAPACITY));
                let t = Instant::now();
                let report = ingest_reader(
                    &db,
                    std::io::Cursor::new(shuffled.as_bytes()),
                    0,
                    &ingest_config,
                )
                .unwrap();
                assert!(report.is_clean(), "{report:?}");
                assert_eq!(report.points, total_points);
                t.elapsed().as_secs_f64()
            })
            .collect(),
    );
    let floor_pts_per_sec = total_points as f64 / floor_secs;
    println!(
        "{:>7} {:>7} {:>14} {:>12}   (in-process ingest_reader floor, shuffled input, 4 shards)",
        "-",
        "-",
        format!("{floor_pts_per_sec:.3e}"),
        format!("{:.1}", floor_secs * 1e3)
    );

    // The oracle every served store is checked against.
    let oracle = Tsdb::with_config(TsdbConfig {
        block_capacity: BLOCK_CAPACITY,
    });
    line_protocol::ingest(&oracle, &sorted, 0).unwrap();
    let oracle_out = oracle
        .query_selector(&Selector::any(), RangeQuery::raw(i64::MIN + 1, i64::MAX))
        .unwrap();

    println!(
        "{:>7} {:>7} {:>14} {:>12} {:>10}",
        "clients", "shards", "tcp pts/s", "tcp ms", "vs floor"
    );
    let mut rows = Vec::new();
    for &(clients, shards) in &[(1usize, 4usize), (2, 4), (4, 4), (4, 8)] {
        // Partition series across clients and pre-shuffle each stream.
        let client_docs: Vec<String> = (0..clients)
            .map(|c| {
                let mine: Vec<&str> = sorted_lines
                    .iter()
                    .copied()
                    .filter(|line| line_host(line) % clients == c)
                    .collect();
                shuffle_within(&mine, lateness)
            })
            .collect();
        let secs = median(
            (0..runs)
                .map(|_| {
                    let db = ShardedDb::with_config(ShardedConfig::new(shards, BLOCK_CAPACITY));
                    let server = Server::start(
                        db,
                        ServerConfig {
                            ingest: ingest_config.clone(),
                            ..ServerConfig::default()
                        },
                    )
                    .expect("server start");
                    let addr = server.ingest_addr();
                    let t = Instant::now();
                    std::thread::scope(|scope| {
                        for doc in &client_docs {
                            scope.spawn(move || {
                                let mut conn = TcpStream::connect(addr).expect("connect");
                                for piece in doc.as_bytes().chunks(64 * 1024) {
                                    conn.write_all(piece).expect("send");
                                }
                                conn.shutdown(Shutdown::Write).expect("half-close");
                                let mut report = String::new();
                                use std::io::Read as _;
                                conn.read_to_string(&mut report).expect("report");
                                assert!(report.contains("clean=true"), "{report}");
                            });
                        }
                    });
                    let secs = t.elapsed().as_secs_f64();
                    let report = server.shutdown();
                    assert_eq!(report.ingest.points, total_points);
                    assert_eq!(report.ingest.dropped_late, 0);
                    secs
                })
                .collect(),
        );
        // Correctness gate: the served store must equal the oracle.
        let db = ShardedDb::with_config(ShardedConfig::new(shards, BLOCK_CAPACITY));
        let server = Server::start(
            db.clone(),
            ServerConfig {
                ingest: ingest_config.clone(),
                ..ServerConfig::default()
            },
        )
        .expect("server start");
        let addr = server.ingest_addr();
        std::thread::scope(|scope| {
            for doc in &client_docs {
                scope.spawn(move || {
                    let mut conn = TcpStream::connect(addr).expect("connect");
                    conn.write_all(doc.as_bytes()).expect("send");
                    conn.shutdown(Shutdown::Write).expect("half-close");
                    use std::io::Read as _;
                    let mut report = String::new();
                    conn.read_to_string(&mut report).expect("report");
                });
            }
        });
        server.shutdown();
        assert_eq!(
            db.query_selector(&Selector::any(), RangeQuery::raw(i64::MIN + 1, i64::MAX))
                .unwrap(),
            oracle_out,
            "served store diverges from sorted serial oracle at clients={clients} shards={shards}"
        );
        let pts_per_sec = total_points as f64 / secs;
        println!(
            "{clients:>7} {shards:>7} {:>14.3e} {:>12.1} {:>10.2}",
            pts_per_sec,
            secs * 1e3,
            pts_per_sec / floor_pts_per_sec
        );
        rows.push((clients, shards, pts_per_sec, secs));
    }

    // Connections-vs-throughput curve: the event core holds N
    // mostly-idle query connections while a fixed set of active
    // clients works through a RANGE budget. The slope is what an
    // ever-larger readiness registry costs the same worker pool.
    // Every response is checked byte-identical against the serial
    // oracle rendering before the row's timing is trusted.
    const CURVE_SERIES: usize = 4;
    const CURVE_POINTS: usize = 2_000;
    const CURVE_WINDOW: i64 = 256;
    let active_clients = 8usize;
    let queries_per_client = env_usize("BENCH_SERVER_CURVE_QUERIES", 50);
    let curve_doc = build_sorted_doc(CURVE_SERIES, CURVE_POINTS);
    let curve_oracle = Tsdb::with_config(TsdbConfig {
        block_capacity: BLOCK_CAPACITY,
    });
    line_protocol::ingest(&curve_oracle, &curve_doc, 0).unwrap();
    // Line protocol keys series as `measurement.field` — and the
    // expectation must be a real payload, not a vacuous empty match.
    let expected = protocol::render_range(
        &curve_oracle
            .query_selector(&Selector::metric("req.rate"), RangeQuery::raw(0, CURVE_WINDOW))
            .unwrap(),
    );
    assert!(
        expected.contains("SERIES req.rate") && expected.len() > 1_000,
        "curve oracle expectation is trivial:\n{expected}"
    );
    let command = format!("RANGE req.rate 0 {CURVE_WINDOW}\n");
    println!(
        "{:>7} {:>7} {:>14} {:>12}   (mostly-idle connection curve, {active_clients} active \
         clients x {queries_per_client} RANGE each, event core)",
        "conns", "-", "queries/s", "wall ms"
    );
    let mut curve = Vec::new();
    for &connections in &[16usize, 64, 256, 1024] {
        let secs = median(
            (0..runs)
                .map(|_| {
                    let db = ShardedDb::with_config(ShardedConfig::new(4, BLOCK_CAPACITY));
                    let seeded =
                        asap_tsdb::pipeline_ingest(&db, &curve_doc, 0, &IngestConfig::default())
                            .unwrap();
                    assert_eq!(seeded.points, CURVE_SERIES * CURVE_POINTS);
                    let server = Server::start(
                        db,
                        ServerConfig {
                            max_query_connections: connections + 8,
                            ..ServerConfig::default()
                        },
                    )
                    .expect("server start");
                    let addr = server.query_addr();
                    let conns: Vec<TcpStream> = (0..connections)
                        .map(|_| {
                            let conn = TcpStream::connect(addr).expect("connect");
                            conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                            conn
                        })
                        .collect();
                    let t = Instant::now();
                    std::thread::scope(|scope| {
                        for conn in conns.iter().take(active_clients) {
                            scope.spawn(|| {
                                use std::io::Read as _;
                                let mut response = vec![0u8; expected.len()];
                                for _ in 0..queries_per_client {
                                    (&*conn).write_all(command.as_bytes()).expect("send query");
                                    (&*conn).read_exact(&mut response).expect("read response");
                                    assert_eq!(
                                        response,
                                        expected.as_bytes(),
                                        "response diverged from the serial oracle at \
                                         {connections} connections"
                                    );
                                }
                            });
                        }
                    });
                    let secs = t.elapsed().as_secs_f64();
                    drop(conns);
                    server.shutdown();
                    secs
                })
                .collect(),
        );
        let total_queries = active_clients * queries_per_client;
        let qps = total_queries as f64 / secs;
        println!(
            "{connections:>7} {:>7} {qps:>14.3e} {:>12.1}",
            "-",
            secs * 1e3
        );
        curve.push((connections, total_queries, qps, secs));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"server_ingest\",\n");
    json.push_str(
        "  \"note\": \"hand-timed wall clock (not the criterion shim); absolute numbers are \
         machine-relative, compare configurations within one run; the served store is asserted \
         identical to the sorted serial oracle; each client streams a lateness-shuffled \
         partition of the series over loopback TCP, so every row also pays the per-connection \
         reorder stage; vs_floor compares against the in-process ingest_reader on the same \
         shuffled data — the gap is TCP + connection fan-out cost\",\n",
    );
    json.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    json.push_str(&format!("  \"series\": {series},\n"));
    json.push_str(&format!("  \"records_per_series\": {points},\n"));
    json.push_str(&format!("  \"total_points\": {total_points},\n"));
    json.push_str(&format!("  \"disorder_window\": {lateness},\n"));
    json.push_str(&format!("  \"runs_per_config\": {runs},\n"));
    json.push_str(&format!(
        "  \"serial_baseline\": {{\"points_per_sec\": {serial_pts_per_sec:.0}, \"wall_ms\": {:.2}}},\n",
        serial_secs * 1e3
    ));
    json.push_str(&format!(
        "  \"in_process_floor\": {{\"points_per_sec\": {floor_pts_per_sec:.0}, \"wall_ms\": {:.2}}},\n",
        floor_secs * 1e3
    ));
    json.push_str("  \"configs\": [\n");
    for (i, (clients, shards, pts_per_sec, secs)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"clients\": {clients}, \"shards\": {shards}, \"points_per_sec\": \
             {pts_per_sec:.0}, \"wall_ms\": {:.2}, \"vs_floor\": {:.3}}}{}\n",
            secs * 1e3,
            pts_per_sec / floor_pts_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"idle_connection_curve\": {{\n    \"note\": \"event core; N mostly-idle query \
         connections held open while {active_clients} of them each issue {queries_per_client} \
         RANGE queries over a {CURVE_WINDOW}-point window; every response asserted \
         byte-identical to the serial oracle rendering before the timing is recorded\",\n    \
         \"active_clients\": {active_clients},\n    \"queries_per_client\": \
         {queries_per_client},\n    \"rows\": [\n",
    ));
    for (i, (connections, total_queries, qps, secs)) in curve.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"connections\": {connections}, \"queries\": {total_queries}, \
             \"queries_per_sec\": {qps:.0}, \"wall_ms\": {:.2}}}{}\n",
            secs * 1e3,
            if i + 1 < curve.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n  }\n}\n");

    let mut file = std::fs::File::create("BENCH_server.json").expect("create BENCH_server.json");
    file.write_all(json.as_bytes()).expect("write BENCH_server.json");
    println!("wrote BENCH_server.json");
}
