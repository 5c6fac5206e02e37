//! The served pipeline end to end: TCP ingest → background compaction →
//! TCP smoothing queries.
//!
//! Run with: `cargo run --release --example server`
//!
//! Starts an [`asap::server::Server`] on ephemeral loopback ports,
//! streams jittered fleet telemetry to the ingest port from several
//! concurrent "agent" connections, polls the ops endpoints (`HEALTH`,
//! `STATS`) while data flows, asks for an ASAP-smoothed frame over the
//! query protocol (`SMOOTH`), and shuts down gracefully with a final
//! checkpoint into the chain directory, which a "restart" then folds
//! back into an identical store — the shape the paper's §2 deployment
//! story describes, as an actual network service.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use asap::server::{
    CheckpointConfig, CompactionClock, CompactionConfig, Server, ServerConfig,
};
use asap::tsdb::{
    Aggregator, IngestConfig, RangeQuery, RetentionPolicy, RollupLevel, Schedule, Selector,
    ShardedConfig, ShardedDb,
};

/// Simulated agents (one TCP connection each).
const AGENTS: usize = 3;
/// Samples per agent.
const SAMPLES: i64 = 3_000;
/// Worst-case delivery lateness, in timestamp units.
const LATENESS: i64 = 50;

/// One agent's jittered telemetry: bounded out-of-order line protocol.
fn agent_telemetry(agent: usize) -> String {
    let mut records: Vec<(i64, String)> = (0..SAMPLES)
        .map(|i| {
            let t = i * 10;
            let rate = 120.0
                + 40.0 * (std::f64::consts::TAU * t as f64 / 9_600.0).sin()
                + 15.0 * (((i * 37 + agent as i64 * 11) % 97) as f64 / 97.0 - 0.5);
            let arrival = t + (i * 13 + agent as i64 * 7) % LATENESS;
            (arrival, format!("req,host=h{agent} rate={rate:.3} {t}"))
        })
        .collect();
    records.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    records
        .into_iter()
        .map(|(_, line)| line + "\n")
        .collect()
}

/// Sends one command and reads the full response (line, or `OK…END`).
fn query(addr: SocketAddr, command: &str) -> std::io::Result<String> {
    let conn = TcpStream::connect(addr)?;
    (&conn).write_all(format!("{command}\n").as_bytes())?;
    let mut reader = BufReader::new(&conn);
    let mut response = String::new();
    reader.read_line(&mut response)?;
    let multi = response
        .strip_prefix("OK ")
        .is_some_and(|rest| rest.trim() == "stats" || rest.trim().parse::<usize>().is_ok());
    while multi && !response.ends_with("END\n") {
        if reader.read_line(&mut response)? == 0 {
            break;
        }
    }
    Ok(response)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let chain = std::env::temp_dir().join(format!("asap_server_{}.chain", std::process::id()));
    let server = Server::start(
        ShardedDb::with_config(ShardedConfig::new(4, 512)),
        ServerConfig {
            ingest: IngestConfig {
                lateness: Some(LATENESS),
                ..IngestConfig::default()
            },
            compaction: Some(CompactionConfig {
                policy: RetentionPolicy {
                    raw_ttl: None,
                    rollups: vec![RollupLevel {
                        bucket: 600,
                        aggregator: Aggregator::Mean,
                        ttl: None,
                    }],
                },
                schedule: Schedule::every(Duration::from_millis(100))
                    .with_jitter(Duration::from_millis(25)),
                seed: 7,
                clock: CompactionClock::DataWatermark,
            }),
            checkpoint: Some(CheckpointConfig {
                dir: chain.clone(),
                ..CheckpointConfig::default()
            }),
            ..ServerConfig::default()
        },
    )?;
    println!(
        "server up: ingest {} | query {}",
        server.ingest_addr(),
        server.query_addr()
    );

    // ── agents stream telemetry concurrently over TCP ──────────────────
    let ingest_addr = server.ingest_addr();
    let agents: Vec<_> = (0..AGENTS)
        .map(|agent| {
            std::thread::spawn(move || -> std::io::Result<String> {
                let mut conn = TcpStream::connect(ingest_addr)?;
                for piece in agent_telemetry(agent).as_bytes().chunks(1_400) {
                    conn.write_all(piece)?;
                }
                conn.shutdown(Shutdown::Write)?;
                let mut report = String::new();
                conn.read_to_string(&mut report)?;
                Ok(report.trim().to_owned())
            })
        })
        .collect();
    println!("{}", query(server.query_addr(), "HEALTH")?.trim_end());
    for (agent, handle) in agents.into_iter().enumerate() {
        // The server answers each drained connection with the stable
        // one-line IngestReport format.
        println!("agent h{agent} report: {}", handle.join().unwrap()?);
    }

    // ── ops: wait for the scheduler, then inspect the counters ─────────
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = query(server.query_addr(), "STATS")?;
        let compacted = stats
            .lines()
            .any(|l| l.strip_prefix("compaction.runs ").is_some_and(|v| v.trim() != "0"));
        if compacted || std::time::Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    for line in stats.lines() {
        if line.starts_with("ingest.points")
            || line.starts_with("compaction.")
            || line.starts_with("store.")
        {
            println!("stats: {line}");
        }
    }

    // ── a dashboard asks for a smoothed window over the wire ───────────
    // Line protocol flattens `req rate=…` into the series metric
    // `req.rate`. The selector also matches the `__rollup__`-tagged
    // series the scheduler materialized — both come back as frames.
    let span = SAMPLES * 10;
    let response = query(
        server.query_addr(),
        &format!("SMOOTH req.rate{{host=h0}} 0 {span} 10 200"),
    )?;
    let headers: Vec<&str> = response
        .lines()
        .filter(|l| l.starts_with("SERIES "))
        .collect();
    assert!(
        headers.iter().any(|h| h.starts_with("SERIES req.rate{host=h0}")),
        "no base-series frame: {response}"
    );
    for header in headers {
        println!("smooth h0: {header}");
    }

    // ── graceful shutdown: drain, final checkpoint, report ─────────────
    let served = server.db();
    let report = server.shutdown();
    println!(
        "drained: {} points over {} connections; compaction runs={} rolled_up={}; \
         chain at {} ({} bytes)",
        report.ingest.points,
        report.ingest.connections,
        report.compaction.runs,
        report.compaction.rolled_up,
        chain.display(),
        report.checkpoint.bytes_written,
    );
    assert_eq!(report.ingest.points as i64, AGENTS as i64 * SAMPLES);
    assert!(report.checkpoint.last_error.is_none());

    // ── "restart": the chain directory folds back into the same store ──
    let restored = ShardedDb::load(&chain, ShardedConfig::new(2, 512))?;
    let everything = RangeQuery::raw(i64::MIN + 1, i64::MAX);
    assert_eq!(
        restored.query_selector(&Selector::any(), everything)?,
        served.query_selector(&Selector::any(), everything)?,
    );
    println!("restart: {} series restored from the chain", restored.series_count());
    std::fs::remove_dir_all(&chain).ok();
    Ok(())
}
