//! `asap-server` — serve a [`asap_tsdb::ShardedDb`] over TCP.
//!
//! ```text
//! asap-server [--ingest ADDR] [--query ADDR] [--shards N] [--block-capacity N]
//!             [--lateness L] [--max-connections N]
//!             [--event-workers N] [--write-deadline-ms N]
//!             [--sub-window N] [--sub-resolution N] [--sub-every N]
//!             [--max-subscriptions N]
//!             [--compact-interval SECS [--compact-jitter SECS]
//!              [--rollup BUCKET] [--raw-ttl T]]
//!             [--snapshot DIR [--checkpoint-interval SECS]
//!              [--checkpoint-chain-depth N]] [--snapshot-dir DIR]
//!             [--wal-dir DIR [--fsync always|every=N|interval-ms=N]]
//!             [--log-level error|warn|info|debug] [--slow-query-ms N]
//!             [--self-scrape-interval SECS]
//! ```
//!
//! Feed it InfluxDB-style line protocol on the ingest port (optionally
//! wrapped in length-prefixed `BATCH <nbytes>` frames); speak the
//! text protocol (`SMOOTH`, `RANGE`, `SUBSCRIBE`, `UNSUBSCRIBE`,
//! `STATS`, `HEALTH`, `SNAPSHOT`, `SHUTDOWN`) on the query port.
//! `--max-connections` caps each listener (ingest and query) at N
//! concurrent connections. All connections are multiplexed onto
//! `--event-workers` threads sweeping nonblocking sockets.
//! `--write-deadline-ms` bounds how long a peer with pending response
//! bytes may refuse to read before it is disconnected — including
//! subscribers that stop reading pushed frames.
//! `--sub-window`/`--sub-resolution` set the streaming
//! smoothing template behind `SUBSCRIBE` (window points and target
//! output resolution), `--sub-every` its default refresh cadence, and
//! `--max-subscriptions` caps standing subscriptions server-wide.
//! `SNAPSHOT <name>` writes inside `--snapshot-dir` only; without the
//! flag the command is disabled — query clients are unauthenticated and
//! must not choose server filesystem paths. The process runs until a
//! client sends `SHUTDOWN`, then drains gracefully and prints the
//! final report.
//!
//! Durability: `--snapshot DIR` names the **checkpoint-chain
//! directory**, the one state the server boots from: a full base
//! snapshot plus per-checkpoint deltas holding only the series that
//! changed, each a CRC-checked link that names its own place in the
//! chain, so the directory is its own index. An existing chain is
//! folded at boot (a damaged one degrades to its newest loadable prefix
//! and is logged as a warning), a background thread checkpoints into it
//! on jittered ticks while the server runs, and the drain ends with one
//! more pass. `--checkpoint-interval SECS` (default 300) only sets how
//! often a pass runs and `--checkpoint-chain-depth N` (default 8) caps
//! the delta links before a pass re-bases; neither changes what is on
//! disk. A regular file at DIR — the retired single-file boot snapshot
//! — is a start-up error. `--wal-dir` appends every applied point to a
//! per-shard write-ahead log (sync cadence set by `--fsync`, default
//! `every=256`) and replays any log left by a previous run, on top of
//! the chain, before the listeners open; every checkpoint pass truncates
//! the log generations it covers, so the log stays bounded by write
//! activity. `--snapshot`, `--snapshot-dir` and `--wal-dir` must name
//! disjoint directories. See DESIGN.md § Durability.
//!
//! Observability: `METRICS` on the query port returns Prometheus text
//! exposition of the same registry `STATS` reads. `--log-level` sets
//! the structured-log threshold (`key=value` lines on stderr, default
//! `info`). `--slow-query-ms N` logs any query/ops request whose total
//! handling time reaches N milliseconds. `--self-scrape-interval SECS`
//! ingests the server's own metrics as `__self__`-tagged series every
//! tick, so `RANGE`/`SMOOTH`/`SUBSCRIBE` (e.g. `asap-cli watch`) work
//! on the server's telemetry; see DESIGN.md § Observability.

use std::time::Duration;

use asap_server::{
    CheckpointConfig, CompactionClock, CompactionConfig, Server, ServerConfig,
};
use asap_tsdb::{
    load_chain_with_report, obs, Aggregator, FsyncPolicy, IngestConfig, LogLevel,
    RetentionPolicy, RollupLevel, Schedule, ShardedConfig, ShardedDb, WalConfig,
};

const USAGE: &str = "usage: asap-server [--ingest ADDR] [--query ADDR] [--shards N] \
                     [--block-capacity N] [--lateness L] [--max-connections N] \
                     [--event-workers N] [--write-deadline-ms N] \
                     [--sub-window N] [--sub-resolution N] [--sub-every N] \
                     [--max-subscriptions N] \
                     [--compact-interval SECS [--compact-jitter SECS] [--rollup BUCKET] \
                     [--raw-ttl T]] [--snapshot DIR [--checkpoint-interval SECS] \
                     [--checkpoint-chain-depth N]] [--snapshot-dir DIR] \
                     [--wal-dir DIR [--fsync always|every=N|interval-ms=N]] \
                     [--log-level error|warn|info|debug] [--slow-query-ms N] \
                     [--self-scrape-interval SECS]";

fn fail(message: &str) -> ! {
    eprintln!("asap-server: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    let Some(value) = value else {
        fail(&format!("{flag} needs a value"));
    };
    value
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: cannot parse `{value}`")))
}

fn main() {
    let mut ingest_addr = "127.0.0.1:9009".to_owned();
    let mut query_addr = "127.0.0.1:9010".to_owned();
    let mut shards = 8usize;
    let mut block_capacity = 4096usize;
    let mut lateness: Option<i64> = None;
    let mut max_connections = 64usize;
    let mut event_workers: Option<usize> = None;
    let mut write_deadline_ms: Option<u64> = None;
    let mut sub_window: Option<usize> = None;
    let mut sub_resolution: Option<usize> = None;
    let mut sub_every: Option<usize> = None;
    let mut max_subscriptions: Option<usize> = None;
    let mut compact_interval: Option<u64> = None;
    let mut compact_jitter = 0u64;
    let mut rollup: Option<i64> = None;
    let mut raw_ttl: Option<i64> = None;
    let mut snapshot = None;
    let mut snapshot_dir = None;
    let mut wal_dir: Option<std::path::PathBuf> = None;
    let mut fsync: Option<FsyncPolicy> = None;
    let mut checkpoint_interval: Option<u64> = None;
    let mut checkpoint_chain_depth = 8usize;
    let mut log_level: Option<LogLevel> = None;
    let mut slow_query_ms: Option<u64> = None;
    let mut self_scrape_secs: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--ingest" => ingest_addr = parse(args.next(), "--ingest"),
            "--query" => query_addr = parse(args.next(), "--query"),
            "--shards" => shards = parse(args.next(), "--shards"),
            "--block-capacity" => block_capacity = parse(args.next(), "--block-capacity"),
            "--lateness" => lateness = Some(parse(args.next(), "--lateness")),
            "--max-connections" => max_connections = parse(args.next(), "--max-connections"),
            "--event-workers" => event_workers = Some(parse(args.next(), "--event-workers")),
            "--write-deadline-ms" => {
                write_deadline_ms = Some(parse(args.next(), "--write-deadline-ms"))
            }
            "--sub-window" => sub_window = Some(parse(args.next(), "--sub-window")),
            "--sub-resolution" => sub_resolution = Some(parse(args.next(), "--sub-resolution")),
            "--sub-every" => sub_every = Some(parse(args.next(), "--sub-every")),
            "--max-subscriptions" => {
                max_subscriptions = Some(parse(args.next(), "--max-subscriptions"))
            }
            "--compact-interval" => {
                compact_interval = Some(parse(args.next(), "--compact-interval"))
            }
            "--compact-jitter" => compact_jitter = parse(args.next(), "--compact-jitter"),
            "--rollup" => rollup = Some(parse(args.next(), "--rollup")),
            "--raw-ttl" => raw_ttl = Some(parse(args.next(), "--raw-ttl")),
            "--snapshot" => snapshot = Some(std::path::PathBuf::from(
                parse::<String>(args.next(), "--snapshot"),
            )),
            "--snapshot-dir" => snapshot_dir = Some(std::path::PathBuf::from(
                parse::<String>(args.next(), "--snapshot-dir"),
            )),
            "--wal-dir" => wal_dir = Some(std::path::PathBuf::from(
                parse::<String>(args.next(), "--wal-dir"),
            )),
            "--fsync" => fsync = Some(parse(args.next(), "--fsync")),
            "--checkpoint-interval" => {
                checkpoint_interval = Some(parse(args.next(), "--checkpoint-interval"))
            }
            "--checkpoint-chain-depth" => {
                checkpoint_chain_depth = parse(args.next(), "--checkpoint-chain-depth")
            }
            "--log-level" => log_level = Some(parse(args.next(), "--log-level")),
            "--slow-query-ms" => slow_query_ms = Some(parse(args.next(), "--slow-query-ms")),
            "--self-scrape-interval" => {
                self_scrape_secs = Some(parse(args.next(), "--self-scrape-interval"))
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
    }

    let compaction = compact_interval.map(|secs| CompactionConfig {
        policy: RetentionPolicy {
            raw_ttl,
            rollups: rollup
                .map(|bucket| RollupLevel {
                    bucket,
                    aggregator: Aggregator::Mean,
                    ttl: None,
                })
                .into_iter()
                .collect(),
        },
        schedule: Schedule::every(Duration::from_secs(secs))
            .with_jitter(Duration::from_secs(compact_jitter)),
        seed: 0x5eed,
        clock: CompactionClock::WallClock,
    });

    if shards == 0 {
        fail("--shards must be at least 1");
    }
    if fsync.is_some() && wal_dir.is_none() {
        fail("--fsync needs --wal-dir");
    }
    let wal = wal_dir.map(|dir| WalConfig {
        dir,
        fsync: fsync.unwrap_or_default(),
    });

    // `--snapshot` names the chain directory; `--checkpoint-interval`
    // only overrides when a pass runs, never what is written.
    if checkpoint_interval.is_some() && snapshot.is_none() {
        fail("--checkpoint-interval needs --snapshot (the chain directory)");
    }
    let checkpoint = snapshot.clone().map(|dir| {
        let mut config = CheckpointConfig {
            dir,
            seed: 0xc4ec,
            chain_depth: checkpoint_chain_depth,
            ..CheckpointConfig::default()
        };
        if let Some(secs) = checkpoint_interval {
            config.schedule = Schedule::every(Duration::from_secs(secs))
                .with_jitter(Duration::from_secs(secs / 10));
        }
        config
    });

    let defaults = ServerConfig::default();
    let config = ServerConfig {
        ingest_addr,
        query_addr,
        max_ingest_connections: max_connections,
        max_query_connections: max_connections,
        ingest: IngestConfig {
            lateness,
            ..IngestConfig::default()
        },
        compaction,
        snapshot_dir,
        wal,
        checkpoint,
        event_workers: event_workers.unwrap_or(defaults.event_workers),
        write_deadline: write_deadline_ms
            .map_or(defaults.write_deadline, Duration::from_millis),
        subscribe_window: sub_window.unwrap_or(defaults.subscribe_window),
        subscribe_resolution: sub_resolution.unwrap_or(defaults.subscribe_resolution),
        subscribe_every: sub_every.unwrap_or(defaults.subscribe_every),
        max_subscriptions: max_subscriptions.unwrap_or(defaults.max_subscriptions),
        verbose: true,
        slow_query: slow_query_ms.map(Duration::from_millis),
        self_scrape: self_scrape_secs.map(Duration::from_secs),
        ..defaults
    };
    // Raise/lower the log threshold before anything can emit a line.
    obs::set_log_level(log_level.unwrap_or(LogLevel::Info));
    // Boot: fold the chain (a missing directory is the first boot);
    // `Server::start` then replays the WAL tail on top of it before the
    // listeners open. A damaged chain degrades to its newest loadable
    // prefix — say so, the WAL tail may or may not cover the rest.
    let store_config = ShardedConfig::new(shards, block_capacity);
    let db = match &snapshot {
        Some(path) if path.exists() => match load_chain_with_report(path, store_config) {
            Ok((db, chain)) => {
                let path = path.display();
                match &chain.damage {
                    None => obs::info("server", "snapshot_loaded", &[("path", &path)]),
                    Some(damage) => obs::warn(
                        "server",
                        "snapshot_damaged",
                        &[
                            ("path", &path),
                            ("links_loaded", &chain.links_loaded),
                            ("links_total", &chain.links_total),
                            ("damage", damage),
                        ],
                    ),
                }
                db
            }
            Err(e) => fail(&format!("cannot load snapshot {}: {e}", path.display())),
        },
        _ => ShardedDb::with_config(store_config),
    };
    let server = match Server::start(db, config) {
        Ok(server) => server,
        Err(e) => fail(&e.to_string()),
    };
    let replay = server.wal_replay_report();
    if replay.files > 0 {
        obs::info(
            "server",
            "wal_replayed",
            &[
                ("applied", &replay.applied),
                ("files", &replay.files),
                ("skipped", &replay.skipped),
                ("damaged", &replay.damaged),
            ],
        );
    }
    obs::info(
        "server",
        "listening",
        &[
            ("ingest", &server.ingest_addr()),
            ("query", &server.query_addr()),
            (
                "verbs",
                &"SMOOTH|RANGE|SUBSCRIBE|UNSUBSCRIBE|STATS|METRICS|HEALTH|SNAPSHOT|SHUTDOWN",
            ),
        ],
    );
    let report = server.run();
    obs::info(
        "server",
        "drained",
        &[
            ("lines", &report.ingest.lines),
            ("points", &report.ingest.points),
            ("connections", &report.ingest.connections),
            ("rejected", &report.ingest.rejected_connections),
            ("compaction_runs", &report.compaction.runs),
            ("rolled_up", &report.compaction.rolled_up),
        ],
    );
    if report.checkpoint.runs > 0 || report.checkpoint.errors > 0 {
        obs::info(
            "server",
            "checkpoints",
            &[
                ("runs", &report.checkpoint.runs),
                ("rebases", &report.checkpoint.rebases),
                ("chain_links", &report.checkpoint.chain_links),
                ("bytes_written", &report.checkpoint.bytes_written),
                ("wal_files_discarded", &report.checkpoint.wal_files_discarded),
            ],
        );
    }
    let mut failed = false;
    // The drain ends with one final checkpoint on chain-configured
    // servers; a populated `last_error` means that final pass failed.
    if let Some(e) = report.checkpoint.last_error {
        obs::error("server", "final_checkpoint_failed", &[("error", &e)]);
        failed = true;
    }
    if let Some(e) = report.wal_seal_error {
        obs::error("server", "wal_seal_failed", &[("error", &e)]);
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
