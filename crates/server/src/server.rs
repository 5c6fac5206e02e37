//! The TCP server: ingest listener, query/ops listener, the
//! maintenance thread, graceful shutdown.
//!
//! All connections are multiplexed onto a small worker pool blocking in
//! `poll(2)` over nonblocking sockets ([`crate::event`] /
//! [`crate::conn`]). A graceful shutdown sets the drain flag and writes
//! every I/O thread's waker; the maintenance thread
//! ([`crate::maintenance`]) waits on a condvar — nothing polls the flag
//! on a timer.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asap_core::Asap;
use asap_tsdb::obs::{self, MetricSample};
use asap_tsdb::{
    smooth_query_selector, ApplyHook, ChainCheckpointReport, CheckpointChain, CompactionReport,
    Counter, Histogram, IngestConfig, IngestMetrics, IngestReport, ObsRegistry, ProgressWatch,
    RangeQuery, RetentionPolicy, Schedule, Selector, ShardWriters, ShardedDb, SnapshotError,
    StreamProgress, TsdbError, Wal, WalConfig, WalMetrics, WalReplayReport, ROLLUP_TAG, SELF_TAG,
};

use crate::event::Waker;
use crate::protocol::{self, Command};
use crate::subscribe::{Registry, SubSession};
use crate::event;
use crate::maintenance::Maintenance;

/// Configuration of an [`Server`] instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address of the ingest listener (default `127.0.0.1:0` — an
    /// ephemeral port, reported by [`Server::ingest_addr`]).
    pub ingest_addr: String,
    /// Bind address of the query/ops listener (default `127.0.0.1:0`).
    pub query_addr: String,
    /// Concurrent ingest connection cap (default 64). Connections over
    /// the cap are refused with one `ERR` line. Each accepted connection
    /// is one [`asap_tsdb::StreamIngestor`] session on the server's
    /// shard writers — parsed on its event worker, no thread of its own —
    /// so the cap bounds the memory of sessions (line assembler, backlog,
    /// one reorder stage per shard), not threads.
    pub max_ingest_connections: usize,
    /// Concurrent query/ops connection cap (default 64), enforced the
    /// same way. A query connection costs a registry entry and its
    /// request/response buffers, not a thread; the cap bounds that
    /// memory against remote clients.
    pub max_query_connections: usize,
    /// The streaming pipeline configuration of the server's shard
    /// writers, which every ingest connection and the self-scrape share
    /// (writer inbox depth, chunk size, lateness).
    pub ingest: IngestConfig,
    /// Fallback timestamp base for records without one: `default_ts`
    /// plus the record's 0-based line index (see
    /// [`asap_tsdb::ingest::ingest_reader`]).
    pub default_ts: i64,
    /// Background compaction, a job of the maintenance thread; `None`
    /// disables it.
    pub compaction: Option<CompactionConfig>,
    /// Write-ahead log directory + fsync policy (`None` disables the
    /// log). When set, [`Server::start`] first replays any existing log
    /// files into the store (crash recovery — pair it with loading the
    /// [`ServerConfig::checkpoint`] chain beforehand), then opens a
    /// fresh log generation that every ingest connection appends applied
    /// points to. Only a chain checkpoint ever truncates the log; without
    /// a chain it grows until the operator removes it.
    pub wal: Option<WalConfig>,
    /// The durable boot state: an incremental checkpoint chain (`None`
    /// keeps the store in memory only — no checkpoint passes, nothing
    /// written at drain). When set, the server maintains a
    /// [`CheckpointChain`] in the configured directory: each scheduled
    /// pass (a job of the maintenance thread) rotates the WAL (if any),
    /// writes only the series that changed since the previous pass (the
    /// link's rename is the commit), and discards the covered log
    /// generations — so both the log and the checkpoint cost stay
    /// bounded by write activity. The drain ends
    /// with one more pass and client `SNAPSHOT` commands start with one
    /// (see [`Server::shutdown`]).
    pub checkpoint: Option<CheckpointConfig>,
    /// Directory `SNAPSHOT <name>` targets resolve inside. `None`
    /// (the default) disables the command: the query port may be bound
    /// on a non-loopback address, and an unauthenticated client must
    /// not get to pick arbitrary filesystem paths for the server to
    /// write with its privileges. Requests naming an absolute path or
    /// escaping the directory (`..`) are refused, and the directory must
    /// be disjoint from the chain and WAL directories (equal or nested
    /// directories are a start-up error), so no export name can resolve
    /// onto live durable state.
    pub snapshot_dir: Option<PathBuf>,
    /// Worker threads of the event core (default 2). Each worker blocks
    /// in `poll(2)` on its share of the connections and is woken by
    /// their sockets; more workers add read/execute parallelism, not
    /// connection capacity.
    pub event_workers: usize,
    /// Most bytes one connection may read per event-loop tick (default
    /// 64 KiB), so one firehose connection cannot starve its worker's
    /// siblings.
    pub read_budget: usize,
    /// How long a peer with pending response bytes may go without
    /// accepting any before it is disconnected (default 5s), releasing
    /// its connection slot and queued output. While such bytes are
    /// pending this is the owning worker's `poll` timeout — the only
    /// thing that wakes it for a peer that stays silent.
    pub write_deadline: Duration,
    /// Log one line per connection close / compaction error to stderr
    /// (default `false`; the `asap-server` binary turns it on).
    pub verbose: bool,
    /// Raw points a subscription's smoothing window covers per series
    /// (default 10 000) — the `SUBSCRIBE` analogue of a `SMOOTH`
    /// request's time range.
    pub subscribe_window: usize,
    /// Display resolution (pixels, = panes kept) of subscription frames
    /// (default 100). Together with `subscribe_window` this must give a
    /// window of at least 4 panes, or the server refuses to start.
    pub subscribe_resolution: usize,
    /// Refresh interval (raw points per series between frames) a
    /// `SUBSCRIBE` without `EVERY` gets (default 1000).
    pub subscribe_every: usize,
    /// Server-wide cap on standing subscriptions (default 1024);
    /// `SUBSCRIBE` over the cap is refused with an `ERR` line.
    pub max_subscriptions: usize,
    /// Log any query/ops request whose total handling time (parse +
    /// execute + render) reaches this threshold as one structured
    /// `slow_query` warning line (default `None` — disabled).
    pub slow_query: Option<Duration>,
    /// Self-scrape interval, a job of the maintenance thread: every tick
    /// the server renders its own metrics registry as line protocol tagged
    /// [`asap_tsdb::SELF_TAG`] and ingests it through the normal
    /// pipeline — WAL, checkpoints, and subscriptions all apply, so the
    /// server's own telemetry is queryable (`RANGE` / `SMOOTH` /
    /// `SUBSCRIBE`) like any other series (default `None` — disabled).
    pub self_scrape: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            ingest_addr: "127.0.0.1:0".to_owned(),
            query_addr: "127.0.0.1:0".to_owned(),
            max_ingest_connections: 64,
            max_query_connections: 64,
            ingest: IngestConfig::default(),
            default_ts: 0,
            compaction: None,
            wal: None,
            checkpoint: None,
            snapshot_dir: None,
            event_workers: 2,
            read_budget: 64 * 1024,
            write_deadline: Duration::from_secs(5),
            verbose: false,
            subscribe_window: 10_000,
            subscribe_resolution: 100,
            subscribe_every: 1_000,
            max_subscriptions: 1_024,
            slow_query: None,
            self_scrape: None,
        }
    }
}

/// What the maintenance thread's compaction job runs and when.
#[derive(Debug, Clone)]
pub struct CompactionConfig {
    /// Retention/rollup policy each pass applies.
    pub policy: RetentionPolicy,
    /// Tick plan: base interval plus jitter (see
    /// [`asap_tsdb::Schedule`]).
    pub schedule: Schedule,
    /// Where the compactor's logical `now` comes from.
    pub clock: CompactionClock,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        Self {
            policy: RetentionPolicy::default(),
            schedule: Schedule::every(Duration::from_secs(60))
                .with_jitter(Duration::from_secs(5)),
            clock: CompactionClock::WallClock,
        }
    }
}

/// What the maintenance thread's checkpoint job runs and when: the on-disk
/// incremental chain plus the tick plan driving it. The schedule only
/// decides *when* a pass runs, never what is written.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// The chain directory ([`CheckpointChain::open`] creates it; a
    /// regular file there — a retired single-file boot snapshot — is a
    /// start-up error). Boot by folding it with
    /// [`asap_tsdb::load_chain_with_report`] (or `ShardedDb::load`) and
    /// handing the store to [`Server::start`].
    pub dir: PathBuf,
    /// Tick plan: base interval plus jitter (see
    /// [`asap_tsdb::Schedule`]).
    pub schedule: Schedule,
    /// Delta links the chain may accumulate before a checkpoint
    /// re-bases (writes a fresh full base and drops the old chain).
    /// Must be at least 1; the default is 8.
    pub chain_depth: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self {
            dir: PathBuf::from("checkpoints"),
            schedule: Schedule::every(Duration::from_secs(300))
                .with_jitter(Duration::from_secs(15)),
            chain_depth: 8,
        }
    }
}

/// Source of the logical `now` handed to [`asap_tsdb::Compactor`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionClock {
    /// Unix wall-clock seconds — for telemetry timestamped in epoch
    /// seconds, the production default.
    WallClock,
    /// The newest timestamp currently stored across all shards — time
    /// advances with the data, so retention works for any timestamp
    /// unit (and for tests driving logical time). Ticks on an empty
    /// store are counted as skipped.
    DataWatermark,
}

/// Failure starting an [`Server`].
#[derive(Debug)]
pub enum ServerError {
    /// Socket setup failed (bind, local_addr).
    Io(std::io::Error),
    /// A configuration knob failed validation.
    Config(TsdbError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "io: {e}"),
            ServerError::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Config(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<TsdbError> for ServerError {
    fn from(e: TsdbError) -> Self {
        ServerError::Config(e)
    }
}

/// Cumulative ingest-side counters across every connection the server
/// has served, live connections included (their contribution comes from
/// the last published [`StreamProgress`], so totals trail the sockets
/// slightly until connections close).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestTotals {
    /// Ingest connections accepted (live + closed).
    pub connections: u64,
    /// Connections refused at the [`ServerConfig::max_ingest_connections`] cap.
    pub rejected_connections: u64,
    /// Lines consumed.
    pub lines: usize,
    /// Points written into the store.
    pub points: usize,
    /// Out-of-order points repaired by the reorder stages.
    pub reordered: usize,
    /// Points dropped as later than the configured lateness.
    pub dropped_late: usize,
    /// Points dropped as duplicate timestamps.
    pub dropped_duplicate: usize,
    /// Malformed lines skipped.
    pub parse_failures: usize,
    /// Writes the engine rejected.
    pub write_failures: usize,
    /// Chunks currently in flight across live connections (gauge).
    pub in_flight_chunks: usize,
    /// Points currently pending in reorder stages across live
    /// connections (gauge).
    pub pending_reorder: usize,
}

impl IngestTotals {
    fn add_report(&mut self, report: &IngestReport) {
        self.lines += report.lines;
        self.points += report.points;
        self.reordered += report.reordered;
        self.dropped_late += report.dropped_late;
        self.dropped_duplicate += report.dropped_duplicate;
        self.parse_failures += report.parse_failures.len();
        self.write_failures += report.write_failures.len();
    }

    fn add_progress(&mut self, progress: &StreamProgress) {
        self.lines += progress.lines;
        self.points += progress.points;
        self.reordered += progress.reordered;
        self.dropped_late += progress.dropped_late;
        self.dropped_duplicate += progress.dropped_duplicate;
        self.parse_failures += progress.parse_failures;
        self.write_failures += progress.write_failures;
        self.in_flight_chunks += progress.in_flight_chunks;
        self.pending_reorder += progress.pending_reorder;
    }
}

/// Cumulative background-compaction counters, surfaced through `STATS`
/// and the final [`ServerReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Completed compaction passes.
    pub runs: u64,
    /// Ticks skipped because no logical `now` was available (empty
    /// store under [`CompactionClock::DataWatermark`]).
    pub skipped: u64,
    /// Failed passes.
    pub errors: u64,
    /// Rollup points materialized across all runs.
    pub rolled_up: usize,
    /// Raw points evicted across all runs.
    pub raw_evicted: usize,
    /// Rollup points evicted across all runs.
    pub rollup_evicted: usize,
    /// Rendering of the most recent failure — cleared when a later pass
    /// succeeds, so a populated value always means the *latest* pass
    /// failed, not that some pass once did.
    pub last_error: Option<String>,
}

impl CompactionStats {
    pub(crate) fn record_success(&mut self, report: &CompactionReport) {
        self.runs += 1;
        self.rolled_up += report.rolled_up;
        self.raw_evicted += report.raw_evicted;
        self.rollup_evicted += report.rollup_evicted;
        self.last_error = None;
    }

    pub(crate) fn record_failure(&mut self, error: String) {
        self.errors += 1;
        self.last_error = Some(error);
    }
}

/// Cumulative background-checkpoint counters, surfaced through `STATS`
/// (`checkpoint.*`) and the final [`ServerReport`]. Scheduled passes,
/// client `SNAPSHOT` commands, and the drain-time final checkpoint all
/// fold into the same counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Completed checkpoint passes.
    pub runs: u64,
    /// Failed passes.
    pub errors: u64,
    /// Wall-clock milliseconds the most recent successful pass took.
    pub last_duration_ms: u64,
    /// Links in the chain after the most recent pass (base + deltas).
    pub chain_links: usize,
    /// Passes that re-based (wrote a fresh full base and dropped the
    /// old chain) rather than appending a delta.
    pub rebases: u64,
    /// Link-file bytes written across all passes.
    pub bytes_written: u64,
    /// WAL files removed by covered-generation discards across all
    /// passes.
    pub wal_files_discarded: u64,
    /// Rendering of the most recent failure — cleared when a later pass
    /// succeeds, matching [`CompactionStats::last_error`].
    pub last_error: Option<String>,
}

impl CheckpointStats {
    fn record_success(&mut self, report: &ChainCheckpointReport, duration: Duration) {
        self.runs += 1;
        self.last_duration_ms = u64::try_from(duration.as_millis()).unwrap_or(u64::MAX);
        self.chain_links = report.links;
        if report.rebased {
            self.rebases += 1;
        }
        self.bytes_written += report.bytes_written;
        self.wal_files_discarded += report.wal_files_discarded as u64;
        self.last_error = None;
    }

    fn record_failure(&mut self, error: String) {
        self.errors += 1;
        self.last_error = Some(error);
    }
}

/// Final accounting handed back by [`Server::shutdown`] / [`Server::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerReport {
    /// Ingest totals at shutdown (all connections drained, so the live
    /// gauges are zero and counts are exact).
    pub ingest: IngestTotals,
    /// Compaction totals at shutdown.
    pub compaction: CompactionStats,
    /// Checkpoint totals at shutdown, the drain-time final checkpoint
    /// included (zeroes when no chain was configured).
    pub checkpoint: CheckpointStats,
    /// Rendering of the drain-time WAL seal failure, if a WAL was
    /// configured and the final flush+fsync failed.
    pub wal_seal_error: Option<String>,
    /// Connections refused at the [`ServerConfig::max_query_connections`]
    /// cap (ingest-port refusals are in
    /// [`IngestTotals::rejected_connections`]).
    pub query_rejected_connections: u64,
}

/// Pre-resolved handles into the server's metrics registry for every
/// hot-path observation site — resolved once at startup so instrumented
/// paths pay atomic adds, never name lookups.
pub(crate) struct ServerMetrics {
    /// Request-line parse time, all verbs (`query.parse_micros`).
    pub query_parse: Histogram,
    /// Per-verb execute time (`query.<verb>.execute_micros`), rendering
    /// excluded for the verbs that track it separately.
    range_execute: Histogram,
    smooth_execute: Histogram,
    stats_execute: Histogram,
    metrics_execute: Histogram,
    health_execute: Histogram,
    snapshot_execute: Histogram,
    subscribe_execute: Histogram,
    unsubscribe_execute: Histogram,
    shutdown_execute: Histogram,
    /// Response-rendering time of the row-bearing verbs
    /// (`query.<verb>.render_micros`).
    pub range_render: Histogram,
    pub smooth_render: Histogram,
    /// Requests that crossed [`ServerConfig::slow_query`]
    /// (`query.slow_total`).
    pub slow_queries: Counter,
    /// Event-core worker wake-ups that ticked at least one connection
    /// (`event.sweeps`) and blocking waits entered (`event.parks`).
    pub event_sweeps: Counter,
    pub event_parks: Counter,
    /// `accept` failures other than "nothing pending"
    /// (`event.accept_errors`); each backs its listener off.
    pub accept_errors: Counter,
    /// Background pass durations (`compaction.run_micros`,
    /// `checkpoint.run_micros`).
    pub compaction_run: Histogram,
    pub checkpoint_run: Histogram,
    /// Completed self-scrape passes (`scrape.runs`).
    pub scrape_runs: Counter,
}

impl ServerMetrics {
    fn new(registry: &ObsRegistry) -> Self {
        Self {
            query_parse: registry.histogram("query.parse_micros"),
            range_execute: registry.histogram("query.range.execute_micros"),
            smooth_execute: registry.histogram("query.smooth.execute_micros"),
            stats_execute: registry.histogram("query.stats.execute_micros"),
            metrics_execute: registry.histogram("query.metrics.execute_micros"),
            health_execute: registry.histogram("query.health.execute_micros"),
            snapshot_execute: registry.histogram("query.snapshot.execute_micros"),
            subscribe_execute: registry.histogram("query.subscribe.execute_micros"),
            unsubscribe_execute: registry.histogram("query.unsubscribe.execute_micros"),
            shutdown_execute: registry.histogram("query.shutdown.execute_micros"),
            range_render: registry.histogram("query.range.render_micros"),
            smooth_render: registry.histogram("query.smooth.render_micros"),
            slow_queries: registry.counter("query.slow_total"),
            event_sweeps: registry.counter("event.sweeps"),
            event_parks: registry.counter("event.parks"),
            accept_errors: registry.counter("event.accept_errors"),
            compaction_run: registry.histogram("compaction.run_micros"),
            checkpoint_run: registry.histogram("checkpoint.run_micros"),
            scrape_runs: registry.counter("scrape.runs"),
        }
    }

    /// The execute-time histogram of `command`'s verb.
    fn execute_hist(&self, command: &Command) -> &Histogram {
        match command {
            Command::Range { .. } => &self.range_execute,
            Command::Smooth { .. } => &self.smooth_execute,
            Command::Stats => &self.stats_execute,
            Command::Metrics => &self.metrics_execute,
            Command::Health => &self.health_execute,
            Command::Snapshot { .. } => &self.snapshot_execute,
            Command::Subscribe { .. } => &self.subscribe_execute,
            Command::Unsubscribe { .. } => &self.unsubscribe_execute,
            Command::Shutdown => &self.shutdown_execute,
        }
    }
}

/// The verb token of a parsed command, for slow-query log lines.
fn verb_name(command: &Command) -> &'static str {
    match command {
        Command::Range { .. } => "RANGE",
        Command::Smooth { .. } => "SMOOTH",
        Command::Stats => "STATS",
        Command::Metrics => "METRICS",
        Command::Health => "HEALTH",
        Command::Snapshot { .. } => "SNAPSHOT",
        Command::Subscribe { .. } => "SUBSCRIBE",
        Command::Unsubscribe { .. } => "UNSUBSCRIBE",
        Command::Shutdown => "SHUTDOWN",
    }
}

#[derive(Default)]
struct Lifecycle {
    /// A `SHUTDOWN` command (or [`Server::shutdown`]) asked for a
    /// graceful stop; [`Server::run`] waits on this.
    shutdown_requested: bool,
    /// The drain has started: the dispatcher stops accepting, workers
    /// finalize their connections, the maintenance thread stops.
    draining: bool,
}

/// State shared by the dispatcher, the event workers, the maintenance
/// thread, and the [`Server`] handle.
pub(crate) struct Shared {
    db: ShardedDb,
    config: ServerConfig,
    draining: AtomicBool,
    lifecycle: Mutex<Lifecycle>,
    lifecycle_cv: Condvar,
    /// Held for the duration of every snapshot save and every
    /// compaction or checkpoint pass, so no two of them overlap.
    snapshot_gate: Mutex<()>,
    /// Live counters of every open ingest connection, read on demand:
    /// a connection idle on its socket is never ticked, while the shard
    /// writers may still be applying what it fed.
    live: Mutex<HashMap<u64, ProgressWatch>>,
    finished: Mutex<IngestTotals>,
    active: AtomicUsize,
    query_active: AtomicUsize,
    /// Query-port connections refused at the cap (the ingest-port
    /// counterpart lives in `finished.rejected_connections`).
    query_rejected: AtomicU64,
    next_conn_id: AtomicU64,
    compaction: Mutex<CompactionStats>,
    checkpoint: Mutex<CheckpointStats>,
    /// The incremental checkpoint chain, when configured. The lock
    /// serializes checkpoint passes (scheduled ones, `SNAPSHOT`
    /// commands, the drain); the snapshot gate additionally keeps them
    /// exclusive with compaction and `SNAPSHOT` exports.
    chain: Option<Mutex<CheckpointChain>>,
    /// Live WAL appender, shared with the shard writers.
    wal: Option<Wal>,
    /// What boot-time replay recovered (zeroes when no WAL or nothing
    /// to replay) — surfaced in `STATS`.
    wal_replay: WalReplayReport,
    /// Standing `SUBSCRIBE` registrations, fed by the shard writers'
    /// apply hook.
    subscriptions: Arc<Registry>,
    /// This server's metrics registry — per instance, not global, so
    /// parallel servers in one process never cross-contaminate.
    registry: ObsRegistry,
    /// Pre-resolved handles into `registry` for the server's own
    /// observation sites.
    metrics: ServerMetrics,
    /// One writer thread per shard for the server's lifetime, shared by
    /// every ingest connection and the self-scrape. Stopped by the
    /// drain once nothing feeds it any more.
    writers: ShardWriters,
    /// The wake-up channels of the I/O threads: one per event worker,
    /// then the dispatcher's.
    wakers: Vec<Arc<Waker>>,
}

impl Shared {
    fn new(
        db: ShardedDb,
        config: ServerConfig,
        wal: Option<Wal>,
        wal_replay: WalReplayReport,
        chain: Option<CheckpointChain>,
        wakers: Vec<Arc<Waker>>,
    ) -> Result<Self, TsdbError> {
        let subscriptions = Arc::new(Registry::new(
            config.subscribe_window,
            config.subscribe_resolution,
            config.subscribe_every,
            config.max_subscriptions,
        ));
        let registry = ObsRegistry::new();
        let metrics = ServerMetrics::new(&registry);
        if let Some(wal) = &wal {
            wal.set_metrics(WalMetrics::new(&registry));
        }
        // The fully wired writer config: the WAL, post-reorder fanout to
        // standing subscriptions (the hook fires in store-apply order, so
        // pushed frames match a serial replay of the stored series), and
        // the stage histograms.
        let hook_registry = Arc::clone(&subscriptions);
        let writers = ShardWriters::new(
            &db,
            IngestConfig {
                wal: wal.clone(),
                apply_hook: Some(ApplyHook::new(move |key, point| {
                    hook_registry.on_point(key, point.value)
                })),
                metrics: Some(IngestMetrics::new(&registry)),
                ..config.ingest.clone()
            },
        )?;
        Ok(Self {
            db,
            config,
            draining: AtomicBool::new(false),
            lifecycle: Mutex::new(Lifecycle::default()),
            lifecycle_cv: Condvar::new(),
            snapshot_gate: Mutex::new(()),
            live: Mutex::new(HashMap::new()),
            finished: Mutex::new(IngestTotals::default()),
            active: AtomicUsize::new(0),
            query_active: AtomicUsize::new(0),
            query_rejected: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(0),
            compaction: Mutex::new(CompactionStats::default()),
            checkpoint: Mutex::new(CheckpointStats::default()),
            chain: chain.map(Mutex::new),
            wal,
            wal_replay,
            subscriptions,
            registry,
            metrics,
            writers,
            wakers,
        })
    }

    /// The waker of event worker `index`.
    pub(crate) fn worker_waker(&self, index: usize) -> &Arc<Waker> {
        &self.wakers[index]
    }

    pub(crate) fn db(&self) -> &ShardedDb {
        &self.db
    }

    pub(crate) fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The subscription registry (for per-connection [`SubSession`]s).
    pub(crate) fn subscriptions(&self) -> &Arc<Registry> {
        &self.subscriptions
    }

    /// The server's observation handles.
    pub(crate) fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The server's shard writers, on which every ingest connection
    /// opens its session.
    pub(crate) fn writers(&self) -> &ShardWriters {
        &self.writers
    }

    /// One self-scrape pass: render the full metrics state (live
    /// sources + registry) as line protocol tagged [`SELF_TAG`] at the
    /// current Unix millisecond, ingest it as one session on the shard
    /// writers, parsed on the calling thread (WAL, checkpoints, and subscriptions all
    /// apply), and return the ingested document — the oracle the
    /// round-trip tests compare query results against.
    pub(crate) fn scrape(&self) -> Result<String, String> {
        let ts = unix_millis();
        let doc = obs::render_line_protocol(&collect_metrics(self), SELF_TAG, ts);
        let mut session = self.writers.session(ts);
        session.feed(doc.as_bytes());
        let report = session.finish();
        if !report.is_clean() {
            return Err(format!("scrape ingest rejected lines: {report}"));
        }
        self.metrics.scrape_runs.inc();
        Ok(doc)
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    pub(crate) fn verbose(&self) -> bool {
        self.config.verbose
    }

    /// Holds the gate that keeps snapshot saves, compaction passes and
    /// checkpoint passes mutually exclusive.
    pub(crate) fn snapshot_gate(&self) -> std::sync::MutexGuard<'_, ()> {
        self.snapshot_gate
            .lock()
            .expect("snapshot gate poisoned")
    }

    pub(crate) fn record_compaction<F: FnOnce(&mut CompactionStats)>(&self, update: F) {
        update(&mut self.compaction.lock().expect("compaction stats poisoned"));
    }

    /// Whether an incremental checkpoint chain is configured.
    pub(crate) fn has_chain(&self) -> bool {
        self.chain.is_some()
    }

    /// Runs one incremental checkpoint pass on the configured chain —
    /// rotate the WAL, write the delta (or re-base) — the commit —,
    /// discard the covered generations — folding the outcome
    /// into the `checkpoint.*` stats. The caller must hold the snapshot
    /// gate; the chain's own lock serializes concurrent callers.
    pub(crate) fn run_checkpoint(&self) -> Result<ChainCheckpointReport, String> {
        let Some(chain) = &self.chain else {
            return Err("no checkpoint chain is configured".to_owned());
        };
        let started = Instant::now();
        let mut chain = chain.lock().expect("checkpoint chain poisoned");
        match chain.checkpoint(&self.db, self.wal.as_ref()) {
            Ok(report) => {
                let elapsed = started.elapsed();
                self.metrics.checkpoint_run.observe_duration(elapsed);
                self.checkpoint
                    .lock()
                    .expect("checkpoint stats poisoned")
                    .record_success(&report, elapsed);
                Ok(report)
            }
            Err(e) => {
                let rendered = e.to_string();
                self.checkpoint
                    .lock()
                    .expect("checkpoint stats poisoned")
                    .record_failure(rendered.clone());
                Err(rendered)
            }
        }
    }

    pub(crate) fn request_shutdown(&self) {
        let mut guard = self.lifecycle.lock().expect("lifecycle poisoned");
        guard.shutdown_requested = true;
        self.lifecycle_cv.notify_all();
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        // The I/O threads block in `poll` with no timeout: only this
        // write makes them look at the flag.
        for waker in &self.wakers {
            waker.wake();
        }
        let mut guard = self.lifecycle.lock().expect("lifecycle poisoned");
        guard.shutdown_requested = true;
        guard.draining = true;
        self.lifecycle_cv.notify_all();
    }

    fn wait_shutdown_requested(&self) {
        let mut guard = self.lifecycle.lock().expect("lifecycle poisoned");
        while !guard.shutdown_requested {
            guard = self
                .lifecycle_cv
                .wait(guard)
                .expect("lifecycle poisoned");
        }
    }

    /// Sleeps until `deadline`, returning `true` early if the drain
    /// started — the maintenance thread's interruptible tick wait.
    pub(crate) fn wait_drain_until(&self, deadline: Instant) -> bool {
        let mut guard = self.lifecycle.lock().expect("lifecycle poisoned");
        while !guard.draining {
            let Some(remaining) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                return false;
            };
            guard = self
                .lifecycle_cv
                .wait_timeout(guard, remaining)
                .expect("lifecycle poisoned")
                .0;
        }
        true
    }

    pub(crate) fn register_connection(&self, progress: ProgressWatch) -> u64 {
        let id = self.next_conn_id.fetch_add(1, Ordering::AcqRel);
        self.live
            .lock()
            .expect("live registry poisoned")
            .insert(id, progress);
        self.finished
            .lock()
            .expect("ingest totals poisoned")
            .connections += 1;
        id
    }

    pub(crate) fn finish_connection(&self, id: u64, report: &IngestReport) {
        // Take both locks in registry order (live, then finished) so the
        // connection moves atomically from the live sum to the totals —
        // aggregate counters never double-count it.
        let mut live = self.live.lock().expect("live registry poisoned");
        let mut finished = self.finished.lock().expect("ingest totals poisoned");
        live.remove(&id);
        finished.add_report(report);
    }

    /// Records an over-cap refusal — on either port, each with its own
    /// counter (`STATS` must not undercount query-port refusals).
    pub(crate) fn reject_connection(&self, port: Port) {
        match port {
            Port::Ingest => {
                self.finished
                    .lock()
                    .expect("ingest totals poisoned")
                    .rejected_connections += 1;
            }
            Port::Query => {
                self.query_rejected.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Claims one slot under `port`'s connection cap, or `None` when
    /// the cap is reached. The returned guard releases the slot on
    /// drop, however the connection ends.
    pub(crate) fn try_acquire_slot(self: &Arc<Self>, port: Port) -> Option<ActiveGuard> {
        let cap = port.cap(&self.config);
        let prev = port.counter(self).fetch_add(1, Ordering::AcqRel);
        if prev >= cap {
            port.counter(self).fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(ActiveGuard(Arc::clone(self), port))
    }

    /// The aggregate ingest counters: closed-connection totals plus the
    /// live counters of every open connection.
    fn ingest_totals(&self) -> IngestTotals {
        let live = self.live.lock().expect("live registry poisoned");
        let mut totals = *self.finished.lock().expect("ingest totals poisoned");
        for progress in live.values() {
            totals.add_progress(&progress.get());
        }
        totals
    }
}

/// Which per-listener connection counter a connection holds a slot in.
#[derive(Clone, Copy)]
pub(crate) enum Port {
    /// The ingest listener.
    Ingest,
    /// The query/ops listener.
    Query,
}

impl Port {
    fn counter(self, shared: &Shared) -> &AtomicUsize {
        match self {
            Port::Ingest => &shared.active,
            Port::Query => &shared.query_active,
        }
    }

    /// The configured connection cap of this port.
    pub(crate) fn cap(self, config: &ServerConfig) -> usize {
        match self {
            Port::Ingest => config.max_ingest_connections,
            Port::Query => config.max_query_connections,
        }
    }
}

/// Decrements a listener's active-connection count when the owning
/// connection ends, however it ends. Obtained through
/// [`Shared::try_acquire_slot`] only.
pub(crate) struct ActiveGuard(Arc<Shared>, Port);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.1.counter(&self.0).fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running ASAP server: two TCP listeners plus the optional
/// maintenance thread over one shared [`ShardedDb`].
///
/// The handle owns the lifecycle: [`Server::shutdown`] (or a client's
/// `SHUTDOWN` command followed by [`Server::run`] returning) drains
/// everything gracefully. The store itself is shared — clone the
/// `ShardedDb` before [`Server::start`] to keep querying it after the
/// server is gone.
pub struct Server {
    shared: Arc<Shared>,
    ingest_addr: SocketAddr,
    query_addr: SocketAddr,
    /// The serving threads: dispatcher + event workers.
    io_threads: Vec<JoinHandle<()>>,
    /// Compaction, checkpoint and self-scrape passes, when any is
    /// configured.
    maintenance_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds both listeners, spawns one writer per shard, the
    /// dispatcher, the event workers and — when compaction, a chain or
    /// the self-scrape is configured — the one maintenance thread, and
    /// returns the running server. Every thread the server ever runs
    /// starts here: `1 + event_workers + shards`, plus one when any
    /// maintenance job is configured, whatever the number of
    /// connections, requests, compaction or checkpoint passes,
    /// self-scrapes or `SNAPSHOT` exports.
    ///
    /// Fails fast on configuration errors ([`ServerError::Config`]) and
    /// socket errors ([`ServerError::Io`]); nothing is spawned on
    /// failure.
    pub fn start(db: ShardedDb, config: ServerConfig) -> Result<Self, ServerError> {
        config.ingest.validate()?;
        if config.max_ingest_connections == 0 {
            return Err(TsdbError::InvalidParameter {
                name: "max_ingest_connections",
                message: "the ingest connection cap must be positive",
            }
            .into());
        }
        if config.max_query_connections == 0 {
            return Err(TsdbError::InvalidParameter {
                name: "max_query_connections",
                message: "the query connection cap must be positive",
            }
            .into());
        }
        if config.event_workers == 0 {
            return Err(TsdbError::InvalidParameter {
                name: "event_workers",
                message: "the event core needs at least one worker",
            }
            .into());
        }
        if config.read_budget == 0 {
            return Err(TsdbError::InvalidParameter {
                name: "read_budget",
                message: "the per-tick read budget must be positive",
            }
            .into());
        }
        if config.write_deadline.is_zero() {
            return Err(TsdbError::InvalidParameter {
                name: "write_deadline",
                message: "the write deadline must be positive",
            }
            .into());
        }
        if config.subscribe_every == 0 {
            return Err(TsdbError::InvalidParameter {
                name: "subscribe_every",
                message: "the default subscription refresh interval must be positive",
            }
            .into());
        }
        if config.max_subscriptions == 0 {
            return Err(TsdbError::InvalidParameter {
                name: "max_subscriptions",
                message: "the subscription cap must be positive",
            }
            .into());
        }
        if config.slow_query.is_some_and(|d| d.is_zero()) {
            return Err(TsdbError::InvalidParameter {
                name: "slow_query",
                message: "the slow-query threshold must be positive (or unset)",
            }
            .into());
        }
        if config.self_scrape.is_some_and(|d| d.is_zero()) {
            return Err(TsdbError::InvalidParameter {
                name: "self_scrape",
                message: "the self-scrape interval must be positive (or unset)",
            }
            .into());
        }
        // Replicate StreamingAsap::new's viability assertions: a template
        // the operator would panic on must be a startup error, not a
        // panic on the first SUBSCRIBE.
        if config.subscribe_window == 0 || config.subscribe_resolution == 0 {
            return Err(TsdbError::InvalidParameter {
                name: "subscribe_window",
                message: "the subscription window and resolution must be positive",
            }
            .into());
        }
        let template = asap_core::StreamingConfig::new(
            config.subscribe_window,
            config.subscribe_resolution,
            config.subscribe_every,
        );
        let panes = config.subscribe_window.div_ceil(template.pane_size()).max(2);
        if panes < asap_core::MIN_WARM_PANES {
            return Err(TsdbError::InvalidParameter {
                name: "subscribe_resolution",
                message: "the subscription window must cover at least 4 panes; \
                          raise subscribe_window or subscribe_resolution",
            }
            .into());
        }
        let maintenance = Maintenance::new(&config)?;
        if let Some(checkpoint) = &config.checkpoint {
            if checkpoint.chain_depth == 0 {
                return Err(TsdbError::InvalidParameter {
                    name: "chain_depth",
                    message: "the checkpoint chain depth must be at least 1",
                }
                .into());
            }
        }
        check_disjoint_dirs(&config)?;
        // Recover, then open: replay any WAL left by a prior run into
        // the store before the listeners exist (no ingest races replay),
        // then start a fresh log generation for this run's appends. The
        // caller pre-loads the chain into `db`, so replay only adds the
        // tail (chain overlap is skipped).
        let mut wal = None;
        let mut wal_replay = WalReplayReport::default();
        if let Some(wal_config) = &config.wal {
            wal_replay = asap_tsdb::wal::replay(&wal_config.dir, &db)?;
            wal = Some(Wal::open(
                &wal_config.dir,
                db.shard_count(),
                wal_config.fsync,
            )?);
        }
        // Open (or create) the checkpoint chain after replay: the chain
        // writer's first pass after open always re-bases, so it never
        // depends on in-memory state from a prior process.
        let mut chain = None;
        if let Some(checkpoint_config) = &config.checkpoint {
            chain = Some(
                CheckpointChain::open(&checkpoint_config.dir, checkpoint_config.chain_depth)
                    .map_err(|e| match e {
                        SnapshotError::Io(e) => ServerError::Io(e),
                        SnapshotError::Tsdb(e) => ServerError::Config(e),
                    })?,
            );
        }
        let ingest_listener = TcpListener::bind(&config.ingest_addr)?;
        let query_listener = TcpListener::bind(&config.query_addr)?;
        // Nonblocking accept: the dispatcher blocks in `poll` on both
        // listeners *and its waker*, never inside `accept()`, where only
        // a successful inbound connection could wake it — a drain that
        // relied on such a nudge would hang at join if the nudge
        // connect failed (e.g. fd exhaustion at shutdown time).
        ingest_listener.set_nonblocking(true)?;
        query_listener.set_nonblocking(true)?;
        let ingest_addr = ingest_listener.local_addr()?;
        let query_addr = query_listener.local_addr()?;
        let (wakers, wake_receivers) = event::wake_channels(config.event_workers + 1)?;
        let shared = Arc::new(Shared::new(db, config, wal, wal_replay, chain, wakers)?);

        let io_threads = event::start(ingest_listener, query_listener, wake_receivers, &shared);
        let maintenance_thread = maintenance.map(|maintenance| {
            let s = Arc::clone(&shared);
            std::thread::spawn(move || maintenance.run(&s))
        });

        Ok(Self {
            shared,
            ingest_addr,
            query_addr,
            io_threads,
            maintenance_thread,
        })
    }

    /// Runs one self-scrape pass immediately — the full metrics state
    /// rendered as [`asap_tsdb::SELF_TAG`]-tagged line protocol and
    /// ingested through the normal pipeline — and returns the ingested
    /// document. Works with or without a configured
    /// [`ServerConfig::self_scrape`] interval; the round-trip tests use
    /// the returned document as their oracle.
    pub fn scrape_now(&self) -> Result<String, String> {
        self.shared.scrape()
    }

    /// The bound address of the ingest listener (resolves `:0` binds).
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// The bound address of the query/ops listener.
    pub fn query_addr(&self) -> SocketAddr {
        self.query_addr
    }

    /// The served store (cheap clone; shares storage with the server).
    pub fn db(&self) -> ShardedDb {
        self.shared.db.clone()
    }

    /// Current aggregate ingest counters (what `STATS` reports).
    pub fn ingest_totals(&self) -> IngestTotals {
        self.shared.ingest_totals()
    }

    /// What boot-time WAL replay recovered (zeroes when no WAL was
    /// configured or the log directory was empty).
    pub fn wal_replay_report(&self) -> WalReplayReport {
        self.shared.wal_replay
    }

    /// Blocks until a client issues `SHUTDOWN` (or another thread calls
    /// [`Server::shutdown`] via a clone of the handle — there is none,
    /// so in practice: until `SHUTDOWN` arrives), then drains and
    /// returns the final report. This is the serve loop of the
    /// `asap-server` binary.
    pub fn run(self) -> ServerReport {
        self.shared.wait_shutdown_requested();
        self.drain()
    }

    /// Gracefully stops the server now: stops accepting, lets every
    /// ingest connection flush its reorder buffers, stops the
    /// maintenance thread (after its final self-scrape) and then the
    /// shard writers, takes one last chain checkpoint if a chain is
    /// configured, seals the WAL, and returns the final report.
    pub fn shutdown(self) -> ServerReport {
        self.drain()
    }

    fn drain(mut self) -> ServerReport {
        // Ordering: (1) raise the drain flag and wake the I/O threads —
        // the dispatcher stops accepting and the event workers finalize
        // their connections (abort + flush reorder buffers); (2) join
        // the I/O threads (workers exit after finalizing); (3) the
        // maintenance thread observed the flag via the condvar — join
        // it after its final self-scrape; (4) with nothing left to feed
        // them, stop and join the shard writers; (5) with every point
        // applied and the compactor stopped, take the final checkpoint;
        // (6) seal the WAL; (7) assemble the report (gauges now zero).
        self.shared.begin_drain();
        for handle in self.io_threads.drain(..) {
            let _ = handle.join();
        }
        // Join the maintenance thread before the final checkpoint and
        // the WAL seal: its drain-time final scrape must land inside
        // both, so the last thing a restarted server recovers includes
        // the dying server's own telemetry.
        if let Some(handle) = self.maintenance_thread.take() {
            let _ = handle.join();
        }
        self.shared.writers.stop();
        // A chain-configured server's durable shutdown state is one
        // last incremental checkpoint: everything the drain flushed
        // lands in the chain and the covered log generations go away,
        // so the next boot folds the chain plus an empty (or tiny) WAL
        // tail. Failures land in `checkpoint.last_error` — the drain
        // still completes, and a surviving WAL still covers the data.
        if self.shared.has_chain() {
            let _gate = self.shared.snapshot_gate();
            let _ = self.shared.run_checkpoint();
        }
        // Seal the log last (flush + fsync every shard): whatever the
        // checkpoint outcome, everything ingested this run is on disk.
        let mut wal_seal_error = None;
        if let Some(wal) = &self.shared.wal {
            if let Err(e) = wal.seal() {
                wal_seal_error = Some(e.to_string());
            }
        }
        ServerReport {
            ingest: self.shared.ingest_totals(),
            compaction: self
                .shared
                .compaction
                .lock()
                .expect("compaction stats poisoned")
                .clone(),
            checkpoint: self
                .shared
                .checkpoint
                .lock()
                .expect("checkpoint stats poisoned")
                .clone(),
            wal_seal_error,
            query_rejected_connections: self.shared.query_rejected.load(Ordering::Acquire),
        }
    }
}

/// Milliseconds since the Unix epoch — the timestamp base of
/// self-scrape samples.
fn unix_millis() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .ok()
        .and_then(|d| i64::try_from(d.as_millis()).ok())
        .unwrap_or(0)
}

/// Largest bucketed grid a remote query may materialize. The engine
/// allocates one slot per grid bucket, so client-chosen
/// `(start, end, bucket)` must not size server memory — a span/bucket
/// ratio past this cap is refused before it reaches storage.
const MAX_GRID_BUCKETS: u64 = 1 << 20;

/// Rejects bucketed ranges whose grid the server is unwilling to
/// allocate. Shape errors the engine already reports (non-positive
/// bucket, inverted or overflowing range) pass through to keep error
/// semantics identical to the in-process API.
fn check_grid(start: i64, end: i64, bucket: i64) -> Result<(), String> {
    if bucket <= 0 {
        return Ok(()); // the engine rejects this with its own message
    }
    if let Some(span) = end.checked_sub(start).filter(|s| *s > 0) {
        let buckets = (span as u64).div_ceil(bucket as u64);
        if buckets > MAX_GRID_BUCKETS {
            return Err(format!(
                "grid of {buckets} buckets exceeds the server cap of {MAX_GRID_BUCKETS}; \
                 widen the bucket or narrow the range"
            ));
        }
    }
    Ok(())
}

/// `path` made absolute, with symlinks resolved as deep as the path
/// exists — the configured directories may not have been created yet.
fn resolved(path: &Path) -> PathBuf {
    let absolute = std::path::absolute(path).unwrap_or_else(|_| path.to_path_buf());
    let mut missing = Vec::new();
    let mut existing = absolute.as_path();
    loop {
        if let Ok(base) = existing.canonicalize() {
            return missing.iter().rev().fold(base, |p, name| p.join(name));
        }
        match (existing.parent(), existing.file_name()) {
            (Some(parent), Some(name)) => {
                missing.push(name);
                existing = parent;
            }
            _ => return absolute,
        }
    }
}

/// Refuses a configuration in which the `SNAPSHOT` export directory,
/// the chain directory and the WAL directory are equal or nested.
/// [`resolve_snapshot_path`] confines an export to `snapshot_dir`, which
/// protects nothing when durable state lives under it: `SNAPSHOT
/// chain/base-….snap` would overwrite a chain link with an export, and
/// the next boot would serve the wrong store. The chain and the log
/// also each assume they own their directory's file names.
fn check_disjoint_dirs(config: &ServerConfig) -> Result<(), TsdbError> {
    let dirs: Vec<PathBuf> = [
        config.snapshot_dir.as_deref(),
        config.checkpoint.as_ref().map(|c| c.dir.as_path()),
        config.wal.as_ref().map(|w| w.dir.as_path()),
    ]
    .into_iter()
    .flatten()
    .map(resolved)
    .collect();
    for (i, a) in dirs.iter().enumerate() {
        if dirs[i + 1..].iter().any(|b| a.starts_with(b) || b.starts_with(a)) {
            return Err(TsdbError::InvalidParameter {
                name: "directories",
                message: "the snapshot, checkpoint-chain and WAL directories must be \
                          disjoint (none equal to or nested inside another): a SNAPSHOT \
                          export could otherwise overwrite live durable state",
            });
        }
    }
    Ok(())
}

/// Resolves a client-supplied `SNAPSHOT` target against the configured
/// snapshot directory. Remote input must never choose arbitrary server
/// filesystem paths: the command is refused outright when no directory
/// is configured, and the name must be relative with plain components
/// only (no `..`, no root) so the resolved path cannot escape the
/// directory.
fn resolve_snapshot_path(dir: Option<&Path>, name: &str) -> Result<PathBuf, String> {
    let Some(dir) = dir else {
        return Err(
            "SNAPSHOT is disabled: the server was started without a snapshot directory \
             (--snapshot-dir)"
                .to_owned(),
        );
    };
    let requested = Path::new(name);
    let escapes = requested.is_absolute()
        || requested
            .components()
            .any(|c| !matches!(c, std::path::Component::Normal(_)));
    if escapes {
        return Err(format!(
            "snapshot target `{name}` must be a relative path inside the snapshot \
             directory (no absolute paths, no `..`)"
        ));
    }
    Ok(dir.join(requested))
}

/// Executes one request line; returns the response and whether the
/// server should begin shutting down after it is sent. `session` is
/// the connection's subscription state: `SUBSCRIBE` /
/// `UNSUBSCRIBE` mutate it, everything else ignores it.
///
/// Every request is phase-timed into the metrics registry: parse time
/// into `query.parse_micros`, per-verb execute time (rendering
/// excluded) into `query.<verb>.execute_micros`, and `RANGE`/`SMOOTH`
/// rendering into `query.<verb>.render_micros`. A request whose total
/// crosses [`ServerConfig::slow_query`] is logged as one structured
/// `slow_query` warning.
pub(crate) fn execute(line: &str, shared: &Shared, session: &mut SubSession) -> (String, bool) {
    let started = Instant::now();
    let command = match protocol::parse_command(line) {
        Ok(command) => command,
        Err(e) => return (protocol::render_error(&e), false),
    };
    let metrics = shared.metrics();
    let parse = started.elapsed();
    metrics.query_parse.observe_duration(parse);
    let verb = verb_name(&command);
    let execute_hist = metrics.execute_hist(&command);
    let arm_started = Instant::now();
    let (response, shutdown_after, rows, render) = dispatch(command, shared, session);
    let exec = arm_started.elapsed().saturating_sub(render);
    execute_hist.observe_duration(exec);
    if let Some(threshold) = shared.config.slow_query {
        let total = started.elapsed();
        if total >= threshold {
            metrics.slow_queries.inc();
            let request: String = line.chars().take(200).collect();
            obs::warn(
                "server",
                "slow_query",
                &[
                    ("verb", &verb),
                    ("request", &request),
                    ("total_micros", &u64_micros(total)),
                    ("parse_micros", &u64_micros(parse)),
                    ("execute_micros", &u64_micros(exec)),
                    ("render_micros", &u64_micros(render)),
                    ("rows", &rows),
                ],
            );
        }
    }
    (response, shutdown_after)
}

fn u64_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The per-verb body of [`execute`]: returns the response, the
/// shutdown flag, the result-row count (points / frames — 0 for
/// non-row verbs), and the time spent rendering the response (already
/// observed into the verb's render histogram; [`execute`] subtracts it
/// from the execute timing).
fn dispatch(
    command: Command,
    shared: &Shared,
    session: &mut SubSession,
) -> (String, bool, usize, Duration) {
    let fail = |e: String| (protocol::render_error(&e), false, 0, Duration::ZERO);
    match command {
        Command::Range {
            selector,
            start,
            end,
            bucket,
            aggregator,
        } => {
            let selector = confine_internal(selector);
            let query = match bucket {
                None => RangeQuery::raw(start, end),
                Some(b) => {
                    if let Err(e) = check_grid(start, end, b) {
                        return fail(e);
                    }
                    RangeQuery::bucketed(start, end, b).aggregate(aggregator)
                }
            };
            match shared.db.query_selector(&selector, query) {
                Ok(results) => {
                    let rows = results.iter().map(|(_, points)| points.len()).sum();
                    let render_started = Instant::now();
                    let response = protocol::render_range(&results);
                    let render = render_started.elapsed();
                    shared.metrics.range_render.observe_duration(render);
                    (response, false, rows, render)
                }
                Err(e) => fail(e.to_string()),
            }
        }
        Command::Smooth {
            selector,
            start,
            end,
            bucket,
            resolution,
        } => {
            if resolution == 0 {
                return fail("resolution must be positive".to_owned());
            }
            if let Err(e) = check_grid(start, end, bucket) {
                return fail(e);
            }
            let selector = confine_internal(selector);
            let asap = Asap::builder().resolution(resolution).build();
            match smooth_query_selector(&shared.db, &selector, &asap, start, end, bucket) {
                Ok(frames) => {
                    let rows = frames.len();
                    let render_started = Instant::now();
                    let response = protocol::render_smooth(&frames);
                    let render = render_started.elapsed();
                    shared.metrics.smooth_render.observe_duration(render);
                    (response, false, rows, render)
                }
                Err(e) => fail(e.to_string()),
            }
        }
        Command::Stats => (render_stats(shared), false, 0, Duration::ZERO),
        Command::Metrics => (render_metrics(shared), false, 0, Duration::ZERO),
        Command::Health => (render_health(shared), false, 0, Duration::ZERO),
        Command::Snapshot { path } => {
            let target =
                match resolve_snapshot_path(shared.config.snapshot_dir.as_deref(), &path) {
                    Ok(target) => target,
                    Err(e) => return fail(e),
                };
            // Hold the gate for the whole save: a compaction pass waits
            // rather than mutating the store mid-snapshot.
            let _gate = shared.snapshot_gate();
            match snapshot_command(shared, &target) {
                Ok(()) => (format!("OK snapshot {path}\n"), false, 0, Duration::ZERO),
                Err(e) => fail(e),
            }
        }
        Command::Subscribe {
            selector,
            every,
            alert,
        } => {
            // Same internal-series confinement as RANGE/SMOOTH: a
            // wildcard subscription watches raw series, not the
            // compactor's pre-aggregates or the self-scrape stream.
            let selector = confine_internal(selector);
            match session.subscribe(selector, every, alert) {
                Ok((id, every)) => {
                    let alert = alert.map_or_else(|| "none".to_owned(), |k| k.to_string());
                    (
                        format!("OK subscribed {id} every={every} alert={alert}\n"),
                        false,
                        0,
                        Duration::ZERO,
                    )
                }
                Err(e) => fail(e),
            }
        }
        Command::Unsubscribe { id } => match session.unsubscribe(id) {
            Ok(n) => (format!("OK unsubscribed {n}\n"), false, 0, Duration::ZERO),
            Err(e) => fail(e),
        },
        Command::Shutdown => ("OK shutting down\n".to_owned(), true, 0, Duration::ZERO),
    }
}

/// The work behind a client `SNAPSHOT <name>`, run under the snapshot
/// gate the caller holds. With a chain, first advance it — one real
/// checkpoint pass, so the operator's freshest on-disk state is the
/// state recovery boots from (and the covered WAL generations go away);
/// then, chain or not, write the named export. The export itself
/// never truncates the log: recovery does not boot from it. Neither
/// step starts a thread.
fn snapshot_command(shared: &Shared, target: &Path) -> Result<(), String> {
    if shared.has_chain() {
        shared.run_checkpoint()?;
    }
    shared.db.save(target).map_err(|e| e.to_string())
}

/// Hides server-internal series from `RANGE` / `SMOOTH` / `SUBSCRIBE`
/// matching by default: unless the selector itself takes a position on
/// the `__rollup__` tag (e.g. `metric{__rollup__=*}` to opt in, or
/// `metric{__rollup__=60}` for one level) it must be absent, and
/// likewise for the self-scrape `__self__` tag — a wildcard watches
/// user telemetry, not the compactor's pre-aggregates or the server's
/// own metrics stream.
fn confine_internal(selector: Selector) -> Selector {
    let selector = if selector.references_tag(ROLLUP_TAG) {
        selector
    } else {
        selector.tag_absent(ROLLUP_TAG)
    };
    if selector.references_tag(SELF_TAG) {
        selector
    } else {
        selector.tag_absent(SELF_TAG)
    }
}

fn fmt_watermark(watermark: Option<i64>) -> String {
    watermark.map_or_else(|| "none".to_owned(), |ts| ts.to_string())
}

fn as_u64(v: usize) -> u64 {
    v as u64
}

/// The one source of truth behind every metrics surface — `STATS`
/// (`key value` lines), `METRICS` (Prometheus exposition), and the
/// self-scrape (line protocol): the server's live sources sampled in
/// the stable `STATS` key order (the key set is append-only — new keys
/// go at the end of their source, never between existing ones),
/// followed by everything the metrics registry accumulated (latency
/// histograms, event-core counters), name-sorted.
fn collect_metrics(shared: &Shared) -> Vec<MetricSample> {
    let totals = shared.ingest_totals();
    let compaction = shared
        .compaction
        .lock()
        .expect("compaction stats poisoned")
        .clone();
    let checkpoint = shared
        .checkpoint
        .lock()
        .expect("checkpoint stats poisoned")
        .clone();
    let wal_stats = shared.wal.as_ref().map(Wal::stats).unwrap_or_default();
    let subs = shared.subscriptions.stats();
    let occupancy = shared.db.shard_occupancy();

    let mut samples = vec![
        MetricSample::gauge(
            "ingest.active_connections",
            as_u64(shared.active.load(Ordering::Acquire)),
        ),
        MetricSample::counter("ingest.total_connections", totals.connections),
        MetricSample::counter("ingest.rejected_connections", totals.rejected_connections),
        MetricSample::counter("ingest.lines", as_u64(totals.lines)),
        MetricSample::counter("ingest.points", as_u64(totals.points)),
        MetricSample::counter("ingest.reordered", as_u64(totals.reordered)),
        MetricSample::counter("ingest.dropped_late", as_u64(totals.dropped_late)),
        MetricSample::counter("ingest.dropped_duplicate", as_u64(totals.dropped_duplicate)),
        MetricSample::counter("ingest.parse_failures", as_u64(totals.parse_failures)),
        MetricSample::counter("ingest.write_failures", as_u64(totals.write_failures)),
        MetricSample::gauge("ingest.in_flight_chunks", as_u64(totals.in_flight_chunks)),
        MetricSample::gauge("ingest.pending_reorder", as_u64(totals.pending_reorder)),
        MetricSample::gauge(
            "query.active_connections",
            as_u64(shared.query_active.load(Ordering::Acquire)),
        ),
        MetricSample::counter(
            "query.rejected_connections",
            shared.query_rejected.load(Ordering::Acquire),
        ),
        MetricSample::gauge(
            "compaction.enabled",
            u64::from(shared.config.compaction.is_some()),
        ),
        MetricSample::counter("compaction.runs", compaction.runs),
        MetricSample::counter("compaction.skipped", compaction.skipped),
        MetricSample::counter("compaction.errors", compaction.errors),
        MetricSample::counter("compaction.rolled_up", as_u64(compaction.rolled_up)),
        MetricSample::counter("compaction.raw_evicted", as_u64(compaction.raw_evicted)),
        MetricSample::counter(
            "compaction.rollup_evicted",
            as_u64(compaction.rollup_evicted),
        ),
        MetricSample::gauge("checkpoint.enabled", u64::from(shared.has_chain())),
        MetricSample::counter("checkpoint.runs", checkpoint.runs),
        MetricSample::counter("checkpoint.errors", checkpoint.errors),
        MetricSample::gauge("checkpoint.last_duration_ms", checkpoint.last_duration_ms),
        MetricSample::gauge("checkpoint.chain_links", as_u64(checkpoint.chain_links)),
        MetricSample::counter("checkpoint.rebases", checkpoint.rebases),
        MetricSample::counter("checkpoint.bytes_written", checkpoint.bytes_written),
        MetricSample::counter(
            "checkpoint.wal_files_discarded",
            checkpoint.wal_files_discarded,
        ),
        MetricSample::gauge("wal.enabled", u64::from(shared.wal.is_some())),
        MetricSample::counter("wal.records", wal_stats.records),
        MetricSample::counter("wal.bytes", wal_stats.bytes),
        MetricSample::counter("wal.fsyncs", wal_stats.fsyncs),
        MetricSample::counter("wal.rotations", wal_stats.rotations),
        MetricSample::counter("wal.replay.files", as_u64(shared.wal_replay.files)),
        MetricSample::counter("wal.replay.applied", shared.wal_replay.applied),
        MetricSample::counter("wal.replay.skipped", shared.wal_replay.skipped),
        MetricSample::counter("wal.replay.damaged", as_u64(shared.wal_replay.damaged)),
        MetricSample::gauge("subscriptions.active", as_u64(subs.active)),
        MetricSample::counter("subscriptions.total", subs.total),
        MetricSample::gauge("subscriptions.series_tracked", as_u64(subs.series_tracked)),
        MetricSample::counter("subscriptions.points_seen", subs.points_seen),
        MetricSample::counter("subscriptions.frames_pushed", subs.frames_pushed),
        MetricSample::counter("subscriptions.alerts_pushed", subs.alerts_pushed),
        MetricSample::counter("subscriptions.frames_lagged", subs.frames_lagged),
    ];
    let series: usize = occupancy.iter().map(|o| o.series).sum();
    let points: usize = occupancy.iter().map(|o| o.points).sum();
    let blocks: usize = occupancy.iter().map(|o| o.blocks).sum();
    let bytes: usize = occupancy.iter().map(|o| o.compressed_bytes).sum();
    let watermark = occupancy.iter().filter_map(|o| o.watermark).max();
    samples.push(MetricSample::gauge("store.shards", as_u64(occupancy.len())));
    samples.push(MetricSample::gauge("store.series", as_u64(series)));
    samples.push(MetricSample::gauge("store.points", as_u64(points)));
    samples.push(MetricSample::gauge("store.blocks", as_u64(blocks)));
    samples.push(MetricSample::gauge("store.compressed_bytes", as_u64(bytes)));
    samples.push(MetricSample::text(
        "store.watermark",
        fmt_watermark(watermark),
    ));
    for (i, shard) in occupancy.iter().enumerate() {
        samples.push(MetricSample::gauge(
            format!("shard.{i}.series"),
            as_u64(shard.series),
        ));
        samples.push(MetricSample::gauge(
            format!("shard.{i}.points"),
            as_u64(shard.points),
        ));
        samples.push(MetricSample::gauge(
            format!("shard.{i}.blocks"),
            as_u64(shard.blocks),
        ));
        samples.push(MetricSample::gauge(
            format!("shard.{i}.compressed_bytes"),
            as_u64(shard.compressed_bytes),
        ));
        samples.push(MetricSample::text(
            format!("shard.{i}.watermark"),
            fmt_watermark(shard.watermark),
        ));
    }
    // Keys added after the original STATS set — appended, per the
    // append-only contract.
    samples.push(MetricSample::counter("wal.errors", wal_stats.errors));
    samples.push(MetricSample::gauge(
        "subscriptions.outbox_lines",
        as_u64(subs.outbox_lines),
    ));
    // Everything the registry accumulated: phase-latency histograms,
    // WAL append/fsync timings, event-core sweep counters, …
    samples.extend(shared.registry.snapshot());
    samples
}

/// The `STATS` response: `OK stats`, `key value` lines (a stable,
/// append-only key set), `END`. Histograms render as six derived lines
/// (`<name>.count/.sum/.p50/.p90/.p99/.max`).
fn render_stats(shared: &Shared) -> String {
    let mut out = String::from("OK stats\n");
    for sample in collect_metrics(shared) {
        match &sample.value {
            asap_tsdb::MetricValue::Counter(v) | asap_tsdb::MetricValue::Gauge(v) => {
                out.push_str(&format!("{} {v}\n", sample.name));
            }
            asap_tsdb::MetricValue::Text(v) => {
                out.push_str(&format!("{} {v}\n", sample.name));
            }
            asap_tsdb::MetricValue::Histogram(h) => {
                out.push_str(&format!("{}.count {}\n", sample.name, h.count));
                out.push_str(&format!("{}.sum {}\n", sample.name, h.sum));
                out.push_str(&format!("{}.p50 {}\n", sample.name, h.quantile(0.50)));
                out.push_str(&format!("{}.p90 {}\n", sample.name, h.quantile(0.90)));
                out.push_str(&format!("{}.p99 {}\n", sample.name, h.quantile(0.99)));
                out.push_str(&format!("{}.max {}\n", sample.name, h.max));
            }
        }
    }
    out.push_str("END\n");
    out
}

/// The `METRICS` response: `OK metrics`, Prometheus text exposition of
/// the same samples `STATS` reads, `END`.
fn render_metrics(shared: &Shared) -> String {
    let mut out = String::from("OK metrics\n");
    out.push_str(&obs::render_prometheus(&collect_metrics(shared)));
    out.push_str("END\n");
    out
}

/// Quotes a failure reason for a single-line `key="value"` token:
/// interior double quotes become single quotes so the token stays
/// splittable on whitespace-outside-quotes.
fn quote_reason(reason: &str) -> String {
    format!("\"{}\"", reason.replace('"', "'").replace('\n', "; "))
}

/// The `HEALTH` response: one line of `key=value` tokens. `OK healthy`
/// while every durability subsystem's *latest* pass succeeded;
/// `DEGRADED` with one quoted `<subsystem>="<reason>"` token per
/// currently failing subsystem (WAL append/fsync, compaction,
/// checkpoint — each cleared when a later pass succeeds), followed by
/// the same trailing fields as the healthy line.
fn render_health(shared: &Shared) -> String {
    let totals = shared.ingest_totals();
    let compaction = shared
        .compaction
        .lock()
        .expect("compaction stats poisoned")
        .clone();
    let checkpoint_error = shared
        .checkpoint
        .lock()
        .expect("checkpoint stats poisoned")
        .last_error
        .clone();
    let occupancy = shared.db.shard_occupancy();
    let series: usize = occupancy.iter().map(|o| o.series).sum();
    let points: usize = occupancy.iter().map(|o| o.points).sum();
    let watermark = occupancy.iter().filter_map(|o| o.watermark).max();
    let mut reasons = Vec::new();
    if let Some(e) = shared.wal.as_ref().and_then(Wal::last_error) {
        reasons.push(format!("wal={}", quote_reason(&e)));
    }
    if let Some(e) = &compaction.last_error {
        reasons.push(format!("compaction={}", quote_reason(e)));
    }
    if let Some(e) = &checkpoint_error {
        reasons.push(format!("checkpoint={}", quote_reason(e)));
    }
    let status = if reasons.is_empty() {
        "OK healthy".to_owned()
    } else {
        format!("DEGRADED {}", reasons.join(" "))
    };
    format!(
        "{status} connections={}/{} shards={} series={} points={} watermark={} \
         ingested_points={} compaction_runs={}\n",
        shared.active.load(Ordering::Acquire),
        shared.config.max_ingest_connections,
        occupancy.len(),
        series,
        points,
        fmt_watermark(watermark),
        totals.points,
        compaction.runs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_last_error_clears_when_a_later_pass_succeeds() {
        let mut stats = CompactionStats::default();
        stats.record_failure("disk on fire".to_owned());
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.last_error.as_deref(), Some("disk on fire"));

        let report = CompactionReport {
            rolled_up: 7,
            ..CompactionReport::default()
        };
        stats.record_success(&report);
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.rolled_up, 7);
        assert_eq!(stats.errors, 1, "error history is cumulative");
        assert_eq!(stats.last_error, None, "a success clears the latest error");
    }

    #[test]
    fn checkpoint_last_error_clears_when_a_later_pass_succeeds() {
        let mut stats = CheckpointStats::default();
        stats.record_failure("link write failed".to_owned());
        assert_eq!(stats.errors, 1);
        assert!(stats.last_error.is_some());

        let report = ChainCheckpointReport {
            rebased: true,
            link_written: true,
            bytes_written: 123,
            links: 1,
            wal_files_discarded: 2,
            completed: true,
            ..ChainCheckpointReport::default()
        };
        stats.record_success(&report, Duration::from_millis(5));
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.rebases, 1);
        assert_eq!(stats.chain_links, 1);
        assert_eq!(stats.bytes_written, 123);
        assert_eq!(stats.wal_files_discarded, 2);
        assert_eq!(stats.last_duration_ms, 5);
        assert_eq!(stats.errors, 1, "error history is cumulative");
        assert_eq!(stats.last_error, None, "a success clears the latest error");
    }

    #[test]
    fn snapshot_targets_are_confined_to_the_configured_directory() {
        let err = resolve_snapshot_path(None, "a.bin").unwrap_err();
        assert!(err.contains("disabled"), "{err}");

        let dir = Path::new("/var/lib/asap/snapshots");
        assert_eq!(
            resolve_snapshot_path(Some(dir), "a.bin").unwrap(),
            dir.join("a.bin")
        );
        assert_eq!(
            resolve_snapshot_path(Some(dir), "nested/a.bin").unwrap(),
            dir.join("nested/a.bin")
        );
        for bad in [
            "/etc/passwd",
            "../escape.bin",
            "a/../../escape.bin",
            "..",
            "./a.bin",
        ] {
            let err = resolve_snapshot_path(Some(dir), bad)
                .expect_err(&format!("`{bad}` was accepted"));
            assert!(err.contains("relative path"), "`{bad}` -> {err}");
        }
    }
}
