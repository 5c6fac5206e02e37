//! Streaming concurrent line-protocol ingest for the sharded engine.
//!
//! The ASAP paper (§2) places the operator downstream of production
//! TSDBs fed by live telemetry; this module is the front-end that feeds a
//! [`ShardedDb`] at that rate. The serial [`crate::line_protocol::ingest`]
//! parses and writes one line at a time on the caller's thread; here the
//! document is a *byte stream* — any [`std::io::Read`], a socket, or
//! incremental [`StreamIngestor::feed`] calls — consumed in bounded
//! memory, parsed on the thread that holds the bytes, and applied by one
//! writer thread per shard that every stream shares:
//!
//! ```text
//!  session A: bytes ─▶ line assembler ─▶ chunk ─▶ parse + route ─┐ one batch per
//!  session B: bytes ─▶ line assembler ─▶ chunk ─▶ parse + route ─┤ (chunk, shard)
//!                                                                 ▼
//!        bounded inbox ─▶ shard writer 0   (reorder stage per session) ─▶ shard 0
//!        bounded inbox ─▶ shard writer 1   (reorder stage per session) ─▶ shard 1
//!        bounded inbox ─▶ shard writer S-1 (reorder stage per session) ─▶ shard S-1
//! ```
//!
//! * a [`ShardWriters`] set owns one writer thread per shard for as long
//!   as the set lives — a server's lifetime, or one library
//!   [`StreamIngestor`]'s. Any number of streams (*sessions*, see
//!   [`ShardWriters::session`]) share it, so the thread count is the
//!   shard count whatever the number of streams;
//! * a session reassembles complete lines out of arbitrary byte pieces
//!   (reader chunks may split mid-float, mid-escape, or mid-UTF-8 code
//!   point — see [`crate::line_protocol`]'s `LineAssembler`), groups them
//!   into chunks of [`IngestConfig::chunk_lines`] lines, parses each
//!   chunk on the thread feeding it and routes the points by the engine's
//!   tag-aware shard hash into one batch per shard. A line past
//!   [`crate::line_protocol::MAX_LINE_BYTES`] is discarded as it arrives
//!   and reported as one [`ParseFailure`] at its own line number, so a
//!   newline-free stream cannot grow the assembler;
//! * a session sends every chunk's batches — empty ones included, they
//!   advance its applied-chunk clock — to every writer's bounded inbox.
//!   One thread submits a session's batches and inboxes are FIFO, so
//!   every writer applies every session's chunks **strictly in stream
//!   order** without reordering anything itself;
//! * all buffering is bounded: each inbox holds
//!   [`IngestConfig::queue_depth`] batches, so on the blocking
//!   [`StreamIngestor::feed`] path a session has at most
//!   `queue_depth + 2` chunks in flight (a full inbox, the batch its
//!   writer is applying, the chunk being sent) no matter how long the
//!   stream runs — a slow writer backpressures every session feeding it
//!   all the way to the byte source;
//! * with [`IngestConfig::lateness`] set, each writer keeps one
//!   **reorder stage** (a [`ReorderBuffer`] over its shard's
//!   [`crate::db::Tsdb`]) per session between the session and
//!   storage: bounded out-of-order telemetry is buffered and applied in
//!   timestamp order instead of failing per line, late and duplicate
//!   points are counted ([`IngestReport::dropped_late`],
//!   [`IngestReport::dropped_duplicate`]) rather than reported as
//!   failures, and ending the session flushes its stages. With
//!   `lateness: None` writes go straight to the shard and ordering
//!   violations surface as per-line [`WriteFailure`]s, exactly like the
//!   serial path.
//!
//! Because a session's chunks are applied in stream order, per-series
//! offer order within a session equals stream order no matter how
//! threads interleave — which makes a session deterministic: same bytes,
//! same final store, same [`IngestReport`], at any
//! shard/queue/chunk/read-buffer configuration. Sessions writing disjoint
//! series leave each other's reports untouched; sessions writing one
//! series meet at the store in the order their batches reach the writer,
//! each through its own reorder stage.
//!
//! Unlike the serial path, a session does not abort on the first bad
//! line: malformed lines and rejected writes are skipped and reported in
//! the [`IngestReport`] (a live telemetry socket cannot un-send a line).
//!
//! Entry points, thinnest to most general:
//!
//! * [`ingest_reader`] — drain any [`std::io::Read`] (a whole in-memory
//!   document is `text.as_bytes()`) to end of stream;
//! * [`StreamIngestor`] — a long-running handle: feed byte pieces as
//!   they arrive, poll a live [`StreamProgress`], `finish()` to flush
//!   and collect the final report;
//! * [`ShardWriters`] — one writer set serving many concurrent
//!   sessions. This is the shape a socket listener plugs into.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::Read;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::error::TsdbError;
use crate::line_protocol::{
    fallback_ts, parse_line, Line, LineAssembler, ParsedPoint, LINE_TOO_LONG,
};
use crate::obs::IngestMetrics;
use crate::point::DataPoint;
use crate::query::SeriesWriter;
use crate::reorder::{ReorderBuffer, ReorderStats};
use crate::sharded::ShardedDb;
use crate::tags::SeriesKey;
use crate::wal::Wal;

/// Observer of every point the pipeline applies to the store,
/// **post-reorder**: the hook fires inside the shard sink, after the
/// optional reorder stage has released the point and the store write (and
/// WAL append, when configured) succeeded. Per series, hook invocation
/// order therefore equals store apply order — the property standing
/// consumers (live smoothing subscriptions, change feeds) need to mirror
/// the store without re-reading it.
///
/// The hook runs on shard-writer threads, inline with ingest: it must be
/// cheap and must never block, or it becomes ingest backpressure. Failed
/// writes (rejected by the engine or the WAL) do not fire the hook.
#[derive(Clone)]
pub struct ApplyHook(ApplyHookFn);

type ApplyHookFn = Arc<dyn Fn(&SeriesKey, DataPoint) + Send + Sync>;

impl ApplyHook {
    /// Wraps a callback. See the type docs for the ordering contract and
    /// the no-blocking requirement.
    pub fn new(hook: impl Fn(&SeriesKey, DataPoint) + Send + Sync + 'static) -> Self {
        ApplyHook(Arc::new(hook))
    }

    /// Invokes the hook for one applied point.
    pub fn call(&self, key: &SeriesKey, point: DataPoint) {
        (self.0)(key, point)
    }
}

impl std::fmt::Debug for ApplyHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ApplyHook(..)")
    }
}

/// Tuning knobs of the ingest pipeline.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Bound of each shard writer's inbox, in batches (default 8).
    /// Smaller values bound memory harder and throttle the byte source
    /// sooner; larger values absorb burstier shard skew.
    pub queue_depth: usize,
    /// Lines per chunk (default 256). A chunk is the unit a session
    /// parses and hands to the shard writers.
    pub chunk_lines: usize,
    /// Out-of-order tolerance of the per-shard reorder stage, in
    /// timestamp units (default `None`).
    ///
    /// `None` disables the stage: writes go straight to storage and
    /// ordering violations surface as per-line [`WriteFailure`]s.
    /// `Some(l)` buffers each series' recent points and applies them in
    /// timestamp order, tolerating up to `l` units of lateness; points
    /// later than that are counted in [`IngestReport::dropped_late`]
    /// instead of failing. `Some(0)` is an ordering filter: in-order
    /// input passes through, stragglers are dropped, nothing fails.
    pub lateness: Option<i64>,
    /// Write-ahead log sink (default `None`).
    ///
    /// When set, every point the pipeline *applies* (post-reorder) is
    /// appended to the log before the write is acknowledged, under the
    /// WAL's per-shard lock — see [`Wal::log_applied`] for the ordering
    /// contract. The WAL must have been opened with the same shard count
    /// as the destination [`ShardedDb`].
    pub wal: Option<Wal>,
    /// Post-reorder applied-point observer (default `None`); see
    /// [`ApplyHook`].
    pub apply_hook: Option<ApplyHook>,
    /// Stage-latency histograms (default `None` — zero overhead).
    ///
    /// When set, the pipeline records per-piece assemble time, per-chunk
    /// parse time, and per-batch writer time into the bundle's
    /// histograms. Writer time is attributed to
    /// [`IngestMetrics::reorder`] when a reorder stage is configured
    /// (the stage's offers include the store writes it releases) and to
    /// [`IngestMetrics::apply`] for direct writes and end-of-stream
    /// reorder flushes. All timings are per batch, never per point, so
    /// the instrumented hot path stays within a few percent of the
    /// bare one.
    pub metrics: Option<IngestMetrics>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            queue_depth: 8,
            chunk_lines: 256,
            lateness: None,
            wal: None,
            apply_hook: None,
            metrics: None,
        }
    }
}

impl IngestConfig {
    /// Validates the knobs (counts must be positive, lateness
    /// non-negative).
    pub fn validate(&self) -> Result<(), TsdbError> {
        let bad = |name: &'static str| TsdbError::InvalidParameter {
            name,
            message: "ingest pipeline knobs must be positive",
        };
        if self.queue_depth == 0 {
            return Err(bad("queue_depth"));
        }
        if self.chunk_lines == 0 {
            return Err(bad("chunk_lines"));
        }
        if self.lateness.is_some_and(|l| l < 0) {
            return Err(TsdbError::InvalidParameter {
                name: "lateness",
                message: "allowed lateness must be non-negative",
            });
        }
        Ok(())
    }
}

/// One malformed line, skipped by the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFailure {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// Why it failed to parse.
    pub reason: &'static str,
}

/// One parsed point the engine rejected (out-of-order, non-finite, …).
#[derive(Debug, Clone, PartialEq)]
pub struct WriteFailure {
    /// 1-based line number the point came from.
    pub line: usize,
    /// The engine's rejection.
    pub error: TsdbError,
}

/// Outcome of one pipeline ingest, deterministic for a given input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// Total lines in the stream (including blanks and comments).
    pub lines: usize,
    /// Points written into the store.
    pub points: usize,
    /// Points that arrived out of order but within the configured
    /// lateness and were sorted back into place by the reorder stage
    /// (always 0 with `lateness: None`).
    pub reordered: usize,
    /// Points the reorder stage dropped for arriving later than the
    /// configured lateness (always 0 with `lateness: None`, where such
    /// points surface as [`WriteFailure`]s instead).
    pub dropped_late: usize,
    /// Points the reorder stage dropped as duplicates of a pending
    /// timestamp (always 0 with `lateness: None`).
    pub dropped_duplicate: usize,
    /// Malformed lines, sorted by line number.
    pub parse_failures: Vec<ParseFailure>,
    /// Rejected writes, sorted by line number.
    pub write_failures: Vec<WriteFailure>,
}

impl IngestReport {
    /// Whether every line parsed and every point was accepted by the
    /// engine. Reorder-stage drops (`dropped_late`, `dropped_duplicate`)
    /// are counted separately and do not make a report unclean — they are
    /// the configured late-data policy doing its job.
    pub fn is_clean(&self) -> bool {
        self.parse_failures.is_empty() && self.write_failures.is_empty()
    }
}

impl std::fmt::Display for IngestReport {
    /// Stable one-line ops format, `space`-separated `key=value` tokens:
    ///
    /// ```text
    /// lines=12 points=10 reordered=3 dropped_late=0 dropped_duplicate=0 parse_failures=0 write_failures=0 clean=true
    /// ```
    ///
    /// Failure *counts* (not the per-line details) are rendered so the
    /// line stays bounded no matter how dirty the stream was. The token
    /// set is append-only: parsers may rely on these names.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lines={} points={} reordered={} dropped_late={} dropped_duplicate={} \
             parse_failures={} write_failures={} clean={}",
            self.lines,
            self.points,
            self.reordered,
            self.dropped_late,
            self.dropped_duplicate,
            self.parse_failures.len(),
            self.write_failures.len(),
            self.is_clean(),
        )
    }
}

/// Live counters of a [`StreamIngestor`], safe to poll while the
/// pipeline runs. Counters trail the byte source slightly (points are
/// counted when a writer applies them, not when they are fed) but are
/// exact once [`StreamIngestor::finish`] returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamProgress {
    /// Lines completed by the line assembler so far.
    pub lines: usize,
    /// Points written into the store so far.
    pub points: usize,
    /// Out-of-order points repaired by the reorder stage so far.
    pub reordered: usize,
    /// Points dropped as later than the configured lateness so far.
    pub dropped_late: usize,
    /// Points dropped as duplicate timestamps so far.
    pub dropped_duplicate: usize,
    /// Malformed lines seen so far.
    pub parse_failures: usize,
    /// Rejected writes seen so far.
    pub write_failures: usize,
    /// Chunks sealed but not yet applied by every writer — the
    /// session's in-flight buffering. On the blocking
    /// [`StreamIngestor::feed`] path this never exceeds
    /// `queue_depth + 2`; on the non-blocking
    /// [`StreamIngestor::try_feed`] path it additionally counts the
    /// caller-bounded backlog of sealed-but-unsent chunks.
    pub in_flight_chunks: usize,
    /// Points of this session currently held by the reorder stages
    /// across all shards.
    pub pending_reorder: usize,
}

impl std::fmt::Display for StreamProgress {
    /// Stable one-line ops format mirroring [`IngestReport`]'s `Display`
    /// (same `key=value` token names for the shared counters), extended
    /// with the two live-only gauges:
    ///
    /// ```text
    /// lines=40 points=36 reordered=2 dropped_late=0 dropped_duplicate=0 parse_failures=0 write_failures=0 in_flight_chunks=3 pending_reorder=12
    /// ```
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lines={} points={} reordered={} dropped_late={} dropped_duplicate={} \
             parse_failures={} write_failures={} in_flight_chunks={} pending_reorder={}",
            self.lines,
            self.points,
            self.reordered,
            self.dropped_late,
            self.dropped_duplicate,
            self.parse_failures,
            self.write_failures,
            self.in_flight_chunks,
            self.pending_reorder,
        )
    }
}

/// One complete-line chunk of a session's stream.
#[derive(Debug)]
struct Chunk {
    /// Global 0-based line index of `lines[0]` (line numbers and
    /// fallback timestamps are derived from it).
    start_line: usize,
    lines: Vec<Line>,
}

/// One chunk's points for one shard, in line order. Points of a series
/// share one copy of its key per batch: keys are allocated on the
/// feeding thread and freed on the writer, and frees across threads
/// contend on the allocator: with a key per point, the writers spent as
/// long freeing keys as applying points (bulk ingest, 2 CPUs).
#[derive(Debug, Default)]
struct Batch {
    /// `(1-based line number, index into keys, point)`.
    points: Vec<(usize, usize, DataPoint)>,
    keys: Vec<SeriesKey>,
}

impl Batch {
    /// Appends a point, reusing the key of an earlier point of the same
    /// series (the parsed copy is then freed here, on the feeding
    /// thread). `index` maps key hashes to positions in `keys`; a hash
    /// collision only costs a second copy of a key.
    fn push(&mut self, line: usize, parsed: ParsedPoint, index: &mut HashMap<u64, usize>) {
        let mut hasher = DefaultHasher::new();
        parsed.key.hash(&mut hasher);
        let hash = hasher.finish();
        let key = match index.get(&hash) {
            Some(&known) if self.keys[known] == parsed.key => known,
            _ => {
                self.keys.push(parsed.key);
                index.insert(hash, self.keys.len() - 1);
                self.keys.len() - 1
            }
        };
        self.points.push((line, key, parsed.point));
    }
}

/// What a session hands a shard writer. Each session's messages reach
/// each writer in the order the session sent them.
enum ToWriter {
    /// One chunk's points for this shard. Every chunk sends exactly one
    /// batch to every shard — empty ones advance the session's
    /// applied-chunk clock.
    Batch { session: Arc<Shared>, batch: Batch },
    /// The session ended: flush its reorder stage and reply with the
    /// points it wrote and the writes the shard rejected.
    Close {
        session: u64,
        reply: mpsc::Sender<(usize, Vec<WriteFailure>)>,
    },
    /// The writer set is stopping.
    Stop,
}

impl std::fmt::Debug for ToWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToWriter::Batch { batch, .. } => write!(f, "Batch({} points)", batch.points.len()),
            ToWriter::Close { session, .. } => write!(f, "Close({session})"),
            ToWriter::Stop => f.write_str("Stop"),
        }
    }
}

const WRITERS_GONE: &str = "ingest shard writers stopped or panicked";

/// Counters shared by one session and the shard writers — the source of
/// [`StreamProgress`] snapshots.
#[derive(Debug)]
struct Shared {
    /// The session's key in every writer's session table.
    id: u64,
    lines: AtomicUsize,
    /// Chunks sealed by the session so far.
    chunks: AtomicUsize,
    /// Per shard: this session's chunks that writer has applied.
    applied: Vec<AtomicUsize>,
    points: AtomicUsize,
    reordered: AtomicUsize,
    dropped_late: AtomicUsize,
    dropped_duplicate: AtomicUsize,
    parse_failed: AtomicUsize,
    write_failed: AtomicUsize,
    /// Per shard: this session's points pending in that writer's
    /// reorder stage.
    pending_reorder: Vec<AtomicUsize>,
}

impl Shared {
    fn new(id: u64, shards: usize) -> Self {
        let zeroes = || (0..shards).map(|_| AtomicUsize::new(0)).collect();
        Self {
            id,
            lines: AtomicUsize::new(0),
            chunks: AtomicUsize::new(0),
            applied: zeroes(),
            points: AtomicUsize::new(0),
            reordered: AtomicUsize::new(0),
            dropped_late: AtomicUsize::new(0),
            dropped_duplicate: AtomicUsize::new(0),
            parse_failed: AtomicUsize::new(0),
            write_failed: AtomicUsize::new(0),
            pending_reorder: zeroes(),
        }
    }

    fn snapshot(&self) -> StreamProgress {
        let chunks = self.chunks.load(Ordering::Acquire);
        let applied = self
            .applied
            .iter()
            .map(|a| a.load(Ordering::Acquire))
            .min()
            .unwrap_or(chunks)
            .min(chunks);
        StreamProgress {
            lines: self.lines.load(Ordering::Acquire),
            points: self.points.load(Ordering::Acquire),
            reordered: self.reordered.load(Ordering::Acquire),
            dropped_late: self.dropped_late.load(Ordering::Acquire),
            dropped_duplicate: self.dropped_duplicate.load(Ordering::Acquire),
            parse_failures: self.parse_failed.load(Ordering::Acquire),
            write_failures: self.write_failed.load(Ordering::Acquire),
            in_flight_chunks: chunks - applied,
            pending_reorder: self
                .pending_reorder
                .iter()
                .map(|p| p.load(Ordering::Acquire))
                .sum(),
        }
    }
}

/// A cloneable reader of one [`StreamIngestor`]'s live counters (see
/// [`StreamIngestor::watch_progress`]); outlives the ingestor, after
/// which it reads the final counts.
#[derive(Debug, Clone)]
pub struct ProgressWatch(Arc<Shared>);

impl ProgressWatch {
    /// The counters right now.
    pub fn get(&self) -> StreamProgress {
        self.0.snapshot()
    }
}

/// Write-only handle to one shard of the engine — the sink each writer's
/// reorder stages release into. With a WAL attached, the store write and
/// the log append happen under the WAL's shard lock so the log's
/// per-series record order always equals store apply order.
#[derive(Clone)]
struct ShardSink {
    db: ShardedDb,
    idx: usize,
    wal: Option<Wal>,
    hook: Option<ApplyHook>,
}

impl SeriesWriter for ShardSink {
    fn write_point(&self, key: &SeriesKey, point: DataPoint) -> Result<(), TsdbError> {
        let result = match &self.wal {
            None => self.db.shards()[self.idx].write(key, point),
            Some(wal) => wal.log_applied(self.idx, key, point, || {
                self.db.shards()[self.idx].write(key, point)
            }),
        };
        // The hook observes applied points only, after the write (and WAL
        // append) committed — a rejected point never reaches subscribers.
        if result.is_ok() {
            if let Some(hook) = &self.hook {
                hook.call(key, point);
            }
        }
        result
    }
}

/// Drains `reader` to end of stream through the streaming pipeline in
/// bounded memory, using a fixed-size read buffer (the pipeline is
/// oblivious to where reads split — any piece boundary, including
/// mid-line and mid-UTF-8, tokenizes identically).
///
/// Returns `Err` for an invalid `config` or a reader error
/// ([`TsdbError::Io`]); in the latter case the pipeline is shut down
/// via [`StreamIngestor::abort`] first, so every *complete* line fed
/// before the failure is applied (reorder buffers flushed) while a
/// trailing partial line — truncated mid-record by the failure — is
/// discarded rather than ingested as if it were whole. The partial
/// report is discarded with it; a caller that needs progress
/// accounting across source failures should drive a
/// [`StreamIngestor`] directly. Data problems (malformed lines,
/// rejected writes) are skipped and reported.
///
/// Records missing a timestamp take `default_ts` plus the 0-based line
/// index, exactly like the serial [`crate::line_protocol::ingest`].
pub fn ingest_reader<R: Read>(
    db: &ShardedDb,
    mut reader: R,
    default_ts: i64,
    config: &IngestConfig,
) -> Result<IngestReport, TsdbError> {
    let mut ingestor = StreamIngestor::new(db, default_ts, config.clone())?;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => ingestor.feed(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                // Apply every complete line fed so far (the truncated
                // tail is discarded), then surface the source failure.
                ingestor.abort();
                return Err(TsdbError::Io {
                    message: e.to_string(),
                });
            }
        }
    }
    Ok(ingestor.finish())
}

/// One writer thread per shard of a [`ShardedDb`], shared by any number
/// of ingest sessions ([`ShardWriters::session`]) for as long as the set
/// lives. Each writer applies what sessions send it through the shard
/// sink (WAL append and [`ApplyHook`] included), keeping one reorder
/// stage per open session; see the module docs.
///
/// Dropping the set (or [`ShardWriters::stop`]) stops and joins the
/// writers. Sessions should be finished first: a session still open at
/// that point has its reorder stages flushed by the stopping writers,
/// but its own `finish` then panics, and its `Drop` discards the report.
#[derive(Debug)]
pub struct ShardWriters {
    set: Arc<WriterSet>,
}

/// The part of a [`ShardWriters`] its sessions hold on to.
#[derive(Debug)]
struct WriterSet {
    db: ShardedDb,
    chunk_lines: usize,
    /// Assemble- and parse-stage histograms, observed on the session's
    /// thread (`None` → no timing at all).
    metrics: Option<IngestMetrics>,
    /// One bounded inbox per shard writer, indexed by shard.
    inboxes: Vec<SyncSender<ToWriter>>,
    writers: Mutex<Vec<JoinHandle<()>>>,
    next_session: AtomicU64,
}

impl ShardWriters {
    /// Validates `config` and spawns one writer thread per shard of
    /// `db`. Returns `Err` for an invalid `config`, a WAL whose shard
    /// count differs from `db`'s, or a failed thread spawn.
    pub fn new(db: &ShardedDb, config: IngestConfig) -> Result<Self, TsdbError> {
        config.validate()?;
        let shards = db.shard_count();
        if config.wal.as_ref().is_some_and(|wal| wal.shard_count() != shards) {
            return Err(TsdbError::InvalidParameter {
                name: "wal",
                message: "WAL shard count must match the destination store's",
            });
        }
        let mut inboxes = Vec::with_capacity(shards);
        let mut writers = Vec::with_capacity(shards);
        for idx in 0..shards {
            let (tx, rx) = mpsc::sync_channel(config.queue_depth);
            let sink = ShardSink {
                db: db.clone(),
                idx,
                wal: config.wal.clone(),
                hook: config.apply_hook.clone(),
            };
            let lateness = config.lateness;
            let metrics = config.metrics.clone();
            // On failure the inboxes built so far drop with this frame,
            // and the writers already running see the hangup and exit.
            let writer = std::thread::Builder::new()
                .name(format!("shard-writer-{idx}"))
                .spawn(move || shard_writer(rx, sink, lateness, metrics))
                .map_err(|e| TsdbError::Io {
                    message: format!("cannot spawn a shard writer: {e}"),
                })?;
            inboxes.push(tx);
            writers.push(writer);
        }
        Ok(Self {
            set: Arc::new(WriterSet {
                db: db.clone(),
                chunk_lines: config.chunk_lines,
                metrics: config.metrics,
                inboxes,
                writers: Mutex::new(writers),
                next_session: AtomicU64::new(0),
            }),
        })
    }

    /// Opens a new ingest session on these writers: a
    /// [`StreamIngestor`] whose parsing runs on whichever thread feeds
    /// it. Spawns nothing and never blocks. Records missing a timestamp
    /// take `default_ts` plus their 0-based line index in this session.
    pub fn session(&self, default_ts: i64) -> StreamIngestor {
        let id = self.set.next_session.fetch_add(1, Ordering::Relaxed);
        StreamIngestor {
            set: Arc::clone(&self.set),
            own: None,
            shared: Arc::new(Shared::new(id, self.set.inboxes.len())),
            default_ts,
            assembler: LineAssembler::new(),
            pending_lines: Vec::new(),
            chunk_start: 0,
            line_count: 0,
            backlog: VecDeque::new(),
            unsent: Vec::new(),
            parse_failures: Vec::new(),
            closed: false,
            scratch: Vec::new(),
        }
    }

    /// Stops every writer once it has applied what is already in its
    /// inbox, and joins them. Idempotent; later sends to the set panic.
    pub fn stop(&self) {
        for inbox in &self.set.inboxes {
            // Fails only for a writer that already exited.
            let _ = inbox.send(ToWriter::Stop);
        }
        let writers = std::mem::take(&mut *self.set.writers.lock().expect("writer set poisoned"));
        for writer in writers {
            // A panicked writer already surfaced to the sessions it
            // served; stopping the rest must not double-panic.
            let _ = writer.join();
        }
    }
}

impl Drop for ShardWriters {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A long-running ingest session: feed byte pieces as they arrive, poll
/// a live [`StreamProgress`], and [`finish`](StreamIngestor::finish) to
/// flush the session's reorder stages and collect its final
/// [`IngestReport`].
///
/// A session parses on the thread that feeds it and hands the points to
/// a [`ShardWriters`] set: its own, built by [`StreamIngestor::new`] and
/// stopped when the session ends, or a shared one
/// ([`ShardWriters::session`]).
///
/// [`feed`](StreamIngestor::feed) blocks when a writer's bounded inbox
/// is full — backpressure reaches the byte source, so a handle fed from
/// a socket holds bounded memory no matter how fast data arrives.
/// Dropping the handle without `finish` applies every complete line
/// already fed (the drop blocks until the writers apply it and flush the
/// session's reorder stages) but abandons the report and discards a
/// trailing partial line; [`abort`](StreamIngestor::abort) does the same
/// while handing the report back.
#[derive(Debug)]
pub struct StreamIngestor {
    set: Arc<WriterSet>,
    /// The writer set [`StreamIngestor::new`] built for this session
    /// alone; dropping it with the session stops its writers.
    own: Option<ShardWriters>,
    shared: Arc<Shared>,
    default_ts: i64,
    assembler: LineAssembler,
    /// Lines accumulated toward the next chunk.
    pending_lines: Vec<Line>,
    /// Global 0-based line index of `pending_lines[0]`.
    chunk_start: usize,
    line_count: usize,
    /// Sealed chunks not yet parsed and handed to the writers. The
    /// blocking [`StreamIngestor::feed`] path drains this immediately
    /// (so it holds at most one chunk transiently); the non-blocking
    /// [`StreamIngestor::try_feed`] path lets it grow while an inbox is
    /// full and relies on the caller to stop reading its source until
    /// [`StreamIngestor::try_pump`] reports it empty.
    backlog: VecDeque<Chunk>,
    /// The parsed front chunk's batches an inbox has not accepted yet,
    /// as `(shard, batch)`.
    unsent: Vec<(usize, ToWriter)>,
    /// Malformed lines so far, in line order.
    parse_failures: Vec<ParseFailure>,
    /// The writers were told the session ended.
    closed: bool,
    /// Scratch for lines completed by one `feed` call.
    scratch: Vec<Line>,
}

impl StreamIngestor {
    /// Builds a session with a writer set of its own (one writer thread
    /// per shard of `db`, stopped when the session ends). Returns `Err`
    /// only for an invalid `config` (or a failed thread spawn).
    pub fn new(
        db: &ShardedDb,
        default_ts: i64,
        config: IngestConfig,
    ) -> Result<Self, TsdbError> {
        let writers = ShardWriters::new(db, config)?;
        let mut session = writers.session(default_ts);
        session.own = Some(writers);
        Ok(session)
    }

    /// Feeds the next piece of the byte stream. Pieces may split
    /// anywhere — lines are reassembled across calls. Blocks when a
    /// writer's bounded inbox is full (backpressure).
    pub fn feed(&mut self, bytes: &[u8]) {
        let mut completed = std::mem::take(&mut self.scratch);
        self.assemble(bytes, &mut completed);
        for line in completed.drain(..) {
            self.push_line(line);
            // Send chunks as the lines arrive (not after the whole
            // piece) so memory stays bounded by the inboxes even when
            // one piece is an entire document.
            if !self.backlog.is_empty() {
                self.pump_blocking().expect(WRITERS_GONE);
            }
        }
        self.scratch = completed;
    }

    /// Non-blocking [`StreamIngestor::feed`]: assembles complete lines
    /// out of `bytes`, seals full chunks onto an internal backlog, and
    /// offers backlogged chunks to the writers without ever blocking
    /// the caller.
    ///
    /// All of `bytes` is always consumed. The return value is
    /// [`StreamIngestor::try_pump`]'s: `true` when the backlog is empty
    /// (everything fed has been handed to the writers), `false` when an
    /// inbox is still full. A caller that stops reading its source
    /// while this returns `false` — the event-loop server does — keeps
    /// memory bounded by one read's worth of sealed chunks, preserving
    /// end-to-end backpressure without a blocked thread.
    pub fn try_feed(&mut self, bytes: &[u8]) -> bool {
        let mut completed = std::mem::take(&mut self.scratch);
        self.assemble(bytes, &mut completed);
        for line in completed.drain(..) {
            self.push_line(line);
        }
        self.scratch = completed;
        self.try_pump()
    }

    /// Parses backlogged chunks and offers their batches to the writers
    /// without blocking. Returns `true` once the backlog is empty,
    /// `false` if an inbox is still full (retry shortly — writer
    /// progress, not new input, is what frees a slot).
    ///
    /// # Panics
    ///
    /// Panics if a writer has stopped, which only happens when it
    /// panicked or its set was stopped — the same contract as
    /// [`StreamIngestor::feed`].
    pub fn try_pump(&mut self) -> bool {
        loop {
            while let Some((shard, batch)) = self.unsent.pop() {
                match self.set.inboxes[shard].try_send(batch) {
                    Ok(()) => {}
                    Err(TrySendError::Full(batch)) => {
                        self.unsent.push((shard, batch));
                        return false;
                    }
                    Err(TrySendError::Disconnected(_)) => panic!("{WRITERS_GONE}"),
                }
            }
            let Some(chunk) = self.backlog.pop_front() else {
                return true;
            };
            self.unsent = self.parse(chunk);
        }
    }

    /// Seals the lines accumulated toward the next chunk as a short
    /// chunk and offers the backlog to the writers, like
    /// [`StreamIngestor::try_pump`] (whose return value and panic this
    /// shares). For a source that has gone quiet: without it, lines
    /// short of a full chunk would wait for later input — or the end of
    /// the stream — before reaching the store. Where chunks are cut
    /// never changes what is ingested; an unterminated trailing line
    /// stays with the assembler.
    pub fn try_flush(&mut self) -> bool {
        self.seal_chunk();
        self.try_pump()
    }

    /// A live snapshot of the session's counters.
    pub fn progress(&self) -> StreamProgress {
        self.shared.snapshot()
    }

    /// A handle reading the same live counters from any thread, for an
    /// observer that must not wait for the feeding thread's next call —
    /// writers keep applying (and counting) after the feeder goes idle.
    pub fn watch_progress(&self) -> ProgressWatch {
        ProgressWatch(Arc::clone(&self.shared))
    }

    /// Ends the stream after a source failure: every *complete* line
    /// already fed is applied and every reorder stage flushed, but a
    /// trailing partial line — known to be truncated, not a real
    /// record — is discarded instead of ingested. Returns the report of
    /// what did land.
    pub fn abort(mut self) -> IngestReport {
        self.assembler = LineAssembler::new();
        self.finish()
    }

    /// Ends the stream: the trailing unterminated line (if any) becomes
    /// the last line, the writers apply everything fed and flush the
    /// session's reorder stages, and the final deterministic
    /// [`IngestReport`] is returned.
    pub fn finish(mut self) -> IngestReport {
        let mut tail = std::mem::take(&mut self.scratch);
        self.assembler.finish(&mut tail);
        for line in tail.drain(..) {
            self.push_line(line);
        }
        let mut report = self.close(true);
        report.reordered = self.shared.reordered.load(Ordering::Acquire);
        report.dropped_late = self.shared.dropped_late.load(Ordering::Acquire);
        report.dropped_duplicate = self.shared.dropped_duplicate.load(Ordering::Acquire);
        report.write_failures.sort_by_key(|f| f.line);
        report
    }

    /// Sends the pending chunk, tells every writer the session ended
    /// (each flushes the session's reorder stage and replies with what
    /// it wrote), and collects the replies. Shared by
    /// [`StreamIngestor::finish`] and `Drop`; idempotent. `Drop` passes
    /// `propagate_panics: false` so a dead writer does not abort the
    /// process with a double panic.
    fn close(&mut self, propagate_panics: bool) -> IngestReport {
        if std::mem::replace(&mut self.closed, true) {
            return IngestReport::default();
        }
        self.seal_chunk();
        let (reply, replies) = mpsc::channel();
        let sent = self.pump_blocking().and_then(|()| {
            self.set.inboxes.iter().try_for_each(|inbox| {
                let close = ToWriter::Close {
                    session: self.shared.id,
                    reply: reply.clone(),
                };
                inbox.send(close).map_err(drop)
            })
        });
        // Every reply sender is now inside a writer's inbox (or was
        // dropped with a failed send), so the loop ends on its own.
        drop(reply);
        let mut report = IngestReport {
            lines: self.line_count,
            parse_failures: std::mem::take(&mut self.parse_failures),
            ..IngestReport::default()
        };
        let mut replied = 0;
        for (written, failures) in replies {
            replied += 1;
            report.points += written;
            report.write_failures.extend(failures);
        }
        if propagate_panics && (sent.is_err() || replied < self.set.inboxes.len()) {
            panic!("{WRITERS_GONE}");
        }
        report
    }

    /// Runs the line assembler over one byte piece, timing it into the
    /// assemble-stage histogram when metrics are attached (the timer is
    /// skipped entirely otherwise — the uninstrumented path pays
    /// nothing). Backpressure waits in `feed` happen outside this, so
    /// the histogram reflects reassembly cost, not queue waits.
    fn assemble(&mut self, bytes: &[u8], completed: &mut Vec<Line>) {
        match &self.set.metrics {
            None => self.assembler.push(bytes, completed),
            Some(metrics) => {
                let started = Instant::now();
                self.assembler.push(bytes, completed);
                metrics.assemble.observe_duration(started.elapsed());
            }
        }
    }

    fn push_line(&mut self, line: Line) {
        if self.pending_lines.is_empty() {
            self.chunk_start = self.line_count;
        }
        self.line_count += 1;
        self.shared.lines.fetch_add(1, Ordering::Release);
        self.pending_lines.push(line);
        if self.pending_lines.len() == self.set.chunk_lines {
            self.seal_chunk();
        }
    }

    /// Moves the pending lines onto the backlog as one sealed chunk
    /// (no-op with no pending lines). Sending is a separate step so the
    /// blocking and non-blocking paths share this.
    fn seal_chunk(&mut self) {
        if self.pending_lines.is_empty() {
            return;
        }
        self.backlog.push_back(Chunk {
            start_line: self.chunk_start,
            lines: std::mem::take(&mut self.pending_lines),
        });
        self.shared.chunks.fetch_add(1, Ordering::Release);
    }

    /// Parses and blocking-sends every backlogged chunk — the
    /// backpressure point of [`StreamIngestor::feed`]. A send fails only
    /// if a writer stopped.
    fn pump_blocking(&mut self) -> Result<(), ()> {
        loop {
            while let Some((shard, batch)) = self.unsent.pop() {
                self.set.inboxes[shard].send(batch).map_err(drop)?;
            }
            let Some(chunk) = self.backlog.pop_front() else {
                return Ok(());
            };
            self.unsent = self.parse(chunk);
        }
    }

    /// Parses one chunk on the calling thread and routes its points to
    /// one batch per shard, as `(shard, batch)`. Parse failures are
    /// recorded on the session.
    fn parse(&mut self, chunk: Chunk) -> Vec<(usize, ToWriter)> {
        let started = self.set.metrics.as_ref().map(|_| Instant::now());
        let shards = self.set.inboxes.len();
        let mut per_shard: Vec<Batch> = (0..shards).map(|_| Batch::default()).collect();
        let mut key_index: Vec<HashMap<u64, usize>> = vec![HashMap::new(); shards];
        for (offset, raw) in chunk.lines.iter().enumerate() {
            let idx = chunk.start_line + offset;
            let line_no = idx + 1;
            let parsed = match raw {
                Line::Text(text) => {
                    let line = text.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    parse_line(line, line_no, fallback_ts(self.default_ts, idx))
                }
                Line::TooLong => Err(TsdbError::Parse {
                    line: line_no,
                    reason: LINE_TOO_LONG,
                }),
            };
            match parsed {
                Ok(points) => {
                    for point in points {
                        let shard = self.set.db.shard_of(&point.key);
                        per_shard[shard].push(line_no, point, &mut key_index[shard]);
                    }
                }
                Err(TsdbError::Parse { line, reason }) => {
                    self.shared.parse_failed.fetch_add(1, Ordering::Release);
                    self.parse_failures.push(ParseFailure { line, reason });
                }
                // parse_line only constructs Parse errors; anything else
                // would be a bug worth surfacing loudly.
                Err(other) => panic!("parse_line returned a non-parse error: {other:?}"),
            }
        }
        if let (Some(metrics), Some(started)) = (&self.set.metrics, started) {
            metrics.parse.observe_duration(started.elapsed());
        }
        per_shard
            .into_iter()
            .enumerate()
            .map(|(shard, batch)| {
                let session = Arc::clone(&self.shared);
                (shard, ToWriter::Batch { session, batch })
            })
            .collect()
    }
}

impl Drop for StreamIngestor {
    /// Applies every complete line already fed (blocking until the
    /// writers apply it and flush the session's reorder stages),
    /// discarding the report and any trailing partial line. A no-op
    /// after [`StreamIngestor::finish`] / [`StreamIngestor::abort`].
    fn drop(&mut self) {
        self.close(false);
    }
}

/// One session's state inside one shard writer.
struct WriterSession {
    shared: Arc<Shared>,
    reorder: Option<ReorderBuffer<ShardSink>>,
    /// Reorder statistics already added to the shared counters.
    published: ReorderStats,
    written: usize,
    failures: Vec<WriteFailure>,
}

/// The body of one shard writer: applies each session's batches in the
/// order they arrive, through a reorder stage per session when
/// `lateness` is set, until the set stops (or every inbox sender is
/// gone). Sessions still open then are flushed, their reports dropped.
fn shard_writer(
    inbox: Receiver<ToWriter>,
    sink: ShardSink,
    lateness: Option<i64>,
    metrics: Option<IngestMetrics>,
) {
    let mut sessions: HashMap<u64, WriterSession> = HashMap::new();
    for message in inbox.iter() {
        match message {
            ToWriter::Batch { session, batch } => {
                let state = sessions.entry(session.id).or_insert_with(|| WriterSession {
                    reorder: lateness.map(|l| {
                        ReorderBuffer::new(sink.clone(), l)
                            .expect("lateness validated by IngestConfig::validate")
                    }),
                    shared: session,
                    published: ReorderStats::default(),
                    written: 0,
                    failures: Vec::new(),
                });
                apply_batch(&sink, batch, state, metrics.as_ref());
                publish_reorder(sink.idx, state);
                state.shared.applied[sink.idx].fetch_add(1, Ordering::Release);
            }
            ToWriter::Close { session, reply } => {
                let outcome = sessions
                    .remove(&session)
                    .map_or_else(Default::default, |state| {
                        close_session(sink.idx, state, metrics.as_ref())
                    });
                // The session may have stopped waiting (it panicked).
                let _ = reply.send(outcome);
            }
            ToWriter::Stop => break,
        }
    }
    for (_, state) in sessions.drain() {
        close_session(sink.idx, state, metrics.as_ref());
    }
}

/// Applies one batch's points through the session's reorder stage (or
/// straight to the shard sink, which also carries the optional WAL),
/// updating the session's counters. With metrics attached, the batch is
/// timed once: into the reorder histogram when a reorder stage is in
/// the path (its offers include the store writes they release), into
/// the apply histogram for direct writes.
fn apply_batch(
    sink: &ShardSink,
    batch: Batch,
    state: &mut WriterSession,
    metrics: Option<&IngestMetrics>,
) {
    let batch_started = metrics.map(|_| Instant::now());
    let mut batch_written = 0usize;
    for (line, key, point) in batch.points {
        let key = &batch.keys[key];
        let result = match state.reorder.as_mut() {
            None => sink.write_point(key, point).map(|()| 1),
            Some(rb) => rb.offer(key, point),
        };
        match result {
            Ok(released) => batch_written += released,
            Err(error) => {
                state.shared.write_failed.fetch_add(1, Ordering::Release);
                state.failures.push(WriteFailure { line, error });
            }
        }
    }
    if let (Some(metrics), Some(started)) = (metrics, batch_started) {
        let stage = if state.reorder.is_some() {
            &metrics.reorder
        } else {
            &metrics.apply
        };
        stage.observe_duration(started.elapsed());
    }
    state.written += batch_written;
    state.shared.points.fetch_add(batch_written, Ordering::Release);
}

/// Ends one session on one writer: releases everything its reorder
/// stage still holds back (pure release into storage, so the time lands
/// in the apply histogram) and returns the points written and the
/// rejected writes.
fn close_session(
    shard_idx: usize,
    mut state: WriterSession,
    metrics: Option<&IngestMetrics>,
) -> (usize, Vec<WriteFailure>) {
    if let Some(rb) = state.reorder.as_mut() {
        let flush_started = metrics.map(|_| Instant::now());
        let released = rb
            .flush()
            .expect("shard flush failed on a validated sink");
        if let (Some(m), Some(started)) = (metrics, flush_started) {
            m.apply.observe_duration(started.elapsed());
        }
        state.written += released;
        state.shared.points.fetch_add(released, Ordering::Release);
    }
    publish_reorder(shard_idx, &mut state);
    (state.written, state.failures)
}

/// Publishes the delta of a session's reorder statistics on this shard
/// into its shared live counters (no-op without a reorder stage).
fn publish_reorder(shard_idx: usize, state: &mut WriterSession) {
    let Some(rb) = &state.reorder else { return };
    let stats = rb.stats();
    let (shared, published) = (&state.shared, &state.published);
    shared
        .reordered
        .fetch_add(stats.reordered - published.reordered, Ordering::Release);
    shared
        .dropped_late
        .fetch_add(stats.dropped_late - published.dropped_late, Ordering::Release);
    shared.dropped_duplicate.fetch_add(
        stats.dropped_duplicate - published.dropped_duplicate,
        Ordering::Release,
    );
    shared.pending_reorder[shard_idx].store(rb.pending(), Ordering::Release);
    state.published = stats;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Tsdb, TsdbConfig};
    use crate::line_protocol;
    use crate::query::RangeQuery;
    use crate::sharded::ShardedConfig;
    use crate::tags::{Selector, SeriesKey};

    /// A document with several interleaved series, explicit timestamps.
    fn doc(hosts: usize, points: i64) -> String {
        let mut out = String::new();
        for t in 0..points {
            for h in 0..hosts {
                out.push_str(&format!(
                    "cpu,host=h{h} usage={},idle={} {t}\n",
                    (t as f64 * 0.1).sin() + h as f64,
                    100 - h as i64,
                ));
            }
        }
        out
    }

    fn configs() -> Vec<IngestConfig> {
        vec![
            IngestConfig::default(),
            IngestConfig {
                queue_depth: 1,
                chunk_lines: 1,
                lateness: None,
                ..IngestConfig::default()
            },
            IngestConfig {
                queue_depth: 2,
                chunk_lines: 3,
                lateness: None,
                ..IngestConfig::default()
            },
        ]
    }

    fn full() -> RangeQuery {
        RangeQuery::raw(i64::MIN + 1, i64::MAX)
    }

    #[test]
    fn invalid_configs_rejected() {
        let db = ShardedDb::new();
        for config in [
            IngestConfig {
                queue_depth: 0,
                ..IngestConfig::default()
            },
            IngestConfig {
                chunk_lines: 0,
                ..IngestConfig::default()
            },
            IngestConfig {
                lateness: Some(-1),
                ..IngestConfig::default()
            },
        ] {
            let err = ingest_reader(&db, "cpu v=1 1".as_bytes(), 0, &config).unwrap_err();
            assert!(matches!(err, TsdbError::InvalidParameter { .. }));
        }
    }

    #[test]
    fn empty_document_reports_zeroes() {
        let db = ShardedDb::new();
        let report = ingest_reader(&db, "".as_bytes(), 0, &IngestConfig::default()).unwrap();
        assert_eq!(report, IngestReport::default());
        assert_eq!(db.series_count(), 0);
    }

    #[test]
    fn pipeline_matches_serial_ingest() {
        let text = doc(5, 200);
        for config in configs() {
            let sharded = ShardedDb::with_config(ShardedConfig::new(4, 32));
            let report = ingest_reader(&sharded, text.as_bytes(), 0, &config).unwrap();
            let oracle = Tsdb::with_config(TsdbConfig { block_capacity: 32 });
            let n = line_protocol::ingest(&oracle, &text, 0).unwrap();
            assert!(report.is_clean(), "{report:?}");
            assert_eq!(report.points, n);
            assert_eq!(report.lines, text.lines().count());
            let sel = Selector::any();
            let q = RangeQuery::raw(i64::MIN, i64::MAX);
            assert_eq!(
                sharded.query_selector(&sel, q).unwrap(),
                oracle.query_selector(&sel, q).unwrap(),
                "config {config:?}"
            );
            sharded.flush().unwrap();
            oracle.flush().unwrap();
            assert_eq!(sharded.stats(), oracle.stats());
        }
    }

    #[test]
    fn stage_metrics_observe_every_pipeline_stage() {
        let registry = crate::obs::Registry::new();
        let metrics = IngestMetrics::new(&registry);
        let text = doc(4, 50);
        let lines = text.lines().count() as u64;

        // Without a reorder stage, writer batches land in `apply`.
        let db = ShardedDb::with_config(ShardedConfig::new(2, 32));
        let config = IngestConfig {
            chunk_lines: 16,
            metrics: Some(metrics.clone()),
            ..IngestConfig::default()
        };
        let report = ingest_reader(&db, text.as_bytes(), 0, &config).unwrap();
        assert!(report.is_clean(), "{report:?}");
        let chunks = lines.div_ceil(16);
        assert!(metrics.assemble.snapshot().count >= 1);
        assert_eq!(metrics.parse.snapshot().count, chunks);
        // One batch per (applied chunk, shard): 2 shards.
        assert_eq!(metrics.apply.snapshot().count, chunks * 2);
        assert_eq!(metrics.reorder.snapshot().count, 0);

        // With a reorder stage, batches land in `reorder` and the
        // end-of-stream flush (one per shard) lands in `apply`.
        let apply_before = metrics.apply.snapshot().count;
        let db = ShardedDb::with_config(ShardedConfig::new(2, 32));
        let config = IngestConfig {
            chunk_lines: 16,
            lateness: Some(10),
            metrics: Some(metrics.clone()),
            ..IngestConfig::default()
        };
        ingest_reader(&db, text.as_bytes(), 0, &config).unwrap();
        assert_eq!(metrics.reorder.snapshot().count, chunks * 2);
        assert_eq!(metrics.apply.snapshot().count, apply_before + 2);
    }

    #[test]
    fn fallback_timestamps_use_global_line_index() {
        // Chunked parsing must produce the same fallback timestamps as
        // the serial path: default_ts + 0-based line index.
        let text = "a v=1\nb v=2\n\na v=3\n# note\nb v=4\n";
        let config = IngestConfig {
            queue_depth: 1,
            chunk_lines: 2,
            lateness: None,
            ..IngestConfig::default()
        };
        let sharded = ShardedDb::with_config(ShardedConfig::new(3, 16));
        ingest_reader(&sharded, text.as_bytes(), 1000, &config).unwrap();
        let oracle = Tsdb::new();
        line_protocol::ingest(&oracle, text, 1000).unwrap();
        let q = RangeQuery::raw(i64::MIN, i64::MAX);
        for key in ["a.v", "b.v"] {
            let key = SeriesKey::metric(key);
            assert_eq!(
                sharded.query(&key, q).unwrap(),
                oracle.query(&key, q).unwrap()
            );
        }
    }

    #[test]
    fn malformed_lines_skipped_and_reported_in_order() {
        let text = "cpu v=1 1\nbogus\ncpu v=2 2\ncpu v=nope 3\ncpu v=3 4\n";
        let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
        let report =
            ingest_reader(&db, text.as_bytes(), 0, &IngestConfig::default()).unwrap();
        assert_eq!(report.points, 3);
        assert_eq!(
            report.parse_failures,
            vec![
                ParseFailure {
                    line: 2,
                    reason: "missing field set"
                },
                ParseFailure {
                    line: 4,
                    reason: "field value is not numeric"
                },
            ]
        );
        assert!(report.write_failures.is_empty());
        let key = SeriesKey::metric("cpu.v");
        assert_eq!(
            db.query(&key, RangeQuery::raw(0, 10)).unwrap().len(),
            3
        );
    }

    #[test]
    fn an_overlong_line_fails_alone_at_its_own_line_number() {
        let long = "x".repeat(crate::line_protocol::MAX_LINE_BYTES + 1);
        let text = format!("cpu v=1 1\n{long}\ncpu v=2 2\ncpu v=3\n");
        let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
        let report = ingest_reader(&db, text.as_bytes(), 100, &IngestConfig::default()).unwrap();
        assert_eq!((report.lines, report.points), (4, 3));
        assert_eq!(
            report.parse_failures,
            vec![ParseFailure {
                line: 2,
                reason: "line exceeds 65536 bytes"
            }]
        );
        // Line 4 takes its fallback timestamp from its own line index.
        let stored = db
            .query(&SeriesKey::metric("cpu.v"), RangeQuery::raw(0, 200))
            .unwrap();
        assert_eq!(stored.last().map(|p| p.timestamp), Some(103));
    }

    #[test]
    fn rejected_writes_reported_with_line_numbers() {
        // Line 3 goes backwards in time for cpu.v; line 4 is NaN. Both
        // are deterministic rejections regardless of thread interleaving.
        let text = "cpu v=1 10\ncpu v=2 20\ncpu v=3 5\ncpu v=NaN 30\ncpu v=4 40\n";
        for config in configs() {
            let db = ShardedDb::with_config(ShardedConfig::new(3, 16));
            let report = ingest_reader(&db, text.as_bytes(), 0, &config).unwrap();
            assert_eq!(report.points, 3, "config {config:?}");
            assert!(report.parse_failures.is_empty());
            assert_eq!(report.write_failures.len(), 2);
            assert_eq!(report.write_failures[0].line, 3);
            assert!(matches!(
                report.write_failures[0].error,
                TsdbError::OutOfOrder { last: 20, got: 5 }
            ));
            assert_eq!(report.write_failures[1].line, 4);
            assert!(matches!(
                report.write_failures[1].error,
                TsdbError::NonFiniteValue { .. }
            ));
        }
    }

    #[test]
    fn report_is_deterministic_across_configs_and_reruns() {
        let mut text = doc(4, 50);
        text.push_str("junk line\ncpu,host=h0 usage=1 0\n"); // parse + write failure
        let mut reports = Vec::new();
        for config in configs() {
            let db = ShardedDb::with_config(ShardedConfig::new(5, 8));
            reports.push(ingest_reader(&db, text.as_bytes(), 0, &config).unwrap());
        }
        for pair in reports.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn single_shard_pipeline_still_works() {
        let text = doc(3, 40);
        let db = ShardedDb::with_config(ShardedConfig::new(1, 16));
        let report = ingest_reader(&db, text.as_bytes(), 0, &IngestConfig::default()).unwrap();
        assert!(report.is_clean());
        assert_eq!(db.series_count(), 6);
    }

    #[test]
    fn reader_ingest_matches_in_memory_pipeline() {
        let text = doc(4, 120);
        let config = IngestConfig {
            queue_depth: 2,
            chunk_lines: 7,
            lateness: None,
            ..IngestConfig::default()
        };
        let streamed = ShardedDb::with_config(ShardedConfig::new(3, 32));
        let report_r = ingest_reader(
            &streamed,
            std::io::Cursor::new(text.as_bytes()),
            0,
            &config,
        )
        .unwrap();
        let in_memory = ShardedDb::with_config(ShardedConfig::new(3, 32));
        let mut ingestor = StreamIngestor::new(&in_memory, 0, config).unwrap();
        ingestor.feed(text.as_bytes());
        let report_m = ingestor.finish();
        assert_eq!(report_r, report_m);
        assert_eq!(
            streamed.query_selector(&Selector::any(), full()).unwrap(),
            in_memory.query_selector(&Selector::any(), full()).unwrap()
        );
    }

    #[test]
    fn incremental_feeds_split_anywhere_match_whole_document() {
        // Feed one byte at a time: every line boundary, float, and escape
        // is split mid-token at some point.
        let mut text = doc(3, 30);
        text.push_str("tail v=9"); // no trailing newline
        let config = IngestConfig {
            queue_depth: 1,
            chunk_lines: 3,
            lateness: None,
            ..IngestConfig::default()
        };
        let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
        let mut ing = StreamIngestor::new(&db, 0, config.clone()).unwrap();
        for b in text.as_bytes() {
            ing.feed(std::slice::from_ref(b));
        }
        let report = ing.finish();
        let whole = ShardedDb::with_config(ShardedConfig::new(2, 16));
        let whole_report = ingest_reader(&whole, text.as_bytes(), 0, &config).unwrap();
        assert_eq!(report, whole_report);
        assert_eq!(report.lines, text.lines().count());
        assert_eq!(
            db.query_selector(&Selector::any(), full()).unwrap(),
            whole.query_selector(&Selector::any(), full()).unwrap()
        );
    }

    #[test]
    fn lateness_repairs_out_of_order_stream_without_failures() {
        // Each series' timestamps arrive jittered by at most 2 slots;
        // lateness 5 covers it — so the strict engine sees only in-order
        // writes and the report is clean.
        let text = "m v=3 3\nm v=1 1\nm v=2 2\nm v=7 7\nm v=5 5\nm v=4 4\n\
                    m v=9 9\nm v=6 6\nm v=8 8\nm v=12 12\nm v=10 10\nm v=11 11\n";
        for chunk_lines in [1, 4, 100] {
            let config = IngestConfig {
                queue_depth: 2,
                chunk_lines,
                lateness: Some(5),
                ..IngestConfig::default()
            };
            let db = ShardedDb::with_config(ShardedConfig::new(2, 4));
            let report = ingest_reader(&db, text.as_bytes(), 0, &config).unwrap();
            assert!(report.is_clean(), "{report:?}");
            assert_eq!(report.points, 12);
            assert_eq!(report.dropped_late, 0);
            assert_eq!(report.dropped_duplicate, 0);
            // 1, 2, 5, 4, 6, 8, 10, 11 arrive after a later timestamp:
            // 8 repaired reorderings, deterministically.
            assert_eq!(report.reordered, 8);
            let got = db.query(&SeriesKey::metric("m.v"), full()).unwrap();
            let want: Vec<_> = (1..=12).map(|t| DataPoint::new(t, t as f64)).collect();
            assert_eq!(got, want, "chunk_lines {chunk_lines}");
        }
    }

    #[test]
    fn lateness_drops_are_counted_not_failed() {
        // 100 then 10: 10 is 90 late, beyond lateness 5 — dropped and
        // counted, not a write failure. The NaN still fails per line.
        let text = "m v=1 100\nm v=2 10\nm v=NaN 200\nm v=3 150\n";
        let config = IngestConfig {
            lateness: Some(5),
            ..IngestConfig::default()
        };
        let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
        let report = ingest_reader(&db, text.as_bytes(), 0, &config).unwrap();
        assert_eq!(report.points, 2);
        assert_eq!(report.dropped_late, 1);
        assert_eq!(report.write_failures.len(), 1);
        assert_eq!(report.write_failures[0].line, 3);
        assert!(matches!(
            report.write_failures[0].error,
            TsdbError::NonFiniteValue { .. }
        ));
        let got = db.query(&SeriesKey::metric("m.v"), full()).unwrap();
        assert_eq!(got, vec![DataPoint::new(100, 1.0), DataPoint::new(150, 3.0)]);
    }

    #[test]
    fn finish_flushes_points_still_inside_the_lateness_window() {
        // All points are within lateness of the stream end; without the
        // finish-flush they would be lost.
        let text = "m v=1 1\nm v=2 2\nm v=3 3\n";
        let config = IngestConfig {
            lateness: Some(1_000),
            ..IngestConfig::default()
        };
        let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
        let report = ingest_reader(&db, text.as_bytes(), 0, &config).unwrap();
        assert_eq!(report.points, 3);
        assert_eq!(
            db.query(&SeriesKey::metric("m.v"), full()).unwrap().len(),
            3
        );
    }

    #[test]
    fn live_progress_counts_lines_and_settles_on_finish() {
        let text = doc(2, 40);
        let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
        let mut ing = StreamIngestor::new(
            &db,
            0,
            IngestConfig {
                queue_depth: 2,
                chunk_lines: 4,
                lateness: Some(3),
                ..IngestConfig::default()
            },
        )
        .unwrap();
        let half = text.len() / 2;
        ing.feed(&text.as_bytes()[..half]);
        let mid = ing.progress();
        assert!(mid.lines > 0, "chunker counted completed lines");
        assert!(mid.lines <= text.lines().count());
        ing.feed(&text.as_bytes()[half..]);
        let report = ing.finish();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.lines, text.lines().count());
        assert_eq!(report.points, 2 * 40 * 2);
    }

    #[test]
    fn reader_errors_surface_as_io_after_clean_shutdown() {
        struct FailingReader {
            fed: bool,
        }
        impl Read for FailingReader {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.fed {
                    Err(std::io::Error::other("connection reset"))
                } else {
                    self.fed = true;
                    // The last record is truncated mid-value by the
                    // failure: "m v=99" was meant to be "m v=999 3\n".
                    let text = b"m v=1 1\nm v=2 2\nm v=99";
                    buf[..text.len()].copy_from_slice(text);
                    Ok(text.len())
                }
            }
        }
        let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
        let err = ingest_reader(
            &db,
            FailingReader { fed: false },
            0,
            &IngestConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TsdbError::Io { .. }), "{err:?}");
        // Every complete line fed before the failure was applied; the
        // truncated tail was discarded, not ingested as a bogus point.
        let got = db.query(&SeriesKey::metric("m.v"), full()).unwrap();
        assert_eq!(got, vec![DataPoint::new(1, 1.0), DataPoint::new(2, 2.0)]);
    }

    #[test]
    fn abort_applies_complete_lines_and_discards_the_partial() {
        let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
        let config = IngestConfig {
            lateness: Some(10),
            ..IngestConfig::default()
        };
        let mut ing = StreamIngestor::new(&db, 0, config).unwrap();
        ing.feed(b"m v=2 2\nm v=1 1\nm v=3");
        let report = ing.abort();
        assert_eq!(report.points, 2, "complete lines flushed, partial dropped");
        assert_eq!(report.lines, 2);
        assert_eq!(report.reordered, 1);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(
            db.query(&SeriesKey::metric("m.v"), full()).unwrap(),
            vec![DataPoint::new(1, 1.0), DataPoint::new(2, 2.0)]
        );
    }

    #[test]
    fn report_and_progress_display_are_stable_one_liners() {
        let text = "m v=2 2\nm v=1 1\nbogus\nm v=3 3\n";
        let config = IngestConfig {
            lateness: Some(10),
            ..IngestConfig::default()
        };
        let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
        let report = ingest_reader(&db, text.as_bytes(), 0, &config).unwrap();
        assert_eq!(
            report.to_string(),
            "lines=4 points=3 reordered=1 dropped_late=0 dropped_duplicate=0 \
             parse_failures=1 write_failures=0 clean=false"
        );
        let progress = StreamProgress {
            lines: 40,
            points: 36,
            reordered: 2,
            in_flight_chunks: 3,
            pending_reorder: 12,
            ..StreamProgress::default()
        };
        assert_eq!(
            progress.to_string(),
            "lines=40 points=36 reordered=2 dropped_late=0 dropped_duplicate=0 \
             parse_failures=0 write_failures=0 in_flight_chunks=3 pending_reorder=12"
        );
        // One line, no embedded newlines: safe for log pipelines.
        assert!(!report.to_string().contains('\n'));
        assert!(!progress.to_string().contains('\n'));
    }

    #[test]
    fn try_feed_then_finish_matches_the_blocking_path() {
        // Tiny inboxes and pieces of many chunks each guarantee try_pump
        // actually hits the Full path: the backlog grows while the
        // writers lag, and finish() must still flush everything in order.
        let text = doc(3, 80);
        let config = IngestConfig {
            queue_depth: 1,
            chunk_lines: 2,
            lateness: None,
            ..IngestConfig::default()
        };
        let nonblocking = ShardedDb::with_config(ShardedConfig::new(3, 16));
        let mut ing = StreamIngestor::new(&nonblocking, 0, config.clone()).unwrap();
        let mut deferred = false;
        for piece in text.as_bytes().chunks(997) {
            if !ing.try_feed(piece) {
                deferred = true;
            }
        }
        let report = ing.finish();
        assert!(deferred, "tiny queue never filled — Full path untested");
        let blocking = ShardedDb::with_config(ShardedConfig::new(3, 16));
        let oracle_report = ingest_reader(&blocking, text.as_bytes(), 0, &config).unwrap();
        assert_eq!(report, oracle_report);
        assert_eq!(
            nonblocking.query_selector(&Selector::any(), full()).unwrap(),
            blocking.query_selector(&Selector::any(), full()).unwrap()
        );
    }

    #[test]
    fn try_pump_drains_the_backlog_without_new_input() {
        let text = doc(2, 50);
        let config = IngestConfig {
            queue_depth: 1,
            chunk_lines: 1,
            lateness: Some(5),
            ..IngestConfig::default()
        };
        let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
        let mut ing = StreamIngestor::new(&db, 0, config).unwrap();
        ing.try_feed(text.as_bytes());
        // No further input: writer progress alone must free inbox slots
        // until the backlog drains.
        while !ing.try_pump() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let report = ing.finish();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.lines, text.lines().count());
        assert_eq!(report.points, 2 * 50 * 2);
    }

    #[test]
    fn dropping_the_handle_applies_every_complete_fed_line() {
        let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
        let config = IngestConfig {
            lateness: Some(10),
            ..IngestConfig::default()
        };
        {
            let mut ing = StreamIngestor::new(&db, 0, config).unwrap();
            // Fewer lines than chunk_lines (256): they sit in the
            // pending chunk until shutdown flushes it.
            ing.feed(b"m v=2 2\nm v=1 1\nm v=3");
        } // dropped without finish()
        assert_eq!(
            db.query(&SeriesKey::metric("m.v"), full()).unwrap(),
            vec![DataPoint::new(1, 1.0), DataPoint::new(2, 2.0)],
            "complete lines applied on drop, partial line discarded"
        );
    }

    #[test]
    fn apply_hook_fires_post_reorder_in_store_order() {
        // Shuffled input + a reorder stage: the hook must observe each
        // series' points in *applied* (timestamp) order, including the
        // buffered tail that only the end-of-stream flush releases —
        // never in arrival order.
        let mut lines: Vec<String> = (0..200).map(|t| format!("m v={t} {t}")).collect();
        // Reverse disjoint 16-line blocks: displacement is bounded well
        // inside the lateness window, so nothing is dropped.
        for block in lines.chunks_mut(16) {
            block.reverse();
        }
        let text = lines.join("\n");
        let seen: Arc<Mutex<Vec<(SeriesKey, DataPoint)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let config = IngestConfig {
            chunk_lines: 16,
            lateness: Some(64),
            apply_hook: Some(ApplyHook::new(move |key, point| {
                sink.lock().unwrap().push((key.clone(), point));
            })),
            ..IngestConfig::default()
        };
        let db = ShardedDb::with_config(ShardedConfig::new(4, 32));
        let report = ingest_reader(&db, text.as_bytes(), 0, &config).unwrap();
        assert!(report.is_clean(), "{report:?}");
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 200, "one hook call per applied point");
        let key = SeriesKey::metric("m.v");
        let observed: Vec<DataPoint> =
            seen.iter().map(|(k, p)| {
                assert_eq!(k, &key);
                *p
            }).collect();
        assert_eq!(
            observed,
            db.query(&key, full()).unwrap(),
            "hook order must equal store apply order"
        );
    }

    #[test]
    fn apply_hook_skips_rejected_points() {
        // Without a reorder stage, out-of-order points are rejected by
        // the engine; the hook must see only what the store accepted.
        let text = "m v=1 10\nm v=2 5\nm v=3 20\n";
        let count = Arc::new(AtomicUsize::new(0));
        let sink = Arc::clone(&count);
        let config = IngestConfig {
            apply_hook: Some(ApplyHook::new(move |_, _| {
                sink.fetch_add(1, Ordering::SeqCst);
            })),
            ..IngestConfig::default()
        };
        let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
        let report = ingest_reader(&db, text.as_bytes(), 0, &config).unwrap();
        assert_eq!(report.points, 2);
        assert_eq!(report.write_failures.len(), 1);
        assert_eq!(count.load(Ordering::SeqCst), 2, "rejected point never fired the hook");
    }
}
