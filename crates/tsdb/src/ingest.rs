//! Streaming concurrent line-protocol ingest for the sharded engine.
//!
//! The ASAP paper (§2) places the operator downstream of production TSDBs
//! fed by live telemetry; this module is the front-end that feeds a
//! [`ShardedDb`] at that rate. The serial [`crate::line_protocol::ingest`]
//! parses and writes one line at a time on the caller's thread; here the
//! document is a *byte stream* — any [`std::io::Read`], a socket, or
//! incremental [`StreamIngestor::feed`] calls — consumed in bounded
//! memory with both halves running concurrently and in parallel:
//!
//! ```text
//!  bytes ─▶ chunker ─▶ bounded work queue ─▶ parser worker 0 ─┐
//!           (line-                        ├─▶ parser worker 1 ─┤ Batch{chunk,pts}
//!            complete                     └─▶ parser worker P-1┘        │
//!            owned chunks)                                     per-shard bounded
//!                                                                  channels
//!                                       ┌─ reorder stage ─ shard writer 0 ◀┤
//!                                       ├─ reorder stage ─ shard writer 1 ◀┤
//!                                       └─ reorder stage ─ shard writer S-1◀┘
//! ```
//!
//! * the **chunker** reassembles complete lines out of arbitrary byte
//!   pieces (reader chunks may split mid-float, mid-escape, or mid-UTF-8
//!   code point — see [`crate::line_protocol`]'s `LineAssembler`) and
//!   groups them into owned chunks of [`IngestConfig::chunk_lines`]
//!   lines, each tagged with its global starting line index; a line past
//!   [`crate::line_protocol::MAX_LINE_BYTES`] is discarded as it arrives
//!   and reported as one [`ParseFailure`] at its own line number, so a
//!   newline-free stream cannot grow the chunker;
//! * chunks flow through a bounded **work queue** to the parser workers
//!   (shared queue — any idle worker takes the next chunk, replacing the
//!   old static chunk assignment that required knowing the whole document
//!   up front); each parsed point is routed by the engine's tag-aware
//!   shard hash and batched per `(chunk, shard)`; every chunk sends
//!   exactly one batch to every shard (empty batches included), so
//!   writers can apply chunks **strictly in stream order** with a small
//!   chunk-reorder buffer;
//! * all buffering is bounded: the work queue and per-shard channels hold
//!   [`IngestConfig::queue_depth`] entries, and parsers additionally
//!   throttle against the slowest writer's applied-chunk watermark (a
//!   window of `parsers + queue_depth` chunks), so the pipeline holds at
//!   most `2·(parsers + queue_depth)` chunks at any moment no matter how
//!   long the stream runs — a slow writer backpressures all the way to
//!   the byte source;
//! * with [`IngestConfig::lateness`] set, a per-shard **reorder stage**
//!   (a [`ReorderBuffer`] over that writer's [`crate::shard::Shard`])
//!   sits between the
//!   writer and storage: bounded out-of-order telemetry is buffered and
//!   applied in timestamp order instead of failing per line, late and
//!   duplicate points are counted ([`IngestReport::dropped_late`],
//!   [`IngestReport::dropped_duplicate`]) rather than reported as
//!   failures, and [`StreamIngestor::finish`] flushes every buffer at end
//!   of stream. With `lateness: None` writes go straight to the shard and
//!   ordering violations surface as per-line [`WriteFailure`]s, exactly
//!   like the pre-streaming pipeline.
//!
//! Because chunk application is in stream order, per-series offer order
//! equals stream order no matter how threads interleave — which makes the
//! whole pipeline deterministic: same bytes, same final store, same
//! [`IngestReport`], at any parser/shard/queue/read-buffer configuration.
//!
//! Unlike the serial path, the pipeline does not abort on the first bad
//! line: malformed lines and rejected writes are skipped and reported in
//! the [`IngestReport`] (a live telemetry socket cannot un-send a line).
//!
//! Entry points, thinnest to most general:
//!
//! * [`pipeline_ingest`] — a whole in-memory document;
//! * [`ingest_reader`] — drain any [`std::io::Read`] to end of stream;
//! * [`StreamIngestor`] — a long-running handle: feed byte pieces as
//!   they arrive, poll a live [`StreamProgress`], `finish()` to flush
//!   and collect the final report. This is the shape a socket listener
//!   plugs into.

use std::collections::{BTreeMap, VecDeque};
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{Receiver, Sender};

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
    /// Parser worker threads (default 4).
    pub parsers: usize,
    /// Bound of the work queue and of each per-shard channel, in
    /// chunks/batches (default 8). Smaller values bound memory harder and
    /// throttle the byte source sooner; larger values absorb burstier
    /// shard skew.
    pub queue_depth: usize,
    /// Lines per chunk (default 256). A chunk is the unit of parser
    /// scheduling and of writer-side ordering.
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
            parsers: 4,
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
        if self.parsers == 0 {
            return Err(bad("parsers"));
        }
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
    /// Lines completed by the chunker so far.
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
    /// Chunks created but not yet fully applied by every writer — the
    /// pipeline's in-flight buffering. On the blocking
    /// [`StreamIngestor::feed`] path this never exceeds
    /// `2 · (parsers + queue_depth)`; on the non-blocking
    /// [`StreamIngestor::try_feed`] path it additionally counts the
    /// caller-bounded backlog of sealed-but-unsent chunks.
    pub in_flight_chunks: usize,
    /// Points currently held by the reorder stages across all shards.
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

/// One complete-line chunk of the stream, tagged with its position.
#[derive(Debug)]
struct Chunk {
    /// 0-based index in stream order — the writer-side ordering clock.
    index: usize,
    /// Global 0-based line index of `lines[0]` (line numbers and
    /// fallback timestamps are derived from it).
    start_line: usize,
    lines: Vec<Line>,
}

/// One chunk's points for one shard. Every chunk sends exactly one batch
/// to every shard — empty ones advance the writer's ordering clock.
struct Batch {
    chunk: usize,
    points: Vec<(usize, ParsedPoint)>,
}

/// Shared pipeline progress: per shard, the next chunk its writer will
/// apply. Parsers wait until their chunk is within `window` of the
/// slowest writer, which bounds every writer's chunk-reorder buffer (a
/// batch is only ever sent while its chunk is less than `min applied +
/// window`, so a writer at chunk `next` buffers fewer than `window`
/// chunks ahead of it).
///
/// Deadlock-free by construction: chunks enter the work queue in index
/// order and parsers dequeue in FIFO order, so the parser holding the
/// minimum unapplied chunk `m` (or about to take it) is never gated
/// (`m < m + window`), and writers always drain their channels, so its
/// sends always complete — `m` strictly advances.
#[derive(Debug)]
struct Progress {
    applied: Vec<AtomicUsize>,
    gate: Mutex<()>,
    wake: std::sync::Condvar,
}

impl Progress {
    fn new(shards: usize) -> Self {
        Self {
            applied: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            gate: Mutex::new(()),
            wake: std::sync::Condvar::new(),
        }
    }

    fn min_applied(&self) -> usize {
        self.applied
            .iter()
            .map(|a| a.load(Ordering::Acquire))
            .min()
            .unwrap_or(usize::MAX)
    }

    /// Blocks until `chunk < min applied + window`.
    fn wait_until_within(&self, chunk: usize, window: usize) {
        if chunk < self.min_applied().saturating_add(window) {
            return;
        }
        let mut guard = self.gate.lock().expect("ingest gate poisoned");
        while chunk >= self.min_applied().saturating_add(window) {
            guard = self.wake.wait(guard).expect("ingest gate poisoned");
        }
    }

    /// Records that `shard`'s writer will next apply `next`.
    fn advance(&self, shard: usize, next: usize) {
        // Store under the gate so a parser cannot check-then-sleep
        // between the store and the notify (missed wakeup).
        let _guard = self.gate.lock().expect("ingest gate poisoned");
        self.applied[shard].store(next, Ordering::Release);
        self.wake.notify_all();
    }
}

/// Counters shared by the chunker, parsers, and writers — the source of
/// [`StreamProgress`] snapshots.
#[derive(Debug)]
struct Shared {
    progress: Progress,
    lines: AtomicUsize,
    /// Chunks emitted by the chunker so far.
    chunks: AtomicUsize,
    points: AtomicUsize,
    reordered: AtomicUsize,
    dropped_late: AtomicUsize,
    dropped_duplicate: AtomicUsize,
    parse_failed: AtomicUsize,
    write_failed: AtomicUsize,
    /// Per shard: points currently pending in that writer's reorder
    /// stage.
    pending_reorder: Vec<AtomicUsize>,
}

impl Shared {
    fn new(shards: usize) -> Self {
        Self {
            progress: Progress::new(shards),
            lines: AtomicUsize::new(0),
            chunks: AtomicUsize::new(0),
            points: AtomicUsize::new(0),
            reordered: AtomicUsize::new(0),
            dropped_late: AtomicUsize::new(0),
            dropped_duplicate: AtomicUsize::new(0),
            parse_failed: AtomicUsize::new(0),
            write_failed: AtomicUsize::new(0),
            pending_reorder: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    fn snapshot(&self) -> StreamProgress {
        let chunks = self.chunks.load(Ordering::Acquire);
        let applied = self.progress.min_applied().min(chunks);
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
/// reorder stage releases into. With a WAL attached, the store write and
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

/// Ingests a whole in-memory line-protocol document into `db` through
/// the streaming pipeline; see the module docs for topology and
/// semantics.
///
/// Records missing a timestamp take `default_ts` plus the 0-based line
/// index, exactly like the serial [`crate::line_protocol::ingest`].
/// Returns `Err` only for an invalid `config`; data problems (malformed
/// lines, rejected writes) are skipped and reported.
pub fn pipeline_ingest(
    db: &ShardedDb,
    text: &str,
    default_ts: i64,
    config: &IngestConfig,
) -> Result<IngestReport, TsdbError> {
    let mut ingestor = StreamIngestor::new(db, default_ts, config.clone())?;
    ingestor.feed(text.as_bytes());
    Ok(ingestor.finish())
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
/// [`StreamIngestor`] directly. Data problems are skipped and
/// reported, as in [`pipeline_ingest`].
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

/// A long-running handle on the streaming pipeline: feed byte pieces as
/// they arrive, poll a live [`StreamProgress`], and
/// [`finish`](StreamIngestor::finish) to flush the reorder stages and
/// collect the final [`IngestReport`].
///
/// [`feed`](StreamIngestor::feed) blocks when the pipeline's bounded
/// queues are full — backpressure reaches the byte source, so a handle
/// fed from a socket holds bounded memory no matter how fast data
/// arrives. Dropping the handle without `finish` applies every complete
/// line already fed (the drop blocks until the workers drain, flush
/// their reorder stages, and exit) but abandons the report and discards
/// a trailing partial line; [`abort`](StreamIngestor::abort) does the
/// same while handing the report back.
#[derive(Debug)]
pub struct StreamIngestor {
    assembler: LineAssembler,
    chunk_lines: usize,
    /// Lines accumulated toward the next chunk.
    pending_lines: Vec<Line>,
    /// Global 0-based line index of `pending_lines[0]`.
    chunk_start: usize,
    line_count: usize,
    next_chunk: usize,
    /// Sealed chunks not yet handed to the work queue. The blocking
    /// [`StreamIngestor::feed`] path drains this immediately (so it
    /// holds at most one chunk transiently); the non-blocking
    /// [`StreamIngestor::try_feed`] path lets it grow while the queue
    /// is full and relies on the caller to stop reading its source
    /// until [`StreamIngestor::try_pump`] reports it empty.
    backlog: VecDeque<Chunk>,
    work_tx: Option<Sender<Chunk>>,
    parsers: Vec<JoinHandle<Vec<ParseFailure>>>,
    writers: Vec<JoinHandle<(usize, Vec<WriteFailure>)>>,
    shared: Arc<Shared>,
    /// Scratch for lines completed by one `feed` call.
    scratch: Vec<Line>,
    /// Assemble-stage histogram handle (`None` → no timing at all).
    metrics: Option<IngestMetrics>,
}

impl StreamIngestor {
    /// Builds the pipeline (spawns parser and writer threads) against
    /// `db`. Returns `Err` only for an invalid `config`.
    pub fn new(
        db: &ShardedDb,
        default_ts: i64,
        config: IngestConfig,
    ) -> Result<Self, TsdbError> {
        config.validate()?;
        let shards = db.shard_count();
        if let Some(wal) = &config.wal {
            if wal.shard_count() != shards {
                return Err(TsdbError::InvalidParameter {
                    name: "wal",
                    message: "WAL shard count must match the destination store's",
                });
            }
        }
        let shared = Arc::new(Shared::new(shards));
        let window = config.parsers + config.queue_depth;

        let mut batch_txs: Vec<Sender<Batch>> = Vec::with_capacity(shards);
        let mut writers = Vec::with_capacity(shards);
        for idx in 0..shards {
            let (tx, rx) = crossbeam::channel::bounded(config.queue_depth);
            batch_txs.push(tx);
            let db = db.clone();
            let shared = Arc::clone(&shared);
            let lateness = config.lateness;
            let wal = config.wal.clone();
            let hook = config.apply_hook.clone();
            let metrics = config.metrics.clone();
            writers.push(std::thread::spawn(move || {
                shard_writer(db, idx, rx, shared, lateness, wal, hook, metrics)
            }));
        }

        let (work_tx, work_rx) = crossbeam::channel::bounded::<Chunk>(config.queue_depth);
        let work_rx = Arc::new(Mutex::new(work_rx));
        let mut parsers = Vec::with_capacity(config.parsers);
        for _ in 0..config.parsers {
            let db = db.clone();
            let work_rx = Arc::clone(&work_rx);
            let batch_txs = batch_txs.clone();
            let shared = Arc::clone(&shared);
            let metrics = config.metrics.clone();
            parsers.push(std::thread::spawn(move || {
                parse_worker(db, work_rx, batch_txs, shared, default_ts, window, metrics)
            }));
        }
        // The spawned parsers hold their own sender clones; dropping ours
        // lets writers observe hangup as soon as the last parser exits.
        drop(batch_txs);

        Ok(Self {
            assembler: LineAssembler::new(),
            chunk_lines: config.chunk_lines,
            pending_lines: Vec::new(),
            chunk_start: 0,
            line_count: 0,
            next_chunk: 0,
            backlog: VecDeque::new(),
            work_tx: Some(work_tx),
            parsers,
            writers,
            shared,
            scratch: Vec::new(),
            metrics: config.metrics,
        })
    }

    /// Feeds the next piece of the byte stream. Pieces may split
    /// anywhere — lines are reassembled across calls. Blocks when the
    /// pipeline's bounded queues are full (backpressure).
    pub fn feed(&mut self, bytes: &[u8]) {
        let mut completed = std::mem::take(&mut self.scratch);
        self.assemble(bytes, &mut completed);
        for line in completed.drain(..) {
            self.push_line(line);
            // Send chunks as the lines arrive (not after the whole
            // piece) so memory stays bounded by the pipeline window
            // even when one piece is an entire document.
            if !self.backlog.is_empty() {
                self.pump_blocking()
                    .expect("ingest parser workers hung up");
            }
        }
        self.scratch = completed;
    }

    /// Non-blocking [`StreamIngestor::feed`]: assembles complete lines
    /// out of `bytes`, seals full chunks onto an internal backlog, and
    /// offers backlogged chunks to the pipeline without ever blocking
    /// the caller.
    ///
    /// All of `bytes` is always consumed. The return value is
    /// [`StreamIngestor::try_pump`]'s: `true` when the backlog is empty
    /// (everything fed has been handed to the pipeline), `false` when
    /// the bounded work queue is still full. A caller that stops
    /// reading its source while this returns `false` — the event-loop
    /// server does — keeps memory bounded by one read's worth of
    /// sealed chunks, preserving end-to-end backpressure without a
    /// blocked thread.
    pub fn try_feed(&mut self, bytes: &[u8]) -> bool {
        let mut completed = std::mem::take(&mut self.scratch);
        self.assemble(bytes, &mut completed);
        for line in completed.drain(..) {
            self.push_line(line);
        }
        self.scratch = completed;
        self.try_pump()
    }

    /// Offers backlogged chunks to the pipeline without blocking.
    /// Returns `true` once the backlog is empty, `false` if the bounded
    /// work queue is still full (retry shortly — parser
    /// progress, not new input, is what frees a slot).
    ///
    /// # Panics
    ///
    /// Panics if every parser worker has died, which only happens when
    /// a worker panicked — the same contract as
    /// [`StreamIngestor::feed`].
    pub fn try_pump(&mut self) -> bool {
        let Some(tx) = self.work_tx.as_ref() else {
            return true;
        };
        while let Some(chunk) = self.backlog.pop_front() {
            match tx.try_send(chunk) {
                Ok(()) => {}
                Err(crossbeam::channel::TrySendError::Full(chunk)) => {
                    self.backlog.push_front(chunk);
                    return false;
                }
                Err(crossbeam::channel::TrySendError::Disconnected(_)) => {
                    panic!("ingest parser workers hung up")
                }
            }
        }
        true
    }

    /// Seals the lines accumulated toward the next chunk as a short
    /// chunk and offers the backlog to the pipeline, like
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

    /// A live snapshot of the pipeline's counters.
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
    /// the last line, every reorder stage is flushed, all workers are
    /// joined, and the final deterministic [`IngestReport`] is returned.
    pub fn finish(mut self) -> IngestReport {
        let mut tail = std::mem::take(&mut self.scratch);
        self.assembler.finish(&mut tail);
        for line in tail.drain(..) {
            self.push_line(line);
        }
        let mut report = self.shutdown(true);
        report.reordered = self.shared.reordered.load(Ordering::Acquire);
        report.dropped_late = self.shared.dropped_late.load(Ordering::Acquire);
        report.dropped_duplicate = self.shared.dropped_duplicate.load(Ordering::Acquire);
        report.parse_failures.sort_by_key(|f| f.line);
        report.write_failures.sort_by_key(|f| f.line);
        report
    }

    /// Sends the pending chunk, hangs up the work queue (parsers drain
    /// it and exit, writers see their senders drop, apply the tail, and
    /// flush their reorder stages), and joins every worker. Shared by
    /// [`StreamIngestor::finish`] and `Drop`; idempotent. `Drop` passes
    /// `propagate_panics: false` so a panicking worker does not abort
    /// the process with a double panic.
    fn shutdown(&mut self, propagate_panics: bool) -> IngestReport {
        if self.work_tx.is_some() {
            self.seal_chunk();
            if propagate_panics {
                self.pump_blocking()
                    .expect("ingest parser workers hung up");
            } else {
                // Inside `Drop` (possibly mid-unwind): a dead parser
                // must not turn into a double panic and abort.
                let _ = self.pump_blocking();
            }
        }
        drop(self.work_tx.take());
        let mut report = IngestReport {
            lines: self.line_count,
            ..IngestReport::default()
        };
        for handle in self.parsers.drain(..) {
            match handle.join() {
                Ok(failures) => report.parse_failures.extend(failures),
                Err(panic) if propagate_panics => {
                    panic!("ingest parser worker panicked: {panic:?}")
                }
                Err(_) => {}
            }
        }
        for handle in self.writers.drain(..) {
            match handle.join() {
                Ok((written, failures)) => {
                    report.points += written;
                    report.write_failures.extend(failures);
                }
                Err(panic) if propagate_panics => {
                    panic!("ingest shard writer panicked: {panic:?}")
                }
                Err(_) => {}
            }
        }
        report
    }

    /// Runs the line assembler over one byte piece, timing it into the
    /// assemble-stage histogram when metrics are attached (the timer is
    /// skipped entirely otherwise — the uninstrumented path pays
    /// nothing). Backpressure waits in `feed` happen outside this, so
    /// the histogram reflects reassembly cost, not queue waits.
    fn assemble(&mut self, bytes: &[u8], completed: &mut Vec<Line>) {
        match &self.metrics {
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
        if self.pending_lines.len() == self.chunk_lines {
            self.seal_chunk();
        }
    }

    /// Moves the pending lines onto the backlog as one sealed chunk
    /// (no-op with no pending lines). Sealing assigns the chunk its
    /// stream-order index; sending is a separate step so the blocking
    /// and non-blocking paths share this.
    fn seal_chunk(&mut self) {
        if self.pending_lines.is_empty() {
            return;
        }
        let chunk = Chunk {
            index: self.next_chunk,
            start_line: self.chunk_start,
            lines: std::mem::take(&mut self.pending_lines),
        };
        self.next_chunk += 1;
        self.shared.chunks.store(self.next_chunk, Ordering::Release);
        self.backlog.push_back(chunk);
    }

    /// Blocking-sends every backlogged chunk to the parsers — the
    /// backpressure point of [`StreamIngestor::feed`]. A send fails
    /// only if every parser died, which only happens on panic.
    fn pump_blocking(&mut self) -> Result<(), crossbeam::channel::SendError<Chunk>> {
        let tx = self
            .work_tx
            .as_ref()
            .expect("stream already finished");
        while let Some(chunk) = self.backlog.pop_front() {
            tx.send(chunk)?;
        }
        Ok(())
    }
}

impl Drop for StreamIngestor {
    /// Applies every complete line already fed (blocking until the
    /// workers drain and flush their reorder stages), discarding the
    /// report and any trailing partial line. A no-op after
    /// [`StreamIngestor::finish`] / [`StreamIngestor::abort`].
    fn drop(&mut self) {
        self.shutdown(false);
    }
}

/// Takes chunks off the shared work queue (FIFO), parses them, routes
/// points to per-shard batches, and sends one batch per (chunk, shard).
/// Returns this worker's parse failures.
fn parse_worker(
    db: ShardedDb,
    work: Arc<Mutex<Receiver<Chunk>>>,
    batch_txs: Vec<Sender<Batch>>,
    shared: Arc<Shared>,
    default_ts: i64,
    window: usize,
    metrics: Option<IngestMetrics>,
) -> Vec<ParseFailure> {
    let mut failures = Vec::new();
    loop {
        let next = {
            let guard = work.lock().expect("ingest work queue poisoned");
            guard.recv()
        };
        let Ok(chunk) = next else {
            break; // chunker hung up: stream over
        };
        // Don't run unboundedly ahead of the slowest writer: this keeps
        // every writer's chunk-reorder buffer within `window` chunks even
        // when a peer parser stalls on an earlier chunk.
        shared.progress.wait_until_within(chunk.index, window);
        // Timed from here (after the gate, before the sends) so the
        // histogram is parse cost, not backpressure waits.
        let parse_started = metrics.as_ref().map(|_| Instant::now());
        let mut per_shard: Vec<Vec<(usize, ParsedPoint)>> = vec![Vec::new(); batch_txs.len()];
        for (offset, raw) in chunk.lines.iter().enumerate() {
            let idx = chunk.start_line + offset;
            let line_no = idx + 1;
            let parsed = match raw {
                Line::Text(text) => {
                    let line = text.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    parse_line(line, line_no, fallback_ts(default_ts, idx))
                }
                Line::TooLong => Err(TsdbError::Parse {
                    line: line_no,
                    reason: LINE_TOO_LONG,
                }),
            };
            match parsed {
                Ok(points) => {
                    for point in points {
                        per_shard[db.shard_of(&point.key)].push((line_no, point));
                    }
                }
                Err(TsdbError::Parse { line, reason }) => {
                    shared.parse_failed.fetch_add(1, Ordering::Release);
                    failures.push(ParseFailure { line, reason });
                }
                // parse_line only constructs Parse errors; anything else
                // would be a bug worth surfacing loudly.
                Err(other) => panic!("parse_line returned a non-parse error: {other:?}"),
            }
        }
        if let (Some(metrics), Some(started)) = (&metrics, parse_started) {
            metrics.parse.observe_duration(started.elapsed());
        }
        for (tx, points) in batch_txs.iter().zip(per_shard) {
            // Blocks when the shard's queue is full: backpressure. Fails
            // only if the writer died, which only happens on panic.
            tx.send(Batch {
                chunk: chunk.index,
                points,
            })
            .expect("ingest shard writer hung up");
        }
    }
    failures
}

/// Applies batches to one shard strictly in chunk order, buffering
/// out-of-order chunk arrivals (bounded: parsers only send chunks within
/// the [`Progress`] window of the slowest writer), feeding points
/// through the optional reorder stage. Returns points written and
/// rejected writes.
#[allow(clippy::too_many_arguments)]
fn shard_writer(
    db: ShardedDb,
    shard_idx: usize,
    rx: Receiver<Batch>,
    shared: Arc<Shared>,
    lateness: Option<i64>,
    wal: Option<Wal>,
    hook: Option<ApplyHook>,
    metrics: Option<IngestMetrics>,
) -> (usize, Vec<WriteFailure>) {
    let sink = ShardSink {
        db,
        idx: shard_idx,
        wal,
        hook,
    };
    let mut reorder = lateness.map(|l| {
        ReorderBuffer::new(sink.clone(), l)
            .expect("lateness validated by IngestConfig::validate")
    });
    let mut published = ReorderStats::default();
    let mut written = 0usize;
    let mut failures = Vec::new();
    let mut pending: BTreeMap<usize, Vec<(usize, ParsedPoint)>> = BTreeMap::new();
    let mut next = 0usize;
    for batch in rx.iter() {
        pending.insert(batch.chunk, batch.points);
        let before = next;
        while let Some(points) = pending.remove(&next) {
            apply_batch(
                &sink,
                points,
                reorder.as_mut(),
                &mut written,
                &mut failures,
                &shared,
                metrics.as_ref(),
            );
            next += 1;
        }
        if next != before {
            publish_reorder(&shared, shard_idx, reorder.as_ref(), &mut published);
            shared.progress.advance(shard_idx, next);
        }
    }
    // Senders hung up: every chunk has arrived, the leftovers are the
    // contiguous tail — a BTreeMap iterates them in chunk order.
    let tail = std::mem::take(&mut pending);
    let applied_tail = !tail.is_empty();
    for (_, points) in tail {
        apply_batch(
            &sink,
            points,
            reorder.as_mut(),
            &mut written,
            &mut failures,
            &shared,
            metrics.as_ref(),
        );
        next += 1;
    }
    // End of stream: release everything still held back by watermarks.
    // The flush is pure release-into-storage, so its time lands in the
    // apply histogram.
    if let Some(rb) = reorder.as_mut() {
        let flush_started = metrics.as_ref().map(|_| Instant::now());
        let released = rb
            .flush()
            .expect("shard flush failed on a validated sink");
        if let (Some(m), Some(started)) = (&metrics, flush_started) {
            m.apply.observe_duration(started.elapsed());
        }
        written += released;
        shared.points.fetch_add(released, Ordering::Release);
    }
    publish_reorder(&shared, shard_idx, reorder.as_ref(), &mut published);
    if applied_tail {
        shared.progress.advance(shard_idx, next);
    }
    (written, failures)
}

/// Applies one batch's points through the reorder stage (or straight to
/// the shard sink, which also carries the optional WAL), updating live
/// counters. With metrics attached, the batch is timed once: into the
/// reorder histogram when a reorder stage is in the path (its offers
/// include the store writes they release), into the apply histogram for
/// direct writes.
fn apply_batch(
    sink: &ShardSink,
    points: Vec<(usize, ParsedPoint)>,
    mut reorder: Option<&mut ReorderBuffer<ShardSink>>,
    written: &mut usize,
    failures: &mut Vec<WriteFailure>,
    shared: &Shared,
    metrics: Option<&IngestMetrics>,
) {
    let batch_started = metrics.map(|_| Instant::now());
    let via_reorder = reorder.is_some();
    let mut batch_written = 0usize;
    for (line, point) in points {
        let result = match reorder.as_deref_mut() {
            None => sink.write_point(&point.key, point.point).map(|()| 1),
            Some(rb) => rb.offer(&point.key, point.point),
        };
        match result {
            Ok(released) => batch_written += released,
            Err(error) => {
                shared.write_failed.fetch_add(1, Ordering::Release);
                failures.push(WriteFailure { line, error });
            }
        }
    }
    if let (Some(metrics), Some(started)) = (metrics, batch_started) {
        let stage = if via_reorder {
            &metrics.reorder
        } else {
            &metrics.apply
        };
        stage.observe_duration(started.elapsed());
    }
    *written += batch_written;
    shared.points.fetch_add(batch_written, Ordering::Release);
}

/// Publishes the delta of this writer's reorder statistics into the
/// shared live counters (no-op without a reorder stage).
fn publish_reorder(
    shared: &Shared,
    shard_idx: usize,
    reorder: Option<&ReorderBuffer<ShardSink>>,
    published: &mut ReorderStats,
) {
    let Some(rb) = reorder else { return };
    let stats = rb.stats();
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
    *published = stats;
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
                parsers: 1,
                queue_depth: 1,
                chunk_lines: 1,
                lateness: None,
                ..IngestConfig::default()
            },
            IngestConfig {
                parsers: 7,
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
                parsers: 0,
                ..IngestConfig::default()
            },
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
            let err = pipeline_ingest(&db, "cpu v=1 1", 0, &config).unwrap_err();
            assert!(matches!(err, TsdbError::InvalidParameter { .. }));
        }
    }

    #[test]
    fn empty_document_reports_zeroes() {
        let db = ShardedDb::new();
        let report = pipeline_ingest(&db, "", 0, &IngestConfig::default()).unwrap();
        assert_eq!(report, IngestReport::default());
        assert_eq!(db.series_count(), 0);
    }

    #[test]
    fn pipeline_matches_serial_ingest() {
        let text = doc(5, 200);
        for config in configs() {
            let sharded = ShardedDb::with_config(ShardedConfig::new(4, 32));
            let report = pipeline_ingest(&sharded, &text, 0, &config).unwrap();
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
        let report = pipeline_ingest(&db, &text, 0, &config).unwrap();
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
        pipeline_ingest(&db, &text, 0, &config).unwrap();
        assert_eq!(metrics.reorder.snapshot().count, chunks * 2);
        assert_eq!(metrics.apply.snapshot().count, apply_before + 2);
    }

    #[test]
    fn fallback_timestamps_use_global_line_index() {
        // Chunked parsing must produce the same fallback timestamps as
        // the serial path: default_ts + 0-based line index.
        let text = "a v=1\nb v=2\n\na v=3\n# note\nb v=4\n";
        let config = IngestConfig {
            parsers: 3,
            queue_depth: 1,
            chunk_lines: 2,
            lateness: None,
            ..IngestConfig::default()
        };
        let sharded = ShardedDb::with_config(ShardedConfig::new(3, 16));
        pipeline_ingest(&sharded, text, 1000, &config).unwrap();
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
            pipeline_ingest(&db, text, 0, &IngestConfig::default()).unwrap();
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
        let report = pipeline_ingest(&db, &text, 100, &IngestConfig::default()).unwrap();
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
            let report = pipeline_ingest(&db, text, 0, &config).unwrap();
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
            reports.push(pipeline_ingest(&db, &text, 0, &config).unwrap());
        }
        for pair in reports.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn single_shard_pipeline_still_works() {
        let text = doc(3, 40);
        let db = ShardedDb::with_config(ShardedConfig::new(1, 16));
        let report = pipeline_ingest(&db, &text, 0, &IngestConfig::default()).unwrap();
        assert!(report.is_clean());
        assert_eq!(db.series_count(), 6);
    }

    #[test]
    fn reader_ingest_matches_in_memory_pipeline() {
        let text = doc(4, 120);
        let config = IngestConfig {
            parsers: 3,
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
        let report_m = pipeline_ingest(&in_memory, &text, 0, &config).unwrap();
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
            parsers: 2,
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
        let whole_report = pipeline_ingest(&whole, &text, 0, &config).unwrap();
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
                parsers: 2,
                queue_depth: 2,
                chunk_lines,
                lateness: Some(5),
                ..IngestConfig::default()
            };
            let db = ShardedDb::with_config(ShardedConfig::new(2, 4));
            let report = pipeline_ingest(&db, text, 0, &config).unwrap();
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
        let report = pipeline_ingest(&db, text, 0, &config).unwrap();
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
        let report = pipeline_ingest(&db, text, 0, &config).unwrap();
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
                parsers: 2,
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
        let report = pipeline_ingest(&db, text, 0, &config).unwrap();
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
        // A tiny queue guarantees try_pump actually hits the Full path:
        // the backlog grows while the single parser lags, and finish()
        // must still flush everything in order.
        let text = doc(3, 80);
        let config = IngestConfig {
            parsers: 1,
            queue_depth: 1,
            chunk_lines: 2,
            lateness: None,
            ..IngestConfig::default()
        };
        let nonblocking = ShardedDb::with_config(ShardedConfig::new(3, 16));
        let mut ing = StreamIngestor::new(&nonblocking, 0, config.clone()).unwrap();
        let mut deferred = false;
        for piece in text.as_bytes().chunks(113) {
            if !ing.try_feed(piece) {
                deferred = true;
            }
        }
        let report = ing.finish();
        assert!(deferred, "tiny queue never filled — Full path untested");
        let blocking = ShardedDb::with_config(ShardedConfig::new(3, 16));
        let oracle_report = pipeline_ingest(&blocking, &text, 0, &config).unwrap();
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
            parsers: 1,
            queue_depth: 1,
            chunk_lines: 1,
            lateness: Some(5),
            ..IngestConfig::default()
        };
        let db = ShardedDb::with_config(ShardedConfig::new(2, 16));
        let mut ing = StreamIngestor::new(&db, 0, config).unwrap();
        ing.try_feed(text.as_bytes());
        // No further input: parser progress alone must free queue slots
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
            parsers: 2,
            chunk_lines: 16,
            lateness: Some(64),
            apply_hook: Some(ApplyHook::new(move |key, point| {
                sink.lock().unwrap().push((key.clone(), point));
            })),
            ..IngestConfig::default()
        };
        let db = ShardedDb::with_config(ShardedConfig::new(4, 32));
        let report = pipeline_ingest(&db, &text, 0, &config).unwrap();
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
        let report = pipeline_ingest(&db, text, 0, &config).unwrap();
        assert_eq!(report.points, 2);
        assert_eq!(report.write_failures.len(), 1);
        assert_eq!(count.load(Ordering::SeqCst), 2, "rejected point never fired the hook");
    }
}
