//! Embedded time-series storage substrate for the ASAP reproduction.
//!
//! The ASAP paper (§2) places the operator downstream of production
//! time-series databases — "ASAP can ingest and process raw data from time
//! series databases such as InfluxDB" — and cites Facebook Gorilla
//! \[51\] as the archetypal ingestion tier. This crate implements that
//! substrate from scratch so the reproduction exercises the full pipeline
//! the paper's deployments assume:
//!
//! * [`bits`] / [`gorilla`] — bit-granular I/O and Gorilla compression
//!   (delta-of-delta timestamps, XOR values);
//! * [`block`] / [`memtable`] / [`series`] — sealed compressed blocks with
//!   skip-scan summaries, the mutable append head, and the per-series
//!   store that merges them;
//! * [`tags`] / [`db`] — metric+tag series identity, selectors, and
//!   [`Tsdb`], the concurrent storage partition;
//! * [`sharded`] — the horizontally sharded engine that routes series
//!   across `Tsdb` partitions by tag-aware hash; its reads, smoothing
//!   included, run on the caller's thread;
//! * [`query`] — range scans, bucketed aggregation, and the grid
//!   alignment + gap-fill ASAP's equi-spaced SMA model requires;
//! * [`line_protocol`] — InfluxDB-style text ingestion;
//! * [`mod@ingest`] — the streaming concurrent ingest pipeline: ingest
//!   sessions over any byte source (`io::Read`, a socket, incremental
//!   feeds) that assemble and parse on the feeding thread in bounded
//!   memory, one writer thread per shard shared by every session (with
//!   an optional watermark reorder stage per session), end-to-end
//!   backpressure, and a deterministic per-session ingest report;
//! * [`retention`] — TTLs and continuous-aggregate rollups (the raw-hot /
//!   downsampled-cold tiering monitoring dashboards sit on), fanned out
//!   per shard on the partitioned engine;
//! * [`obs`] — self-observability: a lock-cheap metrics registry
//!   (atomic counters, gauges, log-bucketed latency histograms), a
//!   leveled structured logger, and the Prometheus/line-protocol
//!   renderers behind the server's `METRICS` verb and self-scrape;
//! * [`persist`] — the checksummed link format, the one file type of an
//!   export, a chain base and a delta (one serial writer, one reader
//!   that decodes in parallel before anything is imported, one
//!   all-or-nothing fold), and the snapshot+WAL-tail recovery entry
//!   point;
//! * [`chain`] — incremental checkpoint chains, the one durable boot
//!   state: a base link plus per-series delta links in a directory that
//!   is its own index, so online checkpoint cost scales with write activity
//!   instead of total data, folded transparently by the recovery entry
//!   points;
//! * [`wal`] — per-shard append-only write-ahead log: CRC-checked
//!   length-prefixed records of applied points, configurable fsync
//!   policy, generation-based rotation, and idempotent crash replay;
//! * [`reorder`] — watermark-based reordering, generic over the
//!   [`SeriesWriter`] sink, so bounded-lateness out-of-order telemetry
//!   survives the engine's strict ordering;
//! * [`smooth`] — the query→ASAP bridge: smooth a visualization interval
//!   straight out of storage.
//!
//! # Example
//!
//! ```
//! use asap_tsdb::{DataPoint, RangeQuery, SeriesKey, Tsdb};
//!
//! let db = Tsdb::new();
//! let key = SeriesKey::metric("cpu").with_tag("host", "a");
//! for i in 0..600 {
//!     db.write(&key, DataPoint::new(i * 10, (i as f64 / 40.0).sin())).unwrap();
//! }
//! // Average into 100-second buckets over the first minute's worth.
//! let buckets = db.query(&key, RangeQuery::bucketed(0, 6_000, 100)).unwrap();
//! assert_eq!(buckets.len(), 60);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod block;
pub mod chain;
pub mod db;
pub mod error;
pub mod gorilla;
pub mod ingest;
pub mod line_protocol;
pub mod memtable;
pub mod obs;
pub mod persist;
pub mod point;
pub mod query;
pub mod reorder;
pub mod retention;
pub mod series;
pub mod sharded;
pub mod smooth;
pub mod tags;
pub mod wal;

pub use block::{Block, BlockSummary};
pub use chain::{
    load_chain, load_chain_with_report, ChainCheckpointReport, ChainLoadReport, ChainStep,
    CheckpointChain,
};
pub use db::{SeriesStats, ShardOccupancy, Tsdb, TsdbConfig};
pub use error::TsdbError;
pub use gorilla::{CompressedChunk, GorillaDecoder, GorillaEncoder};
pub use ingest::{
    ingest_reader, ApplyHook, IngestConfig, IngestReport, ParseFailure,
    ProgressWatch, ShardWriters, StreamIngestor, StreamProgress, WriteFailure,
};
pub use line_protocol::{ingest, parse, ParsedPoint};
pub use obs::{
    Counter, Gauge, Histogram, HistogramSnapshot, IngestMetrics, LogLevel, MetricSample,
    MetricValue, Registry as ObsRegistry, WalMetrics, SELF_TAG,
};
pub use persist::{recover_sharded, SnapshotError};
pub use point::DataPoint;
pub use query::{Aggregator, FillPolicy, RangeQuery, SeriesReader, SeriesWriter};
pub use reorder::{ReorderBuffer, ReorderStats};
pub use retention::{
    rollup_key, CompactionReport, Compactor, RetentionPolicy, RollupLevel,
    Schedule, ROLLUP_TAG,
};
pub use series::SeriesStore;
pub use sharded::{ShardedConfig, ShardedDb};
pub use smooth::{
    smooth_query, smooth_query_selector, smooth_query_with_fill, SmoothQueryError, SmoothedFrame,
};
pub use tags::{Selector, SeriesKey};
pub use wal::{FsyncPolicy, Wal, WalConfig, WalRecord, WalReplayReport, WalSegment, WalStats};
