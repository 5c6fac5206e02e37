//! Network front-end for the ASAP reproduction: an event-driven TCP
//! server over one shared [`asap_tsdb::ShardedDb`].
//!
//! The ASAP paper (§2) frames smoothing as an operator pointed at *live*
//! dashboards fed by production telemetry. Every entry point the
//! workspace had so far is in-process; this crate is the missing network
//! layer that turns the engine into a servable system:
//!
//! ```text
//!  telemetry agents            operators / dashboards
//!        │ line protocol             │ text protocol
//!        ▼                           ▼
//!  ┌─ ingest listener ─┐      ┌─ query listener ──┐
//!  │ 1 conn = 1 session│      │ SMOOTH RANGE      │
//!  │ parsed on its     │      │ SUBSCRIBE (push)  │
//!  │ event worker (cap,│      │ STATS HEALTH      │
//!  │ backpressure)     │      │ SNAPSHOT SHUTDOWN │
//!  └────────┬──────────┘      └────────┬──────────┘
//!           ▼                          │
//!  ┌ ShardWriters: one writer ┐        │
//!  │ per shard, server-lifetime│       │
//!  └────────┬─────────────────┘        ▼
//!        ┌──────────── ShardedDb ───────────┐   ┌ compaction scheduler ┐
//!        │  shards · reorder · smoothing    │◀──│ Compactor::run_sharded│
//!        └──────────────────────────────────┘   │ jittered ticks       │
//!                                               └──────────────────────┘
//! ```
//!
//! * **I/O core** — every connection is a nonblocking state machine on
//!   a small worker pool that blocks in `poll(2)` and is woken by
//!   readiness — a socket, or a waker written when a connection is
//!   dealt, a frame is pushed, or the drain begins — never by a timer;
//!   bounded per-tick read budgets and buffered writes, so thousands of
//!   mostly-idle connections cost poll-set entries rather than threads.
//! * **Ingest listener** — each accepted connection is one
//!   [`asap_tsdb::StreamIngestor`] session, parsed on the event worker
//!   that reads its socket, on the server's one
//!   [`asap_tsdb::ShardWriters`] set (one writer thread per shard for
//!   the server's lifetime), with end-to-end backpressure (a full
//!   writer inbox stops reading, TCP flow control stalls the sender).
//!   A connection costs no thread: the server runs
//!   `1 + event_workers + shards` threads plus its background ones,
//!   whatever the number of connections. Clients may wrap payloads in
//!   length-prefixed `BATCH <nbytes>` frames (see [`protocol`]) so one
//!   syscall carries thousands of points. On close the final
//!   [`asap_tsdb::IngestReport`] is written back as one stable
//!   `key=value` line.
//! * **Query/ops protocol** — a line-oriented text protocol (see
//!   [`protocol`]) serving smoothing (`SMOOTH`), range reads (`RANGE`),
//!   live counters (`STATS`, `HEALTH` — aggregated
//!   [`asap_tsdb::StreamProgress`] plus per-shard
//!   series/point/watermark occupancy), snapshots (`SNAPSHOT`), and
//!   graceful shutdown (`SHUTDOWN`).
//! * **Subscriptions** — `SUBSCRIBE <selector> [EVERY <n>]
//!   [ALERT k=<sigma>]` registers a standing streaming-smoothing
//!   subscription fed post-reorder from the ingest apply path; the
//!   server pushes incremental `FRAME` (and edge-triggered `ALERT`)
//!   lines down the same connection until `UNSUBSCRIBE` or disconnect.
//!   Slow subscribers are lag-dropped (bounded per-subscriber outbox)
//!   or disconnected at the write deadline — never allowed to delay
//!   ingest or the drain.
//! * **Compaction scheduler** — a background thread driving
//!   [`asap_tsdb::Compactor::run_sharded`] on jittered ticks
//!   ([`asap_tsdb::Schedule`]), mutually exclusive with snapshot saves,
//!   its cumulative counters surfaced through `STATS`.
//! * **Checkpoint scheduler** — with a chain directory configured
//!   ([`ServerConfig::checkpoint`], the one durable boot state), a
//!   second background thread takes *incremental* checkpoints on
//!   jittered ticks ([`asap_tsdb::CheckpointChain`]): each pass writes
//!   only the series that changed since the last one and discards the
//!   covered WAL generations, so checkpoint cost tracks write activity
//!   — not total data — and the log stays bounded at steady state.
//! * **Graceful shutdown** — `SHUTDOWN` (or [`Server::shutdown`]) stops
//!   accepting, finalizes every connection (complete ingest lines
//!   applied, reorder buffers flushed), stops the schedulers, takes a
//!   final chain checkpoint, and returns a [`ServerReport`] — promptly
//!   even when a peer has stopped reading: the drain is bounded by one
//!   wake-up and server-side work, never by client behavior.
//!
//! # Example
//!
//! ```
//! use std::io::{Read, Write};
//! use std::net::TcpStream;
//! use asap_server::{Server, ServerConfig};
//! use asap_tsdb::ShardedDb;
//!
//! let server = Server::start(ShardedDb::new(), ServerConfig::default()).unwrap();
//! let mut conn = TcpStream::connect(server.ingest_addr()).unwrap();
//! conn.write_all(b"cpu,host=a usage=0.5 1\n").unwrap();
//! conn.shutdown(std::net::Shutdown::Write).unwrap();
//! let mut report = String::new();
//! conn.read_to_string(&mut report).unwrap();
//! assert!(report.contains("points=1"), "{report}");
//! let report = server.shutdown();
//! assert_eq!(report.ingest.points, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod conn;
mod event;
pub mod protocol;
mod scheduler;
mod server;
mod subscribe;

pub use server::{
    CheckpointConfig, CheckpointStats, CompactionClock, CompactionConfig, CompactionStats,
    IngestTotals, Server, ServerConfig, ServerError, ServerReport,
};
