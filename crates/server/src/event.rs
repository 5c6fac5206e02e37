//! The event-driven server core: one dispatcher thread accepting on
//! both listeners plus a small worker pool, each worker sweeping its
//! own registry of nonblocking connections.
//!
//! Readiness is level-triggered over `ErrorKind::WouldBlock` — a sweep
//! ticks every connection (each tick makes bounded progress, see
//! [`crate::conn`]), and a sweep in which nothing progressed parks in
//! `recv_timeout` on the worker's inbox for one poll interval, so an
//! idle worker wakes either for a new connection or for the next poll
//! tick. Cost scales with *active* connections per sweep plus one cheap
//! `WouldBlock` read per idle one, which is what lets a fixed pool
//! carry thousands of mostly-idle sockets without a thread each.
//!
//! Drain: the dispatcher sees the flag, stops accepting, and drops the
//! inbox senders; each worker then finalizes its connections (bounded
//! server-side work — abort/flush, one best-effort write, close) and
//! exits. [`crate::Server::drain`] joins dispatcher + workers, so the
//! whole stop is bounded by the poll interval and pipeline joins, never
//! by client behavior.

use std::net::{Shutdown as SocketShutdown, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::conn::{IngestConn, QueryConn};
use crate::protocol;
use crate::server::{Port, Shared};

/// Per-worker read scratch buffer (shared across that worker's
/// connections — ticks copy out of it before the next read).
const SCRATCH: usize = 64 * 1024;

/// Most connections accepted from one listener per dispatcher pass,
/// so a connection storm on one port cannot starve the other.
const ACCEPT_BATCH: usize = 64;

/// One registered connection of either port.
enum Conn {
    // Boxed: the ingest machine (framer + pipeline handle) is several
    // times the query machine's size, and the registry `Vec` should
    // stay compact when thousands of query connections dominate it.
    Ingest(Box<IngestConn>),
    Query(QueryConn),
}

impl Conn {
    fn tick(&mut self, scratch: &mut [u8]) -> (bool, bool) {
        match self {
            Conn::Ingest(c) => c.tick(scratch),
            Conn::Query(c) => c.tick(scratch),
        }
    }

    fn finalize(&mut self) {
        match self {
            Conn::Ingest(c) => c.finalize(),
            Conn::Query(c) => c.finalize(),
        }
    }

    /// Whether this connection is waiting on the ingest pipeline (a
    /// parser thread) rather than on its peer.
    fn backpressured(&self) -> bool {
        match self {
            Conn::Ingest(c) => c.backpressured(),
            Conn::Query(_) => false,
        }
    }
}

/// Spawns the dispatcher and the worker pool of the event core.
pub(crate) fn start(
    ingest_listener: TcpListener,
    query_listener: TcpListener,
    shared: &Arc<Shared>,
) -> Vec<JoinHandle<()>> {
    let worker_count = shared.config().event_workers;
    let mut threads = Vec::with_capacity(worker_count + 1);
    let mut inboxes = Vec::with_capacity(worker_count);
    for _ in 0..worker_count {
        let (tx, rx) = std::sync::mpsc::channel::<Conn>();
        inboxes.push(tx);
        let s = Arc::clone(shared);
        threads.push(std::thread::spawn(move || worker(&rx, &s)));
    }
    let s = Arc::clone(shared);
    threads.push(std::thread::spawn(move || {
        dispatch(&ingest_listener, &query_listener, &inboxes, &s);
    }));
    threads
}

/// The accept loop over both (nonblocking) listeners: enforce caps,
/// build connection state machines, deal them round-robin to the
/// workers. Sleeps one poll interval when neither listener had anything,
/// and exits on drain — dropping `inboxes`, which is what tells the
/// workers to finalize and stop.
fn dispatch(
    ingest_listener: &TcpListener,
    query_listener: &TcpListener,
    inboxes: &[Sender<Conn>],
    shared: &Arc<Shared>,
) {
    let mut next = 0usize;
    loop {
        if shared.is_draining() {
            return;
        }
        let mut progressed = false;
        progressed |= accept_batch(ingest_listener, Port::Ingest, inboxes, &mut next, shared);
        progressed |= accept_batch(query_listener, Port::Query, inboxes, &mut next, shared);
        if !progressed {
            std::thread::sleep(shared.config().poll_interval);
        }
    }
}

/// Accepts up to [`ACCEPT_BATCH`] connections from one listener;
/// returns whether any arrived.
fn accept_batch(
    listener: &TcpListener,
    port: Port,
    inboxes: &[Sender<Conn>],
    next: &mut usize,
    shared: &Arc<Shared>,
) -> bool {
    let mut progressed = false;
    for _ in 0..ACCEPT_BATCH {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => break, // WouldBlock or transient (e.g. fd exhaustion)
        };
        progressed = true;
        if shared.is_draining() {
            let _ = stream.shutdown(SocketShutdown::Both);
            break;
        }
        let Some(slot) = shared.try_acquire_slot(port) else {
            refuse(&stream, port, shared);
            continue;
        };
        let conn = match port {
            Port::Ingest => IngestConn::new(stream, Arc::clone(shared), slot)
                .map(|c| Conn::Ingest(Box::new(c))),
            Port::Query => QueryConn::new(stream, Arc::clone(shared), slot).map(Conn::Query),
        };
        let Some(conn) = conn else { continue };
        // Round-robin across both ports: ingest and query connections
        // mix on every worker, so neither workload can monopolize one.
        let slot = *next % inboxes.len();
        *next = next.wrapping_add(1);
        // Send fails only mid-drain (worker gone); the connection drops
        // and its socket closes, same as racing the drain at accept.
        let _ = inboxes[slot].send(conn);
    }
    progressed
}

/// Refuses an over-cap connection: count it, best-effort one `ERR`
/// line (nonblocking — a refusal must never stall the dispatcher), and
/// close.
fn refuse(stream: &TcpStream, port: Port, shared: &Shared) {
    shared.reject_connection(port);
    let cap = port.cap(shared.config());
    if stream.set_nonblocking(true).is_ok() {
        use std::io::Write;
        let mut w = stream;
        let _ = w.write(
            protocol::render_error(&format!("connection limit reached ({cap} active)")).as_bytes(),
        );
    }
    let _ = stream.shutdown(SocketShutdown::Both);
}

/// One worker: sweep the registry, collect new connections from the
/// inbox, park for a poll interval when nothing progressed. On drain
/// (inbox disconnected or flag raised) finalize everything and exit.
fn worker(inbox: &Receiver<Conn>, shared: &Arc<Shared>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH];
    loop {
        if shared.is_draining() {
            for conn in &mut conns {
                conn.finalize();
            }
            // The dispatcher may have dealt connections here after our
            // last sweep; they must be finalized too, not leaked.
            while let Ok(mut conn) = inbox.try_recv() {
                conn.finalize();
            }
            return;
        }
        let mut progressed = false;
        while let Ok(conn) = inbox.try_recv() {
            conns.push(conn);
            progressed = true;
        }
        conns.retain_mut(|conn| {
            let (p, done) = conn.tick(&mut scratch);
            progressed |= p;
            !done
        });
        if !conns.is_empty() {
            shared.metrics().event_sweeps.inc();
        }
        if !progressed {
            shared.metrics().event_parks.inc();
            // Park on the inbox: a new connection wakes us immediately,
            // otherwise the timeout is the level-trigger poll tick. A
            // connection backpressured on the ingest pipeline is
            // unblocked by a parser thread — typically within
            // microseconds — not by its peer, so recheck on a much
            // shorter tick or bulk ingest gets quantized to the poll
            // interval.
            let poll = shared.config().poll_interval;
            let wait = if conns.iter().any(Conn::backpressured) {
                poll.min(std::time::Duration::from_micros(100))
            } else {
                poll
            };
            match inbox.recv_timeout(wait) {
                Ok(conn) => conns.push(conn),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    // Dispatcher gone: the drain flag is (about to be)
                    // up; sleep one tick and loop into the drain arm.
                    std::thread::sleep(shared.config().poll_interval);
                }
            }
        }
    }
}
