//! The event-driven server core: one dispatcher thread accepting on
//! both listeners plus a small worker pool, each worker owning a
//! private registry of nonblocking connections.
//!
//! Every thread of the core blocks in `poll(2)` and nowhere else. A
//! worker about to block asks each of its connections for its
//! [`Interest`] — derived from the connection's state each time, so
//! there is no registration to keep in step with connection lifecycles —
//! and polls those sockets plus the read end of its [`Waker`]. On return
//! it ticks the connections `poll` reported and those whose own deadline
//! came due; an idle socket costs one entry in the set, not a
//! `WouldBlock` read. The dispatcher blocks the same way on the two
//! listeners and its waker.
//!
//! A waker is written on exactly three events no socket of the blocked
//! thread announces: a connection dealt to a worker, a subscriber's
//! outbox going empty → non-empty ([`crate::subscribe`]), and the start
//! of the drain. There is no periodic tick anywhere: the only timed
//! waits are a pending write deadline, the backpressure recheck (both
//! [`Interest::wake_at`]) and the accept-error back-off
//! ([`ACCEPT_BACKOFF`]), so a missed wake-up shows as a hang, not as
//! latency.
//!
//! Drain: [`crate::server::Shared`] raises the flag and writes every
//! waker; the dispatcher stops accepting and each worker finalizes its
//! connections (bounded server-side work — abort/flush, one best-effort
//! write, close) and exits. [`crate::Server::drain`] joins dispatcher +
//! workers, so the whole stop is bounded by a wake-up and pipeline
//! joins, never by client behavior.

use std::io::{Read, Write};
use std::net::{Shutdown as SocketShutdown, TcpListener, TcpStream};
use std::os::fd::{AsFd, BorrowedFd};
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asap_tsdb::obs;
use nix::poll::{poll, PollFd, PollFlags, PollTimeout};

use crate::conn::{IngestConn, Interest, QueryConn};
use crate::protocol;
use crate::server::{Port, Shared};

/// Per-worker read scratch buffer (shared across that worker's
/// connections — ticks copy out of it before the next read).
const SCRATCH: usize = 64 * 1024;

/// Most connections accepted from one listener per dispatcher pass,
/// so a connection storm on one port cannot starve the other.
const ACCEPT_BATCH: usize = 64;

/// How long a listener whose `accept` failed (descriptor exhaustion, an
/// aborted handshake) is left out of the dispatcher's poll set. The
/// listener stays readable through such an error, so polling it again
/// at once would spin; what clears the condition is a descriptor being
/// released somewhere, which nothing signals — hence a timed wait.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// What `poll` reports on a socket whether or not it was asked to.
const HANGUP: PollFlags = PollFlags::POLLHUP
    .union(PollFlags::POLLERR)
    .union(PollFlags::POLLNVAL);

/// The write end of a thread's wake-up channel: a nonblocking socket
/// pair whose read end sits in that thread's poll set.
#[derive(Debug)]
pub(crate) struct Waker(UnixStream);

impl Waker {
    /// Makes the owning thread's current (or next) `poll` return. A full
    /// channel means wake-ups are already pending, so the error is
    /// success.
    pub(crate) fn wake(&self) {
        let _ = (&self.0).write(&[1]);
    }
}

/// The read end of a wake-up channel, owned by the thread that blocks.
pub(crate) struct WakeRx(UnixStream);

impl WakeRx {
    /// Consumes pending wake-ups. Called *before* looking at the state
    /// a wake-up announces (inbox, outboxes, drain flag): a wake-up that
    /// arrives after the look leaves a byte behind and ends the next
    /// `poll` at once, so none is lost. Returns how many were pending.
    pub(crate) fn drain(&self) -> usize {
        let mut buf = [0u8; 64];
        let mut pending = 0;
        loop {
            let n = (&self.0).read(&mut buf).unwrap_or(0);
            pending += n;
            if n < buf.len() {
                return pending;
            }
        }
    }
}

/// `count` wake-up channels: the write ends (shared) and the read ends
/// (each moved into the thread it wakes).
pub(crate) fn wake_channels(count: usize) -> std::io::Result<(Vec<Arc<Waker>>, Vec<WakeRx>)> {
    let mut wakers = Vec::with_capacity(count);
    let mut receivers = Vec::with_capacity(count);
    for _ in 0..count {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        wakers.push(Arc::new(Waker(tx)));
        receivers.push(WakeRx(rx));
    }
    Ok((wakers, receivers))
}

/// One registered connection of either port.
enum Conn {
    // Boxed: the ingest machine (framer + pipeline handle) is several
    // times the query machine's size, and the registry `Vec` should
    // stay compact when thousands of query connections dominate it.
    Ingest(Box<IngestConn>),
    Query(QueryConn),
}

impl Conn {
    fn fd(&self) -> BorrowedFd<'_> {
        match self {
            Conn::Ingest(c) => c.fd(),
            Conn::Query(c) => c.fd(),
        }
    }

    fn interest(&self, now: Instant) -> Interest {
        match self {
            Conn::Ingest(c) => c.interest(now),
            Conn::Query(c) => c.interest(now),
        }
    }

    /// One bounded step; returns whether the connection is done.
    fn tick(&mut self, scratch: &mut [u8]) -> bool {
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
}

/// Spawns the dispatcher and the worker pool of the event core.
/// `receivers` are the read ends of [`Shared`]'s wakers, in the same
/// order: one per worker, then the dispatcher's.
pub(crate) fn start(
    ingest_listener: TcpListener,
    query_listener: TcpListener,
    mut receivers: Vec<WakeRx>,
    shared: &Arc<Shared>,
) -> Vec<JoinHandle<()>> {
    let dispatcher_rx = receivers
        .pop()
        .expect("one waker per worker plus the dispatcher's");
    let mut threads = Vec::with_capacity(receivers.len() + 1);
    let mut inboxes = Vec::with_capacity(receivers.len());
    for wake_rx in receivers {
        let (tx, rx) = std::sync::mpsc::channel::<Conn>();
        inboxes.push(tx);
        let s = Arc::clone(shared);
        threads.push(std::thread::spawn(move || worker(&rx, &wake_rx, &s)));
    }
    let s = Arc::clone(shared);
    threads.push(std::thread::spawn(move || {
        let listeners = [
            (ingest_listener, Port::Ingest),
            (query_listener, Port::Query),
        ];
        dispatch(&listeners, &dispatcher_rx, &inboxes, &s);
    }));
    threads
}

/// Blocks in `poll` until an entry of `fds` has something to report or
/// `wake_at` passes (`None`: however long it takes). An error leaves
/// every `revents` empty.
fn wait(fds: &mut [PollFd], wake_at: Option<Instant>, now: Instant) -> nix::Result<()> {
    let timeout = match wake_at.map(|at| at.saturating_duration_since(now)) {
        None => PollTimeout::NONE,
        Some(Duration::ZERO) => PollTimeout::ZERO,
        Some(left) if left < Duration::from_millis(1) => {
            // `poll` counts whole milliseconds. The one shorter wait —
            // the backpressure recheck — is slept out here (nobody
            // unparks these threads; an early return only rechecks
            // sooner), then readiness is collected without blocking.
            std::thread::park_timeout(left);
            PollTimeout::ZERO
        }
        // Rounded up, so the wake-up lands on the deadline's far side
        // instead of spinning through its last millisecond.
        Some(left) => {
            PollTimeout::try_from(left + Duration::from_micros(999)).unwrap_or(PollTimeout::MAX)
        }
    };
    poll(fds, timeout).map(drop)
}

/// What `poll` reported for one entry; bits the shim does not name
/// count as a hang-up, so the connection is looked at rather than lost.
fn reported(fd: &PollFd) -> PollFlags {
    fd.revents().unwrap_or(HANGUP)
}

/// The accept loop over both (nonblocking) listeners: enforce caps,
/// build connection state machines, deal them round-robin to the
/// workers. Blocks until a listener is readable or the drain begins,
/// and exits on drain.
fn dispatch(
    listeners: &[(TcpListener, Port); 2],
    wake_rx: &WakeRx,
    inboxes: &[Sender<Conn>],
    shared: &Arc<Shared>,
) {
    let mut next = 0usize;
    // Per listener: not to be polled before this instant (see
    // `ACCEPT_BACKOFF`).
    let mut retry_at = [None::<Instant>; 2];
    loop {
        if shared.is_draining() {
            return;
        }
        let now = Instant::now();
        let mut listen = |i: usize| {
            if retry_at[i].is_some_and(|at| at <= now) {
                retry_at[i] = None;
            }
            let events = match retry_at[i] {
                Some(_) => PollFlags::empty(),
                None => PollFlags::POLLIN,
            };
            PollFd::new(listeners[i].0.as_fd(), events)
        };
        let mut fds = [
            PollFd::new(wake_rx.0.as_fd(), PollFlags::POLLIN),
            listen(0),
            listen(1),
        ];
        // A failed wait reports nothing; the loop comes straight back.
        let _ = wait(&mut fds, retry_at.iter().flatten().min().copied(), now);
        if !reported(&fds[0]).is_empty() {
            wake_rx.drain();
        }
        for (i, (listener, port)) in listeners.iter().enumerate() {
            if reported(&fds[i + 1]).is_empty() {
                continue;
            }
            if let Err(e) = accept_batch(listener, *port, inboxes, &mut next, shared) {
                shared.metrics().accept_errors.inc();
                obs::warn("server", "accept_failed", &[("error", &e)]);
                retry_at[i] = Some(Instant::now() + ACCEPT_BACKOFF);
            }
        }
    }
}

/// Accepts up to [`ACCEPT_BATCH`] connections from one listener (the
/// rest keep it readable for the next pass). `Err` is an `accept`
/// failure other than "nothing pending".
fn accept_batch(
    listener: &TcpListener,
    port: Port,
    inboxes: &[Sender<Conn>],
    next: &mut usize,
    shared: &Arc<Shared>,
) -> std::io::Result<()> {
    for _ in 0..ACCEPT_BATCH {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if shared.is_draining() {
            let _ = stream.shutdown(SocketShutdown::Both);
            break;
        }
        let Some(slot) = shared.try_acquire_slot(port) else {
            refuse(&stream, port, shared);
            continue;
        };
        // Round-robin across both ports: ingest and query connections
        // mix on every worker, so neither workload can monopolize one.
        // Chosen before the connection is built: a query connection's
        // outbox wakes the worker that will own it.
        let worker = *next % inboxes.len();
        let conn = match port {
            Port::Ingest => {
                IngestConn::new(stream, Arc::clone(shared), slot).map(|c| Conn::Ingest(Box::new(c)))
            }
            Port::Query => {
                let waker = Arc::clone(shared.worker_waker(worker));
                QueryConn::new(stream, Arc::clone(shared), slot, waker).map(Conn::Query)
            }
        };
        let Some(conn) = conn else { continue };
        *next = next.wrapping_add(1);
        // Send fails only mid-drain (worker gone); the connection drops
        // and its socket closes, same as racing the drain at accept.
        if inboxes[worker].send(conn).is_ok() {
            shared.worker_waker(worker).wake();
        }
    }
    Ok(())
}

/// Refuses an over-cap connection: count it, best-effort one `ERR`
/// line (nonblocking — a refusal must never stall the dispatcher), and
/// close.
fn refuse(stream: &TcpStream, port: Port, shared: &Shared) {
    shared.reject_connection(port);
    let cap = port.cap(shared.config());
    if stream.set_nonblocking(true).is_ok() {
        let mut w = stream;
        let _ = w.write(
            protocol::render_error(&format!("connection limit reached ({cap} active)")).as_bytes(),
        );
    }
    let _ = stream.shutdown(SocketShutdown::Both);
}

/// One worker: block until a connection has something to do, tick the
/// ones that do, collect new connections from the inbox. On drain
/// finalize everything and exit.
fn worker(inbox: &Receiver<Conn>, wake_rx: &WakeRx, shared: &Arc<Shared>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut interests: Vec<Interest> = Vec::new();
    let mut revents: Vec<PollFlags> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH];
    loop {
        if shared.is_draining() {
            for conn in &mut conns {
                conn.finalize();
            }
            // The dispatcher may have dealt connections here after our
            // last look; they must be finalized too, not leaked.
            while let Ok(mut conn) = inbox.try_recv() {
                conn.finalize();
            }
            return;
        }
        conns.extend(inbox.try_iter());

        let now = Instant::now();
        interests.clear();
        interests.extend(conns.iter().map(|conn| conn.interest(now)));
        let wake_at = interests.iter().filter_map(|i| i.wake_at).min();
        let mut fds = Vec::with_capacity(conns.len() + 1);
        fds.push(PollFd::new(wake_rx.0.as_fd(), PollFlags::POLLIN));
        fds.extend(
            conns
                .iter()
                .zip(&interests)
                .map(|(conn, interest)| PollFd::new(conn.fd(), interest.events)),
        );
        if wake_at.is_none_or(|at| at > now) {
            shared.metrics().event_parks.inc();
        }
        // A failed wait (the kernel out of memory) says nothing about
        // any socket: tick everything, which is always safe.
        let failed = wait(&mut fds, wake_at, now).is_err();
        if !reported(&fds[0]).is_empty() {
            wake_rx.drain();
        }
        revents.clear();
        revents.extend(fds[1..].iter().map(reported));
        drop(fds);

        let now = Instant::now();
        let mut ticked = false;
        let mut states = interests.iter().zip(&revents);
        conns.retain_mut(|conn| {
            let (interest, revents) = states.next().expect("one state per connection");
            let due = interest.wake_at.is_some_and(|at| at <= now);
            if revents.is_empty() && !due && !failed {
                return true;
            }
            ticked = true;
            if revents.intersects(HANGUP) && !interest.events.contains(PollFlags::POLLIN) {
                // The peer is gone and the connection was not reading,
                // so no read will ever notice: close it here — it would
                // otherwise hold its slot (and its subscriptions) until
                // the next write, and end every `poll` at once.
                conn.finalize();
                return false;
            }
            !conn.tick(&mut scratch)
        });
        if ticked {
            shared.metrics().event_sweeps.inc();
        }
    }
}
