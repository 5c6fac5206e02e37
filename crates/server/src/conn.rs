//! Connection state machines of the event-driven server core.
//!
//! One [`IngestConn`] / [`QueryConn`] owns one nonblocking socket and
//! makes *bounded* progress per tick — at most
//! [`crate::ServerConfig::read_budget`] bytes read, writes only as far
//! as the socket accepts — so one busy or misbehaving connection cannot
//! starve its worker's siblings. A tick that can't progress simply
//! returns (`ErrorKind::WouldBlock`); what the connection waits for next
//! is its [`Interest`], derived from its state each time the worker is
//! about to block: which socket events to poll for, and — only where no
//! socket event announces the work — a time to be ticked regardless.
//!
//! The [`Framer`] sits in front of the ingest byte stream and
//! implements the `BATCH <nbytes>` frame of the ingest protocol (see
//! [`crate::protocol`]): header lines are consumed by the framer,
//! payload and plain-line bytes pass through to the connection's
//! [`StreamIngestor`] session unchanged and in order. The session parses
//! on the event worker that read the bytes and hands the points to the
//! server's shard writers: an ingest connection owns no thread.

use std::io::{Read, Write};
use std::net::{Shutdown as SocketShutdown, TcpStream};
use std::os::fd::{AsFd, BorrowedFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

use asap_tsdb::line_protocol::MAX_LINE_BYTES;
use asap_tsdb::{obs, StreamIngestor};
use nix::poll::PollFlags;

use crate::event::Waker;
use crate::protocol;
use crate::server::{execute, ActiveGuard, Shared};
use crate::subscribe::{Outbox, SubSession};

/// Stop reading new requests from a query connection while more than
/// this many response bytes are queued for it — the memory bound
/// against a client that pipelines requests without reading responses.
const OUT_HIGH_WATER: usize = 256 * 1024;

/// Compact a write buffer once this many flushed bytes sit in front of
/// the unflushed remainder.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// How soon a connection backpressured on the ingest pipeline is ticked
/// again. A shard writer taking a batch off its full inbox is what
/// clears the condition, and nothing signals that to the worker, so this
/// is a timed recheck — short, because an inbox drains in microseconds
/// and bulk ingest would otherwise be quantized to the wait.
const BACKPRESSURE_RECHECK: Duration = Duration::from_micros(100);

/// What a connection is waiting for, derived from its state each time
/// its worker is about to block.
pub(crate) struct Interest {
    /// Socket events to poll for. Read interest is *absent* — not merely
    /// ignored — whenever the connection would not read (end of stream
    /// seen, output over the high-water mark, closing, backpressured): a
    /// level-triggered poller reports a readable socket nobody reads on
    /// every call.
    pub events: PollFlags,
    /// Tick the connection no later than this even if its socket stays
    /// silent: work no socket event announces (pushed frames, requests
    /// queued behind the high-water mark — both due at once), the
    /// write deadline, the backpressure recheck.
    pub wake_at: Option<Instant>,
}

/// Longest byte sequence that can still be a prefix of a valid
/// `BATCH <nbytes>` header line (`BATCH ` + 20 digits of `u64::MAX` +
/// `\r`); anything longer is known to be data.
const MAX_HEADER: usize = 32;

fn is_retry(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// A bounded outbound buffer flushed by nonblocking writes: responses
/// are queued here and pushed out only as far as the socket accepts,
/// so no connection ever blocks its worker in `write_all`.
#[derive(Default)]
pub(crate) struct WriteBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    pos: usize,
}

impl WriteBuf {
    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Unflushed bytes currently queued.
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn push(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// One nonblocking write pass; returns the bytes flushed this call.
    /// `Err` means the connection is dead (not merely unready).
    pub(crate) fn flush(&mut self, stream: &TcpStream) -> std::io::Result<usize> {
        let mut w = stream;
        let mut sent = 0usize;
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.pos += n;
                    sent += n;
                }
                Err(e) if is_retry(e.kind()) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(sent)
    }
}

/// Byte-level `BATCH` framing state machine of the ingest stream (see
/// [`crate::protocol`] for the grammar). Pure and allocation-light:
/// payload bytes are never copied, only sliced through to the sink,
/// and the only buffering is a candidate header of at most
/// [`MAX_HEADER`] bytes.
pub(crate) struct Framer {
    state: FrameState,
    /// Bytes accumulated while the current line still looks like a
    /// `BATCH` header.
    header: Vec<u8>,
}

enum FrameState {
    /// At a line start: the next bytes may form a `BATCH` header.
    LineStart,
    /// Inside plain data (mid-line): pass through to the next newline.
    MidData,
    /// Inside a frame payload: pass `remaining` bytes through verbatim.
    Payload { remaining: u64 },
}

impl Framer {
    pub(crate) fn new() -> Self {
        Self {
            state: FrameState::LineStart,
            header: Vec::new(),
        }
    }

    /// Routes `bytes` through the framing state machine: valid `BATCH`
    /// headers are consumed; everything else — payload bytes, plain
    /// lines, and invalid headers degraded to data — reaches `sink`
    /// unchanged and in order. The concatenation of sink pieces is
    /// exactly the input minus consumed headers, so framing can never
    /// alter what the line-protocol layer sees.
    pub(crate) fn push(&mut self, mut bytes: &[u8], sink: &mut dyn FnMut(&[u8])) {
        while !bytes.is_empty() {
            match self.state {
                FrameState::Payload { remaining } => {
                    let take = usize::try_from(remaining)
                        .unwrap_or(usize::MAX)
                        .min(bytes.len());
                    sink(&bytes[..take]);
                    let left = remaining - take as u64;
                    if left == 0 {
                        // The end of a payload is always a framing
                        // position — back-to-back frames may split a
                        // line between their payloads. A plain
                        // continuation that doesn't look like a header
                        // falls straight through LineStart's fast path.
                        self.state = FrameState::LineStart;
                    } else {
                        self.state = FrameState::Payload { remaining: left };
                    }
                    bytes = &bytes[take..];
                }
                FrameState::MidData => {
                    // Pass whole data lines through in one piece; stop
                    // only where the next line could start a header.
                    let mut end = 0;
                    let mut next_state = FrameState::MidData;
                    loop {
                        match bytes[end..].iter().position(|&b| b == b'\n') {
                            None => {
                                end = bytes.len();
                                break;
                            }
                            Some(pos) => {
                                end += pos + 1;
                                next_state = FrameState::LineStart;
                                match bytes.get(end) {
                                    Some(c) if c.eq_ignore_ascii_case(&b'B') => break,
                                    None => break,
                                    Some(_) => {
                                        next_state = FrameState::MidData;
                                        continue;
                                    }
                                }
                            }
                        }
                    }
                    sink(&bytes[..end]);
                    self.state = next_state;
                    bytes = &bytes[end..];
                }
                FrameState::LineStart => {
                    if self.header.is_empty() && !bytes[0].eq_ignore_ascii_case(&b'B') {
                        // Fast path: this line cannot be a header.
                        self.state = FrameState::MidData;
                        continue;
                    }
                    let b = bytes[0];
                    bytes = &bytes[1..];
                    self.header.push(b);
                    if b == b'\n' {
                        let line = &self.header[..self.header.len() - 1];
                        match protocol::parse_batch_header(line) {
                            Some(0) => {} // empty frame: stay at line start
                            Some(n) => self.state = FrameState::Payload { remaining: n },
                            // Looked like a header but isn't one:
                            // degrade to a data line (it will surface
                            // as a parse failure downstream).
                            None => sink(&self.header),
                        }
                        self.header.clear();
                    } else if !plausible_header(&self.header) {
                        // Diverged from `BATCH <digits>`: what was
                        // buffered is ordinary data.
                        sink(&self.header);
                        self.header.clear();
                        self.state = FrameState::MidData;
                    }
                }
            }
        }
    }
}

/// Whether `header` is still a prefix of a valid `BATCH <nbytes>` line.
fn plausible_header(header: &[u8]) -> bool {
    const TAG: &[u8] = b"BATCH ";
    if header.len() > MAX_HEADER {
        return false;
    }
    header.iter().enumerate().all(|(i, &b)| {
        if i < TAG.len() {
            b.eq_ignore_ascii_case(&TAG[i])
        } else {
            b.is_ascii_digit() || b == b'\r'
        }
    })
}

enum IngestPhase {
    /// Reading the socket and feeding the pipeline.
    Streaming,
    /// Stream over (EOF, error, or drain): flushing the report line.
    Flushing,
    /// Socket closed; the worker drops the connection.
    Done,
}

/// One ingest connection on the event core: a nonblocking socket driven
/// through the [`Framer`] into its own [`StreamIngestor`] session on the
/// server's shard writers, via the non-blocking
/// [`StreamIngestor::try_feed`] path (parsing runs here, on the event
/// worker). Backpressure without a blocked thread: while a writer's
/// bounded inbox is full the tick stops reading, the kernel buffer
/// fills, and TCP flow control stalls the sender — the blocking
/// [`StreamIngestor::feed`]'s behavior, minus the blocked thread.
pub(crate) struct IngestConn {
    stream: TcpStream,
    shared: Arc<Shared>,
    _slot: ActiveGuard,
    peer: String,
    id: u64,
    /// `Some` while streaming; taken by `begin_close`.
    ingestor: Option<StreamIngestor>,
    framer: Framer,
    out: WriteBuf,
    phase: IngestPhase,
    /// Last instant the report flush made byte progress.
    last_write_progress: Instant,
    /// The last tick stopped because a shard writer's bounded inbox was
    /// full — waiting on writer progress, not on the peer.
    backpressured: bool,
}

impl IngestConn {
    /// Builds the connection (nonblocking socket + ingest session +
    /// registry entry); spawns nothing and never blocks. `None` means
    /// the socket was refused and already closed.
    pub(crate) fn new(stream: TcpStream, shared: Arc<Shared>, slot: ActiveGuard) -> Option<Self> {
        if stream.set_nonblocking(true).is_err() {
            let _ = stream.shutdown(SocketShutdown::Both);
            return None;
        }
        let _ = stream.set_nodelay(true);
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "<unknown>".to_owned(), |a| a.to_string());
        let ingestor = shared.writers().session(shared.config().default_ts);
        let id = shared.register_connection(ingestor.watch_progress());
        Some(Self {
            stream,
            shared,
            _slot: slot,
            peer,
            id,
            ingestor: Some(ingestor),
            framer: Framer::new(),
            out: WriteBuf::default(),
            phase: IngestPhase::Streaming,
            last_write_progress: Instant::now(),
            backpressured: false,
        })
    }

    pub(crate) fn fd(&self) -> BorrowedFd<'_> {
        self.stream.as_fd()
    }

    pub(crate) fn interest(&self, now: Instant) -> Interest {
        match self.phase {
            // A shard writer, not the peer, ends backpressure: no read
            // interest, a timed recheck instead.
            IngestPhase::Streaming if self.backpressured => Interest {
                events: PollFlags::empty(),
                wake_at: Some(now + BACKPRESSURE_RECHECK),
            },
            IngestPhase::Streaming => Interest {
                events: PollFlags::POLLIN,
                wake_at: None,
            },
            // The peer reading its report (`POLLOUT`) is what ends the
            // flush; the write deadline bounds how long it may take.
            IngestPhase::Flushing | IngestPhase::Done => Interest {
                events: PollFlags::POLLOUT,
                wake_at: Some(self.last_write_progress + self.shared.config().write_deadline),
            },
        }
    }

    /// One bounded step of whatever phase the connection is in; returns
    /// whether it is done (socket closed, to be dropped).
    pub(crate) fn tick(&mut self, scratch: &mut [u8]) -> bool {
        if matches!(self.phase, IngestPhase::Streaming) {
            self.tick_streaming(scratch);
        }
        if matches!(self.phase, IngestPhase::Flushing) {
            self.tick_flushing();
        }
        matches!(self.phase, IngestPhase::Done)
    }

    fn tick_streaming(&mut self, scratch: &mut [u8]) {
        let ing = self
            .ingestor
            .as_mut()
            .expect("streaming phase owns the ingestor");
        // Drain the chunk backlog before reading more: while a writer's
        // inbox is full this connection must not consume input — the
        // event loop's stand-in for `feed()`'s blocking backpressure.
        self.backpressured = !ing.try_pump();
        let mut budget = self.shared.config().read_budget;
        while budget > 0 && !self.backpressured {
            let want = budget.min(scratch.len());
            match (&self.stream).read(&mut scratch[..want]) {
                Ok(0) => {
                    self.begin_close(true);
                    return;
                }
                Ok(n) => {
                    budget -= n;
                    self.framer.push(&scratch[..n], &mut |piece| {
                        ing.try_feed(piece);
                    });
                    self.backpressured = !ing.try_pump();
                }
                Err(e) if is_retry(e.kind()) => {
                    // The socket is drained and the peer may say nothing
                    // more for a long time: hand the lines short of a
                    // full chunk to the writers now, or a slow live
                    // feed stays invisible to readers and subscribers
                    // until `chunk_lines` lines have accumulated.
                    self.backpressured = !ing.try_flush();
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.begin_close(false);
                    return;
                }
            }
        }
    }

    /// Ends the stream — `finish()` on a clean EOF (the trailing
    /// unterminated line is real data), `abort()` on error or drain
    /// (the tail is indistinguishable from a truncated record) — and
    /// queues the report line for flushing. `finish`/`abort` wait for
    /// the shard writers to apply this session's last batches and flush
    /// its reorder stages: server-side work bounded by the in-flight
    /// window, never by client behavior.
    fn begin_close(&mut self, clean: bool) {
        let ingestor = self
            .ingestor
            .take()
            .expect("close only happens once, from the streaming phase");
        let report = if clean {
            ingestor.finish()
        } else {
            ingestor.abort()
        };
        self.shared.finish_connection(self.id, &report);
        if self.shared.verbose() {
            obs::info(
                "server",
                "ingest_closed",
                &[("peer", &self.peer), ("report", &report)],
            );
        }
        self.out.push(format!("{report}\n").as_bytes());
        self.phase = IngestPhase::Flushing;
        self.last_write_progress = Instant::now();
    }

    fn tick_flushing(&mut self) {
        match self.out.flush(&self.stream) {
            Ok(n) => {
                if n > 0 {
                    self.last_write_progress = Instant::now();
                }
                if self.out.is_empty()
                    || self.last_write_progress.elapsed() > self.shared.config().write_deadline
                {
                    // Flushed — or the peer stopped reading its own
                    // report; either way, stop holding the slot.
                    let _ = self.stream.shutdown(SocketShutdown::Both);
                    self.phase = IngestPhase::Done;
                }
            }
            Err(_) => self.phase = IngestPhase::Done,
        }
    }

    /// Finalization at drain time, or when the peer hung up on a
    /// connection that was not reading: abort the stream (complete lines
    /// applied, reorder buffers flushed, the possibly-truncated tail
    /// discarded), then one best-effort flush of the report — bounded
    /// by server-side work only, never by the client.
    pub(crate) fn finalize(&mut self) {
        if matches!(self.phase, IngestPhase::Streaming) {
            self.begin_close(false);
        }
        if matches!(self.phase, IngestPhase::Flushing) {
            let _ = self.out.flush(&self.stream);
            let _ = self.stream.shutdown(SocketShutdown::Both);
            self.phase = IngestPhase::Done;
        }
    }
}

/// One query/ops connection on the event core: a line accumulator in
/// front of [`execute`], with responses queued through a [`WriteBuf`]
/// so a slow reader never blocks the worker. A reader stalled past
/// [`crate::ServerConfig::write_deadline`] with queued output is
/// disconnected (a queued `SHUTDOWN` still takes effect — the
/// client's inability to read the acknowledgment must not cancel it).
pub(crate) struct QueryConn {
    stream: TcpStream,
    shared: Arc<Shared>,
    _slot: ActiveGuard,
    acc: Vec<u8>,
    out: WriteBuf,
    /// This connection's standing subscriptions; dropping the
    /// connection (any path) unsubscribes them via `SubSession::drop`.
    session: SubSession,
    /// Client half-closed its write side; close once every request
    /// already received is answered and `out` drains.
    /// With live subscriptions the connection stays open in push-only
    /// mode — `watch`-style clients half-close after subscribing.
    eof: bool,
    /// Close once `out` drains (fatal protocol error or `SHUTDOWN`).
    close_after_flush: bool,
    /// Call `request_shutdown` when the connection finishes.
    shutdown_when_done: bool,
    /// Complete request lines sit in `acc`, held back by the output
    /// high-water mark: work to resume as soon as `out` has room, which
    /// no socket event announces if the flush that made the room
    /// happened inside the same tick.
    requests_queued: bool,
    last_write_progress: Instant,
    done: bool,
}

impl QueryConn {
    /// Builds the connection; `waker` is the owning worker's, so a
    /// frame pushed into this connection's outbox wakes the thread that
    /// will write it out. `None` means the socket was refused and
    /// already closed.
    pub(crate) fn new(
        stream: TcpStream,
        shared: Arc<Shared>,
        slot: ActiveGuard,
        waker: Arc<Waker>,
    ) -> Option<Self> {
        if stream.set_nonblocking(true).is_err() {
            let _ = stream.shutdown(SocketShutdown::Both);
            return None;
        }
        let _ = stream.set_nodelay(true);
        let session = SubSession::new(Arc::clone(shared.subscriptions()), Outbox::new(waker));
        Some(Self {
            stream,
            shared,
            _slot: slot,
            acc: Vec::new(),
            out: WriteBuf::default(),
            session,
            eof: false,
            close_after_flush: false,
            shutdown_when_done: false,
            requests_queued: false,
            last_write_progress: Instant::now(),
            done: false,
        })
    }

    pub(crate) fn fd(&self) -> BorrowedFd<'_> {
        self.stream.as_fd()
    }

    pub(crate) fn interest(&self, now: Instant) -> Interest {
        let mut events = PollFlags::empty();
        let mut wake_at = None;
        if !self.out.is_empty() {
            // The peer reading (`POLLOUT`) is what drains `out`; the
            // write deadline bounds how long it may not.
            events |= PollFlags::POLLOUT;
            wake_at = Some(self.last_write_progress + self.shared.config().write_deadline);
        }
        if self.out.len() < OUT_HIGH_WATER {
            if !self.eof && !self.close_after_flush {
                events |= PollFlags::POLLIN;
            }
            if self.requests_queued
                || (self.session.has_subs() && !self.session.outbox().is_empty())
            {
                wake_at = Some(now);
            }
        }
        Interest { events, wake_at }
    }

    /// One bounded step: flush, move pushed lines, read, execute, flush;
    /// returns whether the connection is done (socket closed, to be
    /// dropped).
    pub(crate) fn tick(&mut self, scratch: &mut [u8]) -> bool {
        if self.done {
            return true;
        }

        // 1. Writes first: readiness applies to both socket halves, and
        // draining `out` is what re-opens the read path below.
        if !self.flush_out() {
            return true;
        }
        if !self.out.is_empty()
            && self.last_write_progress.elapsed() > self.shared.config().write_deadline
        {
            // Stalled reader with queued responses: disconnect rather
            // than buffer unboundedly or hold the slot forever.
            self.finish_now();
            return true;
        }

        // 1b. Move pushed FRAME/ALERT lines into the write buffer,
        // bounded by the same high-water mark as request responses: a
        // subscriber that stops reading fills `out`, further frames
        // lag-drop in its bounded outbox, and the write-deadline check
        // above eventually disconnects it — ingest is never delayed.
        if self.session.has_subs() && self.out.len() < OUT_HIGH_WATER {
            let was_empty = self.out.is_empty();
            let out = &mut self.out;
            let moved = self
                .session
                .outbox()
                .drain(OUT_HIGH_WATER - out.len(), |line| out.push(line.as_bytes()));
            if moved && was_empty {
                // Arm the stall deadline fresh: the clock starts when
                // output becomes pending, not at connect time.
                self.last_write_progress = Instant::now();
            }
        }

        // 2. Read more requests — only while the client keeps draining
        // responses (high-water mark) and wants more (`eof`).
        if !self.eof && !self.close_after_flush && self.out.len() < OUT_HIGH_WATER {
            let mut budget = self.shared.config().read_budget;
            while budget > 0 {
                let want = budget.min(scratch.len());
                match (&self.stream).read(&mut scratch[..want]) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => {
                        budget -= n;
                        self.acc.extend_from_slice(&scratch[..n]);
                        if self.acc.len() > MAX_LINE_BYTES {
                            break;
                        }
                    }
                    Err(e) if is_retry(e.kind()) => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.finish_now();
                        return true;
                    }
                }
            }
        }

        // 3. Execute complete lines, bounded by the same high-water
        // mark so a request burst cannot queue unbounded responses.
        self.requests_queued = false;
        while !self.close_after_flush {
            let Some(pos) = self.acc.iter().position(|&b| b == b'\n') else {
                break;
            };
            if self.out.len() >= OUT_HIGH_WATER {
                self.requests_queued = true;
                break;
            }
            let raw: Vec<u8> = self.acc.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&raw);
            let line = text.trim();
            if line.is_empty() {
                continue;
            }
            let (response, shutdown_after) = execute(line, &self.shared, &mut self.session);
            self.out.push(response.as_bytes());
            self.last_write_progress = Instant::now();
            if shutdown_after {
                self.shutdown_when_done = true;
                self.close_after_flush = true;
            }
        }
        // A newline-free request past the line cap is fatal: answer
        // with one ERR and disconnect (remote input must not grow
        // server memory).
        if !self.close_after_flush && !self.requests_queued && self.acc.len() > MAX_LINE_BYTES {
            self.out.push(
                protocol::render_error(&format!("request line exceeds {MAX_LINE_BYTES} bytes"))
                    .as_bytes(),
            );
            self.last_write_progress = Instant::now();
            self.close_after_flush = true;
        }

        // 4. Flush what this tick produced; close when nothing is left
        // to say. After a half-close that includes every complete
        // request line step 3 left queued at the high-water mark — only
        // an unterminated trailing fragment is discarded.
        if !self.flush_out() {
            return true;
        }
        let answered_all = self.eof && !self.session.has_subs() && !self.requests_queued;
        if self.out.is_empty() && (self.close_after_flush || answered_all) {
            self.finish_now();
            return true;
        }
        false
    }

    /// Flushes `out`; returns `false` when the connection died (already
    /// finished).
    fn flush_out(&mut self) -> bool {
        match self.out.flush(&self.stream) {
            Ok(n) => {
                if n > 0 {
                    self.last_write_progress = Instant::now();
                }
                true
            }
            Err(_) => {
                self.finish_now();
                false
            }
        }
    }

    fn finish_now(&mut self) {
        if self.shutdown_when_done {
            self.shared.request_shutdown();
        }
        let _ = self.stream.shutdown(SocketShutdown::Both);
        self.done = true;
    }

    /// Finalization at drain time, or when the peer hung up on a
    /// connection that was not reading: one best-effort flush, then
    /// close — never waiting on the client.
    pub(crate) fn finalize(&mut self) {
        if self.done {
            return;
        }
        let _ = self.out.flush(&self.stream);
        self.finish_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs bytes through a framer in pieces of `step`, concatenating
    /// what reaches the sink.
    fn defragment(input: &[u8], step: usize) -> Vec<u8> {
        let mut framer = Framer::new();
        let mut out = Vec::new();
        for piece in input.chunks(step.max(1)) {
            framer.push(piece, &mut |bytes| out.extend_from_slice(bytes));
        }
        out
    }

    #[test]
    fn framer_passes_plain_lines_through_unchanged() {
        let doc = b"cpu v=1 1\nmem v=2 2\n\n# comment\ncpu v=3 3\n";
        for step in [1, 2, 3, 7, doc.len()] {
            assert_eq!(defragment(doc, step), doc, "step {step}");
        }
    }

    #[test]
    fn framer_strips_headers_and_passes_payloads_verbatim() {
        let payload = b"cpu v=1 1\nmem v=2 2\n";
        let mut doc = format!("BATCH {}\n", payload.len()).into_bytes();
        doc.extend_from_slice(payload);
        doc.extend_from_slice(b"tail v=3 3\n");
        let mut want = payload.to_vec();
        want.extend_from_slice(b"tail v=3 3\n");
        for step in [1, 4, 9, doc.len()] {
            assert_eq!(defragment(&doc, step), want, "step {step}");
        }
    }

    #[test]
    fn framer_continues_lines_across_frame_boundaries() {
        // One logical line split across a frame payload, plain bytes,
        // and a second frame: the sink must see the bytes contiguously.
        let mut doc = Vec::new();
        doc.extend_from_slice(b"BATCH 12\n");
        doc.extend_from_slice(b"cpu v=1 1\nme"); // 12 bytes, ends mid-line
        doc.extend_from_slice(b"m v="); // plain continuation, still mid-line
        doc.extend_from_slice(b"BATCH 4\n"); // *data*, not a header (mid-line)
        doc.extend_from_slice(b"2 2\n");
        let want = b"cpu v=1 1\nmem v=BATCH 4\n2 2\n";
        for step in [1, 3, 5, doc.len()] {
            assert_eq!(
                String::from_utf8_lossy(&defragment(&doc, step)),
                String::from_utf8_lossy(want),
                "step {step}"
            );
        }
    }

    #[test]
    fn framer_degrades_invalid_headers_to_data() {
        for bad in ["BATCH ten\n", "BATCH \n", "BATCH 1 2\n", "BANANA v=1 1\n"] {
            let doc = format!("{bad}cpu v=1 1\n").into_bytes();
            for step in [1, 2, doc.len()] {
                assert_eq!(defragment(&doc, step), doc, "`{}` step {step}", bad.trim());
            }
        }
    }

    #[test]
    fn framer_handles_empty_and_back_to_back_frames() {
        let mut doc = Vec::new();
        doc.extend_from_slice(b"BATCH 0\n");
        doc.extend_from_slice(b"BATCH 6\n");
        doc.extend_from_slice(b"a v=1\n");
        doc.extend_from_slice(b"BATCH 6\n");
        doc.extend_from_slice(b"b v=2\n");
        let want = b"a v=1\nb v=2\n";
        for step in [1, 5, doc.len()] {
            assert_eq!(defragment(&doc, step), want, "step {step}");
        }
    }

    #[test]
    fn framer_recognizes_headers_immediately_after_mid_line_payloads() {
        // One line split across two back-to-back frames: the second
        // header follows a payload that ended mid-line and must still
        // be consumed as framing, not data.
        let mut doc = Vec::new();
        doc.extend_from_slice(b"BATCH 4\n");
        doc.extend_from_slice(b"m v=");
        doc.extend_from_slice(b"BATCH 4\n");
        doc.extend_from_slice(b"1 1\n");
        for step in [1, 3, doc.len()] {
            assert_eq!(defragment(&doc, step), b"m v=1 1\n", "step {step}");
        }
    }

    #[test]
    fn framer_tolerates_crlf_headers() {
        let doc = b"BATCH 6\r\na v=1\n";
        assert_eq!(defragment(doc, 1), b"a v=1\n");
    }

    #[test]
    fn write_buf_tracks_pending_bytes_and_compacts() {
        let mut buf = WriteBuf::default();
        assert!(buf.is_empty());
        buf.push(b"hello ");
        buf.push(b"world");
        assert_eq!(buf.len(), 11);
        assert!(!buf.is_empty());
    }
}
