//! The load generator's two kinds of connection: the line-oriented
//! query/ops port and the bulk ingest port.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::gen::Partition;
use crate::trace::Recorder;

/// Longest any single read may block before the run is declared hung.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A connected socket with Nagle off and the long read timeout; what an
/// ingest connection the caller feeds at its own pace is.
pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// One complete response and when its parts arrived.
#[derive(Debug, Clone)]
pub struct Response {
    pub text: String,
    /// Just before the request was written.
    pub sent: Instant,
    /// The request line is in the kernel.
    pub written: Instant,
    /// The response's first line arrived.
    pub first: Instant,
    /// The response's last line arrived.
    pub last: Instant,
}

impl Response {
    pub fn latency(&self) -> Duration {
        self.last - self.sent
    }

    pub fn is_err(&self) -> bool {
        self.text.starts_with("ERR")
    }

    /// Records the request as a root span `name` with its three phases
    /// as children: send → first byte → last byte.
    pub fn record(&self, rec: &mut Recorder, name: &'static str, request: u64) {
        let (sent, written) = (rec.at(self.sent), rec.at(self.written));
        let (first, last) = (rec.at(self.first), rec.at(self.last));
        let root = rec.record(name, None, request, sent, last);
        rec.record("client.send", Some(root), request, sent, written);
        rec.record(
            "client.first_byte_wait",
            Some(root),
            request,
            written,
            first,
        );
        rec.record("client.receive", Some(root), request, first, last);
    }
}

/// A pushed `FRAME`/`ALERT` line and when it arrived.
#[derive(Debug, Clone)]
pub struct Push {
    pub line: String,
    pub at: Instant,
}

/// What [`QueryConn::poll_line`] saw.
#[derive(Debug)]
pub enum Polled {
    Line(String, Instant),
    TimedOut,
    Closed,
}

/// A connection to the query/ops port.
#[derive(Debug)]
pub struct QueryConn {
    reader: BufReader<TcpStream>,
    /// A line whose tail has not arrived yet (a read timed out mid-line).
    partial: String,
    /// The socket's current read timeout, so it is set only on change
    /// (a 10 000-line response must not cost 10 000 `setsockopt` calls).
    timeout: Duration,
    pub bytes_sent: u64,
    pub bytes_received: u64,
}

impl QueryConn {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        Ok(QueryConn {
            reader: BufReader::with_capacity(256 * 1024, connect(addr)?),
            partial: String::new(),
            timeout: IO_TIMEOUT,
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    /// Waits at most `timeout` for one complete line.
    pub fn poll_line(&mut self, timeout: Duration) -> Result<Polled, String> {
        let timeout = timeout.max(Duration::from_micros(100));
        if timeout != self.timeout {
            self.reader
                .get_ref()
                .set_read_timeout(Some(timeout))
                .map_err(|e| e.to_string())?;
            self.timeout = timeout;
        }
        match self.reader.read_line(&mut self.partial) {
            Ok(0) => Ok(Polled::Closed),
            Ok(_) if self.partial.ends_with('\n') => {
                let at = Instant::now();
                self.bytes_received += self.partial.len() as u64;
                Ok(Polled::Line(std::mem::take(&mut self.partial), at))
            }
            // EOF in the middle of a line.
            Ok(_) => Ok(Polled::Closed),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(Polled::TimedOut)
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn next_line(&mut self) -> Result<(String, Instant), String> {
        match self.poll_line(IO_TIMEOUT)? {
            Polled::Line(line, at) => Ok((line, at)),
            Polled::TimedOut => Err(format!("no response line within {IO_TIMEOUT:?}")),
            Polled::Closed => Err("server closed the query connection".to_owned()),
        }
    }

    /// Sends one command line and reads its complete response. Pushed
    /// lines that arrive first are handed to `on_push`: the server only
    /// ever interleaves them between responses, at line granularity.
    pub fn request_with_pushes(
        &mut self,
        command: &str,
        mut on_push: impl FnMut(Push),
    ) -> Result<Response, String> {
        let sent = Instant::now();
        let stream = self.reader.get_mut();
        stream
            .write_all(format!("{command}\n").as_bytes())
            .map_err(|e| format!("send `{command}`: {e}"))?;
        let written = Instant::now();
        self.bytes_sent += command.len() as u64 + 1;
        let (mut text, first) = loop {
            let (line, at) = self.next_line()?;
            if line.starts_with("FRAME ") || line.starts_with("ALERT ") {
                on_push(Push { line, at });
            } else {
                break (line, at);
            }
        };
        let multi_line = text
            .strip_prefix("OK ")
            .is_some_and(|rest| rest.trim() == "stats" || rest.trim().parse::<usize>().is_ok());
        // The body is appended in place: `next_line` left the socket at
        // the long timeout, and a 10 000-row response should not cost
        // 10 000 allocations on the clock.
        let head = text.len();
        while multi_line && !text.ends_with("\nEND\n") {
            match self.reader.read_line(&mut text) {
                Ok(0) => return Err("server closed the connection inside a response".to_owned()),
                Ok(_) => {}
                Err(e) => return Err(format!("read response body: {e}")),
            }
        }
        self.bytes_received += (text.len() - head) as u64;
        let last = if text.len() > head {
            Instant::now()
        } else {
            first
        };
        Ok(Response {
            text,
            sent,
            written,
            first,
            last,
        })
    }

    /// [`Self::request_with_pushes`] on a connection with no
    /// subscription.
    pub fn request(&mut self, command: &str) -> Result<Response, String> {
        self.request_with_pushes(command, |push| {
            panic!("unsolicited push on a plain connection: {}", push.line)
        })
    }
}

/// What one bulk-load connection reported.
#[derive(Debug, Clone)]
pub struct IngestAck {
    /// The server's report line (`lines=… points=… clean=true`).
    pub report: String,
    pub bytes_sent: u64,
    /// Just before connecting (or, for a hand-fed connection, before the
    /// half-close).
    pub started: Instant,
    /// Everything is written and the connection half-closed.
    pub sent: Instant,
    /// The report arrived.
    pub acked: Instant,
}

impl IngestAck {
    /// Points the report acknowledges as applied, if it is clean.
    pub fn clean_points(&self) -> Option<usize> {
        if !self.report.contains("clean=true") {
            return None;
        }
        self.report
            .split(' ')
            .find_map(|token| token.strip_prefix("points="))
            .and_then(|n| n.trim().parse().ok())
    }
}

/// Streams one partition frame by frame, half-closes, and waits for the
/// server's report — the ingest port's acknowledgement.
pub fn bulk_load(addr: SocketAddr, partition: &Partition) -> Result<IngestAck, String> {
    let started = Instant::now();
    let mut stream = connect(addr)?;
    let bytes = &partition.bytes;
    for (i, &start) in partition.frame_starts.iter().enumerate() {
        let end = partition
            .frame_starts
            .get(i + 1)
            .copied()
            .unwrap_or(bytes.len());
        stream
            .write_all(&bytes[start..end])
            .map_err(|e| format!("send frame {i}: {e}"))?;
    }
    let mut ack = finish_ingest(stream, bytes.len() as u64)?;
    ack.started = started;
    Ok(ack)
}

/// Half-closes an ingest connection and reads its report.
pub fn finish_ingest(mut stream: TcpStream, bytes_sent: u64) -> Result<IngestAck, String> {
    let started = Instant::now();
    stream
        .shutdown(Shutdown::Write)
        .map_err(|e| format!("half-close: {e}"))?;
    let sent = Instant::now();
    let mut report = String::new();
    stream
        .read_to_string(&mut report)
        .map_err(|e| format!("read ingest report: {e}"))?;
    Ok(IngestAck {
        report,
        bytes_sent,
        started,
        sent,
        acked: Instant::now(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A scripted peer: reads one line per entry, then writes the reply.
    fn peer(script: Vec<&'static str>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            for reply in script {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                (&stream).write_all(reply.as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn responses_are_delimited_and_pushes_are_set_aside() {
        let (addr, handle) = peer(vec![
            "OK healthy x=1\n",
            "FRAME a seq=5 window=1 n=1 0.5\nOK 1\nSERIES a 1\n1 2\nEND\n",
            "ERR nope\n",
            "OK stats\nx 1\nEND\n",
        ]);
        let mut conn = QueryConn::connect(addr).unwrap();
        assert_eq!(conn.request("HEALTH").unwrap().text, "OK healthy x=1\n");
        let mut pushes = Vec::new();
        let response = conn
            .request_with_pushes("RANGE a 0 9", |p| pushes.push(p.line))
            .unwrap();
        assert_eq!(response.text, "OK 1\nSERIES a 1\n1 2\nEND\n");
        assert_eq!(pushes, vec!["FRAME a seq=5 window=1 n=1 0.5\n"]);
        assert!(response.sent <= response.written && response.first <= response.last);
        assert!(conn.request("BAD").unwrap().is_err());
        assert_eq!(conn.request("STATS").unwrap().text, "OK stats\nx 1\nEND\n");
        assert_eq!(
            conn.bytes_sent,
            "HEALTH\nRANGE a 0 9\nBAD\nSTATS\n".len() as u64
        );
        handle.join().unwrap();
        assert!(matches!(
            conn.poll_line(Duration::from_millis(50)).unwrap(),
            Polled::Closed
        ));
    }

    #[test]
    fn poll_line_times_out_without_losing_a_partial_line() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(b"FRAME half").unwrap();
            go_rx.recv().unwrap();
            stream.write_all(b" done\n").unwrap();
        });
        let mut conn = QueryConn::connect(addr).unwrap();
        assert!(matches!(
            conn.poll_line(Duration::from_millis(30)).unwrap(),
            Polled::TimedOut
        ));
        go_tx.send(()).unwrap();
        match conn.poll_line(Duration::from_secs(5)).unwrap() {
            Polled::Line(line, _) => assert_eq!(line, "FRAME half done\n"),
            other => panic!("{other:?}"),
        }
        handle.join().unwrap();
    }

    #[test]
    fn acks_count_points_only_when_clean() {
        let now = Instant::now();
        let ack = |report: &str| IngestAck {
            report: report.to_owned(),
            bytes_sent: 0,
            started: now,
            sent: now,
            acked: now,
        };
        assert_eq!(
            ack("lines=4 points=4 reordered=1 dropped_late=0 clean=true\n").clean_points(),
            Some(4)
        );
        assert_eq!(
            ack("lines=4 points=3 dropped_late=1 clean=false\n").clean_points(),
            None
        );
        assert_eq!(ack("ERR too many connections\n").clean_points(), None);
    }
}
