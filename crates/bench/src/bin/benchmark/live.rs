//! `live-mixed`: an open-loop feed at a fixed rate on one connection,
//! while the other holds a `SUBSCRIBE` and asks for a `SMOOTH` of the
//! recent past four times a second. About 5 % of what the write path can
//! take, so frame lag measures latency, not saturation.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::child::Server;
use crate::client::{connect, finish_ingest, IngestAck, Polled, Push, QueryConn};
use crate::gen;
use crate::layers;
use crate::oracle::Oracle;
use crate::run::{median_setup, Ctx, Outcome};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::Recorder;

/// One write per tick.
const TICK: Duration = Duration::from_millis(5);
/// Rows (timestamps) per tick: 5 000 rows/s × 8 series = 40 000 points/s.
const ROWS_PER_TICK: usize = 25;
/// The server's `--sub-every`: a frame per series every 500 points.
const SUB_EVERY: usize = 500;
/// Between two `SMOOTH` requests.
const SMOOTH_PERIOD: Duration = Duration::from_millis(250);
/// Rows each `SMOOTH` covers.
const SMOOTH_ROWS: usize = 10_000;
/// How far behind the feed a `SMOOTH` ends (200 ms of rows): far enough
/// that every row it covers has left the reorder stage, so its answer is
/// a function of the inputs and can be checked.
const SMOOTH_BEHIND_ROWS: usize = 1_000;
/// How long after the feed's acknowledgement the last frames may take.
const DRAIN: Duration = Duration::from_secs(5);
const TAIL: f64 = 95.0;

/// When row `row` is due, as an offset from the feed's start.
fn due(row: usize) -> Duration {
    TICK * (row / ROWS_PER_TICK) as u32
}

/// `seq=` of a `FRAME` line.
fn frame_seq(line: &str) -> Option<usize> {
    line.split(' ').nth(2)?.strip_prefix("seq=")?.parse().ok()
}

/// The series key of a `FRAME` line.
fn frame_key(line: &str) -> Option<&str> {
    line.split(' ').nth(1)
}

struct Feed {
    ack: IngestAck,
    late_ms: Vec<f64>,
    finished: Instant,
}

/// The open-loop generator: one frame per tick, on schedule whether or
/// not the server keeps up; how late each write started is recorded.
fn feed(server: &Server, ticks: &[Vec<u8>], start: Instant) -> Result<Feed, String> {
    let mut stream = connect(server.ingest)?;
    let mut late_ms = Vec::with_capacity(ticks.len());
    let mut bytes = 0u64;
    for (i, tick) in ticks.iter().enumerate() {
        let due = start + TICK * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        stream
            .write_all(tick)
            .map_err(|e| format!("send tick {i}: {e}"))?;
        bytes += tick.len() as u64;
    }
    let ack = finish_ingest(stream, bytes)?;
    Ok(Feed {
        ack,
        late_ms,
        finished: Instant::now(),
    })
}

struct Watched {
    pushes: Vec<Push>,
    /// `(command, response text, latency ms)` of every `SMOOTH` issued.
    smooths: Vec<(String, String, f64)>,
    bytes_sent: u64,
    bytes_received: u64,
}

/// The subscriber: collects pushed frames and, on the same connection,
/// issues the periodic `SMOOTH`; after the feed ends it keeps reading
/// until `expected_frames` arrived or [`DRAIN`] passed.
fn watch(
    mut conn: QueryConn,
    rows: usize,
    expected_frames: usize,
    start: Instant,
    feed_done: &AtomicBool,
    rec: Option<&mut Recorder>,
) -> Result<Watched, String> {
    let mut pushes: Vec<Push> = Vec::with_capacity(expected_frames);
    let mut smooths = Vec::new();
    let mut next_smooth = start + SMOOTH_PERIOD;
    let mut drain_until: Option<Instant> = None;
    let mut rec = rec;
    loop {
        let now = Instant::now();
        if feed_done.load(Ordering::SeqCst) {
            let until = *drain_until.get_or_insert(now + DRAIN);
            if pushes.len() >= expected_frames || now >= until {
                break;
            }
        } else if now >= next_smooth {
            next_smooth += SMOOTH_PERIOD;
            let fed_rows = ((now - start).as_nanos() / TICK.as_nanos()) as usize * ROWS_PER_TICK;
            let end = fed_rows.min(rows).saturating_sub(SMOOTH_BEHIND_ROWS) / 100 * 100;
            if end >= SMOOTH_ROWS / 5 {
                let command = format!(
                    "SMOOTH {} {} {end} 1 800",
                    gen::series_name(0),
                    end.saturating_sub(SMOOTH_ROWS)
                );
                let response = conn.request_with_pushes(&command, |push| pushes.push(push))?;
                if let Some(rec) = rec.as_deref_mut() {
                    response.record(rec, "client.smooth", smooths.len() as u64);
                }
                let ms = response.latency().as_secs_f64() * 1e3;
                smooths.push((command, response.text, ms));
            }
            continue;
        }
        let wait = if drain_until.is_some() {
            Duration::from_millis(20)
        } else {
            next_smooth
                .saturating_duration_since(now)
                .min(Duration::from_millis(20))
        };
        match conn.poll_line(wait)? {
            Polled::Line(line, at) if line.starts_with("FRAME ") => pushes.push(Push { line, at }),
            Polled::Line(line, _) => return Err(format!("unexpected line `{}`", line.trim_end())),
            Polled::TimedOut => {}
            Polled::Closed => return Err("the server closed the subscriber".to_owned()),
        }
    }
    Ok(Watched {
        pushes,
        smooths,
        bytes_sent: conn.bytes_sent,
        bytes_received: conn.bytes_received,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let rows = (ctx.seconds / TICK.as_secs_f64()).ceil() as usize * ROWS_PER_TICK;
    let flags = ["--sub-every".to_owned(), SUB_EVERY.to_string()];
    let ((values, ticks, server, conn), setup_s) = median_setup(|| {
        let values = gen::values(rows, ctx.seed);
        let ticks = gen::ticks(&values, ROWS_PER_TICK);
        let server = Server::spawn(&ctx.server, &flags)?;
        let mut conn = QueryConn::connect(server.query)?;
        let ack = conn.request("SUBSCRIBE req.rate")?;
        if !ack
            .text
            .starts_with(&format!("OK subscribed 1 every={SUB_EVERY} "))
        {
            return Err(format!("SUBSCRIBE answered `{}`", ack.text.trim_end()));
        }
        Ok((values, ticks, server, conn))
    })?;
    let points = rows * gen::SERIES;
    let expected_frames = gen::SERIES * (rows / SUB_EVERY);

    let before = server.stats()?;
    let feed_done = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(20);
    let mut rec = Recorder::new(start, 1);
    let (fed, watched) = std::thread::scope(|scope| {
        let feeder = scope.spawn(|| {
            let fed = feed(&server, &ticks, start);
            feed_done.store(true, Ordering::SeqCst);
            fed
        });
        let watcher = scope.spawn(|| {
            watch(
                conn,
                rows,
                expected_frames,
                start,
                &feed_done,
                ctx.trace.then_some(&mut rec),
            )
        });
        (
            feeder.join().expect("feed thread panicked"),
            watcher.join().expect("watch thread panicked"),
        )
    });
    let (fed, watched) = (fed?, watched?);
    let after = server.stats()?;
    let rss_mb = server.peak_rss_mb()?;

    // The oracle: the rows as a serial store, their frames replayed
    // serially, and each SMOOTH answered from the store.
    let (oracle, _) = Oracle::build(&values)?;
    let expected = oracle.frames(SUB_EVERY)?;
    let mut received: BTreeMap<&str, Vec<&Push>> = BTreeMap::new();
    for push in &watched.pushes {
        let key = frame_key(&push.line).ok_or_else(|| format!("bad frame `{}`", push.line))?;
        received.entry(key).or_default().push(push);
    }
    let mut out = Outcome::default();
    let warm_rows = if ctx.smoke { 1_000 } else { SMOOTH_ROWS };
    let mut lags_ms = Vec::new();
    for (key, want) in &expected {
        let got = received.remove(key.as_str()).unwrap_or_default();
        out.attempted += want.len() as u64;
        out.failed += want.len().saturating_sub(got.len()) as u64;
        // Frames are pushed in order and may only go missing from the
        // front of an overflowing outbox, so align the two tails.
        for (push, line) in got.iter().rev().zip(want.iter().rev()) {
            if push.line != *line {
                return Err(format!(
                    "gate: a pushed frame of {key} differs from the serial replay (seq {:?})",
                    frame_seq(&push.line)
                ));
            }
            let seq = frame_seq(line).ok_or_else(|| format!("bad frame `{line}`"))?;
            if seq > warm_rows {
                let lag = push.at.saturating_duration_since(start + due(seq - 1));
                lags_ms.push(lag.as_secs_f64() * 1e3);
            }
        }
        if got.len() > want.len() {
            return Err(format!(
                "gate: {key} got {} frames, the replay has {}",
                got.len(),
                want.len()
            ));
        }
    }
    if let Some(key) = received.keys().next() {
        return Err(format!(
            "gate: frames for `{key}`, which the replay does not know"
        ));
    }
    let acked = fed.ack.clean_points().unwrap_or(0);
    out.attempted += points as u64 + watched.smooths.len() as u64;
    out.failed += (points - acked.min(points)) as u64;
    let mut smooth_ms = Vec::new();
    for (command, text, ms) in &watched.smooths {
        if *text == oracle.respond(command)? {
            smooth_ms.push(*ms);
        } else {
            out.failed += 1;
        }
    }
    if lags_ms.is_empty() {
        return Err("no post-warm-up frame arrived".to_owned());
    }

    let feed_s = (fed.finished - start).as_secs_f64();
    out.metrics.put("setup_s", setup_s, crate::run::SETUPS);
    out.metrics.put(
        "throughput_per_s",
        watched.pushes.len() as f64 / feed_s,
        watched.pushes.len(),
    );
    out.metrics
        .put("latency_p50_ms", median(&lags_ms), lags_ms.len());
    out.metrics.put("peak_rss_mb", rss_mb, 1);
    let m = &mut out.metrics;
    m.put("frame_lag_p50_ms", median(&lags_ms), lags_ms.len());
    m.put(
        "frame_lag_p95_ms",
        percentile(&lags_ms, TAIL),
        lags_ms.len(),
    );
    if highest_supported_percentile(lags_ms.len()).is_none_or(|p| p < TAIL) {
        println!(
            "note: frame_lag_p95_ms has fewer than ten of {} samples beyond it",
            lags_ms.len()
        );
    }
    if !smooth_ms.is_empty() {
        m.put("smooth_p50_ms", median(&smooth_ms), smooth_ms.len());
    }
    m.put("server_rss_mb", rss_mb, 1);
    if ctx.trace {
        m.put(
            "store_bytes_per_point",
            after.get("store.compressed_bytes")? / points as f64,
            1,
        );
        m.put(
            "client.send_late_p99_ms",
            percentile(&fed.late_ms, 99.0),
            fed.late_ms.len(),
        );
        m.put(
            "client.bytes_sent",
            (fed.ack.bytes_sent + watched.bytes_sent) as f64,
            1,
        );
        m.put(
            "client.bytes_received",
            (fed.ack.report.len() as u64 + watched.bytes_received) as f64,
            1,
        );
        m.put(
            "server.subscribe.frames_pushed",
            after.delta(&before, "subscriptions.frames_pushed")?,
            1,
        );
        m.put(
            "server.subscribe.frames_lagged",
            after.delta(&before, "subscriptions.frames_lagged")?,
            1,
        );
        m.put(
            "server.event.parks",
            after.delta(&before, "event.parks")?,
            1,
        );
        m.put(
            "server.event.sweeps",
            after.delta(&before, "event.sweeps")?,
            1,
        );
        let one: Vec<f64> = values.iter().step_by(gen::SERIES).copied().collect();
        m.extend(layers::streaming(&one, SUB_EVERY, &mut rec)?);
    }
    server.shutdown()?;
    out.spans = rec.into_spans();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_due_when_their_last_row_is() {
        assert_eq!(due(0), Duration::ZERO);
        assert_eq!(due(24), Duration::ZERO);
        assert_eq!(due(25), TICK);
        assert_eq!(due(499), TICK * 19);
        assert_eq!(
            ROWS_PER_TICK * gen::SERIES * 200,
            40_000,
            "points per second"
        );
    }

    #[test]
    fn frame_lines_give_up_their_key_and_seq() {
        let line = "FRAME req.rate{host=h03} seq=1500 window=4 n=2 0.5,0.25\n";
        assert_eq!(frame_key(line), Some("req.rate{host=h03}"));
        assert_eq!(frame_seq(line), Some(1500));
        assert_eq!(frame_seq("FRAME x window=4\n"), None);
    }
}
