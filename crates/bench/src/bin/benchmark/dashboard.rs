//! `dashboard-read`: the payload preloaded, no ingest, two closed-loop
//! connections asking for a seeded 70/30 mix of full-range `SMOOTH` and
//! tail `RANGE` requests, 2 ms apart.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::child::Server;
use crate::client::{IngestAck, QueryConn};
use crate::gen::{self, Payload, Rng};
use crate::ingest::{load, roundtrip_floor_ms};
use crate::layers;
use crate::oracle::Oracle;
use crate::run::{median_setup, Ctx, Outcome};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::{Recorder, Span};

/// Display width every `SMOOTH` asks for.
const RESOLUTION: usize = 800;
/// The tail percentile reported beside the median.
const TAIL: f64 = 95.0;
/// A panel's turn-around between an answer and its next request. Without
/// it the next request races the server worker's decision to park: the
/// 9-12 % of requests that won skipped the 25 ms wake-up, their share
/// moved from run to run, and requests per second spread 8.7 % against a
/// 10 % bound. With it every request meets a parked worker.
const THINK: Duration = Duration::from_millis(2);

/// `SMOOTH <series h> 0 <rows> 1 800`: every sealed block decoded,
/// `rows / 800` points pre-aggregated into each pixel.
pub fn smooth_command(h: usize, rows: usize) -> String {
    format!("SMOOTH {} 0 {rows} 1 {RESOLUTION}", gen::series_name(h))
}

/// `RANGE <series h> <last fifteenth>`: raw rows, render- and wire-heavy.
pub fn range_command(h: usize, rows: usize) -> String {
    format!("RANGE {} {} {rows}", gen::series_name(h), rows - rows / 15)
}

/// The next request of a connection's seeded sequence.
fn next_command(rng: &mut Rng, rows: usize) -> (bool, String) {
    let smooth = rng.below(10) < 7;
    let h = rng.below(gen::SERIES as u64) as usize;
    let command = if smooth {
        smooth_command(h, rows)
    } else {
        range_command(h, rows)
    };
    (smooth, command)
}

#[derive(Default)]
struct ClientLog {
    smooth_ms: Vec<f64>,
    range_ms: Vec<f64>,
    errors: u64,
    /// The first response that differed from the oracle, if any.
    mismatch: Option<String>,
    bytes_sent: u64,
    bytes_received: u64,
    spans: Vec<Span>,
}

/// One closed-loop client: request, check, repeat until `deadline`.
fn client(
    mut conn: QueryConn,
    lane: u64,
    ctx: &Ctx,
    rows: usize,
    expected: &BTreeMap<String, String>,
    origin: Instant,
    deadline: Instant,
) -> Result<ClientLog, String> {
    let mut rng = Rng::new(ctx.seed ^ (0xda5b_0000 + lane));
    let mut rec = Recorder::new(origin, lane);
    let mut log = ClientLog::default();
    let mut request = lane << 32;
    while Instant::now() < deadline {
        let (smooth, command) = next_command(&mut rng, rows);
        let response = conn.request(&command)?;
        let ms = response.latency().as_secs_f64() * 1e3;
        if response.is_err() {
            log.errors += 1;
        } else if response.text != expected[&command] {
            log.mismatch.get_or_insert(command);
        } else if smooth {
            log.smooth_ms.push(ms);
        } else {
            log.range_ms.push(ms);
        }
        if ctx.trace {
            let name = if smooth {
                "client.smooth"
            } else {
                "client.range"
            };
            response.record(&mut rec, name, request);
        }
        request += 1;
        std::thread::sleep(THINK);
    }
    log.bytes_sent = conn.bytes_sent;
    log.bytes_received = conn.bytes_received;
    log.spans = rec.into_spans();
    Ok(log)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let rows = ctx.rows();
    let ((payload, server, conns), setup_s) = median_setup(|| {
        let payload = Payload::generate(rows, ctx.seed);
        let server = Server::spawn(&ctx.server, &[])?;
        let (acks, _) = load(&server, &payload)?;
        let acked: usize = acks.iter().filter_map(IngestAck::clean_points).sum();
        if acked != payload.points() {
            return Err(format!(
                "preload acknowledged {acked} of {} points",
                payload.points()
            ));
        }
        let conns = (0..gen::CONNECTIONS)
            .map(|_| QueryConn::connect(server.query))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((payload, server, conns))
    })?;

    // Every distinct request's answer, from the serial oracle, before any
    // clock starts.
    let (oracle, _) = Oracle::build(&payload.values)?;
    let smooths: Vec<String> = (0..gen::SERIES).map(|h| smooth_command(h, rows)).collect();
    let ranges: Vec<String> = (0..gen::SERIES).map(|h| range_command(h, rows)).collect();
    let expected: BTreeMap<String, String> = smooths
        .iter()
        .chain(&ranges)
        .map(|command| Ok((command.clone(), oracle.respond(command)?)))
        .collect::<Result<_, String>>()?;

    let floor_ms = if ctx.trace {
        Some(roundtrip_floor_ms(&server)?)
    } else {
        None
    };
    let before = server.stats()?;
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(ctx.seconds);
    let logs: Result<Vec<ClientLog>, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(lane, conn)| {
                let expected = &expected;
                scope.spawn(move || {
                    client(conn, lane as u64 + 1, ctx, rows, expected, origin, deadline)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = origin.elapsed();
    let logs = logs?;
    let after = server.stats()?;

    if let Some(command) = logs.iter().find_map(|l| l.mismatch.as_ref()) {
        return Err(format!(
            "gate: the response to `{command}` differs from the serial oracle"
        ));
    }
    let smooth_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.smooth_ms.iter().copied())
        .collect();
    let range_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.range_ms.iter().copied())
        .collect();
    if smooth_ms.is_empty() || range_ms.is_empty() {
        return Err("the measured phase answered no SMOOTH or no RANGE".to_owned());
    }
    let mut out = Outcome::default();
    out.failed = logs.iter().map(|l| l.errors).sum();
    out.attempted = (smooth_ms.len() + range_ms.len()) as u64 + out.failed;
    let rss_mb = server.peak_rss_mb()?;
    out.metrics.put("setup_s", setup_s, crate::run::SETUPS);
    out.metrics.put(
        "throughput_per_s",
        (smooth_ms.len() + range_ms.len()) as f64 / elapsed.as_secs_f64(),
        smooth_ms.len() + range_ms.len(),
    );
    out.metrics
        .put("latency_p50_ms", median(&smooth_ms), smooth_ms.len());
    out.metrics.put("peak_rss_mb", rss_mb, 1);

    let m = &mut out.metrics;
    m.put("smooth_p50_ms", median(&smooth_ms), smooth_ms.len());
    m.put(
        "smooth_p95_ms",
        percentile(&smooth_ms, TAIL),
        smooth_ms.len(),
    );
    m.put("range_p50_ms", median(&range_ms), range_ms.len());
    if highest_supported_percentile(smooth_ms.len()).is_none_or(|p| p < TAIL) {
        println!(
            "note: smooth_p95_ms has fewer than ten of {} samples beyond it",
            smooth_ms.len()
        );
    }
    m.put("server_rss_mb", rss_mb, 1);
    if ctx.trace {
        let mut rec = Recorder::new(origin, 0);
        m.put(
            "store_bytes_per_point",
            after.get("store.compressed_bytes")? / payload.points() as f64,
            1,
        );
        m.put(
            "client.roundtrip_floor_ms",
            floor_ms.expect("measured above"),
            crate::ingest::FLOOR_SAMPLES,
        );
        m.put(
            "client.bytes_sent",
            logs.iter().map(|l| l.bytes_sent).sum::<u64>() as f64,
            1,
        );
        m.put(
            "client.bytes_received",
            logs.iter().map(|l| l.bytes_received).sum::<u64>() as f64,
            1,
        );
        m.put(
            "server.stats.smooth_execute_p50_us",
            after.get("query.smooth.execute_micros.p50")?,
            1,
        );
        m.put(
            "server.stats.smooth_render_p50_us",
            after.get("query.smooth.render_micros.p50")?,
            1,
        );
        m.put(
            "server.stats.range_execute_p50_us",
            after.get("query.range.execute_micros.p50")?,
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
        // `expected` is what every served response was checked against, so
        // it stands for the served bytes in the layer replay's own check.
        let layer = layers::read_path(&oracle, &smooths, &ranges, &expected, &mut rec)?;
        m.extend(layer);
        out.spans = logs
            .into_iter()
            .flat_map(|l| l.spans)
            .chain(rec.into_spans())
            .collect();
    }
    server.shutdown()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_seeded_and_about_seventy_thirty() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..2_000)
                .map(|_| next_command(&mut rng, 150_000))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let smooths = draw(1).iter().filter(|(smooth, _)| *smooth).count();
        assert!(
            (1_300..1_500).contains(&smooths),
            "{smooths} of 2000 are SMOOTH"
        );
        assert_eq!(
            smooth_command(3, 150_000),
            "SMOOTH req.rate{host=h03} 0 150000 1 800"
        );
        assert_eq!(
            range_command(7, 150_000),
            "RANGE req.rate{host=h07} 140000 150000"
        );
    }
}
