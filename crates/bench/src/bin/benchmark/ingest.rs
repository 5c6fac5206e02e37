//! `ingest-mem` and `ingest-durable`: closed-loop bulk load of the
//! payload over two connections, each repetition on a fresh server,
//! followed by a restart — which, with the WAL on, replays the log.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::child::{Server, Stats};
use crate::client::{bulk_load, IngestAck, QueryConn};
use crate::gen::{self, Payload};
use crate::layers;
use crate::oracle::Oracle;
use crate::run::{median_setup, Ctx, Outcome};
use crate::stats::median;
use crate::trace::Recorder;

/// Fewest repetitions a run reports a median of.
const MIN_REPS: usize = 3;
/// Round trips the round-trip-floor probe takes.
pub const FLOOR_SAMPLES: usize = 30;

/// Streams both partitions concurrently and waits for both reports.
pub fn load(server: &Server, payload: &Payload) -> Result<(Vec<IngestAck>, Duration), String> {
    let started = Instant::now();
    let acks: Result<Vec<IngestAck>, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = payload
            .partitions
            .iter()
            .map(|partition| scope.spawn(move || bulk_load(server.ingest, partition)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    Ok((acks?, started.elapsed()))
}

/// The served store must equal the serial oracle, series by series.
pub fn check_store(
    server: &Server,
    oracle: &Oracle,
    rows: usize,
    when: &str,
) -> Result<(), String> {
    let mut conn = QueryConn::connect(server.query)?;
    for h in 0..gen::SERIES {
        let command = format!("RANGE {} 0 {rows}", gen::series_name(h));
        let served = conn.request(&command)?.text;
        if served != oracle.respond(&command)? {
            return Err(format!(
                "gate: {when}, `{command}` differs from the serial oracle"
            ));
        }
    }
    Ok(())
}

/// `HEALTH` round trips on an otherwise idle connection, back to back
/// like a closed-loop client's requests; the median in ms. The event
/// core's workers wake on a fixed 25 ms cadence, so a request sent right
/// after an answer waits out a whole interval — any idle time put between
/// the probes would only be subtracted from that.
pub fn roundtrip_floor_ms(server: &Server) -> Result<f64, String> {
    let mut conn = QueryConn::connect(server.query)?;
    let mut samples = Vec::new();
    for _ in 0..FLOOR_SAMPLES {
        let response = conn.request("HEALTH")?;
        if !response.text.starts_with("OK") {
            return Err(format!("HEALTH answered `{}`", response.text.trim_end()));
        }
        samples.push(response.latency().as_secs_f64() * 1e3);
    }
    Ok(median(&samples))
}

fn wal_flags(dir: Option<&Path>) -> Vec<String> {
    dir.map_or_else(Vec::new, |d| {
        vec!["--wal-dir".to_owned(), d.display().to_string()]
    })
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Builds the serial oracle on first use (outside every timed section).
fn ensure_oracle<'a>(
    slot: &'a mut Option<(Oracle, f64)>,
    payload: &Payload,
) -> Result<&'a Oracle, String> {
    if slot.is_none() {
        *slot = Some(Oracle::build(&payload.values)?);
    }
    Ok(&slot.as_ref().expect("just filled").0)
}

pub fn run(ctx: &Ctx, durable: bool) -> Result<Outcome, String> {
    let rows = ctx.rows();
    let wal_dir: Option<PathBuf> = durable.then(|| ctx.work_dir.join("wal"));
    let flags = wal_flags(wal_dir.as_deref());
    let spawn_fresh = || -> Result<Server, String> {
        if let Some(dir) = &wal_dir {
            fresh_dir(dir)?;
        }
        Server::spawn(&ctx.server, &flags)
    };

    let ((payload, mut server), setup_s) =
        median_setup(|| Ok((Payload::generate(rows, ctx.seed), spawn_fresh()?)))?;
    let points = payload.points();
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, 1);

    let mut out = Outcome::default();
    let mut rates = Vec::new();
    let mut loads_ms = Vec::new();
    let mut restarts_ms = Vec::new();
    let mut recoveries_s = Vec::new();
    let mut rss_mb = 0.0f64;
    let mut measured = Duration::ZERO;
    let mut oracle: Option<(Oracle, f64)> = None;
    let (mut bytes_sent, mut bytes_received) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(ctx.seconds);
    // The loop yields the STATS of the last loaded (pre-restart) server.
    let loaded_stats: Stats = loop {
        let (acks, took) = load(&server, &payload)?;
        measured += took;
        let acked: usize = acks.iter().filter_map(IngestAck::clean_points).sum();
        out.attempted += points as u64;
        out.failed += (points - acked.min(points)) as u64;
        rates.push(points as f64 / took.as_secs_f64());
        for (request, ack) in acks.iter().enumerate() {
            loads_ms.push((ack.acked - ack.started).as_secs_f64() * 1e3);
            bytes_sent += ack.bytes_sent;
            bytes_received += ack.report.len() as u64;
            if ctx.trace {
                let request = (rates.len() * gen::CONNECTIONS + request) as u64;
                let root = rec.record(
                    "client.bulk_load",
                    None,
                    request,
                    rec.at(ack.started),
                    rec.at(ack.acked),
                );
                rec.record(
                    "client.send",
                    Some(root),
                    request,
                    rec.at(ack.started),
                    rec.at(ack.sent),
                );
                rec.record(
                    "client.ack_wait",
                    Some(root),
                    request,
                    rec.at(ack.sent),
                    rec.at(ack.acked),
                );
            }
        }
        let stats = server.stats()?;
        let stored = stats.get("store.points")?;
        if acked == points && stored != points as f64 {
            return Err(format!(
                "gate: both acks clean but the store holds {stored} of {points}"
            ));
        }
        rss_mb = rss_mb.max(server.peak_rss_mb()?);
        let last = rates.len() >= MIN_REPS && measured >= budget;
        if last && !durable {
            // The restart below leaves an empty store, so this is the
            // last look at what was served.
            let oracle = ensure_oracle(&mut oracle, &payload)?;
            check_store(&server, oracle, rows, "after the last repetition")?;
        }

        // Restart: drain (or, to end a durable run, SIGKILL) and boot again
        // on the same state — nothing without a WAL, the whole log with.
        let restart = Instant::now();
        if durable && last {
            server.kill();
        } else {
            server.shutdown()?;
        }
        server = Server::spawn(&ctx.server, &flags)?;
        let restart = restart.elapsed();
        measured += restart;
        restarts_ms.push(restart.as_secs_f64() * 1e3);
        if durable {
            recoveries_s.push(server.boot.as_secs_f64());
            let stats = server.stats()?;
            let (replayed, stored) = (stats.get("wal.replay.applied")?, stats.get("store.points")?);
            if acked == points && (replayed != points as f64 || stored != points as f64) {
                return Err(format!(
                    "gate: restart replayed {replayed} and holds {stored} of {points} acked points"
                ));
            }
            if rates.len() == 1 || last {
                let when = if last {
                    "after SIGKILL and restart"
                } else {
                    "after a clean restart"
                };
                let oracle = ensure_oracle(&mut oracle, &payload)?;
                check_store(&server, oracle, rows, when)?;
            }
            if !last {
                server.shutdown()?;
                server = spawn_fresh()?;
            }
        }
        if last {
            break stats;
        }
    };

    let rate = median(&rates);
    out.metrics.put("setup_s", setup_s, crate::run::SETUPS);
    out.metrics.put("throughput_per_s", rate, rates.len());
    // What a user of this workload waits for: with the WAL, the restart
    // (drain, boot, replay of the whole log); without one a restart is two
    // or three 25 ms parks and nothing else, so the wait that matters is
    // one connection's bulk load, connect to acknowledgement.
    let waits_ms = if durable { &restarts_ms } else { &loads_ms };
    out.metrics
        .put("latency_p50_ms", median(waits_ms), waits_ms.len());
    out.metrics.put("peak_rss_mb", rss_mb, rates.len());
    let m = &mut out.metrics;
    m.put("ingest_points_per_s", rate, rates.len());
    m.put("server_rss_mb", rss_mb, rates.len());
    m.put(
        "store_bytes_per_point",
        loaded_stats.get("store.compressed_bytes")? / points as f64,
        points,
    );
    if durable {
        m.put("recovery_s", median(&recoveries_s), recoveries_s.len());
        m.put(
            "wal_bytes_per_point",
            loaded_stats.get("wal.bytes")? / points as f64,
            points,
        );
    }
    if ctx.trace {
        m.put("client.bytes_sent", bytes_sent as f64, rates.len());
        m.put("client.bytes_received", bytes_received as f64, rates.len());
        m.put(
            "client.roundtrip_floor_ms",
            roundtrip_floor_ms(&server)?,
            FLOOR_SAMPLES,
        );
        // The last loaded server was fresh, so its counters cover exactly
        // one payload.
        let kpoints = points as f64 / 1e3;
        for stage in ["assemble", "parse", "reorder", "apply"] {
            m.put(
                &format!("server.stats.ingest_{stage}_us_per_kpoint"),
                loaded_stats.get(&format!("ingest.{stage}_micros.sum"))? / kpoints,
                points,
            );
        }
        m.put("server.event.parks", loaded_stats.get("event.parks")?, 1);
        m.put("server.event.sweeps", loaded_stats.get("event.sweeps")?, 1);
        if durable {
            m.put(
                "server.stats.wal_fsync_us_per_kpoint",
                loaded_stats.get("wal.fsync_micros.sum")? / kpoints,
                points,
            );
        }
        ensure_oracle(&mut oracle, &payload)?;
        let serial = oracle.as_ref().expect("just built").1;
        let layer_dir = ctx.work_dir.join("layers");
        if durable {
            fresh_dir(&layer_dir)?;
        }
        let layer = layers::write_path(&payload, serial, durable.then_some(&*layer_dir), &mut rec)?;
        // Against the same work without sockets or the event core.
        let floor = if durable {
            "tsdb.ingest.pipeline_wal_points_per_s"
        } else {
            "tsdb.ingest.pipeline_points_per_s"
        };
        let pipeline = layer.get(floor).expect("write_path measured it").value;
        m.extend(layer);
        m.put("server.ingest_vs_inprocess_x", rate / pipeline, rates.len());
    }
    server.shutdown()?;
    out.spans = rec.into_spans();
    Ok(out)
}
