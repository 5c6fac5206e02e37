//! Per-layer measurements of a traced run: each layer's public functions
//! called in-process on the workload's own inputs, timed and spanned, so
//! an end-to-end number can be placed in a budget.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::Path;
use std::time::{Duration, Instant};

use asap_core::{Asap, AsapConfig, StreamingAsap, StreamingConfig};
use asap_server::protocol;
use asap_tsdb::{
    ingest_reader, line_protocol, smooth_query, DataPoint, FillPolicy, FsyncPolicy, GorillaEncoder,
    IngestConfig, RangeQuery, ReorderBuffer, SeriesKey, SeriesReader, SeriesWriter, ShardedConfig,
    ShardedDb, TsdbError, Wal,
};

use crate::gen::{self, Payload};
use crate::metrics::MetricSet;
use crate::oracle::{Oracle, SUB_RESOLUTION, SUB_WINDOW};
use crate::stats::median;
use crate::trace::{self, Recorder, Span};

const SHARDS: usize = 4;
const BLOCK_CAPACITY: usize = 4096;
/// Lines replayed per `replay.ingest_frame` root: about one 64 KiB frame.
const FRAME_LINES: usize = 2048;

/// Wall time of one call of `f`, in seconds.
fn time_secs(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

/// Median wall time, in seconds, of `passes` calls of `f`.
fn median_secs(passes: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..passes).map(|_| time_secs(&mut f)).collect();
    median(&samples)
}

/// Sum of the durations of the spans named `name`.
fn span_sum(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// A reorder sink that only collects what the buffer releases, so the
/// reorder stage can be timed apart from the WAL and the store.
#[derive(Default)]
struct Collect(RefCell<Vec<(SeriesKey, DataPoint)>>);

impl SeriesWriter for &Collect {
    fn write_point(&self, key: &SeriesKey, point: DataPoint) -> Result<(), TsdbError> {
        self.0.borrow_mut().push((key.clone(), point));
        Ok(())
    }
}

fn store() -> ShardedDb {
    ShardedDb::with_config(ShardedConfig::new(SHARDS, BLOCK_CAPACITY))
}

fn tsdb_err(e: TsdbError) -> String {
    e.to_string()
}

/// Both partitions through the in-process ingest pipeline on two
/// threads — the server's write path without sockets or the event core.
fn pipeline_points_per_s(texts: &[String], points: usize, wal: Option<Wal>) -> Result<f64, String> {
    let db = store();
    let config = IngestConfig {
        lateness: Some(gen::LATENESS),
        wal,
        ..IngestConfig::default()
    };
    let started = Instant::now();
    let applied: Result<Vec<usize>, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = texts
            .iter()
            .map(|text| {
                let (db, config) = (&db, &config);
                scope.spawn(move || {
                    let report = ingest_reader(db, Cursor::new(text.as_bytes()), 0, config)
                        .map_err(tsdb_err)?;
                    if !report.is_clean() {
                        return Err(format!("in-process pipeline report not clean: {report:?}"));
                    }
                    Ok(report.points)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pipeline thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let applied: usize = applied?.into_iter().sum();
    if applied != points {
        return Err(format!(
            "in-process pipeline applied {applied} of {points} points"
        ));
    }
    Ok(points as f64 / elapsed.as_secs_f64())
}

/// The write path on the payload: one connection's lines replayed frame
/// by frame through `parse` → `ReorderBuffer::offer` → `Wal::append` →
/// `ShardedDb::write` under `replay.ingest_frame` roots, then the budget
/// rows of the ROADMAP (serial → pipeline → pipeline + WAL) and the WAL's
/// read side. `wal_dir` turns the WAL steps on; it must be empty.
pub fn write_path(
    payload: &Payload,
    serial_points_per_s: f64,
    wal_dir: Option<&Path>,
    rec: &mut Recorder,
) -> Result<MetricSet, String> {
    let mut out = MetricSet::default();
    let texts: Vec<String> = (0..gen::CONNECTIONS)
        .map(|conn| gen::partition_text(&payload.values, conn, payload.seed))
        .collect();
    let points = payload.partitions[0].points;

    let first_span = rec.len();
    let db = store();
    let wal = match wal_dir {
        Some(dir) => {
            Some(Wal::open(&dir.join("replay"), SHARDS, FsyncPolicy::default()).map_err(tsdb_err)?)
        }
        None => None,
    };
    let collect = Collect::default();
    let mut reorder = ReorderBuffer::new(&collect, gen::LATENESS).map_err(tsdb_err)?;
    let apply = |released: Vec<(SeriesKey, DataPoint)>,
                 rec: &mut Recorder,
                 request: u64|
     -> Result<(), String> {
        if let Some(wal) = &wal {
            rec.time("tsdb.wal.append", None, request, || {
                released
                    .iter()
                    .try_for_each(|(key, point)| wal.append(db.shard_of(key), key, *point))
            })
            .0
            .map_err(tsdb_err)?;
        }
        rec.time("tsdb.sharded.write", None, request, || {
            released
                .iter()
                .try_for_each(|(key, point)| db.write(key, *point))
        })
        .0
        .map_err(tsdb_err)
    };
    let mut rest = texts[0].as_str();
    let mut request = 0u64;
    while !rest.is_empty() {
        let (frame, tail) = gen::split_lines(rest, FRAME_LINES);
        rest = tail;
        let root_start = rec.now_ns();
        let first = rec.len();
        let parsed = rec
            .time("tsdb.line_protocol.parse", None, request, || {
                line_protocol::parse(frame, 0)
            })
            .0
            .map_err(tsdb_err)?;
        rec.time("tsdb.reorder.offer", None, request, || {
            parsed
                .iter()
                .try_for_each(|p| reorder.offer(&p.key, p.point).map(drop))
        })
        .0
        .map_err(tsdb_err)?;
        apply(collect.0.take(), rec, request)?;
        let root_end = rec.now_ns();
        rec.adopt(first, "replay.ingest_frame", request, root_start, root_end);
        request += 1;
    }
    reorder.flush().map_err(tsdb_err)?;
    apply(collect.0.take(), rec, request)?;
    let stored: usize = db.stats().iter().map(|s| s.points).sum();
    if stored != points {
        return Err(format!(
            "write-path replay stored {stored} of {points} points"
        ));
    }

    let spans = &rec.spans()[first_span..];
    let per_point = |name: &str| span_sum(spans, name) as f64 / points as f64;
    out.put(
        "tsdb.line_protocol.parse_ns_per_point",
        per_point("tsdb.line_protocol.parse"),
        points,
    );
    out.put(
        "tsdb.reorder.offer_ns_per_point",
        per_point("tsdb.reorder.offer"),
        points,
    );
    out.put(
        "tsdb.sharded.write_ns_per_point",
        per_point("tsdb.sharded.write"),
        points,
    );
    let rows = trace::budget(spans, "replay.ingest_frame");
    trace::print_budget("write path, one 64 KiB frame of one connection", &rows);

    if let (Some(wal), Some(dir)) = (wal, wal_dir) {
        out.put(
            "tsdb.wal.append_ns_per_point",
            per_point("tsdb.wal.append"),
            points,
        );
        wal.seal().map_err(tsdb_err)?;
        let stats = wal.stats();
        out.put("tsdb.wal.fsyncs", stats.fsyncs as f64, 1);
        out.put(
            "tsdb.wal.bytes_per_point",
            stats.bytes as f64 / points as f64,
            points,
        );
        drop(wal);
        let recovered = store();
        let started = Instant::now();
        let report = asap_tsdb::wal::replay(&dir.join("replay"), &recovered).map_err(tsdb_err)?;
        let elapsed = started.elapsed();
        if report.applied != points as u64 {
            return Err(format!(
                "WAL replay applied {} of {points} records",
                report.applied
            ));
        }
        out.put(
            "tsdb.wal.replay_ns_per_point",
            elapsed.as_nanos() as f64 / points as f64,
            points,
        );
        let wal =
            Wal::open(&dir.join("pipeline"), SHARDS, FsyncPolicy::default()).map_err(tsdb_err)?;
        out.put(
            "tsdb.ingest.pipeline_wal_points_per_s",
            pipeline_points_per_s(&texts, payload.points(), Some(wal))?,
            payload.points(),
        );
    }

    // Gorilla on one connection's series, sealed every block like the store.
    let mut encoded_bytes = 0usize;
    let mut encode_time = Duration::ZERO;
    for h in (0..gen::SERIES).filter(|&h| gen::connection_of(h) == 0) {
        // The wire carries 4 decimals; encode what the store would see.
        let series: Vec<DataPoint> = (0..payload.rows)
            .map(|t| {
                let wire = format!("{:.4}", payload.values[t * gen::SERIES + h]);
                DataPoint::new(t as i64, wire.parse().expect("a rendered f64 parses"))
            })
            .collect();
        let started = Instant::now();
        for block in series.chunks(BLOCK_CAPACITY) {
            let mut encoder = GorillaEncoder::new();
            block.iter().for_each(|&p| encoder.append(p));
            encoded_bytes += std::hint::black_box(encoder.finish()).size_bytes();
        }
        encode_time += started.elapsed();
    }
    out.put(
        "tsdb.gorilla.encode_ns_per_point",
        encode_time.as_nanos() as f64 / points as f64,
        points,
    );
    out.put(
        "tsdb.gorilla.bytes_per_point",
        encoded_bytes as f64 / points as f64,
        points,
    );

    out.put(
        "tsdb.ingest.serial_points_per_s",
        serial_points_per_s,
        payload.points(),
    );
    out.put(
        "tsdb.ingest.pipeline_points_per_s",
        pipeline_points_per_s(&texts, payload.points(), None)?,
        payload.points(),
    );
    Ok(out)
}

/// The bytes composed layer by layer must be the bytes the server sent.
fn check_composed(
    served: &BTreeMap<String, String>,
    command: &str,
    composed: &str,
) -> Result<(), String> {
    match served.get(command) {
        Some(sent) if sent == composed => Ok(()),
        Some(_) => Err(format!(
            "gate: `{command}` composed layer by layer differs from the served bytes"
        )),
        None => Err(format!("no served response to compare `{command}` with")),
    }
}

/// The read path on the oracle's store: every distinct request replayed
/// layer by layer (`replay.smooth` / `replay.range` roots), the store's
/// scan costs, and the query→ASAP bridge's own share. `served` holds the
/// bytes the server answered each request with.
pub fn read_path(
    oracle: &Oracle,
    smooths: &[String],
    ranges: &[String],
    served: &BTreeMap<String, String>,
    rec: &mut Recorder,
) -> Result<MetricSet, String> {
    const PASSES: u64 = 3;
    let mut out = MetricSet::default();
    let first_span = rec.len();
    let mut request = 0u64;
    let mut smooth_points = 0usize;
    let mut range_points = 0usize;
    let mut scanned = 0usize;
    for _ in 0..PASSES {
        for command in smooths {
            let response = oracle.replay_smooth(command, rec, request)?;
            check_composed(served, command, &response)?;
            smooth_points += response.lines().count().saturating_sub(3);
            let Ok(protocol::Command::Smooth {
                start, end, bucket, ..
            }) = protocol::parse_command(command)
            else {
                unreachable!("replay_smooth accepted it");
            };
            scanned += ((end - start) / bucket) as usize;
            request += 1;
        }
        for command in ranges {
            let response = oracle.replay_range(command, rec, request)?;
            check_composed(served, command, &response)?;
            range_points += response.lines().count().saturating_sub(3);
            request += 1;
        }
    }
    let spans = &rec.spans()[first_span..];
    let requests = (PASSES as usize * (smooths.len() + ranges.len())).max(1);
    out.put(
        "server.protocol.parse_command_ns",
        span_sum(spans, "server.protocol.parse_command") as f64 / requests as f64,
        requests,
    );
    if smooth_points > 0 {
        out.put(
            "server.protocol.render_smooth_ns_per_point",
            span_sum(spans, "server.protocol.render_smooth") as f64 / smooth_points as f64,
            smooth_points,
        );
        let rows = trace::budget(spans, "replay.smooth");
        let n = rows[0].count as f64;
        out.put(
            "core.preagg.ns_per_point",
            span_sum(spans, "core.preaggregate") as f64 / scanned as f64,
            scanned,
        );
        out.put(
            "core.search.asap_us",
            span_sum(spans, "core.search") as f64 / 1e3 / n,
            rows[0].count,
        );
        out.put(
            "dsp.acf.us",
            span_sum(spans, "dsp.autocorrelation") as f64 / 1e3 / n,
            rows[0].count,
        );
        out.put(
            "timeseries.sma.ns_per_point",
            span_sum(spans, "timeseries.sma") as f64 / smooth_points as f64,
            smooth_points,
        );
        trace::print_budget("SMOOTH, replayed in-process", &rows);
    }
    if range_points > 0 {
        out.put(
            "server.protocol.render_range_ns_per_point",
            span_sum(spans, "server.protocol.render_range") as f64 / range_points as f64,
            range_points,
        );
        trace::print_budget(
            "RANGE, replayed in-process",
            &trace::budget(spans, "replay.range"),
        );
    }

    // Store scans over one whole series, and the bridge's own share.
    let key = oracle
        .db
        .matching_series(&asap_tsdb::Selector::any())
        .into_iter()
        .next()
        .ok_or("the oracle store is empty")?;
    let all = RangeQuery::raw(i64::MIN + 1, i64::MAX);
    let rows = oracle.db.read_series(&key, all).map_err(tsdb_err)?.len();
    let end = rows as i64;
    let raw = median_secs(5, || {
        std::hint::black_box(oracle.db.read_series(&key, all).ok());
    });
    out.put("tsdb.query.raw_ns_per_point", raw * 1e9 / rows as f64, rows);
    let grid = RangeQuery::bucketed(0, end, 1).fill(FillPolicy::Linear);
    let bucketed = median_secs(5, || {
        std::hint::black_box(oracle.db.read_series(&key, grid).ok());
    });
    out.put(
        "tsdb.query.bucketed_ns_per_point",
        bucketed * 1e9 / rows as f64,
        rows,
    );
    let blocks = oracle.db.export_blocks(&key).map_err(tsdb_err)?;
    let sealed: usize = blocks.iter().map(asap_tsdb::Block::len).sum();
    let decode = median_secs(5, || {
        for block in &blocks {
            std::hint::black_box(block.decode().ok());
        }
    });
    out.put(
        "tsdb.gorilla.decode_ns_per_point",
        decode * 1e9 / sealed.max(1) as f64,
        sealed,
    );
    let asap = Asap::builder().resolution(800).build();
    let values: Vec<f64> = oracle
        .db
        .read_series(&key, grid)
        .map_err(tsdb_err)?
        .iter()
        .map(|p| p.value)
        .collect();
    // The bridge's own share: what `smooth_query` takes beyond the scan
    // and the operator it calls, each pass timed back to back so drift
    // cancels; the three are each ~10 ms, so this is a small difference.
    let own: Vec<f64> = (0..5)
        .map(|_| {
            let bridge = time_secs(|| {
                std::hint::black_box(smooth_query(&oracle.db, &key, &asap, 0, end, 1).ok());
            });
            let scan = time_secs(|| {
                std::hint::black_box(oracle.db.read_series(&key, grid).ok());
            });
            let operator = time_secs(|| {
                std::hint::black_box(asap.smooth(&values).ok());
            });
            bridge - scan - operator
        })
        .collect();
    out.put(
        "tsdb.smooth.bridge_self_us",
        median(&own).max(0.0) * 1e6,
        own.len(),
    );
    Ok(out)
}

/// The operator's layers on a set of series at one resolution: the
/// search against the exhaustive optimum, and the primitives under it.
/// `large` is the series pre-aggregation is timed on.
pub fn operator(
    series: &[(&str, &[f64])],
    large: &[f64],
    resolution: usize,
) -> Result<MetricSet, String> {
    let mut out = MetricSet::default();
    let config = AsapConfig {
        resolution,
        ..AsapConfig::default()
    };
    let preagg = median_secs(3, || {
        std::hint::black_box(asap_core::preaggregate(large, resolution));
    });
    out.put(
        "core.preagg.ns_per_point",
        preagg * 1e9 / large.len() as f64,
        large.len(),
    );
    let moments = median_secs(3, || {
        std::hint::black_box(asap_timeseries::moments(large).ok());
    });
    out.put(
        "timeseries.moments.ns_per_point",
        moments * 1e9 / large.len() as f64,
        large.len(),
    );

    let (mut asap_s, mut exhaustive_s, mut acf_s, mut sma_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut candidates, mut sma_points, mut ratios) = (0usize, 0usize, Vec::new());
    for &(name, data) in series {
        let (aggregated, _) = asap_core::preaggregate(data, resolution);
        let mut found = None;
        asap_s += median_secs(5, || {
            found = Some(asap_core::search::asap::search(&aggregated, &config));
        });
        let found = found.expect("ran").map_err(|e| format!("{name}: {e}"))?;
        let mut optimum = None;
        exhaustive_s += median_secs(3, || {
            optimum = Some(asap_core::exhaustive::search(&aggregated, &config));
        });
        let optimum = optimum.expect("ran").map_err(|e| format!("{name}: {e}"))?;
        candidates += found.candidates_checked;
        if optimum.roughness > 0.0 {
            ratios.push(found.roughness / optimum.roughness);
        }
        let max_lag = config.effective_max_window(aggregated.len());
        acf_s += median_secs(5, || {
            std::hint::black_box(asap_dsp::autocorrelation(&aggregated, max_lag).ok());
        });
        let window = found.window.max(2).min(aggregated.len() - 1);
        sma_s += median_secs(5, || {
            std::hint::black_box(asap_timeseries::sma(&aggregated, window).ok());
        });
        sma_points += aggregated.len();
    }
    let n = series.len().max(1) as f64;
    out.put("core.search.asap_us", asap_s * 1e6 / n, series.len());
    out.put(
        "core.search.exhaustive_us",
        exhaustive_s * 1e6 / n,
        series.len(),
    );
    out.put(
        "core.search.speedup_vs_exhaustive_x",
        exhaustive_s / asap_s,
        series.len(),
    );
    out.put(
        "core.search.candidates_checked",
        candidates as f64,
        series.len(),
    );
    if !ratios.is_empty() {
        out.put(
            "core.search.roughness_ratio",
            ratios.iter().sum::<f64>() / ratios.len() as f64,
            ratios.len(),
        );
    }
    out.put("dsp.acf.us", acf_s * 1e6 / n, series.len());
    out.put(
        "timeseries.sma.ns_per_point",
        sma_s * 1e9 / sma_points.max(1) as f64,
        sma_points,
    );
    Ok(out)
}

/// The subscription template fed `values`, and one frame rendered: what
/// a pushed `FRAME` costs per point and per refresh. Recorded under
/// `replay.frame` roots (`core.streaming.refresh` → `render_frame`).
pub fn streaming(values: &[f64], every: usize, rec: &mut Recorder) -> Result<MetricSet, String> {
    let mut out = MetricSet::default();
    let mut op = StreamingAsap::new(StreamingConfig::new(SUB_WINDOW, SUB_RESOLUTION, every));
    let started = Instant::now();
    let mut frames = 0usize;
    for &v in values {
        frames += usize::from(op.push(v).map_err(|e| e.to_string())?.is_some());
    }
    let elapsed = started.elapsed();
    out.put(
        "core.streaming.push_ns_per_point",
        elapsed.as_nanos() as f64 / values.len() as f64,
        values.len(),
    );
    out.put(
        "core.streaming.searches_run",
        op.searches_run() as f64,
        frames,
    );

    let key = SeriesKey::metric("req.rate").with_tag("host", "h00");
    let first_span = rec.len();
    const REFRESHES: u64 = 50;
    let mut rendered_points = 0usize;
    for request in 0..REFRESHES {
        let root_start = rec.now_ns();
        let first = rec.len();
        let frame = rec
            .time("core.streaming.refresh", None, request, || op.refresh())
            .0
            .map_err(|e| e.to_string())?;
        let line = rec
            .time("server.protocol.render_frame", None, request, || {
                protocol::render_frame(&key, &frame)
            })
            .0;
        rendered_points += frame.smoothed.len();
        std::hint::black_box(line);
        let root_end = rec.now_ns();
        rec.adopt(first, "replay.frame", request, root_start, root_end);
    }
    let spans = &rec.spans()[first_span..];
    out.put(
        "core.streaming.refresh_us",
        span_sum(spans, "core.streaming.refresh") as f64 / 1e3 / REFRESHES as f64,
        REFRESHES as usize,
    );
    out.put(
        "server.protocol.render_frame_ns_per_point",
        span_sum(spans, "server.protocol.render_frame") as f64 / rendered_points.max(1) as f64,
        rendered_points,
    );
    trace::print_budget(
        "FRAME, refreshed and rendered in-process",
        &trace::budget(spans, "replay.frame"),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_path_replay_stores_every_point_with_and_without_a_wal() {
        let payload = Payload::generate(1_500, 4);
        let mut rec = Recorder::new(Instant::now(), 0);
        let plain = write_path(&payload, 1.0, None, &mut rec).unwrap();
        assert!(
            plain
                .get("tsdb.line_protocol.parse_ns_per_point")
                .unwrap()
                .value
                > 0.0
        );
        assert!(plain.get("tsdb.gorilla.bytes_per_point").unwrap().value < 16.0);
        assert!(plain.get("tsdb.wal.append_ns_per_point").is_none());
        assert!(
            plain
                .get("tsdb.ingest.pipeline_points_per_s")
                .unwrap()
                .value
                > 0.0
        );

        let dir = std::env::temp_dir().join(format!("asap-bench-layers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = write_path(&payload, 1.0, Some(&dir), &mut rec);
        std::fs::remove_dir_all(&dir).unwrap();
        let durable = durable.unwrap();
        assert!(durable.get("tsdb.wal.bytes_per_point").unwrap().value > 20.0);
        assert!(durable.get("tsdb.wal.replay_ns_per_point").unwrap().value > 0.0);
        assert!(
            durable
                .get("tsdb.ingest.pipeline_wal_points_per_s")
                .unwrap()
                .value
                > 0.0
        );
        let rows = trace::budget(&rec.into_spans(), "replay.ingest_frame");
        assert_eq!(
            rows.iter().map(|r| r.self_ns).sum::<u64>(),
            rows[0].total_ns
        );
    }

    #[test]
    fn read_path_and_streaming_fill_their_layers() {
        let values = gen::values(3_000, 2);
        let oracle = Oracle::build(&values).unwrap().0;
        let mut rec = Recorder::new(Instant::now(), 0);
        let smooths = ["SMOOTH req.rate{host=h02} 0 3000 1 200".to_owned()];
        let ranges = ["RANGE req.rate{host=h02} 2000 3000".to_owned()];
        let mut served: BTreeMap<String, String> = smooths
            .iter()
            .chain(&ranges)
            .map(|c| (c.clone(), oracle.respond(c).unwrap()))
            .collect();
        let read = read_path(&oracle, &smooths, &ranges, &served, &mut rec).unwrap();
        served.insert(ranges[0].clone(), "OK 0\nEND\n".to_owned());
        let refused = read_path(&oracle, &smooths, &ranges, &served, &mut rec);
        assert!(refused
            .unwrap_err()
            .contains("differs from the served bytes"));
        for name in [
            "server.protocol.parse_command_ns",
            "server.protocol.render_smooth_ns_per_point",
            "server.protocol.render_range_ns_per_point",
            "core.search.asap_us",
            "tsdb.query.bucketed_ns_per_point",
            "core.preagg.ns_per_point",
        ] {
            assert!(read.get(name).unwrap().value > 0.0, "{name}");
        }
        let one: Vec<f64> = values.iter().step_by(gen::SERIES).copied().collect();
        let stream = streaming(&one, 500, &mut rec).unwrap();
        assert_eq!(
            stream.get("core.streaming.searches_run").unwrap().value,
            6.0
        );
        assert!(
            stream
                .get("server.protocol.render_frame_ns_per_point")
                .unwrap()
                .value
                > 0.0
        );
    }
}
