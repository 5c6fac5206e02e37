//! The in-process serial oracle every served byte is checked against:
//! a single-threaded [`Tsdb`] fed the sorted document, the library's own
//! query→ASAP bridge, and a serial [`StreamingAsap`] replay for pushed
//! frames. A traced run also composes a request step by step through the
//! layers' public functions, one span per step; those bytes must equal
//! the bridge's, and both must equal the server's.

use std::collections::BTreeMap;

use asap_core::{Asap, SmoothingResult, StreamingAsap, StreamingConfig};
use asap_server::protocol::{self, Command};
use asap_tsdb::{
    line_protocol, smooth_query_selector, DataPoint, FillPolicy, RangeQuery, Selector,
    SeriesReader, SmoothedFrame, Tsdb, TsdbConfig,
};

use crate::gen;
use crate::trace::Recorder;

/// The server's default block capacity.
const BLOCK_CAPACITY: usize = 4096;
/// Lines per `line_protocol::ingest` call, so the parsed-point vector of
/// a 1.2 M-line document never exists at once.
const INGEST_CHUNK_LINES: usize = 50_000;

/// The subscription template the server runs with by default.
pub const SUB_WINDOW: usize = 10_000;
pub const SUB_RESOLUTION: usize = 100;

pub struct Oracle {
    pub db: Tsdb,
}

impl Oracle {
    /// Serially ingests the payload's sorted document; also returns the
    /// points per second that took (`tsdb.ingest.serial_points_per_s`).
    pub fn build(values: &[f64]) -> Result<(Self, f64), String> {
        let db = Tsdb::with_config(TsdbConfig {
            block_capacity: BLOCK_CAPACITY,
        });
        let doc = gen::sorted_document(values);
        let mut rest = doc.as_str();
        let mut written = 0;
        let started = std::time::Instant::now();
        while !rest.is_empty() {
            let (chunk, tail) = gen::split_lines(rest, INGEST_CHUNK_LINES);
            written +=
                line_protocol::ingest(&db, chunk, 0).map_err(|e| format!("oracle ingest: {e}"))?;
            rest = tail;
        }
        if written != values.len() {
            return Err(format!(
                "oracle ingested {written} of {} points",
                values.len()
            ));
        }
        let rate = written as f64 / started.elapsed().as_secs_f64();
        Ok((Oracle { db }, rate))
    }

    /// What the server must answer to `command` (a `RANGE` or `SMOOTH`),
    /// through the same library entry points the server calls.
    pub fn respond(&self, command: &str) -> Result<String, String> {
        match protocol::parse_command(command)? {
            Command::Range {
                selector,
                start,
                end,
                bucket: None,
                ..
            } => self
                .db
                .query_selector(&selector, RangeQuery::raw(start, end))
                .map(|results| protocol::render_range(&results))
                .map_err(|e| e.to_string()),
            Command::Smooth {
                selector,
                start,
                end,
                bucket,
                resolution,
            } => {
                let asap = Asap::builder().resolution(resolution).build();
                smooth_query_selector(&self.db, &selector, &asap, start, end, bucket)
                    .map(|frames| protocol::render_smooth(&frames))
                    .map_err(|e| e.to_string())
            }
            other => Err(format!("the oracle does not answer {other:?}")),
        }
    }

    /// The `FRAME` lines a `SUBSCRIBE` refreshing every `every` points
    /// must have pushed, per series key, in order: each stored series
    /// replayed through a fresh serial [`StreamingAsap`].
    pub fn frames(&self, every: usize) -> Result<BTreeMap<String, Vec<String>>, String> {
        let all = RangeQuery::raw(i64::MIN + 1, i64::MAX);
        let stored = self
            .db
            .query_selector(&Selector::any(), all)
            .map_err(|e| e.to_string())?;
        let mut expected = BTreeMap::new();
        for (key, points) in stored {
            let mut op =
                StreamingAsap::new(StreamingConfig::new(SUB_WINDOW, SUB_RESOLUTION, every));
            let mut frames = Vec::new();
            for point in points {
                if let Some(frame) = op.push(point.value).map_err(|e| e.to_string())? {
                    frames.push(protocol::render_frame(&key, &frame));
                }
            }
            expected.insert(key.to_string(), frames);
        }
        Ok(expected)
    }

    /// One `SMOOTH` request's life, layer by layer, under a root span
    /// named `replay.smooth`: `parse_command` → `read_series` (bucketed)
    /// → `preaggregate` → `search::asap::search` (with the ACF it runs,
    /// timed on its own, as a child) → `sma` → `render_smooth`. Returns
    /// the composed response.
    pub fn replay_smooth(
        &self,
        command: &str,
        rec: &mut Recorder,
        request: u64,
    ) -> Result<String, String> {
        let root_start = rec.now_ns();
        let first = rec.len();
        let (parsed, _) = rec.time("server.protocol.parse_command", None, request, || {
            protocol::parse_command(command)
        });
        let Command::Smooth {
            selector,
            start,
            end,
            bucket,
            resolution,
        } = parsed?
        else {
            return Err(format!("`{command}` is not a SMOOTH"));
        };
        let config = Asap::builder().resolution(resolution).build_config();
        let mut frames = Vec::new();
        let mut searches = Vec::new();
        for key in self.db.matching_series(&selector) {
            let query = RangeQuery::bucketed(start, end, bucket).fill(FillPolicy::Linear);
            let (grid, _) = rec.time("tsdb.read_series", None, request, || {
                self.db.read_series(&key, query)
            });
            let grid = grid.map_err(|e| e.to_string())?;
            let values: Vec<f64> = grid.iter().map(|p| p.value).collect();
            let ((aggregated, ratio), _) = rec.time("core.preaggregate", None, request, || {
                asap_core::preaggregate(&values, resolution)
            });
            let (outcome, search_id) = rec.time("core.search", None, request, || {
                asap_core::search::asap::search(&aggregated, &config)
            });
            let outcome = outcome.map_err(|e| e.to_string())?;
            let (smoothed, _) = rec.time("timeseries.sma", None, request, || {
                if outcome.window <= 1 {
                    Ok(aggregated.clone())
                } else {
                    asap_timeseries::sma(&aggregated, outcome.window)
                }
            });
            let smoothed = smoothed.map_err(|e| e.to_string())?;
            let step = bucket * ratio as i64;
            let smoothed_points = smoothed
                .iter()
                .enumerate()
                .map(|(i, &v)| DataPoint::new(start + i as i64 * step, v))
                .collect();
            searches.push((search_id, aggregated.clone()));
            frames.push((
                key,
                SmoothedFrame {
                    grid_timestamps: grid.iter().map(|p| p.timestamp).collect(),
                    smoothed_points,
                    result: SmoothingResult {
                        window: outcome.window,
                        window_raw_points: outcome.window * ratio,
                        pixel_ratio: ratio,
                        roughness: outcome.roughness,
                        kurtosis: outcome.kurtosis,
                        candidates_checked: outcome.candidates_checked,
                        smoothed,
                        aggregated,
                    },
                },
            ));
        }
        let (response, _) = rec.time("server.protocol.render_smooth", None, request, || {
            protocol::render_smooth(&frames)
        });
        let root_end = rec.now_ns();
        rec.adopt(first, "replay.smooth", request, root_start, root_end);
        // The search computes the ACF inside itself; timed on its own
        // (after the root closed, so the root does not pay for it twice)
        // it gives the child span's length, anchored at the search's start.
        for (search_id, aggregated) in &searches {
            let max_lag = config.effective_max_window(aggregated.len());
            let started = std::time::Instant::now();
            std::hint::black_box(asap_dsp::autocorrelation(aggregated, max_lag).ok());
            let acf_ns = started.elapsed().as_nanos() as u64;
            rec.child_at_start("dsp.autocorrelation", *search_id, request, acf_ns);
        }
        Ok(response)
    }

    /// One `RANGE` request's life under a root span `replay.range`:
    /// `parse_command` → `read_series` (raw) → `render_range`.
    pub fn replay_range(
        &self,
        command: &str,
        rec: &mut Recorder,
        request: u64,
    ) -> Result<String, String> {
        let root_start = rec.now_ns();
        let first = rec.len();
        let (parsed, _) = rec.time("server.protocol.parse_command", None, request, || {
            protocol::parse_command(command)
        });
        let Command::Range {
            selector,
            start,
            end,
            bucket: None,
            ..
        } = parsed?
        else {
            return Err(format!("`{command}` is not a raw RANGE"));
        };
        let mut results = Vec::new();
        for key in self.db.matching_series(&selector) {
            let (points, _) = rec.time("tsdb.read_series", None, request, || {
                self.db.read_series(&key, RangeQuery::raw(start, end))
            });
            results.push((key, points.map_err(|e| e.to_string())?));
        }
        let (response, _) = rec.time("server.protocol.render_range", None, request, || {
            protocol::render_range(&results)
        });
        let root_end = rec.now_ns();
        rec.adopt(first, "replay.range", request, root_start, root_end);
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;
    use std::time::Instant;

    fn small() -> Oracle {
        Oracle::build(&gen::values(3_000, 11)).unwrap().0
    }

    #[test]
    fn stepwise_composition_equals_the_bridge_and_budgets_add_up() {
        let oracle = small();
        let mut rec = Recorder::new(Instant::now(), 0);
        for (i, command) in [
            "SMOOTH req.rate{host=h03} 0 3000 1 200",
            "SMOOTH req.rate 500 2500 2 100",
        ]
        .iter()
        .enumerate()
        {
            let composed = oracle.replay_smooth(command, &mut rec, i as u64).unwrap();
            assert_eq!(composed, oracle.respond(command).unwrap(), "{command}");
            assert!(composed.starts_with("OK "));
        }
        let range = "RANGE req.rate{host=h01} 100 400";
        assert_eq!(
            oracle.replay_range(range, &mut rec, 9).unwrap(),
            oracle.respond(range).unwrap()
        );
        let spans = rec.into_spans();
        let rows = trace::budget(&spans, "replay.smooth");
        assert_eq!(rows[0].count, 2);
        assert_eq!(
            rows.iter().map(|r| r.self_ns).sum::<u64>(),
            rows[0].total_ns
        );
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        for layer in [
            "server.protocol.parse_command",
            "tsdb.read_series",
            "core.preaggregate",
            "core.search",
            "dsp.autocorrelation",
            "timeseries.sma",
            "server.protocol.render_smooth",
        ] {
            assert!(names.contains(&layer), "{layer} missing from {names:?}");
        }
        let acf = rows
            .iter()
            .find(|r| r.name == "dsp.autocorrelation")
            .unwrap();
        assert_eq!(acf.depth, 2, "the ACF is the search's child");
    }

    #[test]
    fn frames_follow_the_refresh_interval_once_warm() {
        let oracle = Oracle::build(&gen::values(2_100, 5)).unwrap().0;
        let frames = oracle.frames(500).unwrap();
        assert_eq!(frames.len(), gen::SERIES);
        for (key, lines) in &frames {
            let seqs: Vec<&str> = lines.iter().map(|l| l.split(' ').nth(2).unwrap()).collect();
            assert_eq!(
                seqs,
                ["seq=500", "seq=1000", "seq=1500", "seq=2000"],
                "{key}"
            );
            assert!(lines[0].starts_with(&format!("FRAME {key} ")));
        }
    }

    #[test]
    fn oracle_refuses_what_it_cannot_answer() {
        let oracle = small();
        assert!(oracle.respond("STATS").is_err());
        assert!(oracle.respond("RANGE req.rate 0").is_err());
        let mut rec = Recorder::new(Instant::now(), 0);
        assert!(oracle
            .replay_smooth("RANGE req.rate 0 5", &mut rec, 0)
            .is_err());
    }
}
