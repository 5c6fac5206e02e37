//! Integration test: writers and smoothing readers racing on one
//! [`ShardedDb`].
//!
//! The contract under contention:
//!
//! * **no lost points** — after the writers join, every series holds
//!   exactly the points its writer appended, values intact;
//! * **monotone timestamps per series** — every snapshot a racing reader
//!   observes is strictly time-ordered, and so is the final state;
//! * **readers never block ingest out of existence** — smoothing queries
//!   run to completion (or report clean errors) while writes proceed.
//!
//! Run under `--release` (see CI's release-test job): the races these
//! assertions guard only show up at optimized speed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use asap::core::Asap;
use asap::tsdb::{
    smooth_query, smooth_query_selector, DataPoint, RangeQuery, Selector, SeriesKey, ShardedConfig,
    ShardedDb,
};

const WRITERS: usize = 8;
const READERS: usize = 4;
const POINTS_PER_SERIES: i64 = 20_000;

fn series_key(w: usize) -> SeriesKey {
    SeriesKey::metric("req_rate").with_tag("host", format!("h{w:02}"))
}

/// The value written at timestamp `t` for writer `w` — derived, so a
/// reader can verify any observed point without shared state.
fn value_at(w: usize, t: i64) -> f64 {
    (std::f64::consts::TAU * t as f64 / 600.0).sin() + (w as f64) * 10.0
}

#[test]
fn racing_writers_and_smoothing_readers_lose_nothing() {
    let db = ShardedDb::with_config(ShardedConfig::new(8, 512));
    let writers_done = AtomicBool::new(false);
    let reads_completed = AtomicU64::new(0);
    let frames_rendered = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let mut writer_handles = Vec::new();
        for w in 0..WRITERS {
            let db = db.clone();
            let key = series_key(w);
            writer_handles.push(scope.spawn(move || {
                for t in 0..POINTS_PER_SERIES {
                    db.write(&key, DataPoint::new(t, value_at(w, t))).unwrap();
                }
            }));
        }
        for r in 0..READERS {
            let db = db.clone();
            let writers_done = &writers_done;
            let reads_completed = &reads_completed;
            let frames_rendered = &frames_rendered;
            scope.spawn(move || {
                let asap = Asap::builder().resolution(100).build();
                let mut rounds = 0usize;
                while !writers_done.load(Ordering::Acquire) || rounds == 0 {
                    rounds += 1;
                    let key = series_key((r + rounds) % WRITERS);
                    // Raw snapshot: whatever prefix exists must be strictly
                    // ordered with the derived values.
                    let snap = db.query(&key, RangeQuery::raw(0, POINTS_PER_SERIES)).ok();
                    if let Some(points) = snap {
                        let w = (r + rounds) % WRITERS;
                        for pair in points.windows(2) {
                            assert!(
                                pair[0].timestamp < pair[1].timestamp,
                                "non-monotone snapshot under race"
                            );
                        }
                        for p in &points {
                            assert_eq!(p.value, value_at(w, p.timestamp), "torn point");
                        }
                        // Smooth the observed prefix while writers append.
                        if points.len() > 400 {
                            let end = points.last().unwrap().timestamp + 1;
                            let frame = smooth_query(&db, &key, &asap, 0, end, 20)
                                .expect("smoothing a non-empty prefix");
                            assert!(!frame.smoothed_points.is_empty());
                            frames_rendered.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    reads_completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Join the writers, then release the readers (the scope joins the
        // reader threads at the end).
        for h in writer_handles {
            h.join().unwrap();
        }
        writers_done.store(true, Ordering::Release);
    });

    // No lost points: every series holds exactly its writer's appends.
    assert_eq!(db.series_count(), WRITERS);
    for w in 0..WRITERS {
        let key = series_key(w);
        let points = db.query(&key, RangeQuery::raw(0, POINTS_PER_SERIES)).unwrap();
        assert_eq!(points.len(), POINTS_PER_SERIES as usize, "lost points in series {w}");
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.timestamp, i as i64, "timestamp gap/dup in series {w}");
            assert_eq!(p.value, value_at(w, p.timestamp));
        }
    }
    assert!(reads_completed.load(Ordering::Relaxed) >= READERS as u64);
    assert!(
        frames_rendered.load(Ordering::Relaxed) > 0,
        "readers never smoothed a prefix while writers ran"
    );

    // And the racy store still answers exactly like a fresh serial one.
    let serial = ShardedDb::with_config(ShardedConfig::new(8, 512));
    for w in 0..WRITERS {
        for t in 0..POINTS_PER_SERIES {
            serial.write(&series_key(w), DataPoint::new(t, value_at(w, t))).unwrap();
        }
    }
    let q = RangeQuery::raw(0, POINTS_PER_SERIES);
    let sel = Selector::metric("req_rate");
    assert_eq!(
        db.query_selector(&sel, q).unwrap(),
        serial.query_selector(&sel, q).unwrap()
    );
}

#[test]
fn concurrent_multi_series_smoothing_is_stable_under_writes() {
    // smooth_query_selector over the shards while new points stream in:
    // each call sees *some* consistent prefix per series and returns
    // key-ordered frames; two calls after quiescence are identical.
    let db = ShardedDb::with_config(ShardedConfig::new(4, 256));
    for w in 0..4 {
        for t in 0..4_000i64 {
            db.write(&series_key(w), DataPoint::new(t, value_at(w, t))).unwrap();
        }
    }
    let asap = Asap::builder().resolution(100).build();
    let sel = Selector::metric("req_rate");
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let db2 = db.clone();
        let stop = &stop;
        scope.spawn(move || {
            for t in 4_000..8_000i64 {
                for w in 0..4 {
                    db2.write(&series_key(w), DataPoint::new(t, value_at(w, t))).unwrap();
                }
            }
            stop.store(true, Ordering::Release);
        });
        while !stop.load(Ordering::Acquire) {
            let frames = smooth_query_selector(&db, &sel, &asap, 0, 4_000, 10)
                .expect("the written prefix is always smoothable");
            assert_eq!(frames.len(), 4);
            let hosts: Vec<_> = frames.iter().map(|(k, _)| k.tag("host").unwrap()).collect();
            assert_eq!(hosts, ["h00", "h01", "h02", "h03"], "key order under race");
        }
    });

    let a = smooth_query_selector(&db, &sel, &asap, 0, 8_000, 10).unwrap();
    let b = smooth_query_selector(&db, &sel, &asap, 0, 8_000, 10).unwrap();
    assert_eq!(a, b, "quiescent smoothing is deterministic");
}
