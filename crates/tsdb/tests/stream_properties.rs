//! Property-based tests for the streaming ingest layer: the chunker, the
//! per-shard reorder stage, and the bounded-memory pipeline.
//!
//! The central invariant mirrors `ops_properties.rs`: the streaming path
//! is observationally identical to its serial single-shard oracle. No
//! expected value below is baked in; everything is derived from the
//! oracle or replayed from the generated input (so the tests are
//! independent of the rand shim's stream, per the ROADMAP note on golden
//! values).
//!
//! * a document shuffled within lateness `L`, streamed through
//!   `ingest_reader` at arbitrary read-buffer sizes, yields a store
//!   byte-identical (every query shape, seal boundaries included) to
//!   serial sorted-oracle ingest — zero per-line write failures, with
//!   `reordered` matching an arrival-order replay;
//! * chunk-boundary totality: for arbitrary protocol-shaped junk split at
//!   random byte points (mid-escape, mid-float, mid-UTF-8 included),
//!   streaming parse of the pieces ≡ whole-document parse, and the
//!   report's line numbers still match;
//! * bounded memory: a session's in-flight chunks and reorder-stage
//!   pending never exceed their configured bounds, polled live while
//!   feeding;
//! * shared writers: sessions fed concurrently into one `ShardWriters`
//!   set keep per-session semantics — over disjoint series each report
//!   equals the report of the same bytes fed alone, and over one series
//!   every offered point is written, failed or dropped exactly once.

use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};

use asap_tsdb::query::Aggregator;
use asap_tsdb::{
    ingest_reader, line_protocol, DataPoint, IngestConfig, IngestReport, RangeQuery, Selector,
    SeriesKey, ShardWriters, ShardedConfig, ShardedDb, StreamIngestor, StreamProgress, Tsdb,
    TsdbConfig,
};
use proptest::prelude::*;

/// A reader that hands out the underlying bytes in a scripted cycle of
/// piece sizes — read boundaries land anywhere, including mid-line and
/// mid-UTF-8 code point.
struct ChoppedReader<'a> {
    data: &'a [u8],
    pos: usize,
    sizes: &'a [usize],
    turn: usize,
}

impl<'a> ChoppedReader<'a> {
    fn new(data: &'a [u8], sizes: &'a [usize]) -> Self {
        Self {
            data,
            pos: 0,
            sizes,
            turn: 0,
        }
    }
}

impl Read for ChoppedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let size = self.sizes[self.turn % self.sizes.len()].max(1);
        self.turn += 1;
        let n = size.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn full() -> RangeQuery {
    RangeQuery::raw(i64::MIN + 1, i64::MAX)
}

const FIELD_NAMES: [&str; 3] = ["usage", "idle", "iowait"];

/// A generated streaming case: a per-series-ordered document, the same
/// document shuffled within the lateness bound, and the pipeline knobs.
#[derive(Debug, Clone)]
struct StreamCase {
    sorted_doc: String,
    shuffled_doc: String,
    /// Points that arrive below their series' running maximum in the
    /// shuffled order — the value `IngestReport::reordered` must take,
    /// replayed from the input rather than baked in.
    expected_reordered: usize,
    shards: usize,
    block_capacity: usize,
    ingest: IngestConfig,
    read_sizes: Vec<usize>,
}

/// Renders per-series timestamp runs into record lines (round-robin
/// across hosts, `fields` field pairs each, explicit timestamps).
fn render_lines(series: &[Vec<DataPoint>], fields: usize) -> Vec<String> {
    let mut cursors = vec![0usize; series.len()];
    let mut lines = Vec::new();
    loop {
        let mut progressed = false;
        for (h, points) in series.iter().enumerate() {
            let Some(p) = points.get(cursors[h]) else {
                continue;
            };
            cursors[h] += 1;
            progressed = true;
            let mut line = format!("cpu,host=h{h} ");
            for (f, name) in FIELD_NAMES.iter().enumerate().take(fields) {
                if f > 0 {
                    line.push(',');
                }
                line.push_str(&format!("{name}={}", p.value + f as f64));
            }
            line.push_str(&format!(" {}", p.timestamp));
            lines.push(line);
        }
        if !progressed {
            return lines;
        }
    }
}

/// The timestamp of a rendered record line (its last token).
fn line_ts(line: &str) -> i64 {
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

/// The host tag of a rendered record line.
fn line_host(line: &str) -> &str {
    let head = line.split(' ').next().unwrap();
    head.split_once("host=").unwrap().1
}

/// Replays the shuffled arrival order and counts points arriving below
/// their series' running maximum — the reorder stage must repair exactly
/// these.
fn count_reordered(lines: &[String], fields: usize) -> usize {
    let mut max_seen: std::collections::HashMap<String, i64> = std::collections::HashMap::new();
    let mut reordered = 0;
    for line in lines {
        let ts = line_ts(line);
        let host = line_host(line).to_owned();
        // All fields of one record share the timestamp, so each of the
        // record's `fields` series sees the same forward/backward step.
        let max = max_seen.entry(host).or_insert(i64::MIN);
        if ts < *max {
            reordered += fields;
        }
        *max = (*max).max(ts);
    }
    reordered
}

/// Strategy: per-series strictly-increasing timestamp runs, a shuffle of
/// the rendered lines displaced by strictly less than `lateness`, and
/// pipeline/storage/read knobs.
fn stream_case() -> impl Strategy<Value = StreamCase> {
    (
        (
            prop::collection::vec(
                prop::collection::vec((1i64..400, -1.0e3..1.0e3f64), 0..60),
                1..5,
            ),
            1usize..4, // fields per record
            1usize..6, // shards
        ),
        (
            1usize..40, // block capacity
            1usize..4,  // queue depth
            1usize..20, // chunk lines
            1i64..50,   // lateness
        ),
        (
            prop::collection::vec(0.0..1.0f64, 1..16), // per-line jitter draws
            prop::collection::vec(1usize..512, 1..8),  // reader piece sizes
        ),
    )
        .prop_map(
            |(
                (series, fields, shards),
                (block_capacity, queue_depth, chunk_lines, lateness),
                (jitters, read_sizes),
            )| {
                let series: Vec<Vec<DataPoint>> = series
                    .into_iter()
                    .map(|gaps| {
                        let mut ts = -1_000i64;
                        gaps.into_iter()
                            .map(|(gap, v)| {
                                ts += gap;
                                DataPoint::new(ts, v)
                            })
                            .collect()
                    })
                    .collect();
                let lines = render_lines(&series, fields);
                // Shuffle by sorting on ts + jitter with jitter in
                // [0, lateness): any two same-series points i before j in
                // arrival order satisfy ts_i <= ts_j + lateness - 1, so
                // the watermark never passes an in-flight point and the
                // reorder stage repairs the shuffle losslessly.
                let mut keyed: Vec<(i64, usize, String)> = lines
                    .iter()
                    .enumerate()
                    .map(|(i, line)| {
                        let jitter =
                            (jitters[i % jitters.len()] * lateness as f64) as i64;
                        (line_ts(line).saturating_add(jitter.min(lateness - 1)), i, line.clone())
                    })
                    .collect();
                keyed.sort_by_key(|&(key, i, _)| (key, i));
                let shuffled: Vec<String> =
                    keyed.into_iter().map(|(_, _, line)| line).collect();
                let expected_reordered = count_reordered(&shuffled, fields);
                StreamCase {
                    sorted_doc: lines.join("\n") + "\n",
                    shuffled_doc: shuffled.join("\n") + "\n",
                    expected_reordered,
                    shards,
                    block_capacity,
                    ingest: IngestConfig {
                        queue_depth,
                        chunk_lines,
                        lateness: Some(lateness),
                        ..IngestConfig::default()
                    },
                    read_sizes,
                }
            },
        )
}

proptest! {
    /// The acceptance-criteria wall: a lateness-L-shuffled stream
    /// ingested via `ingest_reader` at arbitrary read-buffer sizes, in
    /// bounded memory, produces a store identical to the sorted serial
    /// oracle for every query shape — seal boundaries included — with
    /// zero per-line write failures and `reordered` counted.
    #[test]
    fn shuffled_stream_matches_sorted_serial_oracle(case in stream_case()) {
        let sharded =
            ShardedDb::with_config(ShardedConfig::new(case.shards, case.block_capacity));
        let reader = ChoppedReader::new(case.shuffled_doc.as_bytes(), &case.read_sizes);
        let report = ingest_reader(&sharded, reader, 0, &case.ingest).unwrap();

        let oracle = Tsdb::with_config(TsdbConfig {
            block_capacity: case.block_capacity,
        });
        let serial_points = line_protocol::ingest(&oracle, &case.sorted_doc, 0).unwrap();

        // Zero per-line failures and exact repair accounting.
        prop_assert!(report.is_clean(), "{:?}", report);
        prop_assert_eq!(report.points, serial_points);
        prop_assert_eq!(report.lines, case.shuffled_doc.lines().count());
        prop_assert_eq!(report.dropped_late, 0);
        prop_assert_eq!(report.dropped_duplicate, 0);
        prop_assert_eq!(report.reordered, case.expected_reordered);

        // Every query shape equals the sorted oracle.
        let sel = Selector::metric("cpu");
        prop_assert_eq!(sharded.list_series(&sel), oracle.list_series(&sel));
        prop_assert_eq!(
            sharded.query_selector(&sel, full()).unwrap(),
            oracle.query_selector(&sel, full()).unwrap()
        );
        for key in oracle.list_series(&Selector::any()) {
            prop_assert_eq!(
                sharded.query(&key, full()).unwrap(),
                oracle.query(&key, full()).unwrap()
            );
            let bucketed = RangeQuery::bucketed(-1_000, 25_000, 43).aggregate(Aggregator::Max);
            prop_assert_eq!(
                sharded.query(&key, bucketed).unwrap(),
                oracle.query(&key, bucketed).unwrap()
            );
        }

        // Identical seal boundaries and compressed footprint once both
        // engines flush: the reorder stage released points in exactly the
        // order the serial oracle wrote them.
        sharded.flush().unwrap();
        oracle.flush().unwrap();
        prop_assert_eq!(sharded.stats(), oracle.stats());
    }

    /// Chunk-boundary totality: streaming arbitrary protocol-shaped junk
    /// in pieces (splits land mid-escape, mid-float, mid-UTF-8) is
    /// indistinguishable from ingesting the whole document — same store,
    /// same report, same failure line numbers.
    #[test]
    fn split_streams_equal_whole_documents_on_junk(
        picks in prop::collection::vec(0usize..20, 0..300),
        read_sizes in prop::collection::vec(1usize..64, 1..10),
        chunk_lines in 1usize..8,
        late_sel in 0i64..3,
    ) {
        const ALPHABET: [char; 20] = [
            'a', 'z', '=', ',', '.', '#', ' ', '0', '9', 'i', '\\', '\n',
            '-', '{', '}', '"', '\t', '\u{1f600}', 'e', '\r',
        ];
        let doc: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let config = IngestConfig {
            queue_depth: 2,
            chunk_lines,
            lateness: if late_sel == 0 { None } else { Some(late_sel * 7) },
            ..IngestConfig::default()
        };

        let streamed = ShardedDb::with_config(ShardedConfig::new(3, 8));
        let reader = ChoppedReader::new(doc.as_bytes(), &read_sizes);
        let streamed_report = ingest_reader(&streamed, reader, 100, &config).unwrap();

        let whole = ShardedDb::with_config(ShardedConfig::new(3, 8));
        let whole_report = ingest_reader(&whole, doc.as_bytes(), 100, &config).unwrap();

        prop_assert_eq!(&streamed_report, &whole_report);
        prop_assert_eq!(streamed_report.lines, doc.lines().count());
        prop_assert_eq!(
            streamed.query_selector(&Selector::any(), full()).unwrap(),
            whole.query_selector(&Selector::any(), full()).unwrap()
        );
        streamed.flush().unwrap();
        whole.flush().unwrap();
        prop_assert_eq!(streamed.stats(), whole.stats());
    }
}

/// A deterministic sweep of every split point of a document that mixes
/// multi-byte UTF-8 tags, floats with exponents, escapes, and CRLF: the
/// two-piece stream must equal the whole document at each boundary.
#[test]
fn every_two_piece_split_matches_whole_document() {
    let doc = "m,t=\u{1f600} v=1.25e-3 5\r\nm,t=\u{6f22}\u{5b57} v=-7.5 6\nbad\\line v=\n\
               m v=2 7\n# comment \u{00e9}\nm v=3";
    let config = IngestConfig {
        queue_depth: 1,
        chunk_lines: 2,
        lateness: None,
        ..IngestConfig::default()
    };
    let whole = ShardedDb::with_config(ShardedConfig::new(2, 4));
    let whole_report = ingest_reader(&whole, doc.as_bytes(), 0, &config).unwrap();
    let whole_out = whole.query_selector(&Selector::any(), full()).unwrap();
    for cut in 0..=doc.len() {
        let db = ShardedDb::with_config(ShardedConfig::new(2, 4));
        let mut ing = StreamIngestor::new(&db, 0, config.clone()).unwrap();
        ing.feed(&doc.as_bytes()[..cut]);
        ing.feed(&doc.as_bytes()[cut..]);
        let report = ing.finish();
        assert_eq!(report, whole_report, "split at byte {cut}");
        assert_eq!(
            db.query_selector(&Selector::any(), full()).unwrap(),
            whole_out,
            "split at byte {cut}"
        );
    }
}

/// The bounded-memory contract, polled live: with a small inbox and a
/// small reorder window, a session's in-flight chunks never exceed
/// `queue_depth + 2` — per shard, a full inbox, the batch its writer is
/// applying, and the chunk the session is blocked sending — and
/// reorder-stage pending never exceeds `series × lateness` points, no
/// matter how far the byte source runs ahead of the writers. A second
/// thread polls too, so states in the middle of a blocked send are seen.
#[test]
fn pipeline_buffering_stays_within_configured_bounds() {
    const HOSTS: usize = 4;
    const POINTS: i64 = 1_500;
    const LATENESS: i64 = 8;
    let config = IngestConfig {
        queue_depth: 1,
        chunk_lines: 4,
        lateness: Some(LATENESS),
        ..IngestConfig::default()
    };
    let chunk_bound = config.queue_depth + 2;
    let reorder_bound = HOSTS * LATENESS as usize;

    // Per-host timestamps 0..POINTS, lines shuffled by a deterministic
    // jitter pattern strictly below LATENESS.
    let mut lines: Vec<String> = Vec::new();
    for t in 0..POINTS {
        for h in 0..HOSTS {
            lines.push(format!("cpu,host=h{h} usage={} {t}", (t % 13) as f64));
        }
    }
    let mut keyed: Vec<(i64, usize, String)> = lines
        .into_iter()
        .enumerate()
        .map(|(i, line)| (line_ts(&line) + (i as i64 * 5) % LATENESS, i, line))
        .collect();
    keyed.sort_by_key(|&(key, i, _)| (key, i));
    let doc = keyed
        .into_iter()
        .map(|(_, _, line)| line)
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";

    let db = ShardedDb::with_config(ShardedConfig::new(3, 16));
    let mut ing = StreamIngestor::new(&db, 0, config).unwrap();
    let watch = ing.watch_progress();
    let feeding = AtomicBool::new(true);
    // Checks one poll against both bounds; returns its (chunks, pending).
    let check = |p: StreamProgress| {
        assert!(
            p.in_flight_chunks <= chunk_bound,
            "session held {} chunks in flight, bound is {chunk_bound}",
            p.in_flight_chunks
        );
        assert!(
            p.pending_reorder <= reorder_bound,
            "reorder stages held {} points, bound is {reorder_bound}",
            p.pending_reorder
        );
        (p.in_flight_chunks, p.pending_reorder)
    };
    let peak = |a: (usize, usize), b: (usize, usize)| (a.0.max(b.0), a.1.max(b.1));
    let (peak_chunks, peak_pending) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut seen = (0, 0);
            while feeding.load(Ordering::Acquire) {
                seen = peak(seen, check(watch.get()));
            }
            seen
        });
        let mut seen = (0, 0);
        for piece in doc.as_bytes().chunks(57) {
            ing.feed(piece);
            seen = peak(seen, check(ing.progress()));
        }
        feeding.store(false, Ordering::Release);
        peak(seen, watcher.join().unwrap())
    });
    let report = ing.finish();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.points, HOSTS * POINTS as usize);
    assert_eq!(report.dropped_late, 0);
    assert!(report.reordered > 0, "the jitter produced real disorder");
    // The polls actually observed the pipeline buffering (not a pipeline
    // that drained instantly between feeds).
    assert!(peak_chunks > 0 || peak_pending > 0);

    // Bounded memory did not cost correctness.
    let oracle = Tsdb::with_config(TsdbConfig { block_capacity: 16 });
    for t in 0..POINTS {
        for h in 0..HOSTS {
            let key = SeriesKey::metric("cpu.usage").with_tag("host", format!("h{h}"));
            oracle
                .write(&key, DataPoint::new(t, (t % 13) as f64))
                .unwrap();
        }
    }
    assert_eq!(
        db.query_selector(&Selector::any(), full()).unwrap(),
        oracle.query_selector(&Selector::any(), full()).unwrap()
    );
}

/// A long-running ingestor behaves like a service handle: many small
/// feeds over time, a live report that only moves forward, and a final
/// flush that loses nothing that was within the lateness window.
#[test]
fn stream_ingestor_handle_survives_many_small_feeds() {
    let config = IngestConfig {
        queue_depth: 2,
        chunk_lines: 3,
        lateness: Some(4),
        ..IngestConfig::default()
    };
    let db = ShardedDb::with_config(ShardedConfig::new(2, 8));
    let mut ing = StreamIngestor::new(&db, 0, config).unwrap();
    let mut last = ing.progress();
    // Three sessions' worth of lines, fed byte by byte with polls in
    // between — including a final batch that stays entirely inside the
    // lateness window until finish().
    for batch in ["m v=1 1\nm v=3 3\nm v=2 2\n", "m v=5 5\nm v=4 4\n", "m v=7 7\nm v=6 6\n"] {
        for b in batch.as_bytes() {
            ing.feed(std::slice::from_ref(b));
        }
        let now = ing.progress();
        assert!(now.lines >= last.lines, "line counter regressed");
        assert!(now.points >= last.points, "point counter regressed");
        last = now;
    }
    let report = ing.finish();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.points, 7);
    assert_eq!(report.reordered, 3, "2, 4, and 6 arrived late");
    let got = db.query(&SeriesKey::metric("m.v"), full()).unwrap();
    let want: Vec<_> = (1..=7).map(|t| DataPoint::new(t, t as f64)).collect();
    assert_eq!(got, want);
}

/// Splits a rendered document's lines by host parity: two streams over
/// disjoint series, each in the document's arrival order.
fn split_by_host(doc: &str) -> [String; 2] {
    let mut parts = [String::new(), String::new()];
    for line in doc.lines() {
        let host: usize = line_host(line)[1..].parse().unwrap();
        parts[host % 2].push_str(line);
        parts[host % 2].push('\n');
    }
    parts
}

/// Feeds each document to its own session on `writers`, all sessions
/// concurrently (one thread each, pieces in the scripted sizes), and
/// returns their reports in document order.
fn feed_concurrently(writers: &ShardWriters, docs: &[String], sizes: &[usize]) -> Vec<IngestReport> {
    std::thread::scope(|scope| {
        let feeders: Vec<_> = docs
            .iter()
            .map(|doc| {
                let mut session = writers.session(0);
                scope.spawn(move || {
                    let mut reader = ChoppedReader::new(doc.as_bytes(), sizes);
                    let mut buf = [0u8; 512];
                    loop {
                        let n = reader.read(&mut buf).unwrap();
                        if n == 0 {
                            return session.finish();
                        }
                        session.feed(&buf[..n]);
                    }
                })
            })
            .collect();
        feeders.into_iter().map(|f| f.join().unwrap()).collect()
    })
}

proptest! {
    /// Two sessions on one writer set, fed concurrently with
    /// lateness-shuffled streams over disjoint series: each report
    /// equals the report of the same bytes fed alone to a fresh
    /// `StreamIngestor`, and the shared store equals the sorted serial
    /// oracle.
    #[test]
    fn concurrent_sessions_on_disjoint_series_match_solo_reports(case in stream_case()) {
        let parts = split_by_host(&case.shuffled_doc);
        let db = ShardedDb::with_config(ShardedConfig::new(case.shards, case.block_capacity));
        let writers = ShardWriters::new(&db, case.ingest.clone()).unwrap();
        let reports = feed_concurrently(&writers, &parts, &case.read_sizes);
        writers.stop();
        for (part, report) in parts.iter().zip(&reports) {
            let alone =
                ShardedDb::with_config(ShardedConfig::new(case.shards, case.block_capacity));
            let mut solo = StreamIngestor::new(&alone, 0, case.ingest.clone()).unwrap();
            solo.feed(part.as_bytes());
            prop_assert_eq!(report, &solo.finish());
        }

        let oracle = Tsdb::with_config(TsdbConfig {
            block_capacity: case.block_capacity,
        });
        line_protocol::ingest(&oracle, &case.sorted_doc, 0).unwrap();
        let any = Selector::any();
        prop_assert_eq!(db.list_series(&any), oracle.list_series(&any));
        prop_assert_eq!(
            db.query_selector(&any, full()).unwrap(),
            oracle.query_selector(&any, full()).unwrap()
        );
        db.flush().unwrap();
        oracle.flush().unwrap();
        prop_assert_eq!(db.stats(), oracle.stats());
    }

    /// Two sessions writing *one* series keep per-connection semantics:
    /// each has its own reorder stage, so their points meet at the store
    /// in the order they reach the writer. Every offered point is
    /// accounted for exactly once — written, failed or dropped — and the
    /// stored series is strictly increasing.
    #[test]
    fn concurrent_sessions_on_one_series_account_for_every_point(
        steps in prop::collection::vec((1i64..20, 0usize..2), 1..200),
        jitters in prop::collection::vec(0.0..1.0f64, 1..16),
        late_sel in 0i64..4,
        shards in 1usize..4,
        chunk_lines in 1usize..16,
        read_sizes in prop::collection::vec(1usize..256, 1..6),
    ) {
        // One timeline dealt to the two sessions by the drawn owner, each
        // session's share shuffled strictly within the lateness.
        let lateness = (late_sel > 0).then_some(late_sel * 5);
        let mut shares: [Vec<(i64, String)>; 2] = [Vec::new(), Vec::new()];
        let mut ts = 0i64;
        for (i, &(step, owner)) in steps.iter().enumerate() {
            ts += step;
            let window = lateness.unwrap_or(1) - 1;
            let jitter = (jitters[i % jitters.len()] * window as f64) as i64;
            shares[owner].push((ts + jitter, format!("m v={i} {ts}\n")));
        }
        let docs: Vec<String> = shares
            .iter_mut()
            .map(|share| {
                share.sort();
                share.iter().map(|(_, line)| line.as_str()).collect()
            })
            .collect();

        let db = ShardedDb::with_config(ShardedConfig::new(shards, 8));
        let config = IngestConfig {
            queue_depth: 2,
            chunk_lines,
            lateness,
            ..IngestConfig::default()
        };
        let writers = ShardWriters::new(&db, config).unwrap();
        let reports = feed_concurrently(&writers, &docs, &read_sizes);
        writers.stop();

        let accounted: usize = reports
            .iter()
            .map(|r| r.points + r.write_failures.len() + r.dropped_late + r.dropped_duplicate)
            .sum();
        prop_assert_eq!(accounted, steps.len());
        prop_assert!(reports.iter().all(|r| r.parse_failures.is_empty()));
        let stored = db.query(&SeriesKey::metric("m.v"), full()).unwrap();
        prop_assert_eq!(stored.len(), reports.iter().map(|r| r.points).sum::<usize>());
        prop_assert!(stored.windows(2).all(|w| w[0].timestamp < w[1].timestamp));
    }
}
