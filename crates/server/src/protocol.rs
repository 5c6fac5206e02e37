//! The line-oriented text protocol of the query/ops port.
//!
//! One request per line, whitespace-separated tokens; one response per
//! request. Responses are machine-parseable:
//!
//! * errors are a single line `ERR <message>` (the message never contains
//!   a newline);
//! * single-line successes start with `OK `;
//! * multi-line successes start with `OK <count>` (or `OK stats`), carry
//!   `count` self-describing sections, and always terminate with a lone
//!   `END` line, so clients can stream-parse without knowing the shape of
//!   every section.
//!
//! Grammar (verbs are case-insensitive, arguments are not):
//!
//! ```text
//! RANGE       <selector> <start> <end> [<bucket> [<agg>]]
//! SMOOTH      <selector> <start> <end> <bucket> [<resolution>]
//! SUBSCRIBE   <selector> [EVERY <n>] [ALERT k=<sigma>]
//! UNSUBSCRIBE [<id>]
//! STATS
//! METRICS
//! HEALTH
//! SNAPSHOT <name>
//! SHUTDOWN
//! ```
//!
//! `SUBSCRIBE` registers a standing smoothing subscription: the server
//! answers `OK subscribed <id> ...` (single line) and from then on pushes
//! unsolicited lines onto this connection as ingest advances:
//!
//! ```text
//! FRAME <key> seq=<points> window=<w> n=<len> <v1,v2,...>
//! ALERT <key> seq=<points> dir=<up|down> run=<len> mean_z=<z>
//! ```
//!
//! `seq` is the per-series count of raw points ingested when the frame
//! was emitted, `window` the chosen smoothing window (in panes), and the
//! trailing token the comma-joined smoothed series (shortest-roundtrip
//! `f64`, like data lines). `ALERT` lines appear only for subscriptions
//! created with `ALERT k=<sigma>`, and are edge-triggered: one line per
//! sustained deviation, not one per frame. Push lines are interleaved
//! between responses at line granularity only — a response is never
//! split by a push. `UNSUBSCRIBE <id>` cancels one subscription,
//! `UNSUBSCRIBE` cancels every subscription this connection owns, and
//! disconnect tears all of them down.
//!
//! `SNAPSHOT <name>` resolves inside the server's configured snapshot
//! directory — a relative path with plain components only. Absolute
//! paths and `..` are refused, and the whole command is refused when no
//! directory is configured: query clients are unauthenticated, so they
//! never get to pick server filesystem paths.
//!
//! `<selector>` picks series: `*` (every series), `metric`,
//! `metric{k=v,k2=*}` (tag `k` equal to `v`, tag `k2` present with any
//! value), or `*{k=v}` / `{k=v}` (any metric, tag-filtered). Selectors
//! are one token — metric names and tag values containing whitespace are
//! not addressable over this protocol. `<agg>` is one of `mean`, `min`,
//! `max`, `sum`, `count`, `first`, `last`. Timestamps and buckets are
//! plain `i64` in the store's native units.
//!
//! Rollup series — the compactor's pre-aggregates, tagged
//! [`asap_tsdb::ROLLUP_TAG`] — are infrastructure: `RANGE` and `SMOOTH`
//! exclude them unless the selector takes a position on the tag itself
//! (e.g. `cpu{__rollup__=60}` or `*{__rollup__=*}`), so `*` means
//! "every *raw* series" rather than double-counting pre-aggregated
//! copies.
//!
//! `RANGE`/`SMOOTH` data sections are
//! `SERIES <key> <n> [k=v ...]` followed by `n` lines of
//! `<timestamp> <value>`; values render through Rust's shortest-roundtrip
//! `f64` display, so `parse::<f64>()` reconstructs them exactly.
//!
//! # Ingest-port framing
//!
//! The ingest port speaks the line protocol
//! ([`mod@asap_tsdb::ingest`]) with one optional frame type layered
//! on top:
//!
//! ```text
//! BATCH <nbytes>\n<nbytes bytes of payload>
//! ```
//!
//! The header verb is case-insensitive and `<nbytes>` is a plain
//! decimal `u64` (a trailing `\r` before the newline is tolerated).
//! The payload is a *byte window* of the ordinary line-protocol
//! stream, passed through verbatim — it may end mid-line, in which
//! case the line continues with the bytes that follow the frame (the
//! next frame's payload, or plain bytes). Headers are recognized at
//! exactly three positions: the start of the stream, immediately after
//! a `\n` in the unframed stream, and immediately after a frame's
//! payload; header-looking bytes anywhere else (including *inside* a
//! payload) are data. Batching exists so one syscall can carry
//! thousands of points; it changes how bytes arrive, never what they
//! mean, so `plain lines ≡ the same bytes wrapped in frames` holds for
//! any framing of the stream (provided a plain-bytes line continuation
//! after a frame doesn't itself spell a valid header — split inside a
//! frame instead if your data can contain `BATCH <n>` lines). A line
//! that merely *looks* like a header but fails to parse (`BATCH ten`,
//! `BATCH `) degrades to an ordinary data line and surfaces as a parse
//! failure downstream, like any other malformed record.

use asap_core::{Alert, Direction, Frame};
use asap_tsdb::{Aggregator, DataPoint, Selector, SeriesKey, SmoothedFrame};

/// Display resolution (target pixel width) `SMOOTH` uses when the
/// request does not name one — the paper's canonical chart width.
pub const DEFAULT_RESOLUTION: usize = 800;

/// One parsed request of the query/ops protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `RANGE <selector> <start> <end> [<bucket> [<agg>]]` — raw or
    /// bucket-aggregated points of every matching series.
    Range {
        /// Which series to read.
        selector: Selector,
        /// Inclusive scan start.
        start: i64,
        /// Exclusive scan end.
        end: i64,
        /// Bucket width; `None` returns raw points.
        bucket: Option<i64>,
        /// Per-bucket reduction (ignored for raw scans).
        aggregator: Aggregator,
    },
    /// `SMOOTH <selector> <start> <end> <bucket> [<resolution>]` — the
    /// ASAP-smoothed frame of every matching series.
    Smooth {
        /// Which series to smooth.
        selector: Selector,
        /// Inclusive interval start.
        start: i64,
        /// Exclusive interval end.
        end: i64,
        /// Grid step handed to the query→ASAP bridge.
        bucket: i64,
        /// Target display resolution (pixels).
        resolution: usize,
    },
    /// `STATS` — the full counter dump (ingest, compaction, per-shard).
    Stats,
    /// `METRICS` — the same registry in Prometheus text exposition
    /// (counters, gauges, and full latency histograms).
    Metrics,
    /// `HEALTH` — a single-line liveness summary (`OK healthy ...`, or
    /// `DEGRADED ...` while a subsystem's latest pass is failing).
    Health,
    /// `SNAPSHOT <name>` — write an export of the whole store (one
    /// link-format file, `ShardedDb::save`) into the server's configured
    /// snapshot directory.
    Snapshot {
        /// Destination relative to the snapshot directory; the server
        /// refuses absolute paths and `..` components.
        path: String,
    },
    /// `SUBSCRIBE <selector> [EVERY <n>] [ALERT k=<sigma>]` — register a
    /// standing smoothing subscription pushing `FRAME` (and optionally
    /// `ALERT`) lines onto this connection.
    Subscribe {
        /// Which series to watch (matched against series created later,
        /// too).
        selector: Selector,
        /// Refresh interval in raw points per series; `None` takes the
        /// server default.
        every: Option<usize>,
        /// Deviation-alert threshold in standard deviations; `None`
        /// disables `ALERT` lines.
        alert: Option<f64>,
    },
    /// `UNSUBSCRIBE [<id>]` — cancel one subscription by id, or every
    /// subscription this connection owns.
    Unsubscribe {
        /// The id `OK subscribed` reported; `None` cancels all.
        id: Option<u64>,
    },
    /// `SHUTDOWN` — request a graceful server shutdown.
    Shutdown,
}

/// Parses one selector token; see the module docs for the grammar.
pub fn parse_selector(token: &str) -> Result<Selector, String> {
    let (metric, tags) = match token.find('{') {
        None => (token, None),
        Some(open) => {
            let Some(inner) = token[open + 1..].strip_suffix('}') else {
                return Err(format!("selector `{token}`: unterminated tag block"));
            };
            (&token[..open], Some(inner))
        }
    };
    let mut selector = match metric {
        "" | "*" => Selector::any(),
        name => Selector::metric(name),
    };
    if let Some(tags) = tags {
        for clause in tags.split(',') {
            if clause.is_empty() {
                return Err(format!("selector `{token}`: empty tag clause"));
            }
            let Some((key, value)) = clause.split_once('=') else {
                return Err(format!(
                    "selector `{token}`: tag clause `{clause}` is not key=value"
                ));
            };
            if key.is_empty() {
                return Err(format!("selector `{token}`: empty tag key"));
            }
            selector = if value == "*" {
                selector.tag_present(key)
            } else {
                selector.tag_eq(key, value)
            };
        }
    }
    Ok(selector)
}

fn parse_aggregator(token: &str) -> Result<Aggregator, String> {
    match token.to_ascii_lowercase().as_str() {
        "mean" => Ok(Aggregator::Mean),
        "min" => Ok(Aggregator::Min),
        "max" => Ok(Aggregator::Max),
        "sum" => Ok(Aggregator::Sum),
        "count" => Ok(Aggregator::Count),
        "first" => Ok(Aggregator::First),
        "last" => Ok(Aggregator::Last),
        other => Err(format!(
            "unknown aggregator `{other}` (mean|min|max|sum|count|first|last)"
        )),
    }
}

fn parse_i64(token: &str, what: &str) -> Result<i64, String> {
    token
        .parse()
        .map_err(|_| format!("{what} `{token}` is not an integer"))
}

fn parse_usize(token: &str, what: &str) -> Result<usize, String> {
    token
        .parse()
        .map_err(|_| format!("{what} `{token}` is not a non-negative integer"))
}

/// Parses one request line into a [`Command`].
pub fn parse_command(line: &str) -> Result<Command, String> {
    let mut tokens = line.split_whitespace();
    let Some(verb) = tokens.next() else {
        return Err("empty command".to_owned());
    };
    let args: Vec<&str> = tokens.collect();
    let arity = |lo: usize, hi: usize, usage: &str| -> Result<(), String> {
        if args.len() < lo || args.len() > hi {
            Err(format!("usage: {usage}"))
        } else {
            Ok(())
        }
    };
    match verb.to_ascii_uppercase().as_str() {
        "RANGE" => {
            arity(3, 5, "RANGE <selector> <start> <end> [<bucket> [<agg>]]")?;
            let bucket = match args.get(3) {
                None => None,
                Some(b) => Some(parse_i64(b, "bucket")?),
            };
            Ok(Command::Range {
                selector: parse_selector(args[0])?,
                start: parse_i64(args[1], "start")?,
                end: parse_i64(args[2], "end")?,
                bucket,
                aggregator: match args.get(4) {
                    None => Aggregator::Mean,
                    Some(a) => parse_aggregator(a)?,
                },
            })
        }
        "SMOOTH" => {
            arity(4, 5, "SMOOTH <selector> <start> <end> <bucket> [<resolution>]")?;
            Ok(Command::Smooth {
                selector: parse_selector(args[0])?,
                start: parse_i64(args[1], "start")?,
                end: parse_i64(args[2], "end")?,
                bucket: parse_i64(args[3], "bucket")?,
                resolution: match args.get(4) {
                    None => DEFAULT_RESOLUTION,
                    Some(r) => parse_usize(r, "resolution")?,
                },
            })
        }
        "STATS" => {
            arity(0, 0, "STATS")?;
            Ok(Command::Stats)
        }
        "METRICS" => {
            arity(0, 0, "METRICS")?;
            Ok(Command::Metrics)
        }
        "HEALTH" => {
            arity(0, 0, "HEALTH")?;
            Ok(Command::Health)
        }
        "SNAPSHOT" => {
            arity(1, 1, "SNAPSHOT <name>")?;
            Ok(Command::Snapshot {
                path: args[0].to_owned(),
            })
        }
        "SUBSCRIBE" => {
            let usage = "SUBSCRIBE <selector> [EVERY <n>] [ALERT k=<sigma>]";
            arity(1, 5, usage)?;
            let selector = parse_selector(args[0])?;
            let mut every = None;
            let mut alert = None;
            let mut rest = args[1..].iter();
            while let Some(word) = rest.next() {
                match word.to_ascii_uppercase().as_str() {
                    "EVERY" if every.is_none() => {
                        let n = rest.next().ok_or_else(|| format!("usage: {usage}"))?;
                        let n = parse_usize(n, "EVERY interval")?;
                        if n == 0 {
                            return Err("EVERY interval must be positive".to_owned());
                        }
                        every = Some(n);
                    }
                    "ALERT" if alert.is_none() => {
                        let clause = rest.next().ok_or_else(|| format!("usage: {usage}"))?;
                        let sigma = clause
                            .strip_prefix("k=")
                            .ok_or_else(|| format!("ALERT clause `{clause}` is not k=<sigma>"))?;
                        let k: f64 = sigma
                            .parse()
                            .map_err(|_| format!("ALERT sigma `{sigma}` is not a number"))?;
                        if !(k > 0.0 && k.is_finite()) {
                            return Err("ALERT sigma must be positive and finite".to_owned());
                        }
                        alert = Some(k);
                    }
                    _ => return Err(format!("usage: {usage}")),
                }
            }
            Ok(Command::Subscribe {
                selector,
                every,
                alert,
            })
        }
        "UNSUBSCRIBE" => {
            arity(0, 1, "UNSUBSCRIBE [<id>]")?;
            let id = match args.first() {
                None => None,
                Some(token) => Some(
                    token
                        .parse()
                        .map_err(|_| format!("subscription id `{token}` is not an integer"))?,
                ),
            };
            Ok(Command::Unsubscribe { id })
        }
        "SHUTDOWN" => {
            arity(0, 0, "SHUTDOWN")?;
            Ok(Command::Shutdown)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Parses an ingest-port `BATCH` frame header: the bytes of one line
/// *without* the trailing newline (a trailing `\r` is tolerated).
/// Returns the payload length in bytes, or `None` when the line is not
/// a valid header — the server's framer then treats the bytes as an
/// ordinary data line (see the module docs).
pub fn parse_batch_header(line: &[u8]) -> Option<u64> {
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    if line.len() < 7 || !line[..6].eq_ignore_ascii_case(b"BATCH ") {
        return None;
    }
    let digits = &line[6..];
    if !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// Renders an error response: a single `ERR` line with newlines in the
/// message flattened so the response stays one line.
pub fn render_error(message: &str) -> String {
    format!("ERR {}\n", message.replace('\n', "; "))
}

/// Renders a `RANGE` result: `OK <n>`, one `SERIES <key> <n_points>`
/// section per series with `<timestamp> <value>` lines, then `END`.
pub fn render_range(results: &[(SeriesKey, Vec<DataPoint>)]) -> String {
    let mut out = format!("OK {}\n", results.len());
    for (key, points) in results {
        out.push_str(&format!("SERIES {key} {}\n", points.len()));
        for p in points {
            out.push_str(&format!("{} {}\n", p.timestamp, p.value));
        }
    }
    out.push_str("END\n");
    out
}

/// Renders a `SMOOTH` result: `OK <n>`, one
/// `SERIES <key> <n_points> window=<w> pixel_ratio=<r> roughness=<σ>`
/// section per series with the smoothed `<timestamp> <value>` lines,
/// then `END`.
pub fn render_smooth(frames: &[(SeriesKey, SmoothedFrame)]) -> String {
    let mut out = format!("OK {}\n", frames.len());
    for (key, frame) in frames {
        out.push_str(&format!(
            "SERIES {key} {} window={} pixel_ratio={} roughness={}\n",
            frame.smoothed_points.len(),
            frame.result.window,
            frame.result.pixel_ratio,
            frame.result.roughness,
        ));
        for p in &frame.smoothed_points {
            out.push_str(&format!("{} {}\n", p.timestamp, p.value));
        }
    }
    out.push_str("END\n");
    out
}

/// Renders one pushed subscription frame:
/// `FRAME <key> seq=<points> window=<w> n=<len> <v1,v2,...>`.
///
/// Values render through Rust's shortest-roundtrip `f64` display like
/// data lines, so the line is byte-deterministic for a given frame —
/// the property the push-vs-poll oracle tests pin.
pub fn render_frame(key: &SeriesKey, frame: &Frame) -> String {
    let mut out = format!(
        "FRAME {key} seq={} window={} n={} ",
        frame.points_ingested,
        frame.outcome.window,
        frame.smoothed.len(),
    );
    let mut first = true;
    for v in &frame.smoothed {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&v.to_string());
    }
    out.push('\n');
    out
}

/// Renders one pushed deviation alert:
/// `ALERT <key> seq=<points> dir=<up|down> run=<len> mean_z=<z>`.
pub fn render_alert(key: &SeriesKey, alert: &Alert) -> String {
    format!(
        "ALERT {key} seq={} dir={} run={} mean_z={}\n",
        alert.points_ingested,
        match alert.direction {
            Direction::Up => "up",
            Direction::Down => "down",
        },
        alert.run_len,
        alert.mean_z,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_grammar_round_trips_onto_keys() {
        let k = SeriesKey::metric("cpu").with_tag("host", "a").with_tag("dc", "west");
        for (token, matches) in [
            ("*", true),
            ("cpu", true),
            ("mem", false),
            ("cpu{host=a}", true),
            ("cpu{host=b}", false),
            ("cpu{host=a,dc=west}", true),
            ("cpu{host=*}", true),
            ("cpu{rack=*}", false),
            ("*{dc=west}", true),
            ("{dc=west}", true),
            ("{dc=east}", false),
        ] {
            let sel = parse_selector(token).unwrap();
            assert_eq!(sel.matches(&k), matches, "selector `{token}`");
        }
    }

    #[test]
    fn bad_selectors_are_rejected_with_reasons() {
        for token in ["cpu{host=a", "cpu{host}", "cpu{=a}", "cpu{,}", "cpu{}"] {
            let err = parse_selector(token).unwrap_err();
            assert!(err.contains("selector"), "`{token}` -> {err}");
        }
    }

    #[test]
    fn commands_parse_with_defaults_and_case_insensitive_verbs() {
        assert_eq!(
            parse_command("range * 0 100").unwrap(),
            Command::Range {
                selector: parse_selector("*").unwrap(),
                start: 0,
                end: 100,
                bucket: None,
                aggregator: Aggregator::Mean,
            }
        );
        assert_eq!(
            parse_command("RANGE cpu{host=a} -50 100 10 max").unwrap(),
            Command::Range {
                selector: parse_selector("cpu{host=a}").unwrap(),
                start: -50,
                end: 100,
                bucket: Some(10),
                aggregator: Aggregator::Max,
            }
        );
        assert_eq!(
            parse_command("smooth cpu 0 1000 10").unwrap(),
            Command::Smooth {
                selector: parse_selector("cpu").unwrap(),
                start: 0,
                end: 1000,
                bucket: 10,
                resolution: DEFAULT_RESOLUTION,
            }
        );
        assert_eq!(
            parse_command("SMOOTH cpu 0 1000 10 320").unwrap(),
            Command::Smooth {
                selector: parse_selector("cpu").unwrap(),
                start: 0,
                end: 1000,
                bucket: 10,
                resolution: 320,
            }
        );
        assert_eq!(parse_command("stats").unwrap(), Command::Stats);
        assert_eq!(parse_command("metrics").unwrap(), Command::Metrics);
        assert_eq!(parse_command("Health").unwrap(), Command::Health);
        assert_eq!(
            parse_command("SNAPSHOT /tmp/a.snap").unwrap(),
            Command::Snapshot {
                path: "/tmp/a.snap".to_owned()
            }
        );
        assert_eq!(parse_command("shutdown").unwrap(), Command::Shutdown);
    }

    #[test]
    fn malformed_commands_report_usage() {
        for (line, needle) in [
            ("", "empty command"),
            ("FLY * 0 10", "unknown command"),
            ("RANGE *", "usage:"),
            ("RANGE * 0 ten", "not an integer"),
            ("RANGE * 0 10 5 median", "unknown aggregator"),
            ("SMOOTH * 0 10", "usage:"),
            ("SMOOTH * 0 10 5 -3", "not a non-negative integer"),
            ("STATS now", "usage:"),
            ("METRICS now", "usage:"),
            ("SNAPSHOT", "usage:"),
        ] {
            let err = parse_command(line).unwrap_err();
            assert!(err.contains(needle), "`{line}` -> {err}");
        }
    }

    #[test]
    fn subscribe_grammar_parses_clauses_in_any_order() {
        assert_eq!(
            parse_command("SUBSCRIBE cpu{host=a}").unwrap(),
            Command::Subscribe {
                selector: parse_selector("cpu{host=a}").unwrap(),
                every: None,
                alert: None,
            }
        );
        assert_eq!(
            parse_command("subscribe * every 500 alert k=1.5").unwrap(),
            Command::Subscribe {
                selector: parse_selector("*").unwrap(),
                every: Some(500),
                alert: Some(1.5),
            }
        );
        assert_eq!(
            parse_command("SUBSCRIBE mem ALERT k=2 EVERY 10").unwrap(),
            Command::Subscribe {
                selector: parse_selector("mem").unwrap(),
                every: Some(10),
                alert: Some(2.0),
            }
        );
        assert_eq!(
            parse_command("UNSUBSCRIBE 7").unwrap(),
            Command::Unsubscribe { id: Some(7) }
        );
        assert_eq!(
            parse_command("unsubscribe").unwrap(),
            Command::Unsubscribe { id: None }
        );
    }

    #[test]
    fn malformed_subscriptions_are_rejected() {
        for (line, needle) in [
            ("SUBSCRIBE", "usage:"),
            ("SUBSCRIBE * EVERY", "usage:"),
            ("SUBSCRIBE * EVERY 0", "must be positive"),
            ("SUBSCRIBE * EVERY ten", "not a non-negative integer"),
            ("SUBSCRIBE * EVERY 5 EVERY 6", "usage:"),
            ("SUBSCRIBE * ALERT", "usage:"),
            ("SUBSCRIBE * ALERT 1.5", "not k=<sigma>"),
            ("SUBSCRIBE * ALERT k=zero", "not a number"),
            ("SUBSCRIBE * ALERT k=-1", "must be positive"),
            ("SUBSCRIBE * ALERT k=nan", "must be positive and finite"),
            ("SUBSCRIBE cpu{host", "unterminated tag block"),
            ("UNSUBSCRIBE seven", "not an integer"),
            ("UNSUBSCRIBE 1 2", "usage:"),
        ] {
            let err = parse_command(line).unwrap_err();
            assert!(err.contains(needle), "`{line}` -> {err}");
        }
    }

    #[test]
    fn frame_and_alert_lines_are_single_line_and_round_trip() {
        let key = SeriesKey::metric("cpu").with_tag("host", "a");
        let frame = Frame {
            smoothed: vec![0.1 + 0.2, 1.0 / 3.0, -4.5],
            outcome: asap_core::SearchOutcome {
                window: 7,
                roughness: 0.0,
                kurtosis: 0.0,
                candidates_checked: 1,
            },
            points_ingested: 1234,
        };
        let line = render_frame(&key, &frame);
        assert!(line.starts_with("FRAME cpu{host=a} seq=1234 window=7 n=3 "));
        assert_eq!(line.matches('\n').count(), 1);
        assert!(line.ends_with('\n'));
        let values: Vec<f64> = line
            .trim_end()
            .rsplit(' ')
            .next()
            .unwrap()
            .split(',')
            .map(|v| v.parse().unwrap())
            .collect();
        assert_eq!(values, frame.smoothed, "values round-trip through parse");

        let alert = Alert {
            run_len: 6,
            mean_z: -2.25,
            direction: Direction::Down,
            points_ingested: 1234,
        };
        assert_eq!(
            render_alert(&key, &alert),
            "ALERT cpu{host=a} seq=1234 dir=down run=6 mean_z=-2.25\n"
        );
    }

    #[test]
    fn range_rendering_is_count_prefixed_and_end_terminated() {
        let key = SeriesKey::metric("cpu").with_tag("host", "a");
        let rendered = render_range(&[(
            key,
            vec![DataPoint::new(1, 0.5), DataPoint::new(2, -1.25)],
        )]);
        assert_eq!(
            rendered,
            "OK 1\nSERIES cpu{host=a} 2\n1 0.5\n2 -1.25\nEND\n"
        );
        assert_eq!(render_range(&[]), "OK 0\nEND\n");
    }

    #[test]
    fn rendered_values_round_trip_through_f64_parse() {
        let values = [0.1 + 0.2, 1.0 / 3.0, -1.0e-300, f64::MAX];
        let points: Vec<DataPoint> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| DataPoint::new(i as i64, v))
            .collect();
        let rendered = render_range(&[(SeriesKey::metric("m"), points)]);
        for (line, &want) in rendered.lines().skip(2).take(values.len()).zip(&values) {
            let got: f64 = line.split(' ').nth(1).unwrap().parse().unwrap();
            assert_eq!(got, want, "value failed to round-trip: {line}");
        }
    }

    #[test]
    fn batch_headers_parse_strictly() {
        assert_eq!(parse_batch_header(b"BATCH 0"), Some(0));
        assert_eq!(parse_batch_header(b"BATCH 4096"), Some(4096));
        assert_eq!(parse_batch_header(b"batch 17"), Some(17), "case-insensitive verb");
        assert_eq!(parse_batch_header(b"BATCH 17\r"), Some(17), "CRLF tolerated");
        assert_eq!(
            parse_batch_header(b"BATCH 18446744073709551615"),
            Some(u64::MAX)
        );
        for bad in [
            &b"BATCH"[..],
            b"BATCH ",
            b"BATCH ten",
            b"BATCH -5",
            b"BATCH 1 2",
            b"BATCH 18446744073709551616", // u64 overflow
            b"BATCHX 5",
            b"cpu usage=1 1",
            b"",
        ] {
            assert_eq!(
                parse_batch_header(bad),
                None,
                "`{}` accepted",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn error_rendering_never_spans_lines() {
        let rendered = render_error("first\nsecond");
        assert_eq!(rendered, "ERR first; second\n");
        assert_eq!(rendered.matches('\n').count(), 1);
    }
}
