//! InfluxDB-style line-protocol ingestion.
//!
//! The ASAP paper (§2) positions the operator downstream of time-series
//! databases "such as InfluxDB"; this module implements the ingestion
//! format those systems speak so the substrate can be fed real exports:
//!
//! ```text
//! measurement[,tag=value...] field=value[,field2=value2...] [timestamp]
//! ```
//!
//! Supported subset: unquoted tag values, float/integer field values, `#`
//! comments, blank lines. Each `(measurement, tags, field)` triple maps to
//! one series, keyed as `measurement.field` with the record's tags. The
//! tag key `__rollup__` is reserved for the compactor's own series, so a
//! record carrying it is a parse error.

use crate::db::Tsdb;
use crate::error::TsdbError;
use crate::point::DataPoint;
use crate::retention::ROLLUP_TAG;
use crate::tags::SeriesKey;

/// One parsed line-protocol record (one field ⇒ one [`ParsedPoint`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedPoint {
    /// Destination series (measurement.field plus the record tags).
    pub key: SeriesKey,
    /// The sample.
    pub point: DataPoint,
}

/// Parses a line-protocol document into points.
///
/// Records missing a timestamp take `default_ts` plus the 0-based line
/// index (so repeated calls with increasing bases stay ordered). The sum
/// saturates at `i64::MAX` rather than overflowing for absurd bases.
pub fn parse(text: &str, default_ts: i64) -> Result<Vec<ParsedPoint>, TsdbError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.extend(parse_line(line, line_no, fallback_ts(default_ts, idx))?);
    }
    Ok(out)
}

/// The timestamp a record on 0-based line `idx` falls back to when it
/// carries none: `default_ts + idx`, saturating instead of overflowing.
pub(crate) fn fallback_ts(default_ts: i64, idx: usize) -> i64 {
    default_ts.saturating_add(i64::try_from(idx).unwrap_or(i64::MAX))
}

/// Longest line either server port accepts: the bytes before a `\n` (a
/// `\r` in front of it included). Remote input must not grow server
/// memory, so the ingest port's line assembler and the query port's
/// request buffer both stop holding a line at this length.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// The [`crate::ingest::ParseFailure`] reason of a line past
/// [`MAX_LINE_BYTES`] (reasons are `&'static str`; a unit test keeps the
/// number in step with the constant).
pub(crate) const LINE_TOO_LONG: &str = "line exceeds 65536 bytes";

/// One line out of the [`LineAssembler`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Line {
    /// The line's text, terminator stripped.
    Text(String),
    /// A line longer than [`MAX_LINE_BYTES`]: its bytes were discarded,
    /// it keeps its place in the line numbering and is never parsed.
    TooLong,
}

/// Reassembles complete lines out of an arbitrary byte stream.
///
/// The streaming ingest pipeline ([`mod@crate::ingest`]) receives the
/// document as raw reader chunks that may split anywhere — mid-float,
/// mid-escape, even mid-UTF-8 code point. This accumulator buffers bytes
/// until a `\n` completes a line, reproducing `str::lines` semantics
/// exactly so a streamed document tokenizes identically to an in-memory
/// one:
///
/// * lines are terminated by `\n`; a `\r` immediately before the `\n` is
///   stripped (a `\r` anywhere else is line content);
/// * a trailing line without a final `\n` is emitted by
///   [`LineAssembler::finish`]; a document ending in `\n` yields no extra
///   empty line;
/// * completed lines are decoded with `String::from_utf8_lossy` — for
///   valid UTF-8 input (any document that ever existed as a `&str`) this
///   is exact, and chunk boundaries inside a multi-byte code point cannot
///   corrupt it because decoding happens only on complete lines;
/// * a line past [`MAX_LINE_BYTES`] comes out as [`Line::TooLong`]: the
///   buffer is dropped the moment the bound is crossed and the bytes up
///   to the next `\n` are discarded, so a newline-free stream holds at
///   most the bound in memory. Only the line's length decides, so the
///   output is the same at any split of the input.
#[derive(Debug, Default)]
pub(crate) struct LineAssembler {
    partial: Vec<u8>,
    /// The current line already crossed the bound; discard to its `\n`.
    too_long: bool,
}

impl LineAssembler {
    /// Creates an empty assembler.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Feeds bytes, appending every newly completed line to `out`.
    pub(crate) fn push(&mut self, bytes: &[u8], out: &mut Vec<Line>) {
        let mut rest = bytes;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(pos);
            rest = &tail[1..]; // skip the newline itself
            if self.too_long || self.partial.len() + head.len() > MAX_LINE_BYTES {
                self.too_long = false;
                self.partial.clear();
                out.push(Line::TooLong);
                continue;
            }
            let line = if self.partial.is_empty() {
                strip_cr(head).to_vec()
            } else {
                self.partial.extend_from_slice(head);
                let mut line = std::mem::take(&mut self.partial);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                line
            };
            out.push(Line::Text(String::from_utf8_lossy(&line).into_owned()));
        }
        if self.too_long || self.partial.len() + rest.len() > MAX_LINE_BYTES {
            self.too_long = true;
            self.partial = Vec::new();
        } else {
            self.partial.extend_from_slice(rest);
        }
    }

    /// Emits the trailing unterminated line, if any bytes are pending.
    pub(crate) fn finish(&mut self, out: &mut Vec<Line>) {
        if std::mem::take(&mut self.too_long) {
            out.push(Line::TooLong);
        } else if !self.partial.is_empty() {
            let line = std::mem::take(&mut self.partial);
            // No trailing `\n`, so a final `\r` is content (as in
            // `str::lines`).
            out.push(Line::Text(String::from_utf8_lossy(&line).into_owned()));
        }
    }
}

/// Strips one `\r` from the end of a `\n`-terminated line body.
fn strip_cr(line: &[u8]) -> &[u8] {
    match line {
        [head @ .., b'\r'] => head,
        _ => line,
    }
}

/// Parses a document and writes every point into `db`.
///
/// Returns the number of points written. Writes are per-series ordered
/// only if the input is; ordering violations surface as
/// [`TsdbError::OutOfOrder`].
pub fn ingest(db: &Tsdb, text: &str, default_ts: i64) -> Result<usize, TsdbError> {
    let points = parse(text, default_ts)?;
    for p in &points {
        db.write(&p.key, p.point)?;
    }
    Ok(points.len())
}

/// Parses one pre-trimmed, non-comment record; `line_no` is the 1-based
/// line number carried into any [`TsdbError::Parse`]. Shared by the serial
/// [`parse`] loop and the [`crate::ingest`] sessions.
pub(crate) fn parse_line(
    line: &str,
    line_no: usize,
    fallback_ts: i64,
) -> Result<Vec<ParsedPoint>, TsdbError> {
    let err = |reason: &'static str| TsdbError::Parse {
        line: line_no,
        reason,
    };
    let mut sections = line.split_whitespace();
    let head = sections.next().ok_or_else(|| err("empty record"))?;
    let fields = sections.next().ok_or_else(|| err("missing field set"))?;
    let ts = match sections.next() {
        Some(t) => t
            .parse::<i64>()
            .map_err(|_| err("timestamp is not an integer"))?,
        None => fallback_ts,
    };
    if sections.next().is_some() {
        return Err(err("trailing tokens after timestamp"));
    }

    // Head: measurement[,tag=value...]
    let mut head_parts = head.split(',');
    let measurement = head_parts.next().filter(|m| !m.is_empty()).ok_or_else(|| err("empty measurement name"))?;
    let mut tags = Vec::new();
    for pair in head_parts {
        let (k, v) = pair.split_once('=').ok_or_else(|| err("malformed tag pair"))?;
        if k.is_empty() || v.is_empty() {
            return Err(err("empty tag key or value"));
        }
        // The compactor's own series: a client write there would become
        // a rollup watermark.
        if k == ROLLUP_TAG {
            return Err(err("reserved tag key"));
        }
        tags.push((k, v));
    }

    // Fields: name=value[,name=value...]
    let mut out = Vec::new();
    for pair in fields.split(',') {
        let (name, raw) = pair.split_once('=').ok_or_else(|| err("malformed field pair"))?;
        if name.is_empty() {
            return Err(err("empty field name"));
        }
        // Accept Influx's integer suffix `i` as well as plain floats.
        let raw = raw.strip_suffix('i').unwrap_or(raw);
        let value: f64 = raw.parse().map_err(|_| err("field value is not numeric"))?;
        let mut key = SeriesKey::metric(format!("{measurement}.{name}"));
        for &(k, v) in &tags {
            key = key.with_tag(k, v);
        }
        out.push(ParsedPoint {
            key,
            point: DataPoint::new(ts, value),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_record_parses() {
        let pts = parse("cpu,host=a,dc=west usage=42.5,idle=57.5 1600000000", 0).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].key.metric_name(), "cpu.usage");
        assert_eq!(pts[0].key.tag("host"), Some("a"));
        assert_eq!(pts[0].key.tag("dc"), Some("west"));
        assert_eq!(pts[0].point, DataPoint::new(1_600_000_000, 42.5));
        assert_eq!(pts[1].key.metric_name(), "cpu.idle");
        assert_eq!(pts[1].point.value, 57.5);
    }

    #[test]
    fn tagless_and_timestampless_records_parse() {
        let pts = parse("load value=1.5", 99).unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].key.metric_name(), "load.value");
        assert!(pts[0].key.tags().is_empty());
        assert_eq!(pts[0].point.timestamp, 99, "fallback timestamp applied");
    }

    #[test]
    fn fallback_timestamps_increase_with_line_index() {
        let pts = parse("a v=1\na v=2\na v=3", 100).unwrap();
        let ts: Vec<_> = pts.iter().map(|p| p.point.timestamp).collect();
        assert_eq!(ts, vec![100, 101, 102]);
    }

    #[test]
    fn integer_suffix_accepted() {
        let pts = parse("net bytes=1024i 5", 0).unwrap();
        assert_eq!(pts[0].point.value, 1024.0);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let pts = parse("# header\n\ncpu v=1 10\n  \n# trailing", 0).unwrap();
        assert_eq!(pts.len(), 1);
    }

    #[test]
    fn malformed_records_report_line_numbers() {
        let cases = [
            ("cpu", "missing field set"),
            ("cpu v=abc 5", "field value is not numeric"),
            ("cpu v=1 notatime", "timestamp is not an integer"),
            ("cpu,host v=1 5", "malformed tag pair"),
            ("cpu,host= v=1 5", "empty tag key or value"),
            ("cpu =1 5", "empty field name"),
            ("cpu v=1 5 extra", "trailing tokens after timestamp"),
            (",host=a v=1 5", "empty measurement name"),
            ("cpu,__rollup__=10 v=1 5", "reserved tag key"),
        ];
        for (text, want) in cases {
            let doc = format!("# comment\n{text}");
            match parse(&doc, 0) {
                Err(TsdbError::Parse { line, reason }) => {
                    assert_eq!(line, 2, "line number for {text:?}");
                    assert_eq!(reason, want, "reason for {text:?}");
                }
                other => panic!("expected parse error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn the_rollup_tag_is_reserved_but_the_self_tag_is_not() {
        // A client line must not write into the compactor's series; the
        // stream goes on past it.
        let doc = "m v=1 1\nm,__rollup__=100 v=1 1000000\nm v=2 2";
        let db = crate::sharded::ShardedDb::new();
        let config = crate::ingest::IngestConfig::default();
        let report = crate::ingest::ingest_reader(&db, doc.as_bytes(), 0, &config).unwrap();
        assert_eq!(report.points, 2, "the lines around it are stored");
        assert_eq!(
            report.parse_failures,
            vec![crate::ingest::ParseFailure {
                line: 2,
                reason: "reserved tag key"
            }]
        );
        let forged = crate::tags::Selector::any().tag_present(ROLLUP_TAG);
        assert!(db.list_series(&forged).is_empty());
        // The self-scrape writes `__self__`-tagged series through here.
        let pts = parse("m,__self__=1 v=1 5", 0).unwrap();
        assert_eq!(pts[0].key.tag(crate::obs::SELF_TAG), Some("1"));
    }

    #[test]
    fn ingest_writes_into_db() {
        let db = Tsdb::new();
        let n = ingest(
            &db,
            "cpu,host=a usage=10 1\ncpu,host=a usage=20 2\ncpu,host=b usage=5 1",
            0,
        )
        .unwrap();
        assert_eq!(n, 3);
        assert_eq!(db.series_count(), 2);
        let key = SeriesKey::metric("cpu.usage").with_tag("host", "a");
        let out = db
            .query(&key, crate::query::RangeQuery::raw(0, 10))
            .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn ingest_surfaces_out_of_order() {
        let db = Tsdb::new();
        let err = ingest(&db, "cpu v=1 10\ncpu v=2 5", 0).unwrap_err();
        assert!(matches!(err, TsdbError::OutOfOrder { last: 10, got: 5 }));
    }

    #[test]
    fn duplicate_tags_last_value_wins() {
        // SeriesKey::with_tag replaces on duplicate keys, so the record's
        // rightmost duplicate determines the series — never two tags with
        // the same key, never a panic.
        let pts = parse("cpu,host=a,host=b v=1 5", 0).unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].key.tag("host"), Some("b"));
        assert_eq!(pts[0].key.tags().len(), 1);
    }

    #[test]
    fn out_of_range_timestamps_error_with_line_number() {
        // Larger than i64::MAX: not representable, must be a parse error
        // on the right line, not a panic.
        let doc = "ok v=1 5\ncpu v=1 99999999999999999999999999";
        match parse(doc, 0) {
            Err(TsdbError::Parse { line: 2, reason }) => {
                assert_eq!(reason, "timestamp is not an integer");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Extremes that *are* representable parse fine.
        let pts = parse(&format!("cpu v=1 {}\n", i64::MAX), 0).unwrap();
        assert_eq!(pts[0].point.timestamp, i64::MAX);
        let pts = parse(&format!("cpu v=1 {}\n", i64::MIN), 0).unwrap();
        assert_eq!(pts[0].point.timestamp, i64::MIN);
    }

    #[test]
    fn fallback_timestamp_saturates_instead_of_overflowing() {
        // default_ts near i64::MAX plus a line index must not overflow
        // (debug builds would panic on `+`).
        let pts = parse("a v=1\nb v=2\nc v=3", i64::MAX - 1).unwrap();
        assert_eq!(pts[0].point.timestamp, i64::MAX - 1);
        assert_eq!(pts[1].point.timestamp, i64::MAX);
        assert_eq!(pts[2].point.timestamp, i64::MAX, "saturated, not wrapped");
    }

    #[test]
    fn comments_mid_document_keep_line_numbers_honest() {
        let doc = "cpu v=1 1\n# interlude\n  # indented comment\ncpu v=oops 2";
        match parse(doc, 0) {
            Err(TsdbError::Parse { line, reason }) => {
                assert_eq!(line, 4, "comment lines still count");
                assert_eq!(reason, "field value is not numeric");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn empty_field_sets_are_errors_not_panics() {
        for doc in [
            "cpu",              // nothing after measurement
            "cpu 1234",         // timestamp where the field set belongs
            "cpu ,",            // empty field pair
            "cpu v=",           // field with empty value
            "cpu v= 5",         // ditto, with timestamp
            "cpu =5 5",         // missing field name
            "cpu,host=a",       // tags but no fields
        ] {
            match parse(doc, 0) {
                Err(TsdbError::Parse { line: 1, .. }) => {}
                other => panic!("expected line-1 parse error for {doc:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn escaped_junk_never_panics() {
        // The supported subset has no escaping; backslashes, quotes and
        // other junk must surface as clean per-line errors (or parse as
        // literal token bytes), never a panic.
        for doc in [
            "m,t=a\\ b v=1",
            "m \"v\"=1",
            "m,t=\"x y\" v=1 5",
            "m v=1\\n2",
            "\\",
            "m,=x v=1",
            "m,t== v=1",
            "m v==1",
            "\u{0}weird\u{7f} v=1",
            "m,t=\u{1f600} v=1 5",
        ] {
            let _ = parse(doc, 0); // Ok or Err both fine; panics are not.
        }
        // A tag value that is itself junk-free parses as literal bytes.
        let pts = parse("m,t=\u{1f600} v=1 5", 0).unwrap();
        assert_eq!(pts[0].key.tag("t"), Some("\u{1f600}"));
    }

    /// Collects the assembler's output for one split of `doc` into
    /// byte pieces.
    fn assemble(doc: &[u8], piece: usize) -> Vec<Line> {
        let mut asm = LineAssembler::new();
        let mut out = Vec::new();
        for chunk in doc.chunks(piece.max(1)) {
            asm.push(chunk, &mut out);
        }
        asm.finish(&mut out);
        out
    }

    fn text(line: &str) -> Line {
        Line::Text(line.to_owned())
    }

    #[test]
    fn line_assembler_matches_str_lines_at_any_split() {
        let docs = [
            "cpu v=1 1\ncpu v=2 2\n",
            "no trailing newline",
            "",
            "\n",
            "\r\n",
            "a\r\nb\nc\r",          // CRLF, LF, and a content \r at EOF
            "mid\rline\n",          // \r not before \n is content
            "m,t=\u{1f600} v=1 5\n# comment \u{00e9}\u{6f22}\n", // multi-byte
            "a\n\n\nb",
        ];
        for doc in docs {
            let want: Vec<Line> = doc.lines().map(text).collect();
            // Every piece size, down to one byte — splits land mid-UTF-8.
            for piece in 1..=doc.len().max(1) {
                assert_eq!(
                    assemble(doc.as_bytes(), piece),
                    want,
                    "doc {doc:?} split every {piece} bytes"
                );
            }
        }
    }

    #[test]
    fn line_assembler_finish_is_idempotent_and_final_cr_is_content() {
        let mut asm = LineAssembler::new();
        let mut out = Vec::new();
        asm.push(b"tail\r", &mut out);
        assert!(out.is_empty(), "no newline yet");
        asm.finish(&mut out);
        assert_eq!(out, vec![text("tail\r")], "EOF \\r is content");
        asm.finish(&mut out);
        assert_eq!(out.len(), 1, "second finish emits nothing");
    }

    #[test]
    fn a_newline_free_stream_holds_at_most_the_bound() {
        assert!(LINE_TOO_LONG.contains(&MAX_LINE_BYTES.to_string()));
        // One read buffer at a time, then the whole MiB in one push.
        for piece in [16 * 1024, 1 << 20] {
            let mut asm = LineAssembler::new();
            let mut out = Vec::new();
            for chunk in vec![b'x'; 1 << 20].chunks(piece) {
                asm.push(chunk, &mut out);
                assert!(asm.partial.capacity() <= MAX_LINE_BYTES + piece);
            }
            assert!(out.is_empty(), "no newline yet");
            asm.push(b"\nm v=1 1\n", &mut out);
            assert_eq!(out, vec![Line::TooLong, text("m v=1 1")]);
            assert_eq!(asm.partial.capacity(), 0);
        }
        // Unterminated at end of stream: still one line, still too long.
        let mut doc = vec![b'x'; MAX_LINE_BYTES + 1];
        assert_eq!(assemble(&doc, 4096), vec![Line::TooLong]);
        doc.pop();
        assert!(matches!(assemble(&doc, 4096)[..], [Line::Text(_)]));
    }

    #[test]
    fn an_overlong_line_is_one_failure_wherever_the_stream_splits() {
        for excess in [1, 2, 1000] {
            let mut doc = b"a v=1 1\n".to_vec();
            let long_start = doc.len();
            doc.resize(long_start + MAX_LINE_BYTES + excess, b'x');
            doc.extend_from_slice(b"\r\nb v=2 2\nc v=3 3");
            let want = vec![
                text("a v=1 1"),
                Line::TooLong,
                text("b v=2 2"),
                text("c v=3 3"),
            ];
            // Two pieces, cut at every offset around the bound and
            // around the terminator; then fixed piece sizes.
            let bound = long_start + MAX_LINE_BYTES;
            for cut in (bound - 3..=bound + 3).chain(doc.len() - 24..doc.len()) {
                let mut asm = LineAssembler::new();
                let mut out = Vec::new();
                asm.push(&doc[..cut], &mut out);
                asm.push(&doc[cut..], &mut out);
                asm.finish(&mut out);
                assert_eq!(out, want, "excess {excess}, cut at {cut}");
            }
            for piece in [1, 7, 4096, MAX_LINE_BYTES, doc.len()] {
                assert_eq!(
                    assemble(&doc, piece),
                    want,
                    "excess {excess}, pieces of {piece}"
                );
            }
        }
    }

    #[test]
    fn a_line_of_exactly_the_bound_still_parses() {
        let mut record = "m,t=".to_owned();
        record.push_str(&"x".repeat(MAX_LINE_BYTES - "m,t= v=1 7".len()));
        record.push_str(" v=1 7");
        assert_eq!(record.len(), MAX_LINE_BYTES);
        for piece in [1, 4096, usize::MAX] {
            let lines = assemble(format!("{record}\n").as_bytes(), piece);
            let [Line::Text(line)] = &lines[..] else {
                panic!("pieces of {piece}: {} lines, or too long", lines.len());
            };
            let points = parse_line(line, 1, 0).unwrap();
            assert_eq!(points[0].point, DataPoint::new(7, 1.0));
        }
        // One more byte — even a `\r` the terminator would strip — is over.
        assert_eq!(
            assemble(format!("{record}\r\n").as_bytes(), 4096),
            vec![Line::TooLong]
        );
    }

    use proptest::prelude::*;

    /// Checks totality on one document: parse must return `Ok` or a
    /// line-numbered `Parse` error inside the document — nothing else,
    /// and never a panic.
    fn assert_total(doc: &str, base: i64) -> proptest::TestCaseResult {
        match parse(doc, base) {
            Ok(_) => {}
            Err(TsdbError::Parse { line, .. }) => {
                prop_assert!(line >= 1);
                prop_assert!(line <= doc.lines().count());
            }
            Err(other) => {
                return Err(proptest::TestCaseError::fail(format!(
                    "non-parse error from parse(): {other:?}"
                )))
            }
        }
        Ok(())
    }

    proptest! {
        /// The parser is total over arbitrary byte soup (lossily decoded
        /// to UTF-8): any input either parses or reports a line-numbered
        /// error — it never panics.
        #[test]
        fn parser_never_panics_on_junk(
            bytes in prop::collection::vec(0u32..256, 0..80),
            base in (i64::MIN..i64::MAX),
        ) {
            let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            let doc = String::from_utf8_lossy(&raw).into_owned();
            assert_total(&doc, base)?;
        }

        /// Structured-ish junk built from line-protocol punctuation hits
        /// the deeper branches (tag pairs, field pairs, timestamps);
        /// still total, still line-accurate.
        #[test]
        fn parser_never_panics_on_protocol_shaped_junk(
            picks in prop::collection::vec(0usize..18, 0..120),
            base in (i64::MIN..i64::MAX),
        ) {
            const ALPHABET: [char; 18] = [
                'a', 'z', '=', ',', '.', '#', ' ', '0', '9', 'i', '\\', '\n',
                '-', '{', '}', '"', '\t', '\u{1f600}',
            ];
            let doc: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            assert_total(&doc, base)?;
        }
    }
}
