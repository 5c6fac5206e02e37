//! Seeded input generation: the telemetry payload every server workload
//! ingests, its lateness shuffle, and the `BATCH` framing.

use std::fmt::Write as _;

/// Series in the payload: `req.rate{host=h00..h07}`.
pub const SERIES: usize = 8;
/// The reorder window the server runs with (`--lateness`), and the bound
/// the shuffle displaces lines within.
pub const LATENESS: i64 = 64;
/// Payload bytes per `BATCH` frame.
pub const FRAME_BYTES: usize = 64 * 1024;
/// Client connections (= client threads) every server workload uses.
pub const CONNECTIONS: usize = 2;

/// SplitMix64: small, seedable, and good enough for workload jitter.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The selector-visible name of series `h`.
pub fn series_name(h: usize) -> String {
    format!("req.rate{{host=h{h:02}}}")
}

/// Which connection carries series `h`.
pub fn connection_of(h: usize) -> usize {
    h % CONNECTIONS
}

/// The value of series `h` at row `t`: a 900-row sine, a per-series
/// offset, and seeded uniform noise, as written to the wire (4 decimals).
fn value(t: usize, h: usize, rng: &mut Rng) -> f64 {
    (std::f64::consts::TAU * t as f64 / 900.0).sin() + h as f64 + 0.3 * rng.unit()
}

fn push_line(out: &mut String, t: usize, h: usize, v: f64) {
    writeln!(out, "req,host=h{h:02} rate={v:.4} {t}").expect("write to String");
}

/// Every row's values, `rows × SERIES`, row-major. Generated once per
/// seed so the sorted document and the shuffled partitions agree.
pub fn values(rows: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(rows * SERIES);
    for t in 0..rows {
        for h in 0..SERIES {
            out.push(value(t, h, &mut rng));
        }
    }
    out
}

/// The whole payload as one document in timestamp order — what the
/// serial oracle ingests.
pub fn sorted_document(values: &[f64]) -> String {
    let mut doc = String::with_capacity(values.len() * 32);
    for (i, &v) in values.iter().enumerate() {
        push_line(&mut doc, i / SERIES, i % SERIES, v);
    }
    doc
}

/// The lines of connection `conn`'s series in arrival order: timestamp
/// order displaced by a seeded delay strictly below [`LATENESS`] rows,
/// so the server's reorder stage restores exact order and drops nothing.
pub fn shuffled_lines(values: &[f64], conn: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed ^ (0xc0ff_ee00 + conn as u64));
    let rows = values.len() / SERIES;
    let mut keyed: Vec<(usize, usize, usize)> = Vec::with_capacity(rows * SERIES / CONNECTIONS);
    for t in 0..rows {
        for h in (0..SERIES).filter(|&h| connection_of(h) == conn) {
            keyed.push((t + rng.below(LATENESS as u64) as usize, t, h));
        }
    }
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, t, h)| (t, h)).collect()
}

/// Connection `conn`'s arrival-order lines as plain text (no frames).
pub fn partition_text(values: &[f64], conn: usize, seed: u64) -> String {
    let lines = shuffled_lines(values, conn, seed);
    let mut text = String::with_capacity(lines.len() * 32);
    for (t, h) in lines {
        push_line(&mut text, t, h, values[t * SERIES + h]);
    }
    text
}

/// Splits `text` after its first `lines` lines (or at its end).
pub fn split_lines(text: &str, lines: usize) -> (&str, &str) {
    let cut = text
        .match_indices('\n')
        .nth(lines - 1)
        .map_or(text.len(), |(i, _)| i + 1);
    text.split_at(cut)
}

/// Wraps `body` in `BATCH <n>` frames of at most [`FRAME_BYTES`] payload
/// bytes each; returns the framed bytes and where each frame starts.
pub fn frame(body: &[u8]) -> (Vec<u8>, Vec<usize>) {
    let mut out = Vec::with_capacity(body.len() + body.len() / FRAME_BYTES * 16 + 16);
    let mut starts = Vec::new();
    for chunk in body.chunks(FRAME_BYTES) {
        starts.push(out.len());
        out.extend_from_slice(format!("BATCH {}\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
    }
    (out, starts)
}

/// One connection's share of the payload, ready to write.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The framed wire bytes.
    pub bytes: Vec<u8>,
    /// Offset of each frame in `bytes` (one `write_all` per frame).
    pub frame_starts: Vec<usize>,
    /// Points carried.
    pub points: usize,
}

/// The pre-rendered payload: `SERIES × rows` points split by series
/// across [`CONNECTIONS`] lateness-shuffled, framed partitions.
#[derive(Debug, Clone)]
pub struct Payload {
    pub rows: usize,
    pub seed: u64,
    pub values: Vec<f64>,
    pub partitions: Vec<Partition>,
}

impl Payload {
    pub fn generate(rows: usize, seed: u64) -> Self {
        let values = values(rows, seed);
        let partitions = (0..CONNECTIONS)
            .map(|conn| {
                let body = partition_text(&values, conn, seed);
                let (bytes, frame_starts) = frame(body.as_bytes());
                Partition {
                    bytes,
                    frame_starts,
                    points: rows * (0..SERIES).filter(|&h| connection_of(h) == conn).count(),
                }
            })
            .collect();
        Payload {
            rows,
            seed,
            values,
            partitions,
        }
    }

    pub fn points(&self) -> usize {
        self.rows * SERIES
    }
}

/// The open-loop feed of `live-mixed`: rows in timestamp order, one
/// `BATCH` frame per tick, all series on one connection.
pub fn ticks(values: &[f64], rows_per_tick: usize) -> Vec<Vec<u8>> {
    let rows = values.len() / SERIES;
    (0..rows.div_ceil(rows_per_tick))
        .map(|tick| {
            let mut body = String::with_capacity(rows_per_tick * SERIES * 32);
            for t in tick * rows_per_tick..((tick + 1) * rows_per_tick).min(rows) {
                for h in 0..SERIES {
                    push_line(&mut body, t, h, values[t * SERIES + h]);
                }
            }
            frame(body.as_bytes()).0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_payload_other_seed_other_payload() {
        let a = Payload::generate(300, 7);
        let b = Payload::generate(300, 7);
        let c = Payload::generate(300, 8);
        assert_eq!(a.values, b.values);
        for conn in 0..CONNECTIONS {
            assert_eq!(a.partitions[conn].bytes, b.partitions[conn].bytes);
            assert_ne!(a.partitions[conn].bytes, c.partitions[conn].bytes);
        }
        assert_ne!(a.values, c.values);
        assert_eq!(a.points(), 300 * SERIES);
        assert_eq!(
            a.partitions.iter().map(|p| p.points).sum::<usize>(),
            a.points()
        );
    }

    #[test]
    fn shuffle_stays_within_the_lateness_window_and_keeps_every_line() {
        let values = values(500, 3);
        for conn in 0..CONNECTIONS {
            let lines = shuffled_lines(&values, conn, 3);
            let mut newest = 0usize;
            let mut displaced = 0usize;
            for &(t, _) in &lines {
                newest = newest.max(t);
                assert!((newest - t) < LATENESS as usize, "row {t} behind {newest}");
                displaced += usize::from(t < newest);
            }
            assert!(displaced > lines.len() / 4, "the shuffle must reorder");
            let mut sorted = lines.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 500 * SERIES / CONNECTIONS);
            assert!(sorted.iter().all(|&(_, h)| connection_of(h) == conn));
        }
    }

    #[test]
    fn split_lines_cuts_after_whole_lines() {
        assert_eq!(split_lines("a\nb\nc\n", 2), ("a\nb\n", "c\n"));
        assert_eq!(split_lines("a\nb", 5), ("a\nb", ""));
        assert_eq!(split_lines("", 1), ("", ""));
    }

    #[test]
    fn frames_cover_the_body_exactly() {
        let body = vec![b'x'; FRAME_BYTES * 2 + 17];
        let (framed, starts) = frame(&body);
        assert_eq!(starts.len(), 3);
        let header = format!("BATCH {FRAME_BYTES}\n");
        assert!(framed.starts_with(header.as_bytes()));
        let payload_bytes = framed.len() - 2 * header.len() - "BATCH 17\n".len();
        assert_eq!(payload_bytes, body.len());
        assert_eq!(starts[1], header.len() + FRAME_BYTES);
    }

    #[test]
    fn sorted_document_and_ticks_carry_the_same_lines() {
        let values = values(60, 1);
        let doc = sorted_document(&values);
        assert_eq!(doc.lines().count(), 60 * SERIES);
        assert!(doc.starts_with("req,host=h00 rate="));
        let ticks = ticks(&values, 25);
        assert_eq!(ticks.len(), 3);
        let unframed: String = ticks
            .iter()
            .map(|t| {
                let text = std::str::from_utf8(t).unwrap();
                text.split_once('\n').unwrap().1.to_owned()
            })
            .collect();
        assert_eq!(unframed, doc);
    }
}
