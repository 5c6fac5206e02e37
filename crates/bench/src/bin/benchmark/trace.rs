//! Spans of a traced run: recorded in memory, written out as JSON lines
//! when the run ends, and folded into a layer-budget table where a
//! layer's self time is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; `None` for a request's root.
    pub parent: Option<u64>,
    /// Spans of one request share this.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder; one per client thread, merged at the end.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// Keeps ids unique across the recorders of one run.
    id_base: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// `lane` separates the id space of concurrent recorders sharing
    /// `origin`.
    pub fn new(origin: Instant, lane: u64) -> Self {
        Recorder {
            origin,
            id_base: lane << 40,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.at(Instant::now())
    }

    pub fn at(&self, instant: Instant) -> u64 {
        u64::try_from(instant.saturating_duration_since(self.origin).as_nanos())
            .expect("a run shorter than five centuries")
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.id_base + self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(name, parent, request, start, end))
    }

    /// Records a root span over `[start_ns, end_ns]` and makes it the
    /// parent of every parentless span recorded since `first` (a
    /// [`Self::len`] taken before the first of them).
    pub fn adopt(
        &mut self,
        first: usize,
        name: &'static str,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let root = self.record(name, None, request, start_ns, end_ns);
        let adopted = self.spans.len() - 1;
        for span in &mut self.spans[first..adopted] {
            span.parent.get_or_insert(root);
        }
        root
    }

    /// Records a child of span `parent` that starts with it and lasts
    /// `duration_ns` (at most the parent's length) — for work a layer
    /// does inside a call that cannot be wrapped from outside.
    pub fn child_at_start(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        duration_ns: u64,
    ) -> u64 {
        let slot = (parent - self.id_base - 1) as usize;
        let (start, end) = (self.spans[slot].start_ns, self.spans[slot].end_ns);
        self.record(
            name,
            Some(parent),
            request,
            start,
            (start + duration_ns).min(end),
        )
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// What one `record` call costs, measured on this host — the basis of
/// `client.trace_overhead_pct`.
pub fn record_cost_ns() -> f64 {
    const CALLS: u64 = 200_000;
    let mut recorder = Recorder::new(Instant::now(), 0);
    let started = Instant::now();
    for request in 0..CALLS {
        let start = recorder.now_ns();
        let end = recorder.now_ns();
        recorder.record("calibration", None, request, start, end);
    }
    let cost = started.elapsed().as_nanos() as f64 / CALLS as f64;
    std::hint::black_box(recorder.len());
    cost
}

/// Per-span self time: duration minus the union of the intervals its
/// direct children cover (children may overlap; they are clipped to the
/// parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let bounds: BTreeMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for span in spans {
        if let Some((parent, &(lo, hi))) = span.parent.and_then(|p| Some((p, bounds.get(&p)?))) {
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            children.entry(parent).or_default().push(clipped);
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort_unstable();
                let mut reach = span.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

/// One row of a layer budget: a span name, how many spans carried it,
/// and their summed duration and self time.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    pub name: &'static str,
    pub depth: usize,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Folds the spans under every root named `root` into one row per span
/// name, in first-seen (causal) order. The rows' self times sum to the
/// roots' total duration.
pub fn budget(spans: &[Span], root: &str) -> Vec<BudgetRow> {
    let selfs = self_times(spans);
    let by_parent: BTreeMap<Option<u64>, Vec<&Span>> =
        spans.iter().fold(BTreeMap::new(), |mut map, span| {
            map.entry(span.parent).or_default().push(span);
            map
        });
    let mut rows: Vec<BudgetRow> = Vec::new();
    let mut stack: Vec<(&Span, usize)> = by_parent
        .get(&None)
        .into_iter()
        .flatten()
        .filter(|s| s.name == root)
        .rev()
        .map(|&s| (s, 0))
        .collect();
    while let Some((span, depth)) = stack.pop() {
        let self_ns = selfs[&span.id];
        match rows
            .iter_mut()
            .find(|r| r.name == span.name && r.depth == depth)
        {
            Some(row) => {
                row.count += 1;
                row.total_ns += span.duration_ns();
                row.self_ns += self_ns;
            }
            None => rows.push(BudgetRow {
                name: span.name,
                depth,
                count: 1,
                total_ns: span.duration_ns(),
                self_ns,
            }),
        }
        for &child in by_parent.get(&Some(span.id)).into_iter().flatten().rev() {
            stack.push((child, depth + 1));
        }
    }
    rows
}

/// Prints a budget as a table to stderr-free stdout: per-root averages.
pub fn print_budget(title: &str, rows: &[BudgetRow]) {
    let Some(root) = rows.first() else {
        return;
    };
    let roots = root.count.max(1) as f64;
    println!(
        "layer budget: {title} (mean of {} replayed request(s))",
        root.count
    );
    println!(
        "  {:<34} {:>12} {:>12} {:>7}",
        "span", "total us", "self us", "self %"
    );
    for row in rows {
        println!(
            "  {:<34} {:>12.1} {:>12.1} {:>6.1}%",
            format!("{}{}", "  ".repeat(row.depth), row.name),
            row.total_ns as f64 / roots / 1e3,
            row.self_ns as f64 / roots / 1e3,
            100.0 * row.self_ns as f64 / root.total_ns.max(1) as f64,
        );
    }
    let self_sum: u64 = rows.iter().map(|r| r.self_ns).sum();
    println!(
        "  {:<34} {:>12} {:>12.1} {:>6.1}%",
        "sum of self times",
        "",
        self_sum as f64 / roots / 1e3,
        100.0 * self_sum as f64 / root.total_ns.max(1) as f64,
    );
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            span.id,
            span.request,
            json::quote(span.name),
            span.start_ns,
            span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = [
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 40),
            span(3, Some(1), "b", 30, 60),  // overlaps a by 10
            span(4, Some(1), "c", 90, 120), // sticks out past the root
            span(5, Some(2), "a.inner", 15, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - (50 + 10));
        assert_eq!(selfs[&2], 30 - 5);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 30);
        assert_eq!(selfs[&5], 5);
    }

    #[test]
    fn budget_rows_sum_to_the_root_when_children_nest() {
        let spans = [
            span(1, None, "request", 0, 100),
            span(2, Some(1), "parse", 0, 10),
            span(3, Some(1), "search", 10, 70),
            span(4, Some(3), "acf", 20, 50),
            span(5, Some(1), "render", 70, 95),
            span(6, None, "other-root", 0, 1000),
            span(7, None, "request", 200, 260),
            span(8, Some(7), "parse", 200, 220),
        ];
        let rows = budget(&spans, "request");
        let names: Vec<(&str, usize, usize)> =
            rows.iter().map(|r| (r.name, r.depth, r.count)).collect();
        assert_eq!(
            names,
            vec![
                ("request", 0, 2),
                ("parse", 1, 2),
                ("search", 1, 1),
                ("acf", 2, 1),
                ("render", 1, 1)
            ]
        );
        assert_eq!(rows[0].total_ns, 160);
        assert_eq!(rows.iter().map(|r| r.self_ns).sum::<u64>(), 160);
        assert_eq!(rows[2].self_ns, 30);
    }

    #[test]
    fn recorder_assigns_unique_ids_and_orders_times() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin, 1);
        let mut b = Recorder::new(origin, 2);
        let (value, id) = a.time("work", None, 9, || 7);
        assert_eq!(value, 7);
        let child = a.record("child", Some(id), 9, 5, 3);
        let other = b.record("work", None, 10, 0, 1);
        assert!(id != child && id != other && child != other);
        let spans = a.into_spans();
        assert_eq!(spans[1].end_ns, 5, "an end before its start is clamped");
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert!(record_cost_ns() > 0.0);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let dir = std::env::temp_dir().join(format!("asap-bench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        write_jsonl(
            &path,
            &[span(1, None, "root", 0, 9), span(2, Some(1), "kid", 1, 2)],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            text,
            "{\"id\": 1, \"parent\": null, \"request\": 1, \"name\": \"root\", \
             \"start_ns\": 0, \"end_ns\": 9}\n\
             {\"id\": 2, \"parent\": 1, \"request\": 1, \"name\": \"kid\", \
             \"start_ns\": 1, \"end_ns\": 2}\n"
        );
    }
}
