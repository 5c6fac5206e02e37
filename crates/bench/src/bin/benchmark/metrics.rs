//! The metric and workload catalog — the names `BENCHMARK.json` lists,
//! kept here so the code cannot emit a name the contract lacks (a unit
//! test compares the two both ways) — and the set one run fills in.

use std::collections::BTreeMap;

use crate::json;

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

/// One named workload and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ingest-mem",
        why: "closed-loop bulk load, WAL off: line assembly, parse, reorder and Gorilla encode do all the work, ASAP search none",
    },
    Workload {
        name: "ingest-durable",
        why: "the same load with the WAL on, then restart and replay: adds wal append/fsync and the log's read side",
    },
    Workload {
        name: "dashboard-read",
        why: "preloaded store, no ingest, 70% SMOOTH / 30% RANGE closed loop: select, decode, search, render, wake-up; write path idle",
    },
    Workload {
        name: "live-mixed",
        why: "open-loop 40k pts/s feed beside SUBSCRIBE frames and periodic SMOOTH: reads run beside writes, lag not saturation",
    },
    Workload {
        name: "asap-batch",
        why: "the operator in-process, no server or store: catalog search, 4.2M-point pre-aggregation, streaming refresh (Figs. 8-10)",
    },
];

/// The end-to-end metrics: the four every workload has. What each means
/// on each workload is in the README's table.
pub const END_TO_END: [Def; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_per_s", "1/s", "higher", 0.15),
    e2e("latency_p50_ms", "ms", "lower", 0.10),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// The per-layer metrics of a traced run. A workload that never enters a
/// layer reports 0 for it.
pub const PER_LAYER: [Def; 64] = [
    // The workload-specific end-to-end figures behind the four generic
    // ones; they exist on some workloads only, so they cannot carry a
    // bound in `end_to_end`.
    layer("ingest_points_per_s", "1/s", "higher"),
    layer("recovery_s", "s", "lower"),
    layer("wal_bytes_per_point", "B", "lower"),
    layer("store_bytes_per_point", "B", "lower"),
    layer("smooth_p50_ms", "ms", "lower"),
    layer("smooth_p95_ms", "ms", "lower"),
    layer("range_p50_ms", "ms", "lower"),
    layer("frame_lag_p50_ms", "ms", "lower"),
    layer("frame_lag_p95_ms", "ms", "lower"),
    layer("server_rss_mb", "MB", "lower"),
    layer("failed_ops_share", "%", "lower"),
    layer("batch_smooth_ms", "ms", "lower"),
    layer("batch_large_points_per_s", "1/s", "higher"),
    layer("stream_points_per_s", "1/s", "higher"),
    // The generator.
    layer("client.roundtrip_floor_ms", "ms", "lower"),
    layer("client.send_late_p99_ms", "ms", "lower"),
    layer("client.bytes_sent", "B", "lower"),
    layer("client.bytes_received", "B", "lower"),
    layer("client.trace_record_pct", "%", "lower"),
    // asap-server: protocol functions replayed in-process, and the
    // server's own counters scraped from STATS around the measured phase.
    layer("server.protocol.parse_command_ns", "ns", "lower"),
    layer("server.protocol.render_smooth_ns_per_point", "ns", "lower"),
    layer("server.protocol.render_range_ns_per_point", "ns", "lower"),
    layer("server.protocol.render_frame_ns_per_point", "ns", "lower"),
    layer("server.stats.ingest_assemble_us_per_kpoint", "us", "lower"),
    layer("server.stats.ingest_parse_us_per_kpoint", "us", "lower"),
    layer("server.stats.ingest_reorder_us_per_kpoint", "us", "lower"),
    layer("server.stats.ingest_apply_us_per_kpoint", "us", "lower"),
    layer("server.stats.smooth_execute_p50_us", "us", "lower"),
    layer("server.stats.smooth_render_p50_us", "us", "lower"),
    layer("server.stats.range_execute_p50_us", "us", "lower"),
    layer("server.stats.wal_fsync_us_per_kpoint", "us", "lower"),
    layer("server.event.parks", "count", "lower"),
    layer("server.event.sweeps", "count", "lower"),
    layer("server.subscribe.frames_pushed", "count", "higher"),
    layer("server.subscribe.frames_lagged", "count", "lower"),
    layer("server.ingest_vs_inprocess_x", "x", "higher"),
    // asap-tsdb on the payload.
    layer("tsdb.line_protocol.parse_ns_per_point", "ns", "lower"),
    layer("tsdb.reorder.offer_ns_per_point", "ns", "lower"),
    layer("tsdb.sharded.write_ns_per_point", "ns", "lower"),
    layer("tsdb.gorilla.encode_ns_per_point", "ns", "lower"),
    layer("tsdb.gorilla.bytes_per_point", "B", "lower"),
    layer("tsdb.ingest.serial_points_per_s", "1/s", "higher"),
    layer("tsdb.ingest.pipeline_points_per_s", "1/s", "higher"),
    layer("tsdb.ingest.pipeline_wal_points_per_s", "1/s", "higher"),
    layer("tsdb.wal.append_ns_per_point", "ns", "lower"),
    layer("tsdb.wal.fsyncs", "count", "lower"),
    layer("tsdb.wal.bytes_per_point", "B", "lower"),
    layer("tsdb.wal.replay_ns_per_point", "ns", "lower"),
    layer("tsdb.gorilla.decode_ns_per_point", "ns", "lower"),
    layer("tsdb.query.raw_ns_per_point", "ns", "lower"),
    layer("tsdb.query.bucketed_ns_per_point", "ns", "lower"),
    layer("tsdb.smooth.bridge_self_us", "us", "lower"),
    // The operator and what it stands on.
    layer("core.preagg.ns_per_point", "ns", "lower"),
    layer("core.search.asap_us", "us", "lower"),
    layer("core.search.candidates_checked", "count", "lower"),
    layer("core.search.exhaustive_us", "us", "lower"),
    layer("core.search.speedup_vs_exhaustive_x", "x", "higher"),
    layer("core.search.roughness_ratio", "x", "lower"),
    layer("dsp.acf.us", "us", "lower"),
    layer("timeseries.sma.ns_per_point", "ns", "lower"),
    layer("timeseries.moments.ns_per_point", "ns", "lower"),
    layer("core.streaming.push_ns_per_point", "ns", "lower"),
    layer("core.streaming.refresh_us", "us", "lower"),
    layer("core.streaming.searches_run", "count", "lower"),
];

/// The workload-specific end-to-end figures: the head of [`PER_LAYER`].
/// Every run computes and prints them, traced or not.
pub fn workload_figures() -> &'static [Def] {
    let end = PER_LAYER
        .iter()
        .position(|d| d.name.contains('.'))
        .expect("layer metrics carry their layer as a prefix");
    &PER_LAYER[..end]
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a plain reading).
    pub samples: usize,
}

/// The metrics one run measured, by catalog name.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    values: BTreeMap<&'static str, Sample>,
}

impl MetricSet {
    /// Records `value` under `name`; the name must be in the catalog.
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        let def = find(name).unwrap_or_else(|| panic!("metric `{name}` is not in the catalog"));
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.values.insert(
            def.name,
            Sample {
                value,
                unit: def.unit,
                samples,
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<Sample> {
        self.values.get(name).copied()
    }

    pub fn extend(&mut self, other: MetricSet) {
        self.values.extend(other.values);
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Sample)> + '_ {
        self.values.iter().map(|(&name, &sample)| (name, sample))
    }

    /// The `metrics` object of the result line: every metric of `defs`,
    /// in catalog order. An end-to-end metric must have been measured; a
    /// per-layer metric the workload never touched reads 0.
    pub fn render(&self, defs: &[Def]) -> String {
        let fields: Vec<String> = defs
            .iter()
            .map(|def| {
                let value = match (self.get(def.name), def.bound) {
                    (Some(sample), _) => sample.value,
                    (None, None) => 0.0,
                    (None, Some(_)) => panic!("end-to-end metric `{}` was not measured", def.name),
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(def.name),
                    json::number(value),
                    json::quote(def.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` as the catalog would write it. The file must be
    /// exactly this, so neither side can name what the other lacks.
    fn contract() -> String {
        let entries = |defs: &[Def]| -> String {
            let rows: Vec<String> = defs
                .iter()
                .map(|d| {
                    let bound = d
                        .bound
                        .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                    format!(
                        "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                        json::quote(d.name),
                        json::quote(d.unit),
                        json::quote(d.better)
                    )
                })
                .collect();
            rows.join(",\n")
        };
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    json::quote(w.name),
                    json::quote(w.why)
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
             \"crates/bench/src/bin/benchmark/Cargo.toml\", \"--\"],\n  \
             \"paths\": [\"crates/bench/src/bin/benchmark\"],\n  \
             \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \
             \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
            crate::RUN_SECONDS,
            workloads.join(",\n"),
            entries(&END_TO_END),
            entries(&PER_LAYER)
        )
    }

    #[test]
    fn benchmark_json_is_what_the_catalog_says() {
        assert_eq!(include_str!("../../../../../BENCHMARK.json"), contract());
    }

    /// The `key = value` lines under `[profile.release]` of a manifest.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|line| line.trim() != "[profile.release]")
            .skip(1)
            .take_while(|line| !line.starts_with('['))
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .collect()
    }

    /// The sources are built by two manifests (see `Cargo.toml` beside
    /// this file); what could differ between the builds is pinned here.
    #[test]
    fn the_stand_alone_manifest_cannot_drift_from_the_workspace() {
        let own = include_str!("Cargo.toml");
        let workspace = include_str!("../../../../../Cargo.toml");
        assert!(!release_profile(own).is_empty());
        assert_eq!(release_profile(own), release_profile(workspace));

        let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let nested = here.join("src/bin/benchmark");
        let dir = if nested.is_dir() {
            nested
        } else {
            here.to_owned()
        };
        let mut sources = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            sources += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            for (at, _) in text.match_indices("asap_") {
                let boundary = text[..at]
                    .chars()
                    .next_back()
                    .is_none_or(|c| !c.is_alphanumeric() && c != '_');
                let krate: String = text[at..]
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '_')
                    .collect();
                if boundary && text[at + krate.len()..].starts_with("::") {
                    let dependency = format!("\n{} = ", krate.replace('_', "-"));
                    assert!(
                        own.contains(&dependency),
                        "{} names `{krate}`, which Cargo.toml here does not depend on",
                        path.display()
                    );
                }
            }
        }
        assert!(
            sources >= 10,
            "found {sources} source files in {}",
            dir.display()
        );
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_bounds_stay_inside_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name))
        {
            assert!(name_ok(name), "name `{name}`");
            assert!(seen.insert(name), "name `{name}` used twice");
        }
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(matches!(def.better, "lower" | "higher"), "{}", def.name);
            assert!(
                !def.unit.is_empty()
                    && def.unit.len() <= 16
                    && def.unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "unit `{}`",
                def.unit
            );
        }
        for def in &END_TO_END {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for workload in &WORKLOADS {
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
    }

    #[test]
    fn render_fills_untouched_layers_with_zero_and_keeps_all_digits() {
        let mut set = MetricSet::default();
        set.put("setup_s", 0.1 + 0.2, 3);
        set.put("throughput_per_s", 5.0, 1);
        set.put("latency_p50_ms", 1.25, 9);
        set.put("peak_rss_mb", 17.0, 1);
        assert_eq!(
            set.render(&END_TO_END),
            "{\"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"throughput_per_s\": {\"value\": 5, \"unit\": \"1/s\"}, \
             \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"peak_rss_mb\": {\"value\": 17, \"unit\": \"MB\"}}"
        );
        let layers = MetricSet::default().render(&PER_LAYER);
        assert_eq!(layers.matches("{\"value\": 0, ").count(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn unknown_names_are_refused() {
        MetricSet::default().put("made_up", 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_end_to_end_metric_is_a_bug() {
        MetricSet::default().render(&END_TO_END);
    }
}
