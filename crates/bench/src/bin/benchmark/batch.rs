//! `asap-batch`: the operator in-process, one thread, no server or
//! store — the paper's own numbers. Three sections share the run:
//! (a) `Asap::smooth` over the ten small catalog datasets at three
//! display widths (search- and ACF-dominated, Fig. 8), (b) the 4.2 M-point
//! `gas_sensor` at 800 px (pre-aggregation-dominated, Fig. 9/A.2), and
//! (c) `StreamingAsap` with the subscription template (Fig. 10).

use std::time::{Duration, Instant};

use asap_core::{Asap, AsapConfig, StreamingAsap, StreamingConfig};
use asap_data::catalog;

use crate::child::peak_rss_mb;
use crate::gen::Rng;
use crate::layers;
use crate::oracle::{SUB_RESOLUTION, SUB_WINDOW};
use crate::run::{median_setup, Ctx, Outcome};
use crate::stats::median;
use crate::trace::Recorder;

/// Display widths of section (a).
const RESOLUTIONS: [usize; 3] = [272, 800, 2304];
/// The dataset section (b) smooths, and its display width.
const LARGE: &str = "gas_sensor";
const LARGE_RESOLUTION: usize = 800;
/// Points fed to the streaming operator per pass of section (c).
const STREAM_POINTS: usize = 2_000_000;
const STREAM_EVERY: usize = 500;
/// Mean ASAP-to-optimum roughness ratio the paper's quality claim allows.
const MAX_ROUGHNESS_RATIO: f64 = 1.05;
/// Slack on floating-point comparisons of roughness and kurtosis.
const EPS: f64 = 1e-9;

struct Inputs {
    /// `(name, values)` of the ten catalog datasets of at most 45 k points.
    small: Vec<(&'static str, Vec<f64>)>,
    large: Vec<f64>,
    stream: Vec<f64>,
}

/// The catalog is the paper's fixed data; the seed adds noise of 1 % of
/// each series' spread, so two seeds smooth different inputs.
fn jitter(values: &mut [f64], rng: &mut Rng) {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let amplitude = 0.01 * (hi - lo);
    for v in values {
        *v += amplitude * (rng.unit() - 0.5);
    }
}

fn inputs(ctx: &Ctx) -> Inputs {
    let mut rng = Rng::new(ctx.seed);
    let shrink = if ctx.smoke { 50 } else { 1 };
    let mut small = Vec::new();
    let mut large = Vec::new();
    for info in catalog::all_datasets() {
        // A smoke run does not synthesize 4.2 M points: section (b) gets
        // the longest small dataset instead.
        if info.name == LARGE && ctx.smoke {
            continue;
        }
        let mut values = info.generate().into_values();
        jitter(&mut values, &mut rng);
        if info.name == LARGE {
            large = values;
        } else {
            small.push((info.name, values));
        }
    }
    if ctx.smoke {
        let longest = small.iter().max_by_key(|(_, v)| v.len());
        large = longest.expect("the catalog has small datasets").1.clone();
    }
    let stream = (0..STREAM_POINTS / shrink)
        .map(|t| (std::f64::consts::TAU * t as f64 / 900.0).sin() + 0.3 * rng.unit())
        .collect();
    Inputs {
        small,
        large,
        stream,
    }
}

/// Runs `pass` until `budget` is spent (at least three times); returns
/// each pass's wall time in seconds.
fn passes(
    budget: Duration,
    mut pass: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        pass()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// The quality gates on the catalog at 800 px: every result feasible
/// (kurtosis preserved), never smoother than the exhaustive optimum, and
/// on average within [`MAX_ROUGHNESS_RATIO`] of it.
fn check_quality(small: &[(&'static str, Vec<f64>)]) -> Result<(), String> {
    let config = AsapConfig {
        resolution: LARGE_RESOLUTION,
        ..AsapConfig::default()
    };
    let asap = Asap::with_config(config.clone());
    let mut ratios = Vec::new();
    for (name, values) in small {
        let result = asap.smooth(values).map_err(|e| format!("{name}: {e}"))?;
        let original =
            asap_timeseries::kurtosis(&result.aggregated).map_err(|e| format!("{name}: {e}"))?;
        if result.window > 1 && result.kurtosis < original - EPS {
            return Err(format!(
                "gate: {name} smoothed to kurtosis {} below the original {original}",
                result.kurtosis
            ));
        }
        let optimum = asap_core::exhaustive::search(&result.aggregated, &config)
            .map_err(|e| format!("{name}: {e}"))?;
        if result.roughness < optimum.roughness - EPS {
            return Err(format!(
                "gate: {name} roughness {} is below the exhaustive optimum {}",
                result.roughness, optimum.roughness
            ));
        }
        if optimum.roughness > 0.0 {
            ratios.push(result.roughness / optimum.roughness);
        }
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    if mean > MAX_ROUGHNESS_RATIO {
        return Err(format!(
            "gate: mean roughness ratio to the optimum is {mean}"
        ));
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (inputs, setup_s) = median_setup(|| Ok(inputs(ctx)))?;
    check_quality(&inputs.small)?;

    let mut out = Outcome::default();
    let operators: Vec<Asap> = RESOLUTIONS
        .iter()
        .map(|&r| Asap::builder().resolution(r).build())
        .collect();
    let share = |part: f64| Duration::from_secs_f64(ctx.seconds * part);

    // (a) One pass = every small dataset at every width.
    let (mut calls, mut failed) = (0u64, 0u64);
    let catalog_s = passes(share(0.4), || {
        for (_, values) in &inputs.small {
            for asap in &operators {
                calls += 1;
                failed += u64::from(std::hint::black_box(asap.smooth(values)).is_err());
            }
        }
        Ok(())
    })?;

    // (b) One pass = the large dataset once.
    let large = Asap::builder().resolution(LARGE_RESOLUTION).build();
    let large_s = passes(share(0.3), || {
        calls += 1;
        failed += u64::from(std::hint::black_box(large.smooth(&inputs.large)).is_err());
        Ok(())
    })?;

    // (c) One pass = the stream through a fresh operator.
    let mut frames = 0usize;
    let stream_s = passes(share(0.3), || {
        let mut op = StreamingAsap::new(StreamingConfig::new(
            SUB_WINDOW,
            SUB_RESOLUTION,
            STREAM_EVERY,
        ));
        calls += 1;
        for &v in &inputs.stream {
            match op.push(v) {
                Ok(frame) => frames += usize::from(frame.is_some()),
                Err(e) => return Err(format!("streaming push: {e}")),
            }
        }
        Ok(())
    })?;
    if frames == 0 {
        return Err("gate: the streaming operator emitted no frame".to_owned());
    }

    out.attempted = calls;
    out.failed = failed;
    let large_rate = inputs.large.len() as f64 / median(&large_s);
    let stream_rate = inputs.stream.len() as f64 / median(&stream_s);
    // Points through the operator per second over both bulk paths: one
    // median pass of each, so either path slowing shows by its time share.
    let bulk_points = (inputs.large.len() + inputs.stream.len()) as f64;
    let bulk_s = median(&large_s) + median(&stream_s);
    out.metrics.put("setup_s", setup_s, crate::run::SETUPS);
    out.metrics.put(
        "throughput_per_s",
        bulk_points / bulk_s,
        large_s.len() + stream_s.len(),
    );
    out.metrics
        .put("latency_p50_ms", median(&catalog_s) * 1e3, catalog_s.len());
    out.metrics
        .put("peak_rss_mb", peak_rss_mb("/proc/self/status")?, 1);
    let m = &mut out.metrics;
    m.put("batch_smooth_ms", median(&catalog_s) * 1e3, catalog_s.len());
    m.put("batch_large_points_per_s", large_rate, large_s.len());
    m.put("stream_points_per_s", stream_rate, stream_s.len());
    if ctx.trace {
        let series: Vec<(&str, &[f64])> = inputs
            .small
            .iter()
            .map(|(name, v)| (*name, v.as_slice()))
            .collect();
        m.extend(layers::operator(&series, &inputs.large, LARGE_RESOLUTION)?);
        let mut rec = Recorder::new(Instant::now(), 1);
        m.extend(layers::streaming(&inputs.stream, STREAM_EVERY, &mut rec)?);
        out.spans = rec.into_spans();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn smoke(seed: u64, trace: bool) -> Ctx {
        Ctx {
            seed,
            seconds: 0.05,
            trace,
            smoke: true,
            server: PathBuf::new(),
            work_dir: PathBuf::new(),
        }
    }

    #[test]
    fn smoke_scale_run_passes_its_gates_and_fills_its_metrics() {
        let out = run(&smoke(1, true)).unwrap();
        assert_eq!(out.failed, 0);
        assert!(out.attempted >= 3 * (10 * RESOLUTIONS.len() as u64 + 1 + 1));
        for name in [
            "setup_s",
            "throughput_per_s",
            "latency_p50_ms",
            "peak_rss_mb",
            "batch_smooth_ms",
            "batch_large_points_per_s",
            "stream_points_per_s",
            "core.search.speedup_vs_exhaustive_x",
            "core.streaming.refresh_us",
        ] {
            assert!(out.metrics.get(name).unwrap().value > 0.0, "{name}");
        }
        let ratio = out
            .metrics
            .get("core.search.roughness_ratio")
            .unwrap()
            .value;
        assert!(
            (1.0 - EPS..=MAX_ROUGHNESS_RATIO).contains(&ratio),
            "{ratio}"
        );
        assert!(!out.spans.is_empty());
    }

    #[test]
    fn the_seed_changes_the_inputs_and_nothing_else() {
        let (a, b, c) = (
            inputs(&smoke(1, false)),
            inputs(&smoke(1, false)),
            inputs(&smoke(2, false)),
        );
        assert_eq!(a.small.len(), 10);
        assert!(a.small.iter().all(|(_, v)| v.len() <= 45_000));
        assert_eq!(
            a.large.len(),
            a.small.iter().map(|(_, v)| v.len()).max().unwrap()
        );
        assert_eq!(a.small[0].1, b.small[0].1);
        assert_ne!(a.small[0].1, c.small[0].1);
        assert_eq!(a.stream, b.stream);
        assert_ne!(a.stream, c.stream);
    }
}
