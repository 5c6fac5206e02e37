//! Figure 9: impact of pixel-aware preaggregation — throughput and quality
//! of ASAP and exhaustive search, with and without preaggregation,
//! relative to the baseline (exhaustive on the raw series).
//!
//! Paper: preaggregated ASAP is ~4–5 orders of magnitude faster than the
//! baseline while keeping roughness within 1.2× (sometimes better, because
//! preaggregation lowers the initial kurtosis). Quality is compared
//! *as rendered*: every variant's smoothed output is reduced to the same
//! target resolution before measuring roughness.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- fig9_preaggregation`
//! (uses gas_sensor, 4.2M points; ASAP_FAST=1 switches to machine_temp)

use asap_core::{preaggregate, AsapConfig, SearchStrategy};
use asap_eval::{perf, report, Table};
use asap_timeseries::{roughness, sma};
use std::time::{Duration, Instant};

/// Roughness of a smoothed series as it would be rendered at `resolution`.
fn rendered_roughness(smoothed: &[f64], resolution: usize) -> f64 {
    let (view, _) = preaggregate(smoothed, resolution);
    roughness(&view).unwrap_or(f64::NAN)
}

pub fn run() {
    println!("== Figure 9: preaggregation on/off vs raw-exhaustive baseline ==\n");
    let series = if crate::common::fast() {
        asap_data::machine_temp()
    } else {
        asap_data::gas_sensor()
    };
    let raw = series.values();
    println!("dataset: {} ({} points)", series.name(), raw.len());
    let resolutions = [1000usize, 2000, 3000, 4000, 5000];

    let config = AsapConfig::default();
    // Baseline: exhaustive over the raw series (budgeted + extrapolated).
    let (baseline_time, extrapolated) =
        perf::measure_raw_exhaustive_budgeted(raw, &config, Duration::from_secs(8));
    println!(
        "baseline (exhaustive on raw): {:.1}s{}\n",
        baseline_time.as_secs_f64(),
        if extrapolated { " (extrapolated)" } else { "" }
    );

    // ASAP on raw data: its answer doubles as the quality reference (on
    // every Table 2 dataset ASAP matches the exhaustive window, and the
    // true raw-exhaustive optimum is unaffordable at this scale). On
    // multi-million-point series the raw ACF carries thousands of spurious
    // ripple peaks, so — like the paper, which reports ASAP-no-agg in the
    // thousands of points/sec — we measure a 500k-point prefix and scale.
    const RAW_CAP: usize = 500_000;
    let (probe, scale) = if raw.len() > RAW_CAP {
        (&raw[..RAW_CAP], raw.len() as f64 / RAW_CAP as f64)
    } else {
        (raw, 1.0)
    };
    let start = Instant::now();
    let asap_raw = SearchStrategy::Asap.search(probe, &config).expect("searchable");
    let asap_raw_time = start.elapsed().mul_f64(scale);
    if scale > 1.0 {
        println!(
            "ASAP(raw) measured on a {RAW_CAP}-point prefix, scaled x{scale:.1}\n"
        );
    }
    let raw_window = (asap_raw.window as f64 * scale) as usize;
    let baseline_smoothed = if raw_window <= 1 {
        raw.to_vec()
    } else {
        sma(raw, raw_window.min(raw.len() - 1)).expect("window fits")
    };

    let mut speed = Table::new(
        std::iter::once("Speed-up vs baseline".to_string())
            .chain(resolutions.iter().map(|r| r.to_string()))
            .collect::<Vec<_>>(),
    );
    let mut rough = Table::new(
        std::iter::once("Roughness ratio".to_string())
            .chain(resolutions.iter().map(|r| r.to_string()))
            .collect::<Vec<_>>(),
    );

    let mut rows: Vec<(String, Vec<String>, Vec<String>)> = vec![
        ("Exhaustive(raw)".into(), vec!["1".into(); 5], vec!["1.00".into(); 5]),
        (
            "ASAP(raw)".into(),
            vec![report::eng(baseline_time.as_secs_f64() / asap_raw_time.as_secs_f64().max(1e-9)); 5],
            Vec::new(),
        ),
        ("Grid1(agg)".into(), Vec::new(), Vec::new()),
        ("ASAP(agg)".into(), Vec::new(), Vec::new()),
    ];

    for &res in &resolutions {
        // Quality reference at this resolution: the raw-searched smoothed
        // series, rendered down to `res` points.
        let ref_rough = rendered_roughness(&baseline_smoothed, res).max(1e-12);
        rows[1].2.push(report::f(
            rendered_roughness(&baseline_smoothed, res) / ref_rough,
            2,
        ));

        let (agg, _) = preaggregate(raw, res);
        let cfg = AsapConfig {
            resolution: res,
            ..AsapConfig::default()
        };
        for (idx, strat) in [(2usize, SearchStrategy::Exhaustive), (3, SearchStrategy::Asap)] {
            let m = perf::measure(&agg, strat, &cfg).expect("agg searchable");
            rows[idx].1.push(report::eng(
                baseline_time.as_secs_f64() / m.elapsed.as_secs_f64().max(1e-9),
            ));
            let smoothed = if m.outcome.window <= 1 {
                agg.clone()
            } else {
                sma(&agg, m.outcome.window).expect("window fits")
            };
            rows[idx]
                .2
                .push(report::f(rendered_roughness(&smoothed, res) / ref_rough, 2));
        }
    }

    for (name, speedups, ratios) in &rows {
        speed.row(std::iter::once(name.clone()).chain(speedups.clone()).collect::<Vec<_>>());
        rough.row(std::iter::once(name.clone()).chain(ratios.clone()).collect::<Vec<_>>());
    }
    print!("{speed}");
    println!();
    print!("{rough}");
    println!("\npaper: preaggregation buys ~5 (vs raw exhaustive) and ~2.5 (vs raw ASAP)");
    println!("orders of magnitude while keeping rendered roughness within ~1.2x.");
}
