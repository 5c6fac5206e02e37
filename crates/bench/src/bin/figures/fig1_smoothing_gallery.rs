//! Figures 1–3 and C.1–C.3: the raw-vs-ASAP smoothing gallery.
//!
//! For every evaluation dataset, prints the raw and ASAP-smoothed
//! sparklines with the chosen window (in points and natural time units),
//! plus the roughness/kurtosis before and after — the numbers behind the
//! case-study plots.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- fig1_smoothing_gallery`

use crate::common::sparkline;
use asap_core::Asap;
use asap_timeseries::{kurtosis, roughness};

fn human_duration(secs: f64) -> String {
    if secs >= 365.25 * 86_400.0 {
        format!("{:.1} years", secs / (365.25 * 86_400.0))
    } else if secs >= 86_400.0 {
        format!("{:.1} days", secs / 86_400.0)
    } else if secs >= 3_600.0 {
        format!("{:.1} hours", secs / 3_600.0)
    } else if secs >= 60.0 {
        format!("{:.1} minutes", secs / 60.0)
    } else {
        format!("{secs:.2} seconds")
    }
}

pub fn run() {
    println!("== Figures 1-3 & C.1-C.3: raw vs ASAP gallery (1200 px targets) ==\n");
    let asap = Asap::builder().resolution(1200).build();
    let mut datasets = crate::common::sweep_datasets();
    // Include the Figure 2 case study.
    let cpu = asap_data::cpu_cluster();

    for info in datasets.drain(..) {
        let series = info.generate();
        gallery_entry(series.name(), series.values(), series.period_secs(), &asap);
    }
    gallery_entry("cpu_util (Fig 2)", cpu.values(), cpu.period_secs(), &asap);
}

fn gallery_entry(name: &str, values: &[f64], period_secs: f64, asap: &Asap) {
    let result = match asap.smooth(values) {
        Ok(r) => r,
        Err(e) => {
            println!("{name}: skipped ({e})\n");
            return;
        }
    };
    let window_secs = result.window_raw_points as f64 * period_secs;
    println!(
        "{name}: {} pts | window {} agg pts = {} raw pts ≈ {} | candidates {}",
        values.len(),
        result.window,
        result.window_raw_points,
        human_duration(window_secs),
        result.candidates_checked,
    );
    println!(
        "  roughness {:.4} -> {:.4} | kurtosis {:.2} -> {:.2}{}",
        roughness(values).unwrap_or(0.0),
        result.roughness,
        kurtosis(values).unwrap_or(f64::NAN),
        result.kurtosis,
        if result.is_unsmoothed() {
            "  [left unsmoothed: high-kurtosis spikes]"
        } else {
            ""
        }
    );
    println!("  raw  {}", sparkline(values, 72));
    println!("  ASAP {}\n", sparkline(&result.smoothed, 72));
}
