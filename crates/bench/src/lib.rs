//! Shared glue for `figures`, the binary that regenerates the paper's
//! tables and figures one subcommand each. See `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for recorded paper-vs-measured
//! results. The crate's other binary, `benchmark`, is the end-to-end
//! ledger `BENCHMARK.json` declares; it shares nothing with this library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use asap_data::DatasetInfo;

/// The "seven largest datasets" of Figure 8 (Table 2 rows 1–7).
pub fn seven_largest() -> Vec<DatasetInfo> {
    asap_data::all_datasets().into_iter().take(7).collect()
}

/// Datasets small enough for quick sweeps (excludes the 4.2M-point gas
/// sensor when `fast` is set via the ASAP_FAST env var).
pub fn sweep_datasets() -> Vec<DatasetInfo> {
    let fast = std::env::var("ASAP_FAST").is_ok();
    asap_data::all_datasets()
        .into_iter()
        .filter(move |d| !fast || d.n_points <= 100_000)
        .collect()
}

/// Unicode sparkline used by the gallery figures.
pub fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let span = (max - min).max(1e-12);
    let step = (values.len() as f64 / width as f64).max(1.0);
    (0..width.min(values.len()))
        .map(|c| {
            let i = ((c as f64) * step) as usize;
            BARS[(((values[i] - min) / span * 7.0).round() as usize).min(7)]
        })
        .collect()
}
