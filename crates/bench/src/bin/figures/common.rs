//! Glue shared by several figures: the dataset sweeps, the `ASAP_FAST`
//! switch and the gallery sparkline.

use asap_data::DatasetInfo;

/// Whether `ASAP_FAST` is set: sweeps skip the 4.2M-point gas sensor and
/// Figure 11 spends a shorter per-variant budget.
pub fn fast() -> bool {
    std::env::var("ASAP_FAST").is_ok()
}

/// The "seven largest datasets" of Figure 8 (Table 2 rows 1–7).
pub fn seven_largest() -> Vec<DatasetInfo> {
    asap_data::all_datasets().into_iter().take(7).collect()
}

/// Datasets small enough for quick sweeps (excludes the 4.2M-point gas
/// sensor under [`fast`]).
pub fn sweep_datasets() -> Vec<DatasetInfo> {
    let fast = fast();
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
