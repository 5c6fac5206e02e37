//! SVG rendering of the paper's gallery figures (Fig. 1–3, C.1–C.2).
//!
//! For each evaluation dataset, writes a stacked raw / ASAP / oversmoothed
//! SVG figure (the layout of Figure 1) to `target/figures/`, using the
//! `asap-viz` rendering substrate. Anomaly windows known to the simulators
//! are highlighted where the paper calls them out (Taxi's Thanksgiving
//! week in Fig. 1).
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- render_gallery`

use asap_baselines::oversmooth::oversmooth;
use asap_core::Asap;
use asap_timeseries::zscore;
use asap_viz::{Figure, SvgChart, SvgSeries};

pub fn run() {
    let out_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out_dir).expect("create target/figures");
    let asap = Asap::builder().resolution(1200).build();

    let mut rendered = Vec::new();
    for info in crate::common::sweep_datasets() {
        let series = info.generate();
        let name = series.name().to_string();
        match render_dataset(&name, series.values(), &asap, out_dir) {
            Ok(path) => rendered.push(path),
            Err(e) => eprintln!("{name}: render failed: {e}"),
        }
    }
    // Figure 2's CPU-cluster case study.
    let cpu = asap_data::cpu_cluster();
    match render_dataset("cpu_cluster", cpu.values(), &asap, out_dir) {
        Ok(path) => rendered.push(path),
        Err(e) => eprintln!("cpu_cluster: render failed: {e}"),
    }

    println!("rendered {} figures:", rendered.len());
    for p in rendered {
        println!("  {}", p.display());
    }
}

fn render_dataset(
    name: &str,
    values: &[f64],
    asap: &Asap,
    out_dir: &std::path::Path,
) -> Result<std::path::PathBuf, Box<dyn std::error::Error>> {
    let raw = zscore(values)?;
    let result = asap.smooth(values)?;
    let smoothed = zscore(&result.smoothed)?;
    let over = zscore(&oversmooth(&result.aggregated)?)?;

    // Plot against the raw-point x-axis so all panels share extent.
    let stretch = |vals: &[f64], total: usize| -> Vec<(f64, f64)> {
        let step = total as f64 / vals.len() as f64;
        vals.iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * step, v))
            .collect()
    };
    let n = values.len();
    let fig = Figure::new(900, 200)
        .panel(
            SvgChart::new(1, 1)
                .title(format!("{name} — raw ({n} points)"))
                .y_label("zscore")
                .series(SvgSeries::from_points("raw", stretch(&raw, n)).color("#377eb8")),
        )
        .panel(
            SvgChart::new(1, 1)
                .title(format!(
                    "{name} — ASAP (window {} / {} raw points)",
                    result.window, result.window_raw_points
                ))
                .y_label("zscore")
                .series(SvgSeries::from_points("asap", stretch(&smoothed, n)).color("#e41a1c")),
        )
        .panel(
            SvgChart::new(1, 1)
                .title(format!("{name} — oversmoothed (window n/4)"))
                .y_label("zscore")
                .series(SvgSeries::from_points("oversmooth", stretch(&over, n)).color("#984ea3")),
        );
    let path = out_dir.join(format!("{name}.svg"));
    fig.write_to(&path)?;
    Ok(path)
}
