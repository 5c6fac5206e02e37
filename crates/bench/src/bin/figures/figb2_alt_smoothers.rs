//! Figure B.2: achieved roughness of alternative smoothing functions —
//! FFT-low, FFT-dominant, SG1, SG4, minmax — relative to SMA, under the
//! same selection criterion (minimize roughness s.t. kurtosis
//! preservation), on the five user-study datasets.
//!
//! Paper (relative to SMA=1.0): FFT-dominant 31–316x and minmax 38–316x
//! (very rough); FFT-low 0.03–0.36x, SG1 0.6–8.3x, SG4 1.0–23.9x.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- figb2_alt_smoothers`

use asap_core::alt_smoothers::{select, SmootherKind};
use asap_core::{preaggregate, AsapConfig};
use asap_eval::{report, Table};

pub fn run() {
    println!("== Figure B.2: alternative smoothers, roughness relative to SMA ==\n");
    let kinds = [
        SmootherKind::FftLow,
        SmootherKind::FftDominant,
        SmootherKind::Sg1,
        SmootherKind::Sg4,
        SmootherKind::MinMax,
        SmootherKind::Wavelet,
        SmootherKind::Sma,
    ];
    let datasets = asap_data::user_study_datasets();
    let mut table = Table::new(
        std::iter::once("Smoother".to_string())
            .chain(datasets.iter().map(|d| d.name.to_string()))
            .collect::<Vec<_>>(),
    );

    let config = AsapConfig {
        resolution: 800,
        ..AsapConfig::default()
    };

    // Precompute the aggregated series and SMA references.
    let prepared: Vec<(Vec<f64>, f64)> = datasets
        .iter()
        .map(|d| {
            let series = d.generate();
            let (agg, _) = preaggregate(series.values(), 800);
            let sma = select(&agg, SmootherKind::Sma, &config).expect("selectable");
            (agg, sma.roughness.max(1e-12))
        })
        .collect();

    for kind in kinds {
        let mut row = vec![kind.name().to_string()];
        for (agg, sma_rough) in &prepared {
            match select(agg, kind, &config) {
                Ok(r) => row.push(format!("{}x", report::f(r.roughness / sma_rough, 2))),
                Err(_) => row.push("-".into()),
            }
        }
        table.row(row);
    }
    print!("{table}");
    println!("\npaper: FFT-dominant and minmax orders of magnitude rougher than SMA;");
    println!("FFT-low/SG1/SG4 competitive, occasionally smoother — but with more");
    println!("parameters to tune, which is why ASAP uses SMA (§3.3).");
}
