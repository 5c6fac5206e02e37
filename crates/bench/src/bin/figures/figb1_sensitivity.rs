//! Figure B.1: sensitivity of the simulated user study to the target
//! roughness (8×/4×/2×/½× ASAP's) and the kurtosis-preservation factor
//! (0.5×/1.5×/2×).
//!
//! Paper: rougher plots lower accuracy (61.5% at 8x, 55.8% at 4x vs
//! 78.6%/79.8% at 2x/½x); ASAP's own configuration achieves the best
//! accuracy and lowest time; kurtosis matters less than roughness.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- figb1_sensitivity`

use asap_eval::observer::{ObserverModel, REGIONS};
use asap_eval::sensitivity::{kurtosis_variants, roughness_variants};
use asap_eval::{Rendering, Table, Technique};

/// Renders a smoothed series the same way the study does (uniform stretch,
/// no ink spread — it is a single clean polyline).
fn rendering_of(smoothed: &[f64], columns: usize) -> Option<Rendering> {
    let z = asap_timeseries::zscore(smoothed).ok()?;
    let n = z.len();
    let mut level = vec![0.0f64; columns];
    let mut count = vec![0usize; columns];
    for (i, &v) in z.iter().enumerate() {
        let c = (i * columns / n).min(columns - 1);
        level[c] += v;
        count[c] += 1;
    }
    let mut last = 0.0;
    for c in 0..columns {
        if count[c] > 0 {
            last = level[c] / count[c] as f64;
        }
        level[c] = last;
    }
    Some(Rendering {
        level,
        spread: vec![0.0; columns],
    })
}

pub fn run() {
    println!("== Figure B.1: roughness & kurtosis sensitivity (simulated study) ==\n");
    let model = ObserverModel::default();
    let datasets = asap_data::user_study_datasets();

    let mut acc = Table::new(
        std::iter::once("Accuracy %".to_string())
            .chain(datasets.iter().map(|d| d.name.to_string()))
            .collect::<Vec<_>>(),
    );

    // Roughness ladder: ASAP, 8x, 4x, 2x, 0.5x.
    let multiples = [8.0, 4.0, 2.0, 0.5];
    let mut rows: Vec<Vec<String>> = vec![
        vec!["ASAP".into()],
        vec!["8x".into()],
        vec!["4x".into()],
        vec!["2x".into()],
        vec!["1/2x".into()],
    ];
    for d in &datasets {
        let series = d.generate();
        let correct = d.anomaly_region_index(REGIONS).expect("study dataset");
        let variants = roughness_variants(series.values(), 1200, &multiples)
            .expect("variants computable");
        for (i, v) in variants.iter().enumerate() {
            let result = rendering_of(&v.smoothed, 800)
                .map(|r| model.run_rendering(&r, correct, Technique::Asap));
            rows[i].push(
                result
                    .map(|r| format!("{:.0}", r.accuracy * 100.0))
                    .unwrap_or_else(|| "-".into()),
            );
        }
    }
    for r in rows {
        acc.row(r);
    }
    print!("{acc}");

    // Kurtosis ladder.
    println!("\n[kurtosis factors]");
    let mut kt = Table::new(
        std::iter::once("window @ factor".to_string())
            .chain(datasets.iter().map(|d| d.name.to_string()))
            .collect::<Vec<_>>(),
    );
    let factors = [0.5, 1.0, 1.5, 2.0];
    let mut krows: Vec<Vec<String>> =
        factors.iter().map(|f| vec![format!("k{f}")]).collect();
    for d in &datasets {
        let series = d.generate();
        let variants =
            kurtosis_variants(series.values(), 1200, &factors).expect("variants computable");
        for (i, v) in variants.iter().enumerate() {
            krows[i].push(v.window.to_string());
        }
    }
    for r in krows {
        kt.row(r);
    }
    print!("{kt}");
    println!("\npaper: accuracy 61.5% (8x), 55.8% (4x), 78.6% (2x), 79.8% (1/2x);");
    println!("for 3/5 datasets the kurtosis factor does not change the window.");
}
