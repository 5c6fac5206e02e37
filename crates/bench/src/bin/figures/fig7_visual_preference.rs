//! Figure 7: simulated visual-preference study — which of four renderings
//! (Original, ASAP, PAA100, Oversmooth) best highlights the described
//! anomaly.
//!
//! Paper: users prefer ASAP 65% of the time overall (>70% on Taxi, EEG,
//! Power; 60% on Sine), but 70% prefer the oversmoothed plot on Temp,
//! whose anomaly is a multi-decade trend.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- fig7_visual_preference`

use asap_eval::{ObserverModel, Table, Technique};

pub fn run() {
    println!("== Figure 7: preference fractions (%), 50 simulated trials/dataset ==\n");
    let model = ObserverModel::default();
    let techniques = Technique::figure7();

    let mut table = Table::new(
        std::iter::once("Dataset".to_string())
            .chain(techniques.iter().map(|t| t.name().to_string()))
            .collect::<Vec<_>>(),
    );
    let mut mean = vec![0.0f64; techniques.len()];
    let datasets = asap_data::user_study_datasets();
    for d in &datasets {
        let prefs = model.preference(d, &techniques).expect("ground truth present");
        let mut row = vec![d.name.to_string()];
        for (i, p) in prefs.iter().enumerate() {
            row.push(format!("{:.0}", p * 100.0));
            mean[i] += p;
        }
        table.row(row);
    }
    let mut mean_row = vec!["mean".to_string()];
    for m in &mean {
        mean_row.push(format!("{:.0}", m / datasets.len() as f64 * 100.0));
    }
    table.row(mean_row);
    print!("{table}");
    println!("\npaper: ASAP preferred 65% on average (random = 25%); oversmooth wins Temp");
}
