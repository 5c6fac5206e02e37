//! Figure 6: simulated anomaly-identification study — accuracy and
//! response time for seven visualization techniques on the five user-study
//! datasets.
//!
//! This reproduces the *shape* of the MTurk study through the observer
//! model documented in `asap_eval::observer` (the substitution is recorded
//! in DESIGN.md): ASAP leads on accuracy and response time except on Temp,
//! where the oversmoothed plot best shows the decades-long warming trend.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- fig6_user_study_accuracy`

use asap_eval::{ObserverModel, Table, Technique};

pub fn run() {
    println!("== Figure 6: accuracy (%) and response time (s), 50 simulated trials/cell ==\n");
    let model = ObserverModel::default();
    let datasets = asap_data::user_study_datasets();
    let techniques = Technique::figure6();

    let mut acc = Table::new(
        std::iter::once("Accuracy %".to_string())
            .chain(datasets.iter().map(|d| d.name.to_string()))
            .chain(["mean".to_string()])
            .collect::<Vec<_>>(),
    );
    let mut time = Table::new(
        std::iter::once("Time (s)".to_string())
            .chain(datasets.iter().map(|d| d.name.to_string()))
            .chain(["mean".to_string()])
            .collect::<Vec<_>>(),
    );

    let mut summary: Vec<(String, f64, f64)> = Vec::new();
    for t in techniques {
        let mut acc_row = vec![t.name().to_string()];
        let mut time_row = vec![t.name().to_string()];
        let mut mean_acc = 0.0;
        let mut mean_time = 0.0;
        for d in &datasets {
            let r = model.run_cell(d, t).expect("user-study dataset has ground truth");
            acc_row.push(format!("{:.0}", r.accuracy * 100.0));
            time_row.push(format!("{:.1}", r.response_time));
            mean_acc += r.accuracy;
            mean_time += r.response_time;
        }
        mean_acc /= datasets.len() as f64;
        mean_time /= datasets.len() as f64;
        acc_row.push(format!("{:.1}", mean_acc * 100.0));
        time_row.push(format!("{:.1}", mean_time));
        acc.row(acc_row);
        time.row(time_row);
        summary.push((t.name().to_string(), mean_acc, mean_time));
    }
    print!("{acc}");
    println!();
    print!("{time}");

    let asap = summary.iter().find(|s| s.0 == "ASAP").unwrap().clone();
    let orig = summary.iter().find(|s| s.0 == "Original").unwrap().clone();
    println!(
        "\nASAP vs Original: accuracy {:+.1}%, response time {:+.1}%",
        (asap.1 - orig.1) / orig.1 * 100.0,
        (asap.2 - orig.2) / orig.2 * 100.0
    );
    println!("paper: +21.3% accuracy, −23.9% time vs original; +35.0% / −29.8% vs all others");
    println!("note: simulated observer — orderings transfer, absolute numbers do not");
}
