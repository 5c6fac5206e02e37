//! Table 4 (Appendix B.1): pixel error of ASAP, M4, Visvalingam–Whyatt
//! line simplification and PAA800 against the raw rendering on the five
//! user-study datasets (800 px).
//!
//! Paper: ASAP ~0.92–0.94 (by design — it redraws the plot), M4 ~0–0.04,
//! line simplification 0–0.21, PAA800 0–0.61.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- table4_pixel_error`

use asap_eval::{report, technique_pixel_error, Table, Technique};

pub fn run() {
    println!("== Table 4: pixel error vs raw rendering (800 x 240 px) ==\n");
    let techniques = [
        Technique::Asap,
        Technique::M4,
        Technique::Simplify,
        Technique::Paa800,
    ];
    let mut table = Table::new(
        std::iter::once("Dataset".to_string())
            .chain(techniques.iter().map(|t| t.name().to_string()))
            .collect::<Vec<_>>(),
    );
    for info in asap_data::user_study_datasets() {
        let series = info.generate();
        let mut row = vec![info.name.to_string()];
        for &t in &techniques {
            let e = technique_pixel_error(t, series.values(), 800, 240)
                .unwrap_or(f64::NAN);
            row.push(report::f(e, 2));
        }
        table.row(row);
    }
    print!("{table}");
    println!("\npaper (ASAP / M4 / simp / PAA800):");
    println!("  Temp 0.94/0.02/0.06/0.36, Taxi 0.94/0.02/0.05/0.22,");
    println!("  EEG 0.92/0.02/0.21/0.61, Sine 0.93/0/0/0, Power 0.94/0.04/0.17/0.56");
    println!("ASAP trades pixel fidelity for attention by design (§6).");
}
