//! Table 2: batch results of exhaustive search vs ASAP on every evaluation
//! dataset, target resolution 1200 pixels.
//!
//! The headline: ASAP finds the same smoothing parameter as exhaustive
//! search while checking ~13× fewer candidates.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- table2_batch_results`
//! (set ASAP_FAST=1 to skip the 4.2M-point gas sensor)

use asap_eval::{table2, Table};

pub fn run() {
    println!("== Table 2: exhaustive vs ASAP, 1200 px ==\n");
    let datasets = crate::common::sweep_datasets();
    let rows = table2::run_all(&datasets, 1200);

    let mut table = Table::new(vec![
        "Dataset",
        "# points",
        "Exh. window",
        "Exh. # cand",
        "ASAP window",
        "ASAP # cand",
        "Agree",
    ]);
    let mut sum_ex = 0usize;
    let mut sum_asap = 0usize;
    let mut agree = 0usize;
    for r in &rows {
        table.row(vec![
            r.dataset.to_string(),
            r.n_points.to_string(),
            r.exhaustive_window.to_string(),
            r.exhaustive_candidates.to_string(),
            r.asap_window.to_string(),
            r.asap_candidates.to_string(),
            if r.windows_agree() { "yes" } else { "NO" }.to_string(),
        ]);
        sum_ex += r.exhaustive_candidates;
        sum_asap += r.asap_candidates;
        agree += usize::from(r.windows_agree());
    }
    print!("{table}");
    println!(
        "\nagreement: {agree}/{} datasets | avg candidates: exhaustive {:.2}, ASAP {:.2} ({:.1}x fewer)",
        rows.len(),
        sum_ex as f64 / rows.len() as f64,
        sum_asap as f64 / rows.len() as f64,
        sum_ex as f64 / sum_asap.max(1) as f64
    );
    println!("paper: same window on 11/11; avg 113.64 vs 8.64 candidates (13x fewer)");
}
