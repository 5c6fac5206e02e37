//! Figure 11: factor analysis (cumulatively enable Pixel → AC → Lazy) and
//! lesion study (remove each optimization) on the machine-temp dataset, at
//! 2000 px and 5000 px.
//!
//! Paper: each optimization contributes 2–4 orders of magnitude;
//! end-to-end streaming ASAP is ~7 orders of magnitude over the baseline;
//! removing any one optimization costs 2–3 orders of magnitude.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- fig11_factor_analysis`

use asap_eval::factor::{run_variant, CUMULATIVE, LESION};
use asap_eval::{report, Table};
use std::time::Duration;

pub fn run() {
    println!("== Figure 11: factor analysis & lesion study (machine_temp) ==\n");
    let series = asap_data::machine_temp();
    // One day of 5-minute points, the paper's lazy refresh interval.
    let lazy_interval = 288usize;
    // The slow variants run into this budget and are extrapolated; the
    // ladder's order is the same at 1 s.
    let budget = Duration::from_secs(if crate::common::fast() { 1 } else { 8 });
    let resolutions = [2000usize, 5000];

    for (title, grid) in [("cumulative", &CUMULATIVE[..]), ("lesion", &LESION[..])] {
        let mut table = Table::new(
            std::iter::once("Throughput (pts/s)".to_string())
                .chain(resolutions.iter().map(|r| format!("{r}px")))
                .collect::<Vec<_>>(),
        );
        for &variant in grid {
            let mut row = vec![variant.name.to_string()];
            for &res in &resolutions {
                let r = run_variant(&series, res, variant, lazy_interval, budget);
                row.push(format!(
                    "{}{}",
                    report::eng(r.throughput),
                    if r.extrapolated { "*" } else { "" }
                ));
            }
            table.row(row);
        }
        println!("[{title}]");
        print!("{table}");
        println!();
    }
    println!("* = budget hit; throughput measured on the processed prefix");
    println!("\npaper (2000px/5000px): Baseline 0.01/0.01, +Pixel 141/3.6, +AC 4.0K/271,");
    println!("+Lazy 113K/20.4K; lesion: no-Pixel 879/834, no-AC 4.2K/274, no-Lazy 614/65.8");
}
