//! Figure 4: three series with identical mean (0) and standard deviation
//! (1) but visibly different smoothness — the motivation for the
//! roughness measure. The paper reports roughness 2.04, 0.4 and 0.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- fig4_roughness_vs_summary_stats`

use crate::common::sparkline;
use asap_timeseries::{moments, roughness, zscore};

pub fn run() {
    println!("== Figure 4: summary statistics miss visual smoothness ==\n");

    let n = 60usize;
    // Series A: jagged line (alternating around the mean).
    let a: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    // Series B: slightly bent line (one slope change in the middle).
    let b_raw: Vec<f64> = (0..n)
        .map(|i| {
            let x = i as f64;
            if i < n / 2 {
                0.2 * x
            } else {
                0.2 * (n / 2) as f64 + 1.0 * (x - (n / 2) as f64)
            }
        })
        .collect();
    // Series C: straight line.
    let c_raw: Vec<f64> = (0..n).map(|i| i as f64).collect();

    // All three normalized to mean 0, stddev 1 (as in the figure).
    let b = zscore(&b_raw).unwrap();
    let c = zscore(&c_raw).unwrap();
    let a = zscore(&a).unwrap();

    println!(
        "{:<10}{:>8}{:>8}{:>12}   plot",
        "series", "mean", "stddev", "roughness"
    );
    for (name, s) in [("A jagged", &a), ("B bent", &b), ("C line", &c)] {
        let m = moments(s).unwrap();
        println!(
            "{:<10}{:>8.2}{:>8.2}{:>12.3}   {}",
            name,
            m.mean(),
            m.stddev(),
            roughness(s).unwrap(),
            sparkline(s, 40)
        );
    }
    println!("\npaper: roughness(A)=2.04, roughness(B)=0.4, roughness(C)=0");
    println!("(A and C match exactly; B depends on the bend geometry — the ordering");
    println!(" jagged > bent > straight is the reproduced property)");
}
