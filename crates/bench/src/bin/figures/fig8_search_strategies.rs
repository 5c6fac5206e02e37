//! Figure 8: throughput and quality of ASAP, grid search (step 2 / 10) and
//! binary search relative to exhaustive search over preaggregated series,
//! for target resolutions 1000–5000.
//!
//! Paper: ASAP gets up to 60× exhaustive's speed with near-identical
//! roughness; binary search is comparable in speed but up to 7.5× rougher;
//! Grid2 matches quality but doesn't scale; Grid10 is worst overall.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- fig8_search_strategies`
//! (averages over the 7 largest datasets; ASAP_FAST=1 skips gas_sensor)

use asap_core::SearchStrategy;
use asap_eval::{perf, report, Table};

pub fn run() {
    println!("== Figure 8: search strategies vs exhaustive (preaggregated) ==\n");
    let strategies = [
        SearchStrategy::Grid { step: 2 },
        SearchStrategy::Grid { step: 10 },
        SearchStrategy::Binary,
        SearchStrategy::Asap,
    ];
    let datasets: Vec<_> = crate::common::seven_largest()
        .into_iter()
        .filter(|d| !crate::common::fast() || d.n_points <= 100_000)
        .collect();
    let resolutions = [1000usize, 2000, 3000, 4000, 5000];

    let mut speed = Table::new(
        std::iter::once("Speed-up".to_string())
            .chain(resolutions.iter().map(|r| r.to_string()))
            .collect::<Vec<_>>(),
    );
    let mut rough = Table::new(
        std::iter::once("Roughness ratio".to_string())
            .chain(resolutions.iter().map(|r| r.to_string()))
            .collect::<Vec<_>>(),
    );

    // Pre-generate the raw series once.
    let raw: Vec<(String, Vec<f64>)> = datasets
        .iter()
        .map(|d| (d.name.to_string(), d.generate().into_values()))
        .collect();

    let mut per_strategy: Vec<(String, Vec<f64>, Vec<f64>)> = strategies
        .iter()
        .map(|s| (s.name(), Vec::new(), Vec::new()))
        .collect();

    for &res in &resolutions {
        // Average over datasets, repeating the timing a few times for
        // stability at small aggregate sizes.
        let mut sums = vec![(0.0f64, 0.0f64); strategies.len()];
        for (_name, data) in &raw {
            const REPS: usize = 3;
            let mut best: Vec<perf::ComparisonRow> = Vec::new();
            for _ in 0..REPS {
                let rows = perf::compare_at_resolution(data, res, &strategies)
                    .expect("comparable dataset");
                if best.is_empty() {
                    best = rows;
                } else {
                    for (b, r) in best.iter_mut().zip(rows) {
                        b.speedup = b.speedup.max(r.speedup);
                    }
                }
            }
            for (i, row) in best.iter().enumerate() {
                sums[i].0 += row.speedup;
                sums[i].1 += row.roughness_ratio;
            }
        }
        for (i, (s, r)) in sums.iter().enumerate() {
            per_strategy[i].1.push(s / raw.len() as f64);
            per_strategy[i].2.push(r / raw.len() as f64);
        }
    }

    for (name, speedups, ratios) in &per_strategy {
        speed.row(
            std::iter::once(name.clone())
                .chain(speedups.iter().map(|s| report::f(*s, 1)))
                .collect::<Vec<_>>(),
        );
        rough.row(
            std::iter::once(name.clone())
                .chain(ratios.iter().map(|r| report::f(*r, 2)))
                .collect::<Vec<_>>(),
        );
    }
    print!("{speed}");
    println!();
    print!("{rough}");
    println!("\npaper: ASAP up to 60x faster than exhaustive with ~1.0 roughness ratio;");
    println!("binary similar speed but up to 7.5x rougher; Grid10 worst quality.");
}
