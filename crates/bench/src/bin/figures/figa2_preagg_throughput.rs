//! Figure A.2: throughput of exhaustive search and ASAP on machine_temp
//! and traffic_data, with and without pixel-aware preaggregation, at a
//! 1200-pixel target.
//!
//! Paper: Exhaustive 57/26, ASAP-no-agg 18K/5K, Grid1(agg) 233K/336K,
//! ASAP(agg) 5.9M/4.7M points/sec — i.e. preaggregated ASAP is ~5 orders
//! of magnitude above raw exhaustive.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- figa2_preagg_throughput`

use asap_core::{preaggregate, AsapConfig, SearchStrategy};
use asap_eval::{perf, report, Table};
use std::time::{Duration, Instant};

pub fn run() {
    println!("== Figure A.2: preaggregation throughput, 1200 px ==\n");
    let datasets = [asap_data::machine_temp(), asap_data::traffic_data()];
    let mut table = Table::new(
        std::iter::once("Throughput (pts/s)".to_string())
            .chain(datasets.iter().map(|d| d.name().to_string()))
            .collect::<Vec<_>>(),
    );

    let mut rows: Vec<Vec<String>> = vec![
        vec!["Exhaustive".into()],
        vec!["ASAP no-agg".into()],
        vec!["Grid1 (agg)".into()],
        vec!["ASAP (agg)".into()],
    ];

    for d in &datasets {
        let raw = d.values();
        let n = raw.len();
        let config = AsapConfig::default();

        // Exhaustive on raw (budgeted).
        let (t, ex) = perf::measure_raw_exhaustive_budgeted(raw, &config, Duration::from_secs(6));
        rows[0].push(format!(
            "{}{}",
            report::eng(n as f64 / t.as_secs_f64()),
            if ex { "*" } else { "" }
        ));

        // ASAP on raw.
        let start = Instant::now();
        let _ = std::hint::black_box(SearchStrategy::Asap.search(raw, &config));
        rows[1].push(report::eng(n as f64 / start.elapsed().as_secs_f64().max(1e-9)));

        // Preaggregated variants (search cost charged to all raw points).
        let (agg, _) = preaggregate(raw, 1200);
        let cfg = AsapConfig {
            resolution: 1200,
            ..AsapConfig::default()
        };
        for (i, strat) in [(2usize, SearchStrategy::Exhaustive), (3, SearchStrategy::Asap)] {
            let m = perf::measure(&agg, strat, &cfg).unwrap();
            rows[i].push(report::eng(m.throughput(n)));
        }
    }
    for r in rows {
        table.row(r);
    }
    print!("{table}");
    println!("\n* = extrapolated under budget");
    println!("paper (machine_temp / traffic_data): 57/26, 18K/5K, 233K/336K, 5.9M/4.7M");
}
