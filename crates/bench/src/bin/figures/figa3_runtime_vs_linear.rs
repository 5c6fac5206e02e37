//! Figure A.3: absolute runtime of ASAP vs the linear-time reducers PAA
//! and M4 on the ten smaller Table 2 datasets (1200 px).
//!
//! Paper: ASAP is up to 19.6× slower than PAA and 13.2× slower than M4,
//! completing in 72.9 ms on average vs 33.4 / 35.9 ms — same order of
//! magnitude despite doing a search instead of a single pass.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- figa3_runtime_vs_linear`

use asap_baselines::{m4::m4_aggregate, paa::paa};
use asap_core::Asap;
use asap_eval::{report, Table};
use std::time::Instant;

/// Minimum of `reps` timed runs (after one warmup), in milliseconds —
/// stabilizes sub-millisecond measurements against allocator/cache noise.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::MAX, f64::min)
}

pub fn run() {
    println!("== Figure A.3: runtime (ms) of ASAP vs PAA vs M4, 1200 px ==\n");
    let mut table = Table::new(vec!["Dataset", "ASAP", "PAA", "M4", "ASAP/PAA"]);
    let asap = Asap::builder().resolution(1200).build();

    let mut sums = [0.0f64; 3];
    let mut count = 0usize;
    for info in crate::common::sweep_datasets() {
        let series = info.generate();
        let data = series.values();

        let reps = if data.len() > 1_000_000 { 2 } else { 5 };
        let t_asap = time_ms(reps, || asap.smooth(data));
        let t_paa = time_ms(reps, || paa(data, 1200));
        let t_m4 = time_ms(reps, || m4_aggregate(data, 1200));

        sums[0] += t_asap;
        sums[1] += t_paa;
        sums[2] += t_m4;
        count += 1;
        table.row(vec![
            info.name.to_string(),
            report::f(t_asap, 2),
            report::f(t_paa, 2),
            report::f(t_m4, 2),
            report::f(t_asap / t_paa.max(1e-6), 1),
        ]);
    }
    table.row(vec![
        "mean".to_string(),
        report::f(sums[0] / count as f64, 2),
        report::f(sums[1] / count as f64, 2),
        report::f(sums[2] / count as f64, 2),
        report::f(sums[0] / sums[1].max(1e-9), 1),
    ]);
    print!("{table}");
    println!("\npaper: means 72.9 / 33.4 / 35.9 ms; ASAP ≤ 19.6x PAA, ≤ 13.2x M4");
}
