//! Table 1: device resolutions and the search-space reduction pixel-aware
//! preaggregation achieves on a 1M-point series.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- table1_devices`

use asap_core::DEVICES;
use asap_eval::Table;

pub fn run() {
    println!("== Table 1: pixel-aware preaggregation, 1M-point series ==\n");
    let mut table = Table::new(vec!["Device", "Resolution", "Reduction on 1M pts"]);
    const N: usize = 1_000_000;
    for d in DEVICES {
        table.row(vec![
            d.name.to_string(),
            format!("{} x {}", d.horizontal, d.vertical),
            format!("{:.0}x", d.reduction_on(N)),
        ]);
    }
    print!("{table}");
    println!("\npaper: 3676x / 694x / 434x / 291x / 195x");
}
