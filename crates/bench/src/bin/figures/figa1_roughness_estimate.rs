//! Figure A.1: accuracy of the Eq. 5 roughness estimate on the Temp
//! dataset — true roughness per window, and the relative estimation error.
//!
//! Paper: estimate within 1.2% of the truth across all window sizes, with
//! sharp roughness drops at windows that are multiples of the annual
//! period.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- figa1_roughness_estimate`

use asap_core::estimate::roughness_estimate;
use asap_dsp::autocorrelation;
use asap_timeseries::{roughness, sma, stddev};

pub fn run() {
    println!("== Figure A.1: Eq. 5 roughness estimate on Temp ==\n");
    let series = asap_data::temperature();
    let data = series.values();
    let n = data.len();
    let max_window = 140usize;
    let sigma = stddev(data).unwrap();
    let acf = autocorrelation(data, max_window).unwrap();

    println!("{:>7}{:>14}{:>14}{:>12}", "window", "true rough", "estimate", "err %");
    let mut worst: f64 = 0.0;
    let mut sum = 0.0;
    let mut count = 0usize;
    for w in (2..=max_window).step_by(2) {
        let truth = roughness(&sma(data, w).unwrap()).unwrap();
        let est = roughness_estimate(sigma, n, w, acf.at(w));
        let err = if truth > 1e-12 {
            (est - truth).abs() / truth * 100.0
        } else {
            0.0
        };
        worst = worst.max(err);
        sum += err;
        count += 1;
        if w % 12 == 0 || w % 10 == 2 {
            println!("{w:>7}{truth:>14.5}{est:>14.5}{err:>12.2}");
        }
    }
    println!(
        "\nmean relative error {:.2}% | worst {:.2}% over windows 2..={max_window}",
        sum / count as f64,
        worst
    );
    println!("paper: within 1.2% of the true value across all window sizes");
    println!("(roughness drops at multiples of the 12-month period, as in the figure)");
}
