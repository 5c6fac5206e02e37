//! Ablation of ASAP's search mechanisms (a design-choice study beyond the
//! paper's Figure 11, which lesions whole optimizations).
//!
//! Toggles the Eq. 6 lower bound, the Eq. 5 roughness-estimate skip, and
//! the Algorithm 2 binary refinement independently, reporting candidate
//! counts and achieved roughness across the Table 2 datasets.
//!
//! Run: `cargo run --release -p asap-bench --bin figures -- ablation_pruning`

use asap_core::search::ablation::{search_ablated, AblationFlags};
use asap_core::{preaggregate, AsapConfig, SearchStrategy};
use asap_eval::{report, Table};

pub fn run() {
    println!("== Ablation: Algorithm 1/2 mechanisms, 1200 px ==\n");
    let variants: [(&str, AblationFlags); 5] = [
        ("full ASAP", AblationFlags::all()),
        (
            "no lower bound",
            AblationFlags {
                lower_bound: false,
                ..AblationFlags::all()
            },
        ),
        (
            "no est. prune",
            AblationFlags {
                roughness_estimate: false,
                ..AblationFlags::all()
            },
        ),
        (
            "no refinement",
            AblationFlags {
                refinement: false,
                ..AblationFlags::all()
            },
        ),
        ("peaks only", AblationFlags::none()),
    ];

    let mut cand_table = Table::new(vec!["Variant", "avg candidates", "avg roughness ratio"]);
    let datasets: Vec<(String, Vec<f64>)> = crate::common::sweep_datasets()
        .iter()
        .filter(|d| d.n_points <= 100_000)
        .map(|d| (d.name.to_string(), d.generate().into_values()))
        .collect();

    // Exhaustive references per dataset.
    let refs: Vec<f64> = datasets
        .iter()
        .map(|(_, raw)| {
            let (agg, _) = preaggregate(raw, 1200);
            let cfg = AsapConfig {
                resolution: 1200,
                ..AsapConfig::default()
            };
            SearchStrategy::Exhaustive
                .search(&agg, &cfg)
                .map(|o| o.roughness.max(1e-12))
                .unwrap_or(1.0)
        })
        .collect();

    for (name, flags) in variants {
        let mut cand_sum = 0usize;
        let mut ratio_sum = 0.0f64;
        for ((_, raw), reference) in datasets.iter().zip(&refs) {
            let (agg, _) = preaggregate(raw, 1200);
            let cfg = AsapConfig {
                resolution: 1200,
                ..AsapConfig::default()
            };
            let out = search_ablated(&agg, &cfg, flags).expect("searchable");
            cand_sum += out.candidates_checked;
            ratio_sum += out.roughness.max(1e-12) / reference;
        }
        cand_table.row(vec![
            name.to_string(),
            report::f(cand_sum as f64 / datasets.len() as f64, 1),
            report::f(ratio_sum / datasets.len() as f64, 3),
        ]);
    }
    print!("{cand_table}");
    println!("\nReading: the estimate prune and lower bound buy candidate reductions;");
    println!("the refinement buys quality (roughness ratio closer to 1.0). All three");
    println!("are needed for Table 2's 'same window, ~13x fewer candidates'.");
}
