//! `figures`: every table and figure of the paper this repository
//! regenerates, one subcommand each.
//!
//! ```sh
//! cargo run --release -p asap-bench --bin figures -- --list
//! cargo run --release -p asap-bench --bin figures -- fig8_search_strategies table2_batch_results
//! ASAP_FAST=1 cargo run --release -p asap-bench --bin figures -- --all
//! ```
//!
//! `ASAP_FAST=1` (the only switch) skips the 4.2M-point gas-sensor
//! dataset and cuts Figure 11's per-variant budget from 8 s to 1 s. The
//! figures print to stdout and record nothing; numbers that back a claim
//! come from the `benchmark` binary beside this one.

mod ablation_pruning;
mod common;
mod fig10_streaming_refresh;
mod fig11_factor_analysis;
mod fig1_smoothing_gallery;
mod fig4_roughness_vs_summary_stats;
mod fig5_kurtosis_distributions;
mod fig6_user_study_accuracy;
mod fig7_visual_preference;
mod fig8_search_strategies;
mod fig9_preaggregation;
mod figa1_roughness_estimate;
mod figa2_preagg_throughput;
mod figa3_runtime_vs_linear;
mod figb1_sensitivity;
mod figb2_alt_smoothers;
mod render_gallery;
mod table1_devices;
mod table2_batch_results;
mod table4_pixel_error;

/// Subcommand, what it reproduces in the paper, entry point — in the
/// order of DESIGN.md's experiment index (a unit test keeps the two equal).
#[rustfmt::skip]
const FIGURES: &[(&str, &str, fn())] = &[
    ("fig1_smoothing_gallery", "Fig. 1", fig1_smoothing_gallery::run),
    ("fig4_roughness_vs_summary_stats", "Fig. 4", fig4_roughness_vs_summary_stats::run),
    ("fig5_kurtosis_distributions", "Fig. 5", fig5_kurtosis_distributions::run),
    ("fig6_user_study_accuracy", "Fig. 6", fig6_user_study_accuracy::run),
    ("fig7_visual_preference", "Fig. 7", fig7_visual_preference::run),
    ("fig8_search_strategies", "Fig. 8", fig8_search_strategies::run),
    ("fig9_preaggregation", "Fig. 9", fig9_preaggregation::run),
    ("fig10_streaming_refresh", "Fig. 10", fig10_streaming_refresh::run),
    ("fig11_factor_analysis", "Fig. 11", fig11_factor_analysis::run),
    ("figa1_roughness_estimate", "Fig. A1", figa1_roughness_estimate::run),
    ("figa2_preagg_throughput", "Fig. A2", figa2_preagg_throughput::run),
    ("figa3_runtime_vs_linear", "Fig. A3", figa3_runtime_vs_linear::run),
    ("figb1_sensitivity", "Fig. B1", figb1_sensitivity::run),
    ("figb2_alt_smoothers", "Fig. B2", figb2_alt_smoothers::run),
    ("table1_devices", "Table 1", table1_devices::run),
    ("table2_batch_results", "Table 2", table2_batch_results::run),
    ("table4_pixel_error", "Table 4", table4_pixel_error::run),
    ("ablation_pruning", "§4.3", ablation_pruning::run),
    ("render_gallery", "—", render_gallery::run),
];

const USAGE: &str = "usage: figures <name>... | --all | --list";

/// The entry points an invocation asks for, in the order it names them
/// (`--all`: table order).
fn select(args: &[String]) -> Result<Vec<fn()>, String> {
    match args {
        [] => Err(USAGE.to_string()),
        [flag] if flag == "--all" => Ok(FIGURES.iter().map(|f| f.2).collect()),
        names => names
            .iter()
            .map(|name| {
                FIGURES
                    .iter()
                    .find(|f| f.0 == name)
                    .map(|f| f.2)
                    .ok_or_else(|| format!("unknown figure `{name}` (see --list)\n{USAGE}"))
            })
            .collect(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        for (name, reference, _) in FIGURES {
            println!("{name:<32} {reference}");
        }
        return;
    }
    let selected = select(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    for (i, run) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `(name, reproduces)` of every row of DESIGN.md's experiment index.
    fn design_index() -> BTreeSet<(String, String)> {
        let design = include_str!("../../../../../DESIGN.md");
        let section = design
            .split("## Experiment index")
            .nth(1)
            .expect("DESIGN.md has an experiment index");
        let section = section
            .split("\n## ")
            .next()
            .expect("split yields a first piece");
        section
            .lines()
            .filter_map(|line| {
                let mut cells = line.strip_prefix("| `")?.split('|');
                let name = cells.next()?.trim().trim_end_matches('`');
                let reference = cells.next()?.trim();
                Some((name.to_string(), reference.to_string()))
            })
            .collect()
    }

    #[test]
    fn the_subcommand_table_is_designs_experiment_index() {
        let table: BTreeSet<(String, String)> = FIGURES
            .iter()
            .map(|(name, reference, _)| (name.to_string(), reference.to_string()))
            .collect();
        assert_eq!(table.len(), FIGURES.len(), "a subcommand is listed twice");
        let index = design_index();
        let unindexed: Vec<_> = table.difference(&index).collect();
        let unimplemented: Vec<_> = index.difference(&table).collect();
        assert!(
            unindexed.is_empty() && unimplemented.is_empty(),
            "subcommands missing from DESIGN.md: {unindexed:?}; \
             DESIGN.md rows with no subcommand: {unimplemented:?}"
        );
    }

    #[test]
    fn invocations_select_what_they_name() {
        let args = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        assert_eq!(select(&args(&["--all"])).unwrap().len(), FIGURES.len());
        let two = select(&args(&["table1_devices", "fig8_search_strategies"])).unwrap();
        assert_eq!(two.len(), 2);
        for bad in [
            &[][..],
            &["fig8"],
            &["table1_devices", "--all"],
            &["--list", "table1_devices"],
            &["table1_devices.rs"],
        ] {
            assert!(select(&args(bad)).is_err(), "{bad:?} was accepted");
        }
    }
}
