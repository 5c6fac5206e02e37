//! Factor analysis and lesion study (Figure 11).
//!
//! Figure 11 streams the machine-temp dataset and measures end-to-end
//! throughput while toggling ASAP's three optimizations:
//!
//! * **Pixel** — pixel-aware preaggregation (pane size = point-to-pixel
//!   ratio vs 1);
//! * **AC** — autocorrelation-pruned search (vs exhaustive search);
//! * **Lazy** — on-demand refresh once per day of data (288 points at
//!   5-minute cadence) vs refresh on every ingested (pane) arrival.
//!
//! The harness replays the series through the same pane/window machinery
//! streaming ASAP uses and charges every search to the wall clock. Slow
//! variants (the baseline is ~7 orders of magnitude slower) are measured
//! under a time budget and their throughput extrapolated from the work
//! completed, as the paper itself does for the "over an hour" baseline.

use asap_core::streaming::{PaneAggregator, RefreshClock, SlidingWindow};
use asap_core::{point_to_pixel_ratio, AsapConfig, SearchStrategy};
use asap_timeseries::TimeSeries;
use std::time::{Duration, Instant};

/// One configuration of the factor/lesion grid.
#[derive(Debug, Clone, Copy)]
pub struct FactorVariant {
    /// Display name ("Baseline", "+Pixel", "no AC", ...).
    pub name: &'static str,
    /// Pixel-aware preaggregation enabled.
    pub pixel: bool,
    /// Autocorrelation-pruned search enabled.
    pub ac: bool,
    /// On-demand (lazy) refresh enabled.
    pub lazy: bool,
}

/// The cumulative factor-analysis ladder of Figure 11 (left).
pub const CUMULATIVE: [FactorVariant; 4] = [
    FactorVariant { name: "Baseline", pixel: false, ac: false, lazy: false },
    FactorVariant { name: "+Pixel", pixel: true, ac: false, lazy: false },
    FactorVariant { name: "+AC", pixel: true, ac: true, lazy: false },
    FactorVariant { name: "+Lazy", pixel: true, ac: true, lazy: true },
];

/// The lesion grid of Figure 11 (right): remove one optimization at a time.
pub const LESION: [FactorVariant; 4] = [
    FactorVariant { name: "no Pixel", pixel: false, ac: true, lazy: true },
    FactorVariant { name: "no AC", pixel: true, ac: false, lazy: true },
    FactorVariant { name: "no Lazy", pixel: true, ac: true, lazy: false },
    FactorVariant { name: "ASAP", pixel: true, ac: true, lazy: true },
];

/// Result of one streaming throughput measurement.
#[derive(Debug, Clone)]
pub struct FactorResult {
    /// Variant name.
    pub name: &'static str,
    /// Points per second (possibly extrapolated).
    pub throughput: f64,
    /// Whether the run hit the budget and was extrapolated.
    pub extrapolated: bool,
    /// Number of search invocations charged.
    pub searches: usize,
}

/// Streams `series` at the given display `resolution` under one variant and
/// measures throughput, spending at most `budget` of wall-clock time.
///
/// `lazy_interval_points` is the refresh cadence in raw points when `lazy`
/// is set (the paper uses one day = 288 machine-temp points); eager
/// variants refresh on every pane completion.
pub fn run_variant(
    series: &TimeSeries,
    resolution: usize,
    variant: FactorVariant,
    lazy_interval_points: usize,
    budget: Duration,
) -> FactorResult {
    let data = series.values();
    let n = data.len();
    let pane_size = if variant.pixel {
        point_to_pixel_ratio(n, resolution)
    } else {
        1
    };
    let capacity = n.div_ceil(pane_size).max(2);
    let strategy = if variant.ac {
        SearchStrategy::Asap
    } else {
        SearchStrategy::Exhaustive
    };
    let refresh_every = if variant.lazy {
        lazy_interval_points.max(1)
    } else {
        pane_size // one refresh per (pre)aggregated point
    };
    let config = AsapConfig {
        resolution,
        ..AsapConfig::default()
    };

    let mut panes = PaneAggregator::new(pane_size);
    let mut window = SlidingWindow::new(capacity);
    let mut clock = RefreshClock::new(refresh_every);
    let mut searches = 0usize;

    let start = Instant::now();
    let mut processed = 0usize;
    let mut extrapolated = false;
    for &v in data {
        if let Some(p) = panes.push(v) {
            window.push(p);
        }
        processed += 1;
        if clock.tick() && window.len() >= 8 {
            let view = window.pane_means();
            let _ = std::hint::black_box(strategy.search(&view, &config));
            searches += 1;
            if start.elapsed() > budget {
                extrapolated = true;
                break;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    FactorResult {
        name: variant.name,
        throughput: processed as f64 / elapsed,
        extrapolated,
        searches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_series() -> TimeSeries {
        let values: Vec<f64> = (0..20_000)
            .map(|i| {
                (std::f64::consts::TAU * i as f64 / 288.0).sin()
                    + 0.4 * ((((i as u64) * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
            })
            .collect();
        TimeSeries::new("synthetic_machine_temp", values, 300.0)
    }

    // NOTE: wall-clock *ordering* of the full ladder (Baseline < +Pixel <
    // +AC < +Lazy) is asserted by the release-mode bench
    // (`fig11_factor_analysis`); unoptimized test builds at unit-test scale
    // invert the AC step because the FFT dominates tiny exhaustive scans.
    // The unit tests below pin the mechanisms that are build-invariant.

    #[test]
    fn pixel_preaggregation_dominates_the_baseline() {
        let series = small_series();
        let budget = Duration::from_millis(400);
        let baseline = run_variant(&series, 1000, CUMULATIVE[0], 288, budget);
        let pixel = run_variant(&series, 1000, CUMULATIVE[1], 288, budget);
        assert!(
            pixel.throughput > 3.0 * baseline.throughput,
            "+Pixel ({:.1}) should dominate Baseline ({:.1})",
            pixel.throughput,
            baseline.throughput
        );
    }

    #[test]
    fn removing_pixel_preaggregation_hurts() {
        let series = small_series();
        let budget = Duration::from_millis(400);
        let full = run_variant(&series, 1000, LESION[3], 288, budget);
        let no_pixel = run_variant(&series, 1000, LESION[0], 288, budget);
        assert!(
            no_pixel.throughput < full.throughput,
            "no Pixel ({:.1}) should be slower than ASAP ({:.1})",
            no_pixel.throughput,
            full.throughput
        );
    }

    #[test]
    fn removing_lazy_refresh_multiplies_search_invocations() {
        let series = small_series();
        let budget = Duration::from_secs(5);
        let full = run_variant(&series, 1000, LESION[3], 288, budget);
        let no_lazy = run_variant(&series, 1000, LESION[2], 288, budget);
        assert!(
            no_lazy.searches > 5 * full.searches.max(1),
            "no Lazy ran {} searches vs ASAP {}",
            no_lazy.searches,
            full.searches
        );
    }

    #[test]
    fn lazy_variant_runs_fewer_searches() {
        let series = small_series();
        let budget = Duration::from_secs(5);
        let lazy = run_variant(&series, 1000, LESION[3], 288, budget);
        let eager = run_variant(&series, 1000, LESION[2], 288, budget);
        assert!(
            lazy.searches < eager.searches,
            "lazy {} vs eager {}",
            lazy.searches,
            eager.searches
        );
    }
}
