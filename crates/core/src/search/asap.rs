//! The ASAP search — Algorithms 1 and 2 of the paper.
//!
//! On periodic data the search walks the ACF-peak candidates from large to
//! small windows, applying three rules once a feasible window is in hand:
//!
//! * **lower-bound pruning** (`UPDATELB`, Eq. 6): smaller windows that
//!   cannot beat the current best even at the maximum observed
//!   autocorrelation are cut off (`break`, since candidates are sorted);
//! * **roughness-estimate pruning** (`ISROUGHER`, Eq. 5): candidates whose
//!   estimated roughness already exceeds the current best are skipped
//!   without evaluating their metrics;
//! * **kurtosis constraint**: a candidate only becomes the new best if its
//!   smoothed kurtosis stays at or above the original's.
//!
//! Algorithm 2 then refines with binary search over the unexplored gap
//! between the largest feasible peak and the next candidate above it (or
//! the window cap). Aperiodic data — at most one ACF peak — skips straight
//! to binary search, which §4.2 shows is sound for IID-like series.

use crate::candidates;
use crate::config::AsapConfig;
use crate::estimate::{is_estimated_rougher, lower_bound_update};
use crate::metrics::{CandidateEvaluator, CandidateMetrics};
use crate::problem::SearchOutcome;
use crate::search::binary;
use asap_timeseries::TimeSeriesError;

/// Runs the full ASAP search (Algorithm 2's `FINDWINDOW`) from scratch.
pub fn search(data: &[f64], config: &AsapConfig) -> Result<SearchOutcome, TimeSeriesError> {
    search_seeded(data, config, None)
}

/// Runs the ASAP search seeded with the previous rendering request's window
/// (Algorithm 3's `CHECKLASTWINDOW` + `FINDWINDOW`).
///
/// If `previous_window` still satisfies the kurtosis constraint on the
/// current data, its metrics initialize the incumbent, which activates both
/// pruning rules from the first candidate onward.
pub fn search_seeded(
    data: &[f64],
    config: &AsapConfig,
    previous_window: Option<usize>,
) -> Result<SearchOutcome, TimeSeriesError> {
    let ev = match CandidateEvaluator::new(data) {
        Ok(ev) => ev,
        Err(TimeSeriesError::TooShort { .. }) => {
            return Ok(super::exhaustive::unsmoothed_short(data))
        }
        Err(e) => return Err(e),
    };
    let n = data.len();
    let max_window = config.effective_max_window(n);

    let mut best_window = 1usize;
    let mut best = ev.base();
    let mut checked = 0usize;
    let mut w_lb = 1.0f64; // pruning only activates once a window is feasible

    // CHECKLASTWINDOW: re-validate the previous answer on the new data.
    if let Some(prev) = previous_window {
        if prev > 1 && prev <= max_window {
            let m = ev.evaluate(prev)?;
            checked += 1;
            if ev.satisfies_constraint(m, config.kurtosis_factor) && m.roughness < best.roughness
            {
                best = m;
                best_window = prev;
            }
        }
    }

    let cands = match candidates::generate(data, config) {
        Ok(c) => c,
        // Zero-variance (flat) series: nothing to smooth.
        Err(TimeSeriesError::ZeroVariance) => {
            return Ok(SearchOutcome {
                window: 1,
                roughness: 0.0,
                kurtosis: f64::NAN,
                candidates_checked: checked,
            })
        }
        Err(e) => return Err(e),
    };

    if !cands.periodic {
        // Aperiodic fallback (§4.3.3): plain binary search, justified by
        // the IID analysis of §4.2. (Periodic series with many ACF peaks
        // take the pruned scan below — that is where Table 2's larger
        // candidate counts, e.g. EEG's 21, come from.)
        binary::refine(
            &ev,
            config,
            2,
            max_window,
            &mut best_window,
            &mut best,
            &mut checked,
        )?;
        return Ok(outcome(best_window, best, checked));
    }

    // If the seed produced an incumbent, activate the lower bound from it.
    if best_window > 1 {
        w_lb = lower_bound_update(w_lb, best_window, cands.acf.at(best_window), cands.max_acf);
    }

    // Algorithm 1: SEARCHPERIODIC, large to small.
    let mut largest_feasible_idx: Option<usize> = None;
    for i in (0..cands.windows.len()).rev() {
        let w = cands.windows[i];
        if (w as f64) < w_lb {
            break; // lower-bound pruning: all remaining candidates are smaller
        }
        // Roughness pruning (ISROUGHER): applied against the incumbent even
        // when that incumbent is the unsmoothed series (window 1), as in
        // Algorithm 1 — this is what keeps already-smooth, high-kurtosis
        // series like Twitter_AAPL to a handful of evaluations.
        if is_estimated_rougher(w, cands.acf.at(w), best_window, cands.acf.at(best_window)) {
            continue;
        }
        let m = ev.evaluate(w)?;
        checked += 1;
        if m.roughness < best.roughness && ev.satisfies_constraint(m, config.kurtosis_factor) {
            best = m;
            best_window = w;
            w_lb = lower_bound_update(w_lb, w, cands.acf.at(w), cands.max_acf);
            largest_feasible_idx = Some(largest_feasible_idx.map_or(i, |j| j.max(i)));
        }
    }

    // Algorithm 2: binary refinement over the unexplored range between the
    // largest feasible peak and the next candidate above it.
    let (head, tail) = match largest_feasible_idx {
        Some(i) => {
            let head = (w_lb.ceil() as usize).max(cands.windows[i] + 1);
            let tail = cands
                .windows
                .get(i + 1)
                .copied()
                .unwrap_or(max_window)
                .min(max_window);
            (head, tail)
        }
        // No feasible peak: search the whole range above the lower bound.
        None => ((w_lb.ceil() as usize).max(2), max_window),
    };
    if head <= tail {
        binary::refine(
            &ev,
            config,
            head,
            tail,
            &mut best_window,
            &mut best,
            &mut checked,
        )?;
    }

    Ok(outcome(best_window, best, checked))
}

fn outcome(window: usize, m: CandidateMetrics, checked: usize) -> SearchOutcome {
    SearchOutcome {
        window,
        roughness: m.roughness,
        kurtosis: m.kurtosis,
        candidates_checked: checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::exhaustive;

    fn periodic_with_anomaly(n: usize, period: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let base = (std::f64::consts::TAU * i as f64 / period as f64).sin();
                let noise = 0.25 * (((i as u64) * 2654435761) % 1000) as f64 / 1000.0;
                let v = base + noise;
                if i >= n / 2 && i < n / 2 + period / 2 {
                    v + 2.0
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn matches_exhaustive_window_on_periodic_data() {
        // The Table 2 headline: same window choice, far fewer candidates.
        let data = periodic_with_anomaly(1200, 48);
        let config = AsapConfig::default();
        let a = search(&data, &config).unwrap();
        let e = exhaustive::search(&data, &config).unwrap();
        assert!(
            a.roughness <= e.roughness * 1.01 + 1e-12,
            "asap {} vs exhaustive {}",
            a.roughness,
            e.roughness
        );
        assert!(
            a.candidates_checked < e.candidates_checked / 3,
            "asap checked {}, exhaustive {}",
            a.candidates_checked,
            e.candidates_checked
        );
    }

    #[test]
    fn aperiodic_data_falls_back_to_binary_probe_counts() {
        let data: Vec<f64> = (0..3000)
            .map(|i| (((i as u64) * 2654435761) % 104729) as f64 / 104729.0)
            .collect();
        let out = search(&data, &AsapConfig::default()).unwrap();
        assert!(out.candidates_checked <= 10, "{}", out.candidates_checked);
    }

    #[test]
    fn flat_series_returns_unsmoothed() {
        let out = search(&[3.0; 500], &AsapConfig::default()).unwrap();
        assert_eq!(out.window, 1);
    }

    #[test]
    fn seeding_with_feasible_window_never_hurts_quality() {
        let data = periodic_with_anomaly(2400, 48);
        let config = AsapConfig::default();
        let fresh = search(&data, &config).unwrap();
        let seeded = search_seeded(&data, &config, Some(fresh.window)).unwrap();
        assert!(seeded.roughness <= fresh.roughness + 1e-12);
        assert_eq!(seeded.window, fresh.window);
    }

    #[test]
    fn seeding_with_stale_infeasible_window_is_ignored() {
        // Seed with a window that violates the constraint on this data: the
        // search must still find a valid answer.
        let mut data: Vec<f64> = (0..800).map(|i| (i as f64 * 0.3).sin() * 0.01).collect();
        data[400] = 10.0;
        let out = search_seeded(&data, &AsapConfig::default(), Some(40)).unwrap();
        assert_eq!(out.window, 1, "spiky series should stay unsmoothed");
    }

    #[test]
    fn kurtosis_constraint_holds_at_the_returned_window() {
        let data = periodic_with_anomaly(1600, 40);
        let config = AsapConfig::default();
        let out = search(&data, &config).unwrap();
        if out.window > 1 {
            let smoothed = asap_timeseries::sma(&data, out.window).unwrap();
            let k = asap_timeseries::kurtosis(&smoothed).unwrap();
            let k0 = asap_timeseries::kurtosis(&data).unwrap();
            assert!(k >= k0 - 1e-9, "{k} < {k0}");
        }
    }

    #[test]
    fn respects_explicit_max_window() {
        let data = periodic_with_anomaly(2400, 48);
        let config = crate::AsapBuilder::default().max_window(30).build_config();
        let out = search(&data, &config).unwrap();
        assert!(out.window <= 30);
    }
}
