//! Visvalingam–Whyatt line simplification (1993) — "simp" in Figure 6.
//!
//! Repeatedly removes the point whose triangle with its two neighbours has
//! the smallest *effective area* until only `target` points remain. A
//! shape-preserving reducer from cartography: like M4 it aims for visual
//! fidelity to the raw polyline, so it keeps noise that ASAP would remove.
//!
//! Implementation: a min-heap of candidate areas with lazy invalidation and
//! a doubly linked index list — O(n log n) overall.

use asap_timeseries::TimeSeriesError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A retained point: original index plus value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplifiedPoint {
    /// Index in the original series.
    pub index: usize,
    /// Value at that index.
    pub value: f64,
}

/// Ordered f64 wrapper for the heap (areas are finite by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Area(f64);

impl Eq for Area {}

impl PartialOrd for Area {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Area {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

fn triangle_area(x1: f64, y1: f64, x2: f64, y2: f64, x3: f64, y3: f64) -> f64 {
    ((x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2)) / 2.0).abs()
}

/// Simplifies `data` (x = index, y = value) down to `target` points.
///
/// Endpoints are always retained; `target < 2` is an error, and a target at
/// or above the input length returns the input unchanged.
pub fn visvalingam(data: &[f64], target: usize) -> Result<Vec<SimplifiedPoint>, TimeSeriesError> {
    let n = data.len();
    if n == 0 {
        return Err(TimeSeriesError::Empty);
    }
    if target < 2 {
        return Err(TimeSeriesError::InvalidParameter {
            name: "target",
            message: "Visvalingam-Whyatt must keep at least the two endpoints",
        });
    }
    if target >= n {
        return Ok(data
            .iter()
            .enumerate()
            .map(|(index, &value)| SimplifiedPoint { index, value })
            .collect());
    }

    // Doubly linked list over indices; usize::MAX is the sentinel.
    const NONE: usize = usize::MAX;
    let mut prev: Vec<usize> = (0..n).map(|i| if i == 0 { NONE } else { i - 1 }).collect();
    let mut next: Vec<usize> = (0..n)
        .map(|i| if i + 1 == n { NONE } else { i + 1 })
        .collect();
    let mut alive = vec![true; n];

    let area_of = |i: usize, prev: &[usize], next: &[usize], data: &[f64]| -> f64 {
        let (p, q) = (prev[i], next[i]);
        triangle_area(
            p as f64, data[p], i as f64, data[i], q as f64, data[q],
        )
    };

    // Heap of (area, index, version) with lazy invalidation via versions.
    let mut version = vec![0u32; n];
    let mut heap: BinaryHeap<Reverse<(Area, usize, u32)>> = BinaryHeap::with_capacity(n);
    for i in 1..n - 1 {
        heap.push(Reverse((Area(area_of(i, &prev, &next, data)), i, 0)));
    }

    let mut remaining = n;
    while remaining > target {
        let Some(Reverse((_, i, v))) = heap.pop() else {
            break;
        };
        if !alive[i] || v != version[i] {
            continue; // stale entry
        }
        // Remove point i.
        alive[i] = false;
        remaining -= 1;
        let (p, q) = (prev[i], next[i]);
        next[p] = q;
        prev[q] = p;
        // Recompute neighbours' areas.
        for &j in &[p, q] {
            if j != NONE && j != 0 && j != n - 1 && alive[j] {
                version[j] += 1;
                heap.push(Reverse((
                    Area(area_of(j, &prev, &next, data)),
                    j,
                    version[j],
                )));
            }
        }
    }

    Ok((0..n)
        .filter(|&i| alive[i])
        .map(|index| SimplifiedPoint {
            index,
            value: data[index],
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_interior_points_removed_first() {
        // Collinear interior points have zero area: any of them may go, the
        // endpoints never do.
        let data: Vec<f64> = (0..10).map(|i| 2.0 * i as f64).collect();
        let pts = visvalingam(&data, 2).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].index, 0);
        assert_eq!(pts[1].index, 9);
    }

    #[test]
    fn prominent_spike_survives_simplification() {
        let mut data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.05).sin() * 0.1).collect();
        data[50] = 25.0;
        let pts = visvalingam(&data, 5).unwrap();
        assert!(
            pts.iter().any(|p| p.index == 50),
            "the dominant spike must survive: {pts:?}"
        );
    }

    #[test]
    fn exact_target_count() {
        let data: Vec<f64> = (0..500).map(|i| ((i as u64 * 48271) % 233) as f64).collect();
        for target in [2usize, 10, 100, 499, 500] {
            let pts = visvalingam(&data, target).unwrap();
            assert_eq!(pts.len(), target.min(500));
        }
    }

    #[test]
    fn target_above_length_is_identity() {
        let data = vec![1.0, 5.0, 2.0];
        let pts = visvalingam(&data, 10).unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[1].value, 5.0);
    }

    #[test]
    fn output_is_time_ordered() {
        let data: Vec<f64> = (0..200).map(|i| ((i * i) % 31) as f64).collect();
        let pts = visvalingam(&data, 50).unwrap();
        for w in pts.windows(2) {
            assert!(w[0].index < w[1].index);
        }
    }

    #[test]
    fn degenerate_inputs_error() {
        assert!(visvalingam(&[], 5).is_err());
        assert!(visvalingam(&[1.0, 2.0, 3.0], 1).is_err());
    }

    #[test]
    fn simplification_keeps_large_scale_shape() {
        // Downsampling a clean sine to 50 points must keep its amplitude.
        let data: Vec<f64> = (0..1000)
            .map(|i| (std::f64::consts::TAU * i as f64 / 250.0).sin())
            .collect();
        let vals: Vec<f64> = visvalingam(&data, 50).unwrap().iter().map(|p| p.value).collect();
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 0.95 && min < -0.95);
    }
}
