//! Direct convolution helpers used by the smoothing filters.

/// "Same"-mode correlation of `data` with `kernel`, mirroring edge handling:
/// at the boundaries the window is clipped and the kernel renormalized over
/// the in-range taps. Output has the same length as `data`.
///
/// This is the standard evaluation mode for smoothing filters applied to
/// plots: no phantom zeros are introduced at the edges, so the filtered
/// series does not dive toward zero at either end.
pub fn correlate_same_clipped(data: &[f64], kernel: &[f64]) -> Vec<f64> {
    let n = data.len();
    let k = kernel.len();
    if n == 0 || k == 0 {
        return vec![];
    }
    let half = k / 2;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut acc = 0.0;
        let mut weight = 0.0;
        for (j, &c) in kernel.iter().enumerate() {
            let idx = i as isize + j as isize - half as isize;
            if idx >= 0 && (idx as usize) < n {
                acc += c * data[idx as usize];
                weight += c;
            }
        }
        // Renormalize when the window is clipped (only valid for kernels
        // whose full weight is nonzero, which holds for smoothing kernels).
        if weight.abs() > f64::EPSILON {
            let full_weight: f64 = kernel.iter().sum();
            if (full_weight - weight).abs() > f64::EPSILON && weight != 0.0 {
                acc *= full_weight / weight;
            }
        }
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_mode_preserves_length() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let kernel = [1.0 / 3.0; 3];
        let out = correlate_same_clipped(&data, &kernel);
        assert_eq!(out.len(), 6);
        // Interior points are plain moving averages.
        assert!((out[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn clipped_edges_are_renormalized() {
        let data = [6.0, 6.0, 6.0, 6.0];
        let kernel = [1.0 / 3.0; 3];
        let out = correlate_same_clipped(&data, &kernel);
        // A constant series must stay constant even at edges.
        for v in out {
            assert!((v - 6.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_inputs_yield_empty() {
        assert!(correlate_same_clipped(&[], &[1.0]).is_empty());
        assert!(correlate_same_clipped(&[1.0], &[]).is_empty());
    }

    #[test]
    fn identity_kernel_is_identity() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0];
        assert_eq!(correlate_same_clipped(&data, &[1.0]), data.to_vec());
    }
}
