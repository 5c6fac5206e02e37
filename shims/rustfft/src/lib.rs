//! Offline shim for the `rustfft` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the API subset it uses: `FftPlanner` producing `Arc<dyn Fft>`
//! plans, `num_complex::Complex<f64>`, in-place `process`, and rustfft's
//! conventions (forward = `e^{-i2πkt/n}`, inverse unnormalized).
//!
//! Power-of-two lengths use an iterative radix-2 Cooley–Tukey transform;
//! every other length goes through Bluestein's chirp-z algorithm, so
//! arbitrary sizes stay O(n log n). Correctness is checked twice: this
//! crate's tests compare both paths against a naive O(n²) DFT, and
//! `asap-dsp`'s ACF built on it is property-tested against the
//! brute-force O(n²) ACF estimator (`tests/properties.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::f64::consts::PI;
use std::sync::Arc;

/// Minimal stand-in for the `num_complex` facade rustfft re-exports.
pub mod num_complex {
    use std::ops::{Add, Mul, Sub};

    /// A complex number with real and imaginary parts of type `T`.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct Complex<T> {
        /// Real part.
        pub re: T,
        /// Imaginary part.
        pub im: T,
    }

    impl<T> Complex<T> {
        /// Creates a complex number from its parts.
        pub fn new(re: T, im: T) -> Self {
            Complex { re, im }
        }
    }

    impl Complex<f64> {
        /// Squared magnitude `re² + im²`.
        #[inline]
        pub fn norm_sqr(self) -> f64 {
            self.re * self.re + self.im * self.im
        }

        /// Complex conjugate.
        #[inline]
        pub fn conj(self) -> Self {
            Complex::new(self.re, -self.im)
        }
    }

    impl Add for Complex<f64> {
        type Output = Self;
        #[inline]
        fn add(self, o: Self) -> Self {
            Complex::new(self.re + o.re, self.im + o.im)
        }
    }

    impl Sub for Complex<f64> {
        type Output = Self;
        #[inline]
        fn sub(self, o: Self) -> Self {
            Complex::new(self.re - o.re, self.im - o.im)
        }
    }

    impl Mul for Complex<f64> {
        type Output = Self;
        #[inline]
        fn mul(self, o: Self) -> Self {
            Complex::new(
                self.re * o.re - self.im * o.im,
                self.re * o.im + self.im * o.re,
            )
        }
    }
}

use num_complex::Complex;

/// A planned fast Fourier transform over `Complex<f64>` buffers.
pub trait Fft {
    /// Transforms `buf` in place.
    ///
    /// # Panics
    /// Panics when `buf.len()` differs from the planned length.
    fn process(&self, buf: &mut [Complex<f64>]);
}

/// Plans forward and inverse FFTs of arbitrary length.
#[derive(Debug, Default)]
pub struct FftPlanner;

impl FftPlanner {
    /// Creates a planner.
    pub fn new() -> Self {
        FftPlanner
    }

    /// Plans a forward FFT of length `len`.
    pub fn plan_fft_forward(&mut self, len: usize) -> Arc<dyn Fft> {
        Arc::new(Plan {
            len,
            inverse: false,
        })
    }

    /// Plans an (unnormalized) inverse FFT of length `len`.
    pub fn plan_fft_inverse(&mut self, len: usize) -> Arc<dyn Fft> {
        Arc::new(Plan { len, inverse: true })
    }
}

struct Plan {
    len: usize,
    inverse: bool,
}

impl Fft for Plan {
    fn process(&self, buf: &mut [Complex<f64>]) {
        assert_eq!(
            buf.len(),
            self.len,
            "buffer length does not match planned FFT length"
        );
        if self.len <= 1 {
            return;
        }
        if self.inverse {
            // Unnormalized inverse via IDFT(x) = conj(DFT(conj(x))).
            for v in buf.iter_mut() {
                *v = v.conj();
            }
            forward(buf);
            for v in buf.iter_mut() {
                *v = v.conj();
            }
        } else {
            forward(buf);
        }
    }
}

/// Forward DFT of arbitrary length, dispatching radix-2 vs Bluestein.
fn forward(buf: &mut [Complex<f64>]) {
    if buf.len().is_power_of_two() {
        radix2(buf);
    } else {
        bluestein(buf);
    }
}

/// In-place iterative radix-2 Cooley–Tukey forward FFT.
fn radix2(buf: &mut [Complex<f64>]) {
    let n = buf.len();
    debug_assert!(n.is_power_of_two());

    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }

    let mut len = 2;
    while len <= n {
        let ang = -2.0 * PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = buf[i + k];
                let v = buf[i + k + len / 2] * w;
                buf[i + k] = u + v;
                buf[i + k + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Chirp along the quadratic phase `e^{-iπ m²/n}`, with the exponent
/// reduced mod 2n so the angle stays accurate for large `m`.
fn chirp(m: usize, n: usize) -> Complex<f64> {
    let sq = ((m as u128 * m as u128) % (2 * n as u128)) as f64;
    let ang = -PI * sq / n as f64;
    Complex::new(ang.cos(), ang.sin())
}

/// Bluestein's chirp-z transform: forward DFT of arbitrary `n` as one
/// power-of-two circular convolution.
fn bluestein(buf: &mut [Complex<f64>]) {
    let n = buf.len();
    let m = (2 * n - 1).next_power_of_two();

    // a_k = x_k · chirp(k); b is the circularized conjugate chirp.
    let mut a = vec![Complex::new(0.0, 0.0); m];
    let mut b = vec![Complex::new(0.0, 0.0); m];
    for k in 0..n {
        let c = chirp(k, n);
        a[k] = buf[k] * c;
        let bc = c.conj();
        b[k] = bc;
        if k != 0 {
            b[m - k] = bc;
        }
    }

    radix2(&mut a);
    radix2(&mut b);
    for (x, y) in a.iter_mut().zip(&b) {
        *x = *x * *y;
    }
    // Normalized inverse radix-2 FFT of the product.
    for v in a.iter_mut() {
        *v = v.conj();
    }
    radix2(&mut a);
    let inv_m = 1.0 / m as f64;
    for (k, out) in buf.iter_mut().enumerate() {
        let conv = Complex::new(a[k].re * inv_m, -a[k].im * inv_m);
        *out = conv * chirp(k, n);
    }
}

#[cfg(test)]
mod tests {
    use super::num_complex::Complex;
    use super::FftPlanner;
    use std::f64::consts::PI;

    fn dft_naive(data: &[Complex<f64>]) -> Vec<Complex<f64>> {
        let n = data.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::new(0.0, 0.0);
                for (t, &x) in data.iter().enumerate() {
                    let ang = -2.0 * PI * ((k * t) % n) as f64 / n as f64;
                    acc = acc + x * Complex::new(ang.cos(), ang.sin());
                }
                acc
            })
            .collect()
    }

    fn signal(n: usize) -> Vec<Complex<f64>> {
        (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect()
    }

    #[test]
    fn forward_matches_naive_dft_all_sizes() {
        for n in [2usize, 3, 4, 5, 12, 64, 101, 128, 1000] {
            let data = signal(n);
            let mut fast = data.clone();
            FftPlanner::new().plan_fft_forward(n).process(&mut fast);
            let naive = dft_naive(&data);
            for (a, b) in fast.iter().zip(&naive) {
                assert!(
                    (a.re - b.re).abs() < 1e-7 && (a.im - b.im).abs() < 1e-7,
                    "n={n}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn inverse_is_unnormalized_round_trip() {
        for n in [8usize, 100, 101, 256] {
            let data = signal(n);
            let mut buf = data.clone();
            let mut planner = FftPlanner::new();
            planner.plan_fft_forward(n).process(&mut buf);
            planner.plan_fft_inverse(n).process(&mut buf);
            for (a, b) in buf.iter().zip(&data) {
                assert!(
                    (a.re / n as f64 - b.re).abs() < 1e-9
                        && (a.im / n as f64 - b.im).abs() < 1e-9,
                    "n={n}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "planned FFT length")]
    fn wrong_buffer_length_panics() {
        let mut buf = vec![Complex::new(0.0, 0.0); 4];
        FftPlanner::new().plan_fft_forward(8).process(&mut buf);
    }
}
