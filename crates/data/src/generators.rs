//! Building blocks for the dataset simulators: seeded IID samplers and a
//! composite seasonal-series builder with anomaly injection.
//!
//! §4.2 of the paper analyzes ASAP on IID data, Figure 5 contrasts normal
//! and Laplace samples, and every evaluation dataset is (to ASAP's search) a
//! combination of trend + periodic components + noise + localized anomalies.
//! These generators produce exactly those ingredients, deterministically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// Draws one standard-normal sample via the Box–Muller transform.
pub fn normal_sample<R: Rng>(rng: &mut R) -> f64 {
    // Avoid u == 0 so ln is finite.
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let v: f64 = rng.gen_range(0.0..(2.0 * PI));
    (-2.0 * u.ln()).sqrt() * v.cos()
}

/// Draws one Laplace(0, scale) sample via inverse-CDF.
///
/// The Laplace distribution has kurtosis 6 — the paper's heavy-tailed
/// reference (Figure 5); with `scale = 1` its variance is 2.
pub fn laplace_sample<R: Rng>(rng: &mut R, scale: f64) -> f64 {
    let u: f64 = rng.gen_range(-0.5..0.5);
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// `n` IID standard-normal samples with the given seed (Figure 5, left;
/// variance 2 when `sd = √2`).
pub fn iid_normal(n: usize, mean: f64, sd: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| mean + sd * normal_sample(&mut rng)).collect()
}

/// `n` IID Laplace samples (Figure 5, right; variance `2·scale²`).
pub fn iid_laplace(n: usize, mean: f64, scale: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| mean + laplace_sample(&mut rng, scale)).collect()
}

/// One periodic component of a composite series.
#[derive(Debug, Clone, Copy)]
pub struct Component {
    /// Period in points.
    pub period: f64,
    /// Amplitude.
    pub amplitude: f64,
    /// Phase offset in radians.
    pub phase: f64,
}

impl Component {
    /// A component with zero phase.
    pub fn new(period: f64, amplitude: f64) -> Self {
        Component {
            period,
            amplitude,
            phase: 0.0,
        }
    }
}

/// Localized structural anomalies, matching the kinds present in the paper's
/// evaluation datasets.
#[derive(Debug, Clone, Copy)]
pub enum Anomaly {
    /// Additive level shift over `[start, end)` — e.g. the Thanksgiving taxi
    /// dip or the Ascension-day power dip.
    LevelShift {
        /// First affected index.
        start: usize,
        /// One past the last affected index.
        end: usize,
        /// Additive offset applied over the region.
        delta: f64,
    },
    /// A short multiplicative burst of spikes over `[start, end)` — e.g.
    /// Twitter mention storms.
    Spike {
        /// First affected index.
        start: usize,
        /// One past the last affected index.
        end: usize,
        /// Additive spike magnitude.
        magnitude: f64,
    },
    /// Halves the period of all components over `[start, end)` — the Sine
    /// dataset's anomaly ("half the usual period").
    PeriodHalving {
        /// First affected index.
        start: usize,
        /// One past the last affected index.
        end: usize,
    },
    /// Linear ramp adding 0 at `start` up to `delta` at `end` and holding
    /// thereafter — e.g. the 20th-century warming trend.
    TrendRamp {
        /// First affected index.
        start: usize,
        /// Index at which the full `delta` is reached.
        end: usize,
        /// Total level change across the ramp.
        delta: f64,
    },
    /// Amplifies the seasonal amplitude by `factor` over `[start, end)` —
    /// e.g. a taller-than-usual peak.
    AmplitudeChange {
        /// First affected index.
        start: usize,
        /// One past the last affected index.
        end: usize,
        /// Multiplicative amplitude factor over the region.
        factor: f64,
    },
}

/// Declarative builder for composite seasonal series.
#[derive(Debug, Clone)]
pub struct SeasonalSeries {
    /// Number of points.
    pub n: usize,
    /// Constant offset.
    pub base: f64,
    /// Linear trend per point.
    pub trend_per_point: f64,
    /// Periodic components (summed).
    pub components: Vec<Component>,
    /// Standard deviation of additive Gaussian noise.
    pub noise_sd: f64,
    /// Injected anomalies, applied in order.
    pub anomalies: Vec<Anomaly>,
    /// RNG seed.
    pub seed: u64,
}

impl SeasonalSeries {
    /// Creates a builder with no components, noise, or anomalies.
    pub fn new(n: usize, seed: u64) -> Self {
        SeasonalSeries {
            n,
            base: 0.0,
            trend_per_point: 0.0,
            components: Vec::new(),
            noise_sd: 0.0,
            anomalies: Vec::new(),
            seed,
        }
    }

    /// Sets the constant offset.
    pub fn base(mut self, base: f64) -> Self {
        self.base = base;
        self
    }

    /// Sets the per-point linear trend.
    pub fn trend(mut self, per_point: f64) -> Self {
        self.trend_per_point = per_point;
        self
    }

    /// Adds a periodic component.
    pub fn component(mut self, period: f64, amplitude: f64) -> Self {
        self.components.push(Component::new(period, amplitude));
        self
    }

    /// Adds a phase-shifted periodic component.
    pub fn component_with_phase(mut self, period: f64, amplitude: f64, phase: f64) -> Self {
        self.components.push(Component {
            period,
            amplitude,
            phase,
        });
        self
    }

    /// Sets the additive Gaussian noise level.
    pub fn noise(mut self, sd: f64) -> Self {
        self.noise_sd = sd;
        self
    }

    /// Injects an anomaly.
    pub fn anomaly(mut self, a: Anomaly) -> Self {
        self.anomalies.push(a);
        self
    }

    /// Materializes the series.
    pub fn build(&self) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(self.n);
        for t in 0..self.n {
            let mut period_scale = 1.0f64;
            let mut amp_scale = 1.0f64;
            for a in &self.anomalies {
                match *a {
                    Anomaly::PeriodHalving { start, end } if t >= start && t < end => {
                        period_scale *= 0.5;
                    }
                    Anomaly::AmplitudeChange { start, end, factor } if t >= start && t < end => {
                        amp_scale *= factor;
                    }
                    _ => {}
                }
            }
            let tf = t as f64;
            let mut v = self.base + self.trend_per_point * tf;
            for c in &self.components {
                v += amp_scale * c.amplitude * (2.0 * PI * tf / (c.period * period_scale) + c.phase).sin();
            }
            if self.noise_sd > 0.0 {
                v += self.noise_sd * normal_sample(&mut rng);
            }
            for a in &self.anomalies {
                match *a {
                    Anomaly::LevelShift { start, end, delta } if t >= start && t < end => {
                        v += delta;
                    }
                    Anomaly::Spike { start, end, magnitude } if t >= start && t < end
                        // Deterministic pseudo-random spikes within the burst.
                        && (t * 2654435761) % 7 == 0 => {
                            v += magnitude;
                        }
                    Anomaly::TrendRamp { start, end, delta } => {
                        if t >= end {
                            v += delta;
                        } else if t >= start {
                            v += delta * (t - start) as f64 / (end - start) as f64;
                        }
                    }
                    _ => {}
                }
            }
            out.push(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_timeseries::{kurtosis, moments};

    #[test]
    fn iid_normal_has_expected_moments() {
        let data = iid_normal(200_000, 0.0, 2.0f64.sqrt(), 42);
        let m = moments(&data).unwrap();
        assert!(m.mean().abs() < 0.02, "mean {}", m.mean());
        assert!((m.variance() - 2.0).abs() < 0.05, "var {}", m.variance());
        // Figure 5: normal kurtosis = 3.
        assert!((m.kurtosis() - 3.0).abs() < 0.1, "kurt {}", m.kurtosis());
    }

    #[test]
    fn iid_laplace_has_kurtosis_six() {
        let data = iid_laplace(300_000, 0.0, 1.0, 7);
        let m = moments(&data).unwrap();
        assert!((m.variance() - 2.0).abs() < 0.05, "var {}", m.variance());
        // Figure 5: Laplace kurtosis = 6 (heavier tails, same variance).
        assert!((m.kurtosis() - 6.0).abs() < 0.25, "kurt {}", m.kurtosis());
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(iid_normal(100, 0.0, 1.0, 5), iid_normal(100, 0.0, 1.0, 5));
        assert_ne!(iid_normal(100, 0.0, 1.0, 5), iid_normal(100, 0.0, 1.0, 6));
    }

    #[test]
    fn seasonal_series_is_periodic() {
        let s = SeasonalSeries::new(1000, 1).component(50.0, 1.0).build();
        // Noise-free: exact periodicity.
        for t in 0..900 {
            assert!((s[t] - s[t + 50]).abs() < 1e-9);
        }
    }

    #[test]
    fn level_shift_moves_the_region_mean() {
        let s = SeasonalSeries::new(300, 1)
            .base(10.0)
            .anomaly(Anomaly::LevelShift {
                start: 100,
                end: 150,
                delta: -5.0,
            })
            .build();
        assert_eq!(s[99], 10.0);
        assert_eq!(s[100], 5.0);
        assert_eq!(s[149], 5.0);
        assert_eq!(s[150], 10.0);
    }

    #[test]
    fn period_halving_halves_the_local_period() {
        let s = SeasonalSeries::new(640, 1)
            .component(32.0, 1.0)
            .anomaly(Anomaly::PeriodHalving {
                start: 320,
                end: 384,
            })
            .build();
        // Inside the anomalous region the signal repeats every 16 points.
        for t in 330..360 {
            assert!((s[t] - s[t + 16]).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn trend_ramp_holds_after_end() {
        let s = SeasonalSeries::new(100, 1)
            .anomaly(Anomaly::TrendRamp {
                start: 20,
                end: 40,
                delta: 10.0,
            })
            .build();
        assert_eq!(s[19], 0.0);
        assert!((s[30] - 5.0).abs() < 1e-9);
        assert_eq!(s[40], 10.0);
        assert_eq!(s[99], 10.0);
    }

    #[test]
    fn spikes_raise_kurtosis() {
        let plain = SeasonalSeries::new(5000, 3).noise(1.0).build();
        let spiky = SeasonalSeries::new(5000, 3)
            .noise(1.0)
            .anomaly(Anomaly::Spike {
                start: 2000,
                end: 2100,
                magnitude: 30.0,
            })
            .build();
        let k_plain = kurtosis(&plain).unwrap();
        let k_spiky = kurtosis(&spiky).unwrap();
        assert!(k_spiky > 2.0 * k_plain, "{k_plain} -> {k_spiky}");
    }

    #[test]
    fn amplitude_change_scales_components() {
        let s = SeasonalSeries::new(200, 1)
            .component(20.0, 1.0)
            .anomaly(Anomaly::AmplitudeChange {
                start: 100,
                end: 140,
                factor: 3.0,
            })
            .build();
        let max_before: f64 = s[..100].iter().cloned().fold(f64::MIN, f64::max);
        let max_during: f64 = s[100..140].iter().cloned().fold(f64::MIN, f64::max);
        assert!(max_during > 2.5 * max_before);
    }
}
